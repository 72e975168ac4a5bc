"""Summarise result files into per-workload medians, quartiles and spreads.

    python3 perfbench/summarize.py                 # print the table
    python3 perfbench/summarize.py --write         # also rewrite baseline.json

Reads every ``perfbench/out/<workload>_seed<n>_trace<t>.json``.  The
spread of a metric is the distance between its first and third quartile
over the runs, as a share of its median; ``BENCHMARK.json`` bounds how far
a later median may worsen.  ``baseline.json`` records the workloads, the
metric definitions, the seeds and these numbers for later changes to be
measured against.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
from collections import defaultdict

from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
# Printed and stored by every run but without a bound in BENCHMARK.json.
UNBOUNDED = [
    {"name": "violations", "unit": "count", "better": "lower",
     "note": "sum of the four guarantee counters per solve; 0 on most workloads"},
    {"name": "failed_frac", "unit": "fraction", "better": "lower",
     "note": "failed jobs over attempted jobs; 0 at this baseline"},
    {"name": "<metric>.wall", "unit": "as <metric>", "better": "as <metric>",
     "note": "raw wall-time twin of a reference-speed metric"},
    {"name": "machine_speed", "unit": "fraction", "better": "higher",
     "note": "median wall-to-reference factor of the jobs; describes the host"},
]


def summarize(trace: int) -> dict:
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(OUT.glob(f"*_trace{trace}.json")):
        doc = json.loads(path.read_text())
        runs[doc["workload"]["name"]].append(doc)
    table = {}
    for name, docs in runs.items():
        values: dict[str, list[float]] = defaultdict(list)
        for doc in docs:
            for metric, entry in doc["metrics"].items():
                values[metric].append(entry["value"])
        rows = {}
        for metric, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            rows[metric] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "unit": docs[0]["metrics"][metric]["unit"],
            }
        table[name] = {
            "seeds": sorted(doc["env"]["seed"] for doc in docs),
            "all_correct": all(all(doc["checks"].values()) for doc in docs),
            "env": docs[-1]["env"],
            "metrics": rows,
        }
    return table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite baseline.json")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tables = {"end_to_end": summarize(0), "per_layer": summarize(1)}
    for kind, table in tables.items():
        listed = {m["name"] for m in spec[kind]}
        for name, row in table.items():
            print(f"{name} ({kind}, seeds {row['seeds']}, all correct: {row['all_correct']})")
            for metric, r in row["metrics"].items():
                mark = "" if metric in listed else "  (not in BENCHMARK.json)"
                print(f"  {metric:<40} {r['median']:>12.6g} {r['unit']:<8} "
                      f"spread {r['spread']:.3f}{mark}")
    if args.write:
        doc = {
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "run_seconds": spec["run_seconds"],
            "workloads": {
                w.name: {"params": w.params, "blas_threads": w.blas_threads,
                         "pool": w.pool, "why": w.why}
                for w in WORKLOADS.values()
            },
            "metrics": {**{kind: spec[kind] for kind in tables}, "unbounded": UNBOUNDED},
            "baseline": tables,
        }
        BASELINE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
