"""Trace serialization: per-iteration records to CSV or JSON and back.

Every float is written in a form that parses back to the same double:
17 significant digits in the CSV rows, and Python's shortest round-trip
repr in the JSON export and the CSV metadata lines.  A parse of the
exported text reproduces every numeric field bit-exactly.
"""

from __future__ import annotations

import io
import json

from .core import schedule_constants
from .driver import IterationRecord, SolveResult, SolverConfig
from .errors import ParseError

_ROW_FIELDS = (
    "k",
    "alpha",
    "gap",
    "t",
    "x_norm_e",
    "primal_obj",
    "dual_obj",
    "qtilde_a",
    "qtilde_b",
    "qtilde_c",
    "wallclock",
)


def _g17(x: float) -> str:
    return f"{x:.17g}"


def _row_values(rec: IterationRecord) -> list:
    return [
        rec.k,
        rec.alpha,
        rec.gap,
        rec.t,
        rec.x_norm_e,
        rec.primal_obj,
        rec.dual_obj,
        rec.qtilde[0],
        rec.qtilde[1],
        rec.qtilde[2],
        rec.wallclock,
    ]


def trace_header(
    instance_id: str,
    backend: str,
    config: SolverConfig,
    n: int,
    m: int,
) -> dict:
    consts = schedule_constants(config.alpha, n)
    return {
        "instance_id": instance_id,
        "backend": backend,
        "alpha": config.alpha,
        "kappa": consts.kappa,
        "beta": consts.beta,
        "n": n,
        "m": m,
        "config": {
            "alpha": config.alpha,
            "gap_tol": config.gap_tol,
            "max_iters": config.max_iters,
            "step_mode": config.step_mode.value,
        },
    }


def trace_footer(result: SolveResult) -> dict:
    final_gap = result.trace[-1].gap if result.trace else float("nan")
    return {
        "status": result.status.value,
        "iterations": result.iterations,
        "final_gap": final_gap,
        "violations": dict(result.violations),
    }


def export_trace(result: SolveResult, header: dict, fmt: str = "csv") -> str:
    """Render a run as text; fmt is "csv" or "json"."""
    if fmt == "json":
        payload = {
            "header": header,
            "rows": [
                dict(zip(_ROW_FIELDS, _row_values(rec))) for rec in result.trace
            ],
            "footer": trace_footer(result),
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown trace format {fmt!r}")

    buf = io.StringIO()
    for key, value in header.items():
        buf.write(f"# {key}={json.dumps(value)}\n")
    buf.write(",".join(_ROW_FIELDS) + "\n")
    for rec in result.trace:
        cells = [
            str(v) if isinstance(v, int) else _g17(v) for v in _row_values(rec)
        ]
        buf.write(",".join(cells) + "\n")
    for key, value in trace_footer(result).items():
        buf.write(f"# {key}={json.dumps(value)}\n")
    return buf.getvalue()


def parse_trace(text: str) -> dict:
    """Recover {header, rows, footer} from either export format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad trace JSON: {exc}")

    header: dict = {}
    footer: dict = {}
    rows: list[dict] = []
    columns: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, _, rhs = body.partition("=")
            try:
                value = json.loads(rhs)
            except json.JSONDecodeError:
                raise ParseError("bad metadata line in trace", line=lineno)
            (footer if columns is not None else header)[key.strip()] = value
            continue
        cells = line.split(",")
        if columns is None:
            columns = cells
            continue
        if len(cells) != len(columns):
            raise ParseError("trace row width mismatch", line=lineno)
        row = {}
        for name, cell in zip(columns, cells):
            row[name] = int(cell) if name == "k" else float(cell)
        rows.append(row)
    if columns is None:
        raise ParseError("trace has no column header")
    return {"header": header, "rows": rows, "footer": footer}
