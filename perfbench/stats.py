"""Arithmetic behind the reported numbers: tails, self time, per-iteration rates.

Pure functions on plain Python data, so the tests can feed them
synthetic samples and spans.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Sequence

TAIL_BEYOND = 10


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest nearest-rank
    percentile that leaves at least ``beyond`` samples above it.

    With ``beyond`` samples or fewer no percentile qualifies; the maximum
    is returned as percentile 100, and the count tells the reader so.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= beyond:
        return xs[-1], 100.0, n
    rank = n - beyond  # 1-based; ranks rank+1..n lie beyond it
    return xs[rank - 1], 100.0 * rank / n, n


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def self_times(spans: Sequence[tuple[float, float, int]]) -> list[float]:
    """Self time of each ``(start, end, parent)`` span.

    A span's self time is its duration minus the part of its interval
    that its direct children cover; overlapping children count once.
    ``parent`` is the index of the parent span, or -1 for a root.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (start, end, _) in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(end - start - covered)
    return out


def per_layer(
    names: Sequence[str], selfs: Sequence[float], iterations: int
) -> dict[str, tuple[float, float]]:
    """``{name: (calls_per_iter, self_ms_per_iter)}`` over all given spans.

    ``iterations`` is the total over the solves the spans belong to, so a
    long solve weighs in proportion to its iterations.
    """
    if iterations <= 0:
        raise ValueError("per-iteration rates need at least one iteration")
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    for name, s in zip(names, selfs):
        calls[name] += 1
        busy[name] += s
    return {
        name: (calls[name] / iterations, 1e3 * busy[name] / iterations)
        for name in calls
    }
