"""Per-layer tracing from outside the library.

Nothing under ``src/`` is edited.  A traced solve gets an oracle rebuilt
with wrapped callables, and, for its duration only, the module names that
``swathscale.driver`` and ``swathscale.sdp`` look up at call time are
rebound to wrappers.  Each wrapped call records one span (name, start,
end, parent span, solve id) into in-memory arrays that are written out
when the run ends.  ``numpy.linalg``/``scipy.linalg`` factorizations are
counted, not spanned, so that their time stays in the caller's self time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import time
from array import array
from collections import Counter
from typing import Callable

import numpy.linalg
import scipy.linalg

import swathscale.driver
import swathscale.sdp

# (module, attribute, span name): rebound while a traced solve runs.
REBOUND = (
    (swathscale.driver, "solve_qcp", "subproblem.solve_qcp"),
    (swathscale.driver, "dual_cone_member", "core.dual_cone_member"),
    (swathscale.driver, "local_norm", "core.local_norm"),
    (swathscale.sdp, "svec", "sdp.svec"),
    (swathscale.sdp, "smat", "sdp.smat"),
)
COUNTED_FNS = ("eigh", "eigvalsh", "cholesky", "qr")
COUNTED_NAMES = tuple(f"linalg.{fn}" for fn in COUNTED_FNS)
COUNTED = tuple(
    (module, fn, f"linalg.{fn}")
    for module in (numpy.linalg, scipy.linalg)
    for fn in COUNTED_FNS
)
ORACLE_CALLABLES = ("value", "hessian_apply", "hessian_solve", "direction_eigs")
FRAME_CLOSURES = ("apply_L", "solve_Lt", "solve_L")
# Every span name a traced solve can record.
SOLVE_SPANS = (
    *(name for _, _, name in REBOUND),
    "driver.run",
    *(f"oracle.{n}" for n in (*ORACLE_CALLABLES, "hessian_factor")),
    *(f"frame.{n}" for n in FRAME_CLOSURES),
)


class Tracer:
    """Span recorder; ``solve_id`` tags spans with the job they belong to
    (-1 for set-up)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()  # (name, solve id) -> calls
        self.solve_id = -1
        self._stack: list[int] = []
        self._t0 = time.perf_counter()
        self._rebound = [(m, a, self.wrap(n, getattr(m, a))) for m, a, n in REBOUND]
        self._rebound += [(m, a, self.count(n, getattr(m, a))) for m, a, n in COUNTED]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.solve.append(self.solve_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            self.counts[name, self.solve_id] += 1
            return fn(*args, **kwargs)

        return counted

    def oracle(self, oracle):
        """The oracle with its solver-facing callables and frame closures wrapped."""
        factor = oracle.hessian_factor

        def hessian_factor(e):
            return tuple(
                self.wrap(f"frame.{name}", closure)
                for name, closure in zip(FRAME_CLOSURES, factor(e))
            )

        replaced = {
            name: self.wrap(f"oracle.{name}", getattr(oracle, name))
            for name in ORACLE_CALLABLES
        }
        replaced["hessian_factor"] = self.wrap("oracle.hessian_factor", hessian_factor)
        return dataclasses.replace(oracle, **replaced)

    @contextlib.contextmanager
    def solving(self, solve_id: int):
        """Rebind the library's call-time names for one traced solve."""
        saved = [(m, a, getattr(m, a)) for m, a, _ in self._rebound]
        self.solve_id = solve_id
        try:
            for module, attr, wrapper in self._rebound:
                setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
            self.solve_id = -1

    def spans(self, solves: range) -> list[int]:
        """Indices of the spans recorded under the given solve ids."""
        return [i for i, s in enumerate(self.solve) if s in solves]

    def write(self, path) -> None:
        with gzip.open(path, "wt") as out:
            out.write("span,name,start_s,end_s,parent,solve\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i] - self._t0:.9f},"
                    f"{self.end[i] - self._t0:.9f},{self.parent[i]},{self.solve[i]}\n"
                )
