"""Machine-speed calibration for the timed metrics.

On a shared host the same solve can take twice as long from one second
to the next while the process's own CPU time reads the same as its wall
time, so slowdowns cannot be told apart from the solver's own cost.  A
fixed kernel of small dense linear algebra and interpreter work, owned by
the benchmark and independent of ``src/``, runs between batches of jobs;
each job's wall time is scaled by ``REFERENCE_S`` over the mean kernel
time measured just before and just after its batch, raised to
``ELASTICITY``.  The reported times are therefore seconds at the speed
where the kernel takes ``REFERENCE_S``; the raw wall times are kept next
to them.

The exponent is there because a loaded host stretches the kernel more
than it stretches a solve: over 48 back-to-back solves of one n=40 SDP
instance on a shared 2-core x86-64 host, the log of the solve time rose
0.58 per unit of the log of the kernel time around it (correlation
0.77).  Over 26 stored runs of sdp-n40 and lorentz-d200 on that host,
the spread of the per-run median solve time was 0.22-0.37 unscaled,
0.08-0.10 with exponent 1 and 0.04-0.05 with 0.75.  The esym-d30k4
workload, which is not in BENCHMARK.json, goes the other way: 0.04 with
exponent 1 and 0.13 with 0.75.

Only single-BLAS-thread workloads are scaled.  Next to threaded BLAS the
kernel competes with OpenBLAS's spinning workers, its times no longer
track the host, and scaling would also cancel the threading cost that
such a workload exists to show.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

REFERENCE_S = 0.040  # about the kernel's time on a quiet 2-core host
ELASTICITY = 0.75
_ORDER = 40
_ROUNDS = 120
_rng = np.random.default_rng(20141024)
_B = _rng.standard_normal((_ORDER, _ORDER))
_M = _B @ _B.T + _ORDER * np.eye(_ORDER)
_V = _rng.standard_normal(_ORDER)
_IU = np.triu_indices(_ORDER)
_W = _rng.standard_normal(200)


def kernel_s() -> float:
    """Wall time of one pass of the fixed kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(_ROUNDS):
        L = np.linalg.cholesky(_M)
        w, V = np.linalg.eigh(_M)
        acc += float(((V * w) @ V.T)[_IU].sum())
        acc += float(scipy.linalg.solve_triangular(L, _V, lower=True).sum())
        u = _W
        for _ in range(10):
            u = u - (float(np.dot(_W, u)) / 400.0) * _W
            acc += float(np.linalg.norm(u))
        for k in range(100):
            acc += float(_V[k % _ORDER]) * 0.5
    return time.perf_counter() - t0


class Clock:
    """Gives each job a factor from wall time to reference-speed time.

    Jobs are grouped into batches of at least ``BATCH_S`` wall seconds and
    the kernel runs between batches; every job of a batch gets
    ``REFERENCE_S`` over the mean kernel time just before and after it,
    raised to ``ELASTICITY``.
    Disabled, every factor stays 1 and the kernel never runs.
    """

    WARMUP = 3  # the first passes in a fresh process run slow
    BATCH_S = 0.5

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.kernel_s: list[float] = []
        self._pending: list = []
        if enabled:
            for _ in range(self.WARMUP):
                kernel_s()
            self.kernel_s.append(kernel_s())

    def add(self, job) -> None:
        """Queue a finished job (anything with ``busy_s`` and ``scale``)."""
        self._pending.append(job)
        if sum(j.busy_s for j in self._pending) >= self.BATCH_S:
            self.flush()

    def flush(self) -> None:
        if self.enabled and self._pending:
            self.kernel_s.append(kernel_s())
            kernel = 0.5 * (self.kernel_s[-2] + self.kernel_s[-1])
            scale = (REFERENCE_S / kernel) ** ELASTICITY
            for job in self._pending:
                job.scale = scale
        self._pending = []
