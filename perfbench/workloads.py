"""The benchmark's workloads and how their instances are built.

Every workload solves a small pool of generated instances in a closed
loop with one client.  Instance ``i`` of benchmark seed ``s`` comes from
generator seed ``pool * s + i``, so any instance can be rebuilt by hand
with ``swathscale generate``.  The solver sees only the arrays parsed
back from the written instance text, as ``swathscale solve`` does.

This module must stay importable without numpy: ``run.py`` reads the
BLAS thread count from it before numpy is loaded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sdp" or "hp"
    params: dict
    blas_threads: int
    # Instances per seed.  An n=40 SDP takes 80-89 iterations depending on
    # the instance, so its pool of 4 keeps the per-run mean steady across
    # seeds; a Lorentz instance always takes 25.
    pool: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sdp-n40", "sdp", {"n": 40, "m": 80}, 1, 4,
            "SDP n=40 m=80, 1 BLAS thread: svec/smat, the per-row frame "
            "transform and ~10 factorizations per iteration dominate",
        ),
        Workload(
            "sdp-n40-blas2", "sdp", {"n": 40, "m": 80}, 2, 4,
            "sdp-n40 instances with 2 BLAS threads: threaded BLAS on many "
            "small matrices runs several times slower than one thread",
        ),
        Workload(
            "lorentz-d200", "hp", {"family": "second_order", "d": 200, "m": 100}, 1, 8,
            "Lorentz d=200 m=100: closed-form frame, no svec; the per-row "
            "frame transform and the QR in solve_qcp dominate",
        ),
        # Runs by hand and under ``--workload all`` but is not in
        # BENCHMARK.json, whose workloads must be ones on which no solve
        # fails: on about one instance in 60 the dual vector that
        # ``solve_qcp`` recovers at the last iterate gives b.y > c.e (by
        # 1.9e-7 at generator seed 662040669, six times the final gap), so
        # about one run in 16 fails.
        Workload(
            "esym-d30k4", "hp",
            {"family": "elementary_symmetric", "d": 30, "k": 4, "m": 15}, 1, 4,
            "elementary symmetric d=30 k=4 m=15: the dense Hessian oracle "
            "dominates; the subproblem linear algebra is tiny",
        ),
    )
}

# Instances that expose known solver defects.  Every run solves them and
# reports the outcome; they are not in a run's "correct", so that a fix
# shows as PASS instead of failing the run.
#   product d=100: np.prod underflows and math.log gets 0 (ValueError).
#   esym d=30 k=4 m=15: the final dual vector violates weak duality.
PRODUCT_D100 = {"family": "product", "d": 100, "m": 50}
PRODUCT_D100_SEED = 0
KNOWN_DEFECTS = {
    "product-d100-seed0": (PRODUCT_D100, PRODUCT_D100_SEED),
    "esym-d30k4-seed662040669": (dict(WORKLOADS["esym-d30k4"].params), 662040669),
}


class Problem(NamedTuple):
    """Solver-ready arrays of one parsed instance plus its trace header."""

    ident: str
    oracle: object
    A: object
    b: object
    c: object
    e0: object
    header: dict


# Set-up calls go through ``wrap(name, fn)``, which returns ``fn`` itself
# or a stand-in that records a span.
def _plain(name: str, fn: Callable) -> Callable:
    return fn


def sdp_problem(n: int, m: int, seed: int, wrap: Callable = _plain) -> Problem:
    import swathscale as sw

    inst, E0 = wrap("generate.gen", sw.gen_central_path_sdp)(n, m, seed=seed)
    text = wrap("sdpa.write", sw.write_sdpa)(inst)
    start = wrap("hpjson.write", sw.write_start_point)(E0)
    parsed = wrap("sdpa.parse", sw.parse_sdpa)(text)
    E0 = wrap("hpjson.read", sw.read_start_point)(start)
    ident = f"sdp-n{n}-m{m}-seed{seed}"
    header = sw.trace_header(ident, "sdp", sw.SolverConfig(), parsed.n, parsed.m)
    return Problem(
        ident, sw.det_barrier_oracle(parsed.n), parsed.constraint_rows(),
        parsed.b, sw.svec(parsed.C), sw.svec(E0), header,
    )


def hp_problem(
    family: str, d: int, m: int, seed: int, k: int | None = None,
    wrap: Callable = _plain,
) -> Problem:
    import swathscale as sw
    from swathscale.hpjson import family_from_tag

    fam = family_from_tag(family, d, k)
    inst, _ = wrap("generate.gen", sw.gen_hp_instance)(fam, m, seed=seed)
    text = wrap("hpjson.write", sw.write_hp_json)(inst)
    parsed = wrap("hpjson.read", sw.read_hp_json)(text)
    ident = f"{family}-d{d}-m{m}-seed{seed}"
    header = sw.trace_header(ident, family, sw.SolverConfig(), fam.degree, m)
    return Problem(
        ident, sw.hp_barrier_oracle(parsed.family), parsed.A, parsed.b,
        parsed.c, parsed.e0, header,
    )


def build(workload: Workload, seed: int, wrap: Callable | None = None) -> tuple[list[Problem], float]:
    """The workload's instance pool for a seed, and the wall time it took."""
    wrap = wrap or _plain
    t0 = time.perf_counter()
    problems = []
    for i in range(workload.pool):
        gen_seed = workload.pool * seed + i
        if workload.kind == "sdp":
            problems.append(sdp_problem(seed=gen_seed, wrap=wrap, **workload.params))
        else:
            problems.append(hp_problem(seed=gen_seed, wrap=wrap, **workload.params))
    return problems, time.perf_counter() - t0
