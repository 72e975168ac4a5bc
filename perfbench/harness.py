"""Jobs, correctness checks and the closed loops of one benchmark run.

A job is ``run()`` under ``SolverConfig()`` defaults followed by
``export_trace(..., "json")``.  Jobs run one after another from a single
client until the time is up.  An exception out of ``run()`` is counted as
a failed job with its type; it never ends the run.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import platform
import resource
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

import swathscale as sw

import blas
import calibrate
import stats
import workloads
from tracer import COUNTED_NAMES, SOLVE_SPANS, Tracer

CONFIG = sw.SolverConfig()
HAND_SOLVED_OBJECTIVE = 2.0
HAND_SOLVED_TOL = 1e-7
# Set-up repeats until both are reached; setup_s is the median repeat.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0


@dataclass
class Job:
    problem: str
    solve_s: float = 0.0
    export_ms: float = 0.0
    iterations: int = 0
    violations: int = 0
    final_gap: float = float("nan")
    error: str | None = None  # exception type, or the failed check
    scale: float = 1.0  # wall time to reference-speed time, see calibrate.py

    @property
    def busy_s(self) -> float:
        return self.solve_s + self.export_ms / 1e3

    @property
    def failed(self) -> bool:
        return self.error is not None

    def signature(self) -> tuple:
        """What a traced or repeated solve of the same instance must reproduce."""
        return (self.iterations, self.violations, repr(self.final_gap), self.error)


def check(problem: workloads.Problem, res: sw.SolveResult) -> str | None:
    """The first correctness check the result fails, or None."""
    if res.status is not sw.RunStatus.CONVERGED:
        return f"status {res.status.value}"
    gaps = res.gaps
    if not gaps[-1] / gaps[0] <= CONFIG.gap_tol:
        return "gap ratio above gap_tol"
    residual = np.linalg.norm(problem.A @ res.final_e - problem.b)
    if not residual <= 1e-8 * np.linalg.norm(problem.b):
        return "A e != b"
    if not np.dot(problem.b, res.final_y) <= np.dot(problem.c, res.final_e):
        return "b.y > c.e"
    return None


def job(problem: workloads.Problem, run=sw.run, export=sw.export_trace) -> Job:
    out = Job(problem.ident)
    t0 = t1 = time.perf_counter()
    try:
        res = run(problem.oracle, problem.A, problem.b, problem.c, problem.e0, CONFIG)
        t1 = time.perf_counter()
        export(res, problem.header, "json")
    except Exception as exc:  # the loop must survive any solver defect
        out.solve_s = time.perf_counter() - t0
        out.error = type(exc).__name__
        return out
    out.solve_s = t1 - t0
    out.export_ms = 1e3 * (time.perf_counter() - t1)
    out.iterations = res.iterations
    out.violations = sum(res.violations.values())
    out.final_gap = float(res.gaps[-1]) if res.trace else float("nan")
    out.error = check(problem, res)
    return out


def hand_solved() -> dict:
    """Solve min tr(diag(1,2) X) s.t. tr X = 2 from X = I; objective 2 is optimal."""
    C = np.diag([1.0, 2.0])
    inst = sw.SdpInstance(C=C, constraints=[np.eye(2)], b=np.array([2.0]))
    problem = workloads.Problem(
        "hand-2x2", sw.det_barrier_oracle(2), inst.constraint_rows(), inst.b,
        sw.svec(C), sw.svec(np.eye(2)), sw.trace_header("hand-2x2", "sdp", CONFIG, 2, 1),
    )
    try:
        res = sw.run(problem.oracle, problem.A, problem.b, problem.c, problem.e0, CONFIG)
    except Exception as exc:  # reported like any failed solve
        return {"status": type(exc).__name__, "iterations": 0,
                "objective": float("nan"), "passed": False}
    objective = float(np.dot(problem.c, res.final_e))
    return {
        "status": res.status.value,
        "iterations": res.iterations,
        "objective": objective,
        "passed": check(problem, res) is None
        and abs(objective - HAND_SOLVED_OBJECTIVE) <= HAND_SOLVED_TOL,
    }


def crash_is_counted() -> bool:
    """A solve that raises comes back as a failed job with the exception's type.

    The exception is injected, so the check holds whether or not the
    solver still has a defect that raises.
    """
    def raising(*args):
        raise ArithmeticError("injected")

    problem = workloads.hp_problem(seed=workloads.PRODUCT_D100_SEED, **workloads.PRODUCT_D100)
    return job(problem, run=raising).error == "ArithmeticError"


def known_defects() -> dict:
    """Solve each instance of ``workloads.KNOWN_DEFECTS`` as a job and
    report how it ended: ``error`` None means every check passed."""
    report = {}
    for name, (params, seed) in workloads.KNOWN_DEFECTS.items():
        done = job(workloads.hp_problem(seed=seed, **params))
        report[name] = {"error": done.error, "iterations": done.iterations}
    return report


@dataclass
class Interval:
    """A measured stretch of wall time and its reference-speed factor."""

    busy_s: float
    scale: float = 1.0


def set_up(
    workload: workloads.Workload, seed: int, wrap=None
) -> tuple[list[workloads.Problem], list[Interval]]:
    """Build the instance pool repeatedly, timing each build, then warm up.

    Set-up runs on one BLAS thread in every workload, so that it is scaled
    to reference speed like the single-thread solves; a workload's own
    thread count is restored before its warm-up and solves.
    """
    saved = blas.threads()
    blas.set_threads(1)
    try:
        clock = calibrate.Clock(enabled=True)
        setups: list[Interval] = []
        while len(setups) < SETUP_REPEATS or sum(t.busy_s for t in setups) < SETUP_MIN_S:
            problems, seconds = workloads.build(workload, seed, wrap)
            setups.append(Interval(seconds))
            clock.add(setups[-1])
        clock.flush()
    finally:
        blas.set_threads(saved)
    for p in problems:  # lazy imports and BLAS thread start-up
        sw.solve_qcp(p.oracle, p.A, p.b, p.c, p.e0, CONFIG.alpha)
    return problems, setups


@dataclass
class Loop:
    jobs: list[Job] = field(default_factory=list)
    mismatches: int = 0  # repeated or traced solves that differ from the first


def timed_loop(
    problems: list[workloads.Problem], seconds: float, deterministic: bool, clock: calibrate.Clock
) -> Loop:
    """Untraced closed loop over the pool until ``seconds`` have passed."""
    loop = Loop()
    first: dict[str, tuple] = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        problem = problems[len(loop.jobs) % len(problems)]
        done = job(problem)
        clock.add(done)
        loop.jobs.append(done)
        if deterministic and first.setdefault(problem.ident, done.signature()) != done.signature():
            loop.mismatches += 1
    clock.flush()
    return loop


def traced_loop(
    problems: list[workloads.Problem], seconds: float, tracer: Tracer, clock: calibrate.Clock
) -> tuple[Loop, Loop]:
    """Alternate an untraced and a traced job on each instance until time is
    up and every instance has been traced once.

    Returns (untraced, traced); the traced loop counts solves whose
    iterations, violations or final gap differ from the untraced one.
    """
    plain, traced = Loop(), Loop()
    oracles = [tracer.oracle(p.oracle) for p in problems]
    run = tracer.wrap("driver.run", sw.run)
    export = tracer.wrap("tracefile.export", sw.export_trace)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced.jobs) < len(problems):
        i = len(plain.jobs) % len(problems)
        reference = job(problems[i])
        clock.add(reference)
        plain.jobs.append(reference)
        with tracer.solving(len(traced.jobs)):
            done = job(problems[i]._replace(oracle=oracles[i]), run=run, export=export)
        clock.add(done)
        traced.jobs.append(done)
        if done.signature() != reference.signature():
            traced.mismatches += 1
    clock.flush()
    return plain, traced


def end_to_end(setups: list[Interval], loop: Loop) -> dict:
    """Metrics at reference speed, each timed one followed by its raw
    wall-time twin (suffix ``.wall``)."""
    ok = [j for j in loop.jobs if not j.failed]
    solved = [j for j in loop.jobs if j.iterations > 0]
    metrics = {}

    def timed(name, unit, values, scales, reduce=stats.median):
        metrics[name] = (reduce([v * k for v, k in zip(values, scales)]), unit)
        metrics[f"{name}.wall"] = (reduce(values), unit)

    timed("setup_s", "s", [t.busy_s for t in setups], [t.scale for t in setups])
    busy = [j.busy_s for j in loop.jobs]
    scales = [j.scale for j in loop.jobs]
    timed("solves_per_s", "1/s", busy, scales, lambda xs: len(ok) / sum(xs))
    if solved:
        scales = [j.scale for j in solved]
        times = [j.solve_s for j in solved]
        value, pct, count = stats.tail([t * k for t, k in zip(times, scales)])
        timed("solve_s.p50", "s", times, scales)
        metrics["solve_s.tail"] = (value, "s", {"percentile": round(pct, 2), "samples": count})
        metrics["solve_s.tail.wall"] = (stats.tail(times)[0], "s")
        timed("iter_ms.p50", "ms", [1e3 * j.solve_s / j.iterations for j in solved], scales)
        metrics["iterations"] = (sum(j.iterations for j in solved) / len(solved), "count")
        metrics["violations"] = (sum(j.violations for j in solved) / len(solved), "count")
    metrics["failed_frac"] = ((len(loop.jobs) - len(ok)) / len(loop.jobs), "fraction")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["machine_speed"] = (stats.median(scales), "fraction")
    return metrics


def layers(tracer: Tracer, plain: Loop, traced: Loop, setups: int, pool: int) -> dict:
    """Per-layer metrics from the spans of the traced jobs and set-ups.

    Only whole passes over the instance pool count, so that the call
    counts per iteration repeat exactly from run to run.
    """
    solves = range(len(traced.jobs) // pool * pool)
    iterations = sum(traced.jobs[i].iterations for i in solves)
    idx = tracer.spans(solves)
    selfs = stats.self_times(
        [(tracer.start[i], tracer.end[i], tracer.parent[i]) for i in range(len(tracer.start))]
    )
    rates = stats.per_layer(
        [tracer.names[tracer.name[i]] for i in idx], [selfs[i] for i in idx], max(iterations, 1)
    )
    metrics = {}
    for name in SOLVE_SPANS:
        calls, busy = rates.get(name, (0.0, 0.0))
        metrics[f"{name}.calls_per_iter"] = (calls, "count")
        metrics[f"{name}.self_ms_per_iter"] = (busy, "ms")
    for name in COUNTED_NAMES:
        calls = sum(tracer.counts[name, i] for i in solves)
        metrics[f"{name}.calls_per_iter"] = (calls / max(iterations, 1), "count")
    setup_idx = tracer.spans(range(-1, 0))
    for span, metric in (("generate.gen", "generate.gen_s"), ("sdpa.write", "sdpa.write_s"),
                         ("sdpa.parse", "sdpa.parse_s"), ("hpjson.read", "hpjson.read_s")):
        total = sum(tracer.end[i] - tracer.start[i] for i in setup_idx
                    if tracer.names[tracer.name[i]] == span)
        metrics[metric] = (total / (setups * pool), "s")
    exports = [i for i in idx if tracer.names[tracer.name[i]] == "tracefile.export"]
    metrics["tracefile.export_ms"] = (
        1e3 * sum(tracer.end[i] - tracer.start[i] for i in exports) / max(len(exports), 1), "ms")
    plain_t = [j.solve_s * j.scale for j in plain.jobs if j.iterations > 0]
    traced_t = [j.solve_s * j.scale for j in traced.jobs if j.iterations > 0]
    if plain_t and traced_t:
        metrics["trace.overhead_frac"] = (stats.median(traced_t) / stats.median(plain_t) - 1, "fraction")
    return metrics


def _source_digest(root: pathlib.Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit(root: pathlib.Path) -> str | None:
    if not (root / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root: pathlib.Path, seed: int, thread_vars: tuple[str, ...]) -> dict:
    vendor = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{vendor.get('name')} {vendor.get('version')}",
        "thread_vars": {var: os.environ.get(var) for var in thread_vars},
        "blas_threads_in_effect": blas.threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "seed": seed,
    }
