"""The affine-scaling iteration and its online guarantee checks.

Each iteration solves the quadratic-cone relaxation at the current
interior point, converts the eigenvalues of the relaxation optimum into a
strictly convex step quadratic, and moves to the convex combination
``(e + t x) / (1 + t)``.  Per-iteration guarantees (monotonicity, the
two-step gap contraction, dual-cone carry-over) are verified on the fly
and recorded as violation counts rather than aborting the run.
"""

from __future__ import annotations

import enum
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BarrierOracle,
    Membership,
    QuadCone,
    dual_cone_member,
    local_norm,  # noqa: F401  (perfbench/tracer.py rebinds this name)
    schedule_constants,
)
from .errors import (
    ConvexityViolation,
    DomainError,
    NumericalFailure,
    StepBoundViolation,
    SwathscaleError,
)
from .subproblem import SubproblemSolution, solve_qcp

_RATIO_SLACK = 1e-9


class StepMode(enum.Enum):
    QTILDE_MINIMIZER = "qtilde"
    FIXED_HALF_ALPHA = "fixed"


class RunStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    NOT_IN_SWATH = "not_in_swath"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class SolverConfig:
    alpha: float = 0.5
    gap_tol: float = 1e-8
    max_iters: int = 500
    step_mode: StepMode = StepMode.QTILDE_MINIMIZER

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha={self.alpha} outside (0, 1)")
        if not (math.isfinite(self.gap_tol) and self.gap_tol > 0.0):
            raise DomainError(f"gap_tol={self.gap_tol} must be positive and finite")
        if isinstance(self.max_iters, bool) or not isinstance(
            self.max_iters, numbers.Integral
        ):
            raise DomainError(f"max_iters={self.max_iters!r} must be an integer")
        if self.max_iters < 1:
            raise DomainError(f"max_iters={self.max_iters} must be at least 1")


@dataclass
class IterationRecord:
    """One iteration of a run; a trace row is its fields, in this order."""

    k: int
    alpha: float
    gap: float
    t: float
    x_norm_e: float
    primal_obj: float
    dual_obj: float
    # Coefficients of the step quadratic a t^2 + b t + c; zero at the
    # converged iterate, which takes no step.
    qtilde_a: float
    qtilde_b: float
    qtilde_c: float
    wallclock: float


@dataclass
class SolveResult:
    status: RunStatus
    trace: list[IterationRecord]
    final_e: np.ndarray | None = None
    final_x: np.ndarray | None = None
    final_y: np.ndarray | None = None
    final_s: np.ndarray | None = None
    violations: dict[str, int] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def gaps(self) -> np.ndarray:
        return np.array([rec.gap for rec in self.trace])


def step_poly_coeffs(
    p1: float, p2: float, p3: float, p4: float, alpha: float, n: int
) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the step quadratic from eigenvalue power sums.

    Requires p1 > 0 and the boundary relation p1 = alpha sqrt(p2); a > 0
    is guaranteed in exact arithmetic and enforced here.
    """
    if p1 <= 0.0:
        raise DomainError(f"p1={p1} must be positive (wrong half-cone)")
    if abs(p1 - alpha * math.sqrt(max(p2, 0.0))) > 1e-6 * (1.0 + abs(p1)):
        raise DomainError("power sums violate the cone-boundary relation")
    a = p1**2 * p2 - 2.0 * alpha**2 * p1 * p3 + alpha**4 * p4
    b = 2.0 * alpha**4 * p3 - 2.0 * p1**3
    c = (n - alpha**2) * p1**2
    if a <= 0.0:
        raise ConvexityViolation(f"step quadratic has leading coefficient {a} <= 0")
    return (float(a), float(b), float(c))


def step_length(
    a: float, b: float, alpha: float, x_norm_e: float, mode: StepMode
) -> float:
    """Step from the quadratic's minimizer, or the safe fixed fraction.

    In minimizer mode the guaranteed bound t > alpha / (2 ||x||_e) is
    checked; failure signals numerical corruption upstream.
    """
    if a <= 0.0:
        raise ConvexityViolation("step quadratic must be strictly convex")
    if x_norm_e <= 0.0:
        raise DomainError("x_norm_e must be positive")
    lower = 0.5 * alpha / x_norm_e
    if mode is StepMode.FIXED_HALF_ALPHA:
        return lower
    t = -b / (2.0 * a)
    if t <= 0.0 or t <= lower * (1.0 - 1e-9):
        raise StepBoundViolation(f"minimizer step {t} below the bound {lower}")
    return t


def next_iterate(e: np.ndarray, x_e: np.ndarray, t: float) -> np.ndarray:
    """Convex combination ``(e + t x_e) / (1 + t)``; stays on A x = b."""
    if t <= 0.0:
        raise DomainError("step length must be positive")
    return (e + t * x_e) / (1.0 + t)


def duality_gap(c: np.ndarray, e: np.ndarray, x_e: np.ndarray) -> float:
    """``<c, e - x_e>``: the primal objective drop that is a duality gap."""
    return float(np.dot(c, e - x_e))


def _step_from_solution(
    oracle: BarrierOracle,
    e: np.ndarray,
    sol: SubproblemSolution,
    alpha: float,
    mode: StepMode,
) -> tuple[float, float, tuple[float, float, float]]:
    # The first two power sums equal <e, x>_e and ||x||_e^2; reading them
    # from the relaxation's local frame keeps them accurate near the cone
    # boundary.  Higher power sums only shape the step quadratic, where a
    # small relative error is harmless.  The oracle forms them without
    # extracting roots: near convergence x ~ e, the eigenvalues cluster, and
    # a k-fold root moves by the k-th root of a rounding-level perturbation.
    _, _, p3, p4 = oracle.direction_power_sums(e, sol.x_e)
    p1, p2 = sol.e_dot_x, sol.x_norm_sq
    coeffs = step_poly_coeffs(p1, p2, p3, p4, alpha, oracle.degree)
    x_norm = math.sqrt(max(p2, 0.0))
    t = step_length(coeffs[0], coeffs[1], alpha, x_norm, mode)
    return t, x_norm, coeffs


def run(
    oracle: BarrierOracle,
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    e0: np.ndarray,
    config: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Iterate until the gap falls below gap_tol * initial gap.

    Violation counters: ``primal`` (objective failed to strictly
    decrease), ``dual`` (dual objective decreased), ``ratio`` (two-step
    contraction bound missed, minimizer mode only), ``carryover`` (dual
    slack not interior to the relaxed dual cone at the next iterate).

    A ``SwathscaleError`` from the relaxation at iterate 0, other than a
    ``NumericalFailure``, is the caller's and propagates; every other one
    ends the run ``NUMERICAL_FAILURE``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    block = oracle.bind(A)
    alpha = config.alpha
    consts = schedule_constants(alpha, oracle.degree)
    violations = {"primal": 0, "dual": 0, "ratio": 0, "carryover": 0}
    trace: list[IterationRecord] = []
    check_ratio = config.step_mode is StepMode.QTILDE_MINIMIZER

    e = np.asarray(e0, dtype=float).copy()
    start = time.perf_counter()
    status = RunStatus.MAX_ITERS
    sol = None

    for k in range(config.max_iters):
        try:
            sol = solve_qcp(oracle, A, b, c, e, alpha, block)
        except SwathscaleError as exc:
            # At k = 0 the caller's e0 may be off A e0 = b; later, an
            # iterate has drifted off it by rounding.
            if k == 0 and not isinstance(exc, NumericalFailure):
                raise
            status = RunStatus.NUMERICAL_FAILURE
            break
        if sol is None:
            # Every later iterate e' is in the swath: the carry-over check
            # puts the last dual slack in K_e'(beta)*, and beta < alpha puts
            # K_e'(beta)* inside K_e'(alpha)*.  So after the start only
            # rounding loses the relaxation's optimum.
            status = RunStatus.NOT_IN_SWATH if k == 0 else RunStatus.NUMERICAL_FAILURE
            break

        gap = sol.gap
        primal = float(np.dot(c, e))
        dual = float(np.dot(b, sol.y_e))
        if trace:
            prev = trace[-1]
            if primal >= prev.primal_obj:
                violations["primal"] += 1
            if dual < prev.dual_obj - 1e-7 * (1.0 + abs(dual)):
                violations["dual"] += 1
            if check_ratio and len(trace) >= 2:
                ratios = (prev.gap / trace[-2].gap, gap / prev.gap)
                if min(ratios) > consts.ratio_bound + _RATIO_SLACK:
                    violations["ratio"] += 1

        converged = gap <= config.gap_tol * (trace[0].gap if trace else gap)
        if converged:
            t, coeffs = 0.0, (0.0, 0.0, 0.0)
            x_norm = math.sqrt(max(sol.x_norm_sq, 0.0))
        else:
            try:
                t, x_norm, coeffs = _step_from_solution(
                    oracle, e, sol, alpha, config.step_mode
                )
                e_next = next_iterate(e, sol.x_e, t)
                # The step theory keeps e_next interior, so NotInterior from
                # the value probe, or from the Hessian factor that the
                # carry-over check takes at e_next (and the next frame
                # reuses), is rounding.
                oracle.value(e_next)
                carried = dual_cone_member(
                    QuadCone(oracle, e_next, consts.beta), sol.s_e
                )
            except SwathscaleError:
                status = RunStatus.NUMERICAL_FAILURE
                break
            if carried is not Membership.INTERIOR:
                violations["carryover"] += 1

        trace.append(IterationRecord(
            k, alpha, gap, t, x_norm, primal, dual, *coeffs, time.perf_counter() - start
        ))
        if converged:
            status = RunStatus.CONVERGED
            break
        e = e_next

    # A solve_qcp that raised leaves sol at the previous iterate's optimum.
    x, y, s = (None,) * 3 if sol is None else (sol.x_e, sol.y_e, sol.s_e)
    return SolveResult(status, trace, e, x, y, s, violations)


def alpha_schedule_next(alpha: float) -> float:
    """One reduction step: ``alpha * sqrt((1 + alpha) / 2)``."""
    return alpha * math.sqrt((1.0 + alpha) / 2.0)


def _check_reduction_domain(alpha0: float, alpha_target: float) -> None:
    if not 0.0 < alpha_target < alpha0 < 1.0:
        raise DomainError("need 0 < alpha_target < alpha0 < 1")


def alpha_reduction_bound(alpha0: float, alpha_target: float) -> int:
    """Iteration bound ceil(2 ln(a0/a)/ln(8/7) + ln((1-a)/(1-a0))/ln(9/8))."""
    _check_reduction_domain(alpha0, alpha_target)
    term1 = (2.0 / math.log(8.0 / 7.0)) * math.log(alpha0 / alpha_target)
    term2 = (1.0 / math.log(9.0 / 8.0)) * math.log(
        (1.0 - alpha_target) / (1.0 - alpha0)
    )
    return int(math.ceil(term1 + term2))


def alpha_reduction_run(
    oracle: BarrierOracle,
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    e0: np.ndarray,
    alpha0: float,
    alpha_target: float,
) -> tuple[np.ndarray, int]:
    """Fixed-step iteration with the shrinking alpha schedule.

    Returns the point reached once the schedule value drops to the
    target, together with the number of steps taken.
    """
    _check_reduction_domain(alpha0, alpha_target)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    block = oracle.bind(A)
    e = np.asarray(e0, dtype=float).copy()
    alpha = alpha0
    iterations = 0
    while alpha > alpha_target:
        sol = solve_qcp(oracle, A, b, c, e, alpha, block)
        if sol is None:
            raise NumericalFailure(
                f"iterate left swath({alpha}) during alpha reduction"
            )
        x_norm = math.sqrt(max(sol.x_norm_sq, 0.0))
        t = 0.5 * alpha / x_norm
        e = next_iterate(e, sol.x_e, t)
        alpha = alpha_schedule_next(alpha)
        iterations += 1
    return e, iterations
