"""Independent oracles tying the solver back to its per-iteration identities.

Each check takes a quantity as the solver's oracle gives it and compares
it against a second, unrelated path (direct trace evaluation, finite
differences, closed-form bounds).  Checks aggregate into
:class:`CheckReport`; nothing is cached between checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BarrierOracle,
    Membership,
    QuadCone,
    dual_cone_member,
    local_inner,
    local_norm,
)
from .errors import DomainError, NotInterior
from .sdp import SdpInstance, det_barrier_oracle, smat, svec
from .subproblem import solve_qcp
from .driver import step_poly_coeffs


@dataclass
class CheckReport:
    name: str
    max_abs_err: float
    max_rel_err: float
    samples: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def trace_q(E: np.ndarray, X: np.ndarray, S: np.ndarray, t: float) -> float:
    """Exact evaluation of ``tr(((E + t X) S)^2)``."""
    M = (E + t * X) @ S
    return float(np.trace(M @ M))


def _solve_sdp_relaxation(sdp_inst: SdpInstance, E: np.ndarray, alpha: float):
    oracle = det_barrier_oracle(sdp_inst.n)
    A = sdp_inst.constraint_rows()
    sol = solve_qcp(oracle, A, sdp_inst.b, svec(sdp_inst.C), svec(E), alpha)
    if sol is None:
        raise DomainError("E is not in the swath for this alpha")
    return oracle, sol


def q_scaling_check(sdp_inst: SdpInstance, E: np.ndarray, alpha: float) -> CheckReport:
    """Compare the trace quadratic against the eigenvalue-coefficient form.

    With S normalized by the gap, ``tr(((E+tX)S)^2)`` must equal the step
    quadratic divided by ``((n - alpha^2) sum(lambda))^2`` at 11 points
    spanning [0, 2 t_min], with the power sums read as the solver's step
    reads them, from the oracle's ``direction_power_sums``.
    """
    n = sdp_inst.n
    oracle, sol = _solve_sdp_relaxation(sdp_inst, E, alpha)
    X = smat(sol.x_e)
    S = smat(sol.s_e) / sol.gap
    p1, p2, p3, p4 = oracle.direction_power_sums(svec(E), sol.x_e)
    a, b, c = step_poly_coeffs(p1, p2, p3, p4, alpha, n)
    t_min = -b / (2.0 * a)
    denom = ((n - alpha**2) * p1) ** 2
    grid = np.linspace(0.0, 2.0 * t_min, 11)
    max_abs = max_rel = 0.0
    for t in grid:
        lhs = trace_q(E, X, S, t)
        rhs = (a * t * t + b * t + c) / denom
        err = abs(lhs - rhs)
        max_abs = max(max_abs, err)
        max_rel = max(max_rel, err / max(abs(lhs), abs(rhs), 1e-300))
    return CheckReport("q_scaling", max_abs, max_rel, grid.size, 1e-8)


def membership_equiv_check(
    sdp_inst: SdpInstance,
    E: np.ndarray,
    alpha: float,
    beta: float,
    t_grid: np.ndarray,
) -> CheckReport:
    """Positive-definiteness (the oracle's frame exists) plus dual-cone
    membership at E(t) must agree with the quadratic inequality
    q(t) < 1/(n - beta^2).

    Grid points within 1e-9 of the threshold are skipped; max_rel_err is
    the disagreement count (0 or more).
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("beta must lie in (0, 1)")
    n = sdp_inst.n
    oracle, sol = _solve_sdp_relaxation(sdp_inst, E, alpha)
    X = smat(sol.x_e)
    S = smat(sol.s_e) / sol.gap
    threshold = 1.0 / (n - beta**2)
    disagreements = 0
    used = 0
    for t in t_grid:
        if t <= -1.0:
            continue
        q_val = trace_q(E, X, S, t)
        if abs(q_val - threshold) <= 1e-9:
            continue
        used += 1
        rhs = q_val < threshold
        cone = QuadCone(oracle, svec((E + t * X) / (1.0 + t)), beta)
        try:
            lhs = dual_cone_member(cone, svec(S)) is Membership.INTERIOR
        except NotInterior:
            lhs = False
        if lhs != rhs:
            disagreements += 1
    return CheckReport(
        "membership_equiv", float(disagreements), float(disagreements), used, 0.0
    )


def boundary_point(
    E: np.ndarray, alpha: float, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """``(X, ||sigma V||_E)`` for a random ``X = E + sigma V`` on the boundary
    of ``K_E(alpha)``: V is the symmetric part of one ``(n, n)`` normal draw,
    made locally orthogonal to E, and ``||X||_E = n / alpha``."""
    n = E.shape[0]
    oracle, e = det_barrier_oracle(n), svec(E)
    v = svec(rng.standard_normal((n, n)))
    v -= (local_inner(oracle, e, e, v) / n) * e
    v_norm = local_norm(oracle, e, v)
    sigma = math.sqrt(n * (n - alpha**2)) / (alpha * v_norm)
    return E + sigma * smat(v), sigma * v_norm


def boundary_dual_point(E: np.ndarray, X: np.ndarray, alpha: float) -> np.ndarray:
    """The normalized dual slack built from a cone-boundary point:
    ``(E^{-1} - alpha^2/tr(E^{-1}X) E^{-1} X E^{-1}) / (n - alpha^2)``."""
    n = E.shape[0]
    Einv = np.linalg.inv(E)
    trEX = float(np.trace(Einv @ X))
    S = (Einv - (alpha**2 / trEX) * Einv @ X @ Einv) / (n - alpha**2)
    return 0.5 * (S + S.T)


def decrease_bound_check(
    E: np.ndarray, X: np.ndarray, alpha: float, t_grid: np.ndarray
) -> CheckReport:
    """Strict decrease bound on q(t) for 0 < t <= alpha/||X||_E.

    ``q(t) < (1 - 2 t (1-alpha)/(n-alpha^2) ||X||_E (alpha - t ||X||_E))
    / (n - alpha^2)``; max_rel_err is the worst (signed) margin violation.
    """
    n = E.shape[0]
    S = boundary_dual_point(E, X, alpha)
    x_norm = local_norm(det_barrier_oracle(n), svec(E), svec(X))
    worst = -np.inf
    used = 0
    for t in t_grid:
        if not 0.0 < t <= alpha / x_norm + 1e-12:
            continue
        used += 1
        lhs = trace_q(E, X, S, t)
        rhs = (
            1.0
            - 2.0 * t * ((1.0 - alpha) / (n - alpha**2)) * x_norm * (alpha - t * x_norm)
        ) / (n - alpha**2)
        worst = max(worst, lhs - rhs)
    violation = max(worst, 0.0)
    return CheckReport("decrease_bound", violation, violation, used, 0.0)


def fd_check(oracle: BarrierOracle, x: np.ndarray) -> CheckReport:
    """Central-difference gradient and Hessian-vector check at x, with
    step ``1e-5 (1 + ||x||)``."""
    x = np.asarray(x, dtype=float)
    h = 1e-5 * (1.0 + float(np.linalg.norm(x)))
    d = oracle.dim
    g = oracle.gradient(x)
    max_abs = max_rel = 0.0
    for j in range(d):
        step = np.zeros(d)
        step[j] = h
        fd = (oracle.value(x + step) - oracle.value(x - step)) / (2.0 * h)
        err = abs(fd - g[j])
        max_abs = max(max_abs, err)
        max_rel = max(max_rel, err / (1.0 + abs(g[j])))
    rng = np.random.default_rng(0)
    for _ in range(3):
        v = rng.standard_normal(d)
        hv = oracle.hessian_apply(x, v)
        fd = (oracle.gradient(x + h * v) - oracle.gradient(x - h * v)) / (2.0 * h)
        err = float(np.max(np.abs(fd - hv)))
        max_abs = max(max_abs, err)
        max_rel = max(max_rel, err / (1.0 + float(np.max(np.abs(hv)))))
    return CheckReport("finite_difference", max_abs, max_rel, d + 3, 1e-5)


def conjecture_curve(
    oracle: BarrierOracle,
    e: np.ndarray,
    x_e: np.ndarray,
    s_e: np.ndarray,
    t_grid: np.ndarray,
) -> list[float]:
    """Pointwise values of ``<s, H(e + t x)^{-1} s> / <e, s>^2``.

    Report-only: returns NaN where the shifted point leaves the cone.
    """
    denom = float(np.dot(e, s_e)) ** 2
    if denom == 0.0:
        raise DomainError("s_e is orthogonal to e (zero denominator)")
    values = []
    for t in t_grid:
        point = e + t * x_e
        try:
            pulled = oracle.hessian_solve(point, s_e)
        except NotInterior:
            values.append(float("nan"))
            continue
        values.append(float(np.dot(s_e, pulled)) / denom)
    return values
