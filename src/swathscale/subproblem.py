"""Closed-form solution of the quadratic-cone relaxation and its dual.

The relaxation replaces the barrier cone by ``K_e(alpha)``.  In a local
orthonormal frame the constraints fix the component of the solution in
their range, and only two directions off that range matter: the parts of
``e`` and ``c`` orthogonal to it.  In their plane the feasible set is a
conic section, so the optimum is a root of one scalar quadratic.  The
dual pair is recovered in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import BarrierOracle
from .errors import DimensionMismatch, DomainError, NumericalFailure


@dataclass
class SubproblemSolution:
    """The relaxation's optimum ``x_e``, its dual pair ``(y_e, s_e)``, the
    multiplier of its cone constraint, and the gap ``<c, e - x_e>``."""

    x_e: np.ndarray
    y_e: np.ndarray
    s_e: np.ndarray
    lambda_mult: float
    gap: float
    # Read in the local frame w = L x_e: <e, x_e>_e = <L e, w> and
    # ||x_e||_e^2 = ||w||^2, so the step needs no second factorization.
    e_dot_x: float
    x_norm_sq: float


def _stable_quadratic_roots(qa: float, qb: float, qc: float) -> list[float]:
    """Real roots of qa s^2 + qb s + qc with the sign-matched formula."""
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    q = -0.5 * (qb + math.copysign(root, qb) if qb != 0.0 else -root)
    roots = []
    if qa != 0.0:
        roots.append(q / qa)
    if q != 0.0:
        roots.append(qc / q)
    if len(roots) == 2 and roots[0] == roots[1]:
        roots = roots[:1]
    return roots


# The unit roundoff u = 2^-53.
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def _pass_count(cond: float) -> int:
    """Refinement passes against a solve with the Gram matrix ``X^T X``: a
    budget meant to bring the error of a least-squares solve to about ``u``.

    The count assumes that each pass leaves ``u cond(X)^2`` of the error
    the pass before left, with the bound map's ``cond`` as a cheap, mostly
    high, estimate of ``cond(X)`` (``cond_1(R)`` for a Cholesky factor
    ``R``).  Three passes reach ``u`` up to ``cond = u^{-1/3}``, about
    2.1e5; above it the count grows, and from ``u cond^2 = 1/2`` on the
    rate is clipped at 1/2, which caps the count at 53.  The rate a pass
    attains is about ``c u cond(X)^2``, with ``c`` up to about 7 on small
    blocks, so where ``u cond(X)^2`` nears 1 the passes may stop
    contracting; :func:`_refined_solve` reports a last pass that did not
    contract.
    """
    log_u = math.log(_UNIT_ROUNDOFF)
    log_rate = min(math.log(0.5), log_u + 2.0 * math.log(cond))
    return max(3, math.ceil(log_u / log_rate))


def _refined_solve(
    X: np.ndarray,
    solve: Callable[[np.ndarray], np.ndarray],
    cond: float,
    rhs: np.ndarray,
    V: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(Z, V - X Z)`` for the ``Z`` with ``X^T (V - X Z) = -rhs``.

    ``solve`` applies the inverse of the Gram matrix ``M = X^T X``, and
    ``cond`` estimates ``cond(X)``.  Each pass solves
    ``M Z_k = rhs + X^T V`` for the current remainder ``V``, and ``Z`` sums
    the passes (Bjorck, 1987): the passes correct the solve's error through
    ``X``, so ``solve`` need not be a triangular factor.  With ``rhs = 0``
    the remainder is ``V``'s part orthogonal to ``range(X)``; with ``V = 0``
    it is ``-X Z`` for the least-norm solution ``X Z`` of ``X^T w = rhs``.

    Raises NumericalFailure when the last pass still moves the remainder
    by more than ``sqrt(u)`` of its scale, the root sum of squares of the
    remainder and of the first correction: the passes stopped contracting
    before they reached rounding level.  The test reads the whole block,
    not each column: the columns share the passes, so a pass contracts
    their errors alike, and per-column sums over the block's strided
    columns cost about 5% of an n=40 SDP iteration.
    """
    Z, XT = 0.0, X.T
    for k in range(_pass_count(cond)):
        Zk = solve(rhs + XT @ V)
        step = X @ Zk
        Z, V = Z + Zk, V - step
        if k == 0:
            first = np.vdot(step, step)
    if np.vdot(step, step) > _UNIT_ROUNDOFF * (first + np.vdot(V, V)):
        raise NumericalFailure("least-squares refinement did not converge")
    return Z, V


def solve_qcp(
    oracle: BarrierOracle,
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    e: np.ndarray,
    alpha: float,
    block: Callable[[np.ndarray], tuple] | None = None,
) -> SubproblemSolution | None:
    """Optimal primal/dual pair of the quadratic-cone relaxation at e.

    ``block`` is ``oracle.bind(A)``, which maps a point to the frame's
    constraint block, a solve with its Gram matrix and an estimate of the
    block's condition number: a run binds its constraint block once and
    hands the map to every call, and a call without it binds ``A``.
    Returns None when the conic section has no minimizer (the relaxation
    is unbounded: e is not in the swath); raises NumericalFailure when the
    constraint map is rank-deficient at e or its refined solve does not
    converge.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, d = A.shape
    n = oracle.degree
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    if d != oracle.dim or c.shape != (d,) or e.shape != (d,):
        raise DimensionMismatch("A, c, e inconsistent with the oracle dimension")
    # Written so that a NaN residual fails the test too.
    if not np.abs(A @ e - b).max() <= 1e-8 * (1.0 + np.abs(b).max(initial=0.0)):
        raise DomainError("e is not feasible: A e != b")
    # Work in local coordinates w = L x with H = L^T L, where the cone is
    # the isotropic circular cone around ehat = L e (||ehat|| = sqrt(n)).
    # The ill-conditioning of H is confined to triangular solves and to the
    # range of At_hat = L^{-T} A^T, with whose Gram matrix the bound map
    # solves.  The refined solve takes as many passes against that solve as
    # the block's condition number calls for: at a 1e-12 gap ratio the
    # block reaches condition numbers near 5e6, where three passes lose
    # Lorentz runs.
    if block is None:
        block = oracle.bind(A)
    apply_L, solve_Lt, solve_L = oracle.hessian_factor(e)
    ehat = apply_L(e)
    chat = solve_Lt(c)
    # The d x m block At_hat whose column i is solve_Lt(A[i]), the inverse
    # of At_hat^T At_hat, and cond(At_hat)
    At_hat, solve_gram, cond = block(e)

    # Write w = w0 + u with w0 the least-norm solution of At_hat^T w = b and
    # u orthogonal to range(At_hat).  Only the parts of u along
    # f = ehat_perp and g = chat_perp move the objective or loosen the cone,
    # so the optimum lies in their plane, where the feasible set is a conic
    # section: bounded (an ellipse) iff ||f|| < alpha, a parabola at
    # ||f|| = alpha.  Stationarity puts the optimum at
    # u = beta0 (f - kappa g) / (alpha^2 - <f, f - kappa g>) for a kappa > 0
    # that the boundary equation makes a root of one scalar quadratic.
    rhs = np.zeros((m, 3))
    rhs[:, 0] = b
    V = np.empty((d, 3))
    V[:, 0], V[:, 1], V[:, 2] = 0.0, ehat, chat
    Z, V = _refined_solve(At_hat, solve_gram, cond, rhs, V)
    w0, f, g = -V[:, 0], V[:, 1], V[:, 2]
    ff, fg, gg = float(f.dot(f)), float(f.dot(g)), float(g.dot(g))
    beta0 = float(ehat.dot(w0))
    rho2 = float(w0.dot(w0))
    D = alpha**2 - ff
    q = rho2 * D - beta0**2
    roots = _stable_quadratic_roots(rho2 * fg**2 + beta0**2 * gg, 2.0 * fg * q, D * q)
    kappas = [kap for kap in roots if kap > 0.0 and D + kap * fg > 0.0]
    if not kappas:
        return None
    # One root qualifies in exact arithmetic; should rounding admit two,
    # the lower objective is the minimizer.
    kappa = min(kappas, key=lambda kap: (fg - kap * gg) / (D + kap * fg))
    w = w0 + (beta0 / (D + kappa * fg)) * (f - kappa * g)
    x = solve_L(w)
    gap = float(c.dot(e - x))
    if gap <= 0.0:
        return None

    # Pairing the stationarity equation with x and with e gives the
    # multiplier identity lambda * gap = -(n - alpha^2) <e, x>_e.  The dual
    # slack in the frame is shat = (gap / (n - alpha^2)) (ehat - (alpha^2/ip) w),
    # and chat - shat = At_hat y: y combines the coefficients in At_hat of
    # the range parts of chat, ehat and w, which the refined solve returned.
    ip = float(ehat.dot(w))  # <e, x>_e
    scale = gap / (n - alpha**2)
    lam = -ip / scale
    y_e = Z[:, 2] - scale * (Z[:, 1] - (alpha**2 / ip) * Z[:, 0])
    s_e = scale * oracle.hessian_apply(e, e - (alpha**2 / ip) * x)
    return SubproblemSolution(
        x, y_e, s_e, lam, gap, e_dot_x=ip, x_norm_sq=float(w.dot(w))
    )


def in_swath(
    oracle: BarrierOracle,
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    e: np.ndarray,
    alpha: float,
) -> bool:
    """True iff the quadratic-cone relaxation at e attains its optimum."""
    return solve_qcp(oracle, A, b, c, e, alpha) is not None
