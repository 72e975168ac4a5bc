"""Closed-form solution of the quadratic-cone relaxation and its dual.

The relaxation replaces the barrier cone by ``K_e(alpha)``.  In a local
orthonormal frame the constraints fix the component of the solution in
their range, and only two directions off that range matter: the parts of
``e`` and ``c`` orthogonal to it.  In their plane the feasible set is a
conic section, so the optimum is a root of one scalar quadratic.  The
dual pair is recovered in closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dtrtri

from .core import BarrierOracle
from .errors import DimensionMismatch, DomainError, NumericalFailure

_RANK_DEFICIENT = "constraint map is rank-deficient at this point"


class SubStatus(enum.Enum):
    SOLVED = "solved"
    NOT_IN_SWATH = "not_in_swath"


@dataclass
class SubproblemSolution:
    x_e: np.ndarray | None
    y_e: np.ndarray | None
    s_e: np.ndarray | None
    lambda_mult: float | None
    gap: float | None
    status: SubStatus
    # Read in the local frame w = L x_e: <e, x_e>_e = <L e, w> and
    # ||x_e||_e^2 = ||w||^2, so the step needs no second factorization.
    e_dot_x: float | None = None
    x_norm_sq: float | None = None


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


# u^{-1/3} for the unit roundoff u, about 2.1e5: up to this condition number
# one Gram pass and two correction steps reach O(u) (see solve_qcp).
_ONE_PASS_COND = (np.finfo(float).eps / 2.0) ** (-1.0 / 3.0)


def _gram_factor(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper triangle ``R`` of the Gram matrix ``M = R^T R`` and its inverse."""
    try:
        R = np.linalg.cholesky(M).T
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(_RANK_DEFICIENT) from exc
    R_inv, info = dtrtri(R, lower=0)
    if info != 0:
        raise NumericalFailure(_RANK_DEFICIENT)
    return R, R_inv


def _range_basis(
    X: np.ndarray, M: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Basis ``B`` and upper triangle ``T`` with ``B T`` spanning ``range(X)``,
    orthonormal up to the error two correction steps remove.

    One Gram pass factors the Gram matrix ``M = X^T X = R1^T R1``.  When
    ``cond_1(R1) <= u^{-1/3}`` it returns ``(X, R1^{-1}, None)``.
    Otherwise it runs CholeskyQR2's second pass on ``Q1 = X R1^{-1}``
    (Fukaya, Nakatsukasa, Yanagisawa and Yamamoto, 2014), formed
    explicitly, and returns ``(Q1, R2^{-1}, R1^{-1})``: there ``X = Q1 R1``,
    so ``R1^{-1}`` maps coefficients in ``Q1`` back to coefficients in
    ``X``.  Raises NumericalFailure when a Gram matrix is not numerically
    positive definite or the triangle ``R`` of ``X = (B T) R`` has a
    negligible pivot.
    """
    R1, R1_inv = _gram_factor(M)
    # cond_1(R1) from the 1-norms, summed as np.linalg.norm(., 1) sums them.
    cond1 = np.abs(R1).sum(axis=0).max() * np.abs(R1_inv).sum(axis=0).max()
    if cond1 <= _ONE_PASS_COND:
        B, T, to_x, diag_R = X, R1_inv, None, np.abs(np.diag(R1))
    else:
        B = X @ R1_inv
        R2, T = _gram_factor(B.T @ B)
        to_x, diag_R = R1_inv, np.abs(np.diag(R2) * np.diag(R1))
    if diag_R.size == 0 or diag_R.min() <= 1e-13 * max(diag_R.max(), 1.0):
        raise NumericalFailure(_RANK_DEFICIENT)
    return B, T, to_x


def _split_off_range(
    B: np.ndarray, T: np.ndarray, F: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(Z, F - B Z)`` with ``B Z`` the projection of ``F`` on ``range(B T)``.

    The projection ``B T T^T B^T`` runs three times, each on the remainder
    of the last, and the coefficients of the runs are summed, so the
    remainder is orthogonal to the range to working accuracy.
    """
    Z = 0.0
    for _ in range(3):
        Zk = T @ (T.T @ (B.T @ F))
        Z, F = Z + Zk, F - B @ Zk
    return Z, F


def solve_qcp(
    oracle: BarrierOracle,
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    e: np.ndarray,
    alpha: float,
    block: Callable[[np.ndarray], tuple] | None = None,
) -> SubproblemSolution:
    """Optimal primal/dual pair of the quadratic-cone relaxation at e.

    ``block`` is ``oracle.bind(A)``, which maps a point to the frame's
    constraint block and its Gram matrix: a run binds its constraint block
    once and hands the map to every call, and a call without it binds ``A``.
    Returns status NOT_IN_SWATH when the conic section has no minimizer
    (the relaxation is unbounded); raises NumericalFailure when the
    constraint map is rank-deficient at e.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, d = A.shape
    n = oracle.degree
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    if d != oracle.dim or c.shape != (d,) or e.shape != (d,):
        raise DimensionMismatch("A, c, e inconsistent with the oracle dimension")
    # Written so that a NaN residual fails the test too.
    if not np.max(np.abs(A @ e - b)) <= 1e-8 * (1.0 + np.abs(b).max(initial=0.0)):
        raise DomainError("e is not feasible: A e != b")
    # Work in local coordinates w = L x with H = L^T L, where the cone is
    # the isotropic circular cone around ehat = L e (||ehat|| = sqrt(n)).
    # The ill-conditioning of H is confined to triangular solves and to the
    # range of At_hat = L^{-T} A^T, which a basis B T from _range_basis
    # spans.  One Cholesky pass of the Gram matrix leaves that basis
    # orthonormal to about eps = u cond(At_hat)^2, and each correction step
    # multiplies the error left in the least-norm solution and the
    # projections below by about eps.  They take two steps, which bring it
    # to about u while cond(At_hat) <= u^{-1/3} ~ 2.1e5 (one step would
    # need cond(At_hat) <= u^{-1/4} ~ 9.7e3).  Beyond it the second
    # CholeskyQR2 pass runs, which restores orthogonality to O(u) while
    # cond(At_hat) < u^{-1/2} ~ 7e7.  On generated SDP (n=40, m=80) and
    # Lorentz (d=200, m=100) instances, cond(At_hat) measured up to 5.5e4
    # at a 1e-8 gap ratio and 4.9e6 at 1e-12; one pass everywhere, even
    # with the correction steps, lost Lorentz runs to a 1e-12 ratio.
    if block is None:
        block = oracle.bind(A)
    apply_L, solve_Lt, solve_L = oracle.hessian_factor(e)
    ehat = apply_L(e)
    chat = solve_Lt(c)
    At_hat, gram = block(e)  # d x m solve_Lt(A.T), and At_hat^T At_hat
    B, T, to_x = _range_basis(At_hat, gram)

    # Write w = w0 + u with w0 the least-norm solution of At_hat^T w = b,
    # which lies in range(B), and u orthogonal to it.  In the basis B the
    # constraints read B^T w = b_B, with b_B = R1^{-T} b after the second
    # pass (At_hat = B R1).  Only the parts of u along f = ehat_perp and
    # g = chat_perp move the objective or loosen the cone, so the optimum
    # lies in their plane, where the feasible set is a conic section:
    # bounded (an ellipse) iff ||f|| < alpha, a parabola at ||f|| = alpha.
    # Stationarity puts the optimum at
    # u = beta0 (f - kappa g) / (alpha^2 - <f, f - kappa g>) for a kappa > 0
    # that the boundary equation makes a root of one scalar quadratic.
    b_B = b if to_x is None else to_x.T @ b
    z0 = T @ (T.T @ b_B)
    for _ in range(2):
        z0 = z0 + T @ (T.T @ (b_B - B.T @ (B @ z0)))
    w0 = B @ z0
    Z, F = _split_off_range(B, T, np.column_stack([ehat, chat]))
    f, g = F[:, 0], F[:, 1]
    ff, fg, gg = float(np.dot(f, f)), float(np.dot(f, g)), float(np.dot(g, g))
    beta0 = float(np.dot(ehat, w0))
    rho2 = float(np.dot(w0, w0))
    D = alpha**2 - ff
    q = rho2 * D - beta0**2
    roots = _stable_quadratic_roots(rho2 * fg**2 + beta0**2 * gg, 2.0 * fg * q, D * q)
    kappas = [kap for kap in roots if kap > 0.0 and D + kap * fg > 0.0]
    if not kappas:
        return SubproblemSolution(None, None, None, None, None, SubStatus.NOT_IN_SWATH)
    # One root qualifies in exact arithmetic; should rounding admit two,
    # the lower objective is the minimizer.
    kappa = min(kappas, key=lambda kap: (fg - kap * gg) / (D + kap * fg))
    w = w0 + (beta0 / (D + kappa * fg)) * (f - kappa * g)
    x = solve_L(w)
    gap = float(np.dot(c, e - x))
    if gap <= 0.0:
        return SubproblemSolution(None, None, None, None, None, SubStatus.NOT_IN_SWATH)

    # Pairing the stationarity equation with x and with e gives the
    # multiplier identity lambda * gap = -(n - alpha^2) <e, x>_e.  The dual
    # slack in the frame is shat = (gap / (n - alpha^2)) (ehat - (alpha^2/ip) w),
    # and chat - shat = At_hat y lies in range(B): its coefficients in B are
    # those of chat and shat, and R1^{-1} maps them to y after the second pass.
    ip = float(np.dot(ehat, w))  # <e, x>_e
    scale = gap / (n - alpha**2)
    lam = -ip / scale
    y_e = Z[:, 1] - scale * (Z[:, 0] - (alpha**2 / ip) * z0)
    if to_x is not None:
        y_e = to_x @ y_e
    s_e = scale * oracle.hessian_apply(e, e - (alpha**2 / ip) * x)
    return SubproblemSolution(
        x, y_e, s_e, lam, gap, SubStatus.SOLVED,
        e_dot_x=ip, x_norm_sq=float(np.dot(w, w)),
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
    return solve_qcp(oracle, A, b, c, e, alpha).status is SubStatus.SOLVED
