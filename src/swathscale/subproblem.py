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

import numpy as np
from scipy.linalg.lapack import dtrtri

from .core import BarrierOracle
from .errors import DimensionMismatch, DomainError, NumericalFailure

_RANK_DEFICIENT = "constraint map is rank-deficient at this point"


class SubStatus(enum.Enum):
    SOLVED = "solved"
    NOT_IN_SWATH = "not_in_swath"
    NUMERICAL_FAILURE = "numerical_failure"


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


def _gram_factor(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper triangle ``R`` of ``Q^T Q = R^T R`` and its inverse."""
    try:
        R = np.linalg.cholesky(Q.T @ Q).T
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(_RANK_DEFICIENT) from exc
    R_inv, info = dtrtri(R, lower=0)
    if info != 0:
        raise NumericalFailure(_RANK_DEFICIENT)
    return R, R_inv


def _cholesky_qr2(
    X: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Thin QR factorization ``X = Q R`` of a tall block by CholeskyQR2,
    returned in factored form ``(Q1, R1, R1^{-1}, R2, R2^{-1})``.

    Each pass factors the Gram matrix ``Q^T Q = R_k^T R_k`` and replaces
    ``Q`` by ``Q R_k^{-1}``; the second pass restores orthogonality to
    O(u) while cond(X) < u^{-1/2} (Fukaya, Nakatsukasa, Yanagisawa and
    Yamamoto, 2014).  The second replacement and the product of the
    triangles are left to the caller: ``Q = Q1 R2^{-1}`` and
    ``R = R2 R1``, with ``R^{-1} = R1^{-1} R2^{-1}``, which a caller
    that applies them to a few vectors never forms.  Raises
    NumericalFailure when a Gram matrix is not numerically positive
    definite.
    """
    R1, R1_inv = _gram_factor(X)
    Q1 = X @ R1_inv
    R2, R2_inv = _gram_factor(Q1)
    return Q1, R1, R1_inv, R2, R2_inv


def solve_qcp(
    oracle: BarrierOracle,
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    e: np.ndarray,
    alpha: float,
) -> SubproblemSolution:
    """Optimal primal/dual pair of the quadratic-cone relaxation at e.

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
    if np.max(np.abs(A @ e - b)) > 1e-8 * (1.0 + np.abs(b).max(initial=0.0)):
        raise DomainError("e is not feasible: A e != b")
    # Work in local coordinates w = L x with H = L^T L, where the cone is
    # the isotropic circular cone around ehat = L e (||ehat|| = sqrt(n)).
    # The ill-conditioning of H is confined to triangular solves and to the
    # thin QR of At_hat = Qm R.  CholeskyQR2 gives an orthonormal Qm to O(u)
    # while cond(At_hat) < u^{-1/2} ~ 7e7.  On generated SDP (n=40, m=80) and
    # Lorentz (d=200, m=100) instances, cond(At_hat) measured up to 5.5e4 at
    # a 1e-8 gap ratio and 4.9e6 at 1e-12.  One Cholesky pass alone loses
    # orthogonality as u cond(At_hat)^2: with it, 10 of 12 small SDP and
    # Lorentz runs to a 1e-10 gap ratio ended not_in_swath at 1e-7 to 2e-10.
    # Qm = Q1 R2^{-1} and R = R2 R1 stay factored: Qm is applied to one or
    # two columns at a time, as Qm v = Q1 (R2^{-1} v) and
    # Qm^T v = R2^{-T} (Q1^T v), and R only through the two explicit
    # triangular inverses that CholeskyQR2 forms anyway, as
    # R^{-T} v = R2^{-T} (R1^{-T} v) and R^{-1} v = R1^{-1} (R2^{-1} v).
    apply_L, solve_Lt, solve_L = oracle.hessian_factor(e)
    ehat = apply_L(e)
    chat = solve_Lt(c)
    At_hat = solve_Lt(A.T)  # d x m
    Q1, R1, R1_inv, R2, R2_inv = _cholesky_qr2(At_hat)

    def Qm(v):
        return Q1 @ (R2_inv @ v)

    def Qm_t(v):
        return R2_inv.T @ (Q1.T @ v)

    diag_R = np.abs(np.diag(R2) * np.diag(R1))
    if diag_R.size == 0 or diag_R.min() <= 1e-13 * max(diag_R.max(), 1.0):
        raise NumericalFailure(_RANK_DEFICIENT)

    # Write w = Qm btil + u with u orthogonal to range(Qm).  Only the parts
    # of u along f = ehat_perp and g = chat_perp move the objective or loosen
    # the cone, so the optimum lies in their plane, where the feasible set
    # is a conic section: bounded (an ellipse) iff ||f|| < alpha, a
    # parabola at ||f|| = alpha.  Stationarity puts the optimum at
    # u = beta0 (f - kappa g) / (alpha^2 - <f, f - kappa g>) for a kappa > 0
    # that the boundary equation makes a root of one scalar quadratic.
    # Both projections run twice so that f and g, and with them A x = b,
    # stay orthogonal to range(Qm) to working accuracy.
    btil = R2_inv.T @ (R1_inv.T @ b)
    F = np.column_stack([ehat, chat])
    QF = Qm_t(F)
    F = F - Qm(QF)
    F = F - Qm(Qm_t(F))
    f, g = F[:, 0], F[:, 1]
    ff, fg, gg = float(np.dot(f, f)), float(np.dot(f, g)), float(np.dot(g, g))
    beta0 = float(np.dot(QF[:, 0], btil))
    rho2 = float(np.dot(btil, btil))
    D = alpha**2 - ff
    q = rho2 * D - beta0**2
    roots = _stable_quadratic_roots(rho2 * fg**2 + beta0**2 * gg, 2.0 * fg * q, D * q)
    kappas = [kap for kap in roots if kap > 0.0 and D + kap * fg > 0.0]
    if not kappas:
        return SubproblemSolution(None, None, None, None, None, SubStatus.NOT_IN_SWATH)
    # One root qualifies in exact arithmetic; should rounding admit two,
    # the lower objective is the minimizer.
    kappa = min(kappas, key=lambda kap: (fg - kap * gg) / (D + kap * fg))
    w = Qm(btil) + (beta0 / (D + kappa * fg)) * (f - kappa * g)
    x = solve_L(w)
    gap = float(np.dot(c, e - x))
    if gap <= 0.0:
        return SubproblemSolution(None, None, None, None, None, SubStatus.NOT_IN_SWATH)

    # Pairing the stationarity equation with x and with e gives the
    # multiplier identity lambda * gap = -(n - alpha^2) <e, x>_e.  The dual
    # slack in the frame is shat = (gap / (n - alpha^2)) (ehat - (alpha^2/ip) w),
    # and chat - shat = Qm R y gives R y = Qm^T chat - Qm^T shat.
    ip = float(np.dot(ehat, w))  # <e, x>_e
    scale = gap / (n - alpha**2)
    lam = -ip / scale
    y_e = R1_inv @ (
        R2_inv @ (QF[:, 1] - scale * (QF[:, 0] - (alpha**2 / ip) * btil))
    )
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
