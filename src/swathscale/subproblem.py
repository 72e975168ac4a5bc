"""Closed-form solution of the quadratic-cone relaxation and its dual.

The relaxation replaces the barrier cone by ``K_e(alpha)``.  Its
first-order system is linear in ``(x, y, lambda)`` up to one quadratic
boundary equation, so the optimum is found by intersecting the system's
one-dimensional solution line with the boundary quadric and filtering the
two roots.  The dual pair is recovered in closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtrtri

from .core import BarrierOracle
from .errors import DimensionMismatch, DomainError, NumericalFailure

_RANK_TOL = 1e-10
_LAMBDA_TOL = 1e-12
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


def _cholesky_qr2(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization ``X = Q R`` of a tall block by CholeskyQR2.

    Each pass factors the Gram matrix ``Q^T Q = R_k^T R_k`` and replaces
    ``Q`` by ``Q R_k^{-1}``; the second pass restores orthogonality to
    O(u) while cond(X) < u^{-1/2} (Fukaya, Nakatsukasa, Yanagisawa and
    Yamamoto, 2014).  Raises NumericalFailure when a Gram matrix is not
    numerically positive definite.
    """
    Q, R = X, None
    for _ in range(2):
        try:
            Rk = np.linalg.cholesky(Q.T @ Q).T
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(_RANK_DEFICIENT) from exc
        Rk_inv, info = dtrtri(Rk, lower=0)
        if info != 0:
            raise NumericalFailure(_RANK_DEFICIENT)
        Q = Q @ Rk_inv
        R = Rk if R is None else Rk @ R
    return Q, R


def solve_qcp(
    oracle: BarrierOracle,
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    e: np.ndarray,
    alpha: float,
) -> SubproblemSolution:
    """Optimal primal/dual pair of the quadratic-cone relaxation at e.

    Returns status NOT_IN_SWATH when the boundary quadric yields no valid
    candidate (the relaxation is unbounded); raises NumericalFailure on
    rank or multiplier breakdown.
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
    # thin QR of At_hat.  CholeskyQR2 gives an orthonormal Qm to O(u) while
    # cond(At_hat) < u^{-1/2} ~ 7e7.  On generated SDP (n=40, m=80) and
    # Lorentz (d=200, m=100) instances, cond(At_hat) measured up to 5.5e4 at
    # a 1e-8 gap ratio and 4.9e6 at 1e-12.  One Cholesky pass alone loses
    # orthogonality as u cond(At_hat)^2: with it, 10 of 12 small SDP and
    # Lorentz runs to a 1e-10 gap ratio ended not_in_swath at 1e-7 to 2e-10.
    apply_L, solve_Lt, solve_L = oracle.hessian_factor(e)
    ehat = apply_L(e)
    chat = solve_Lt(c)
    At_hat = solve_Lt(A.T)  # d x m
    Qm, R = _cholesky_qr2(At_hat)
    diag_R = np.abs(np.diag(R))
    if diag_R.size == 0 or diag_R.min() <= 1e-13 * max(diag_R.max(), 1.0):
        raise NumericalFailure(_RANK_DEFICIENT)

    # Stationarity: (alpha^2 I - ehat ehat^T) w = lambda chat + Qm ytil,
    # inverted in closed form via J(v) = (v + <ehat,v> ehat/(alpha^2-n))
    # / alpha^2.  Feasibility Qm^T w = R^{-T} b then pins down ytil as an
    # affine function of lambda through the Sherman-Morrison inverse of
    # Gm = Qm^T J Qm.
    def apply_J(v: np.ndarray) -> np.ndarray:
        return (v + (np.dot(ehat, v) / (alpha**2 - n)) * ehat) / alpha**2

    qhat = Qm.T @ ehat
    denom = alpha**2 - n + float(np.dot(qhat, qhat))
    if abs(denom) <= 1e-12 * n:
        raise NumericalFailure("first-order system is rank-deficient in y")

    def solve_Gm(r: np.ndarray) -> np.ndarray:
        return alpha**2 * (r - (np.dot(qhat, r) / denom) * qhat)

    btil = scipy.linalg.solve_triangular(R, b, trans="T")
    ce = float(np.dot(c, e))  # = <chat, ehat> without frame roundoff
    ctil = (Qm.T @ chat + (ce / (alpha**2 - n)) * qhat) / alpha**2
    ytil_b = solve_Gm(btil)
    ytil_c = solve_Gm(ctil)
    w0 = apply_J(Qm @ ytil_b)  # w(lambda) = w0 + lambda * wn
    wn = apply_J(chat - Qm @ ytil_c)
    # Re-project the line onto the feasible set {Qm^T w = btil} with the
    # orthonormal factor, so every candidate below satisfies A x = b and
    # the boundary equation simultaneously by construction.
    w0 = w0 + Qm @ (btil - Qm.T @ w0)
    wn = wn - Qm @ (Qm.T @ wn)

    # Normalize the direction: near the optimum wn shrinks while the
    # multiplier grows, and the raw quadratic would sink below roundoff.
    norm_wn = float(np.linalg.norm(wn))
    if not norm_wn > 0.0:
        raise NumericalFailure("solution-line direction degenerated to zero")
    wn = wn / norm_wn

    u, v = -float(np.dot(ehat, w0)), -float(np.dot(ehat, wn))  # <g, x>
    P = float(np.dot(w0, w0))
    Q2 = float(np.dot(w0, wn))
    # <g,x>^2 - alpha^2 ||w||^2 = 0 along w(s) = w0 + s wn, ||wn|| = 1
    qa = v * v - alpha**2
    qb = 2.0 * (u * v - alpha**2 * Q2)
    qc = u * u - alpha**2 * P
    scale = max(abs(qa), abs(qb), abs(qc))
    if scale == 0.0 or max(abs(qa), abs(qb)) <= 1e-15 * scale:
        raise NumericalFailure("boundary quadric degenerated along the solution line")

    # Pairing the stationarity equation with x and with e gives the
    # multiplier identity lambda * gap = (n - alpha^2) <g, x>, which is
    # numerically far sturdier than reading lambda off the line parameter.
    candidates = []
    for s in _stable_quadratic_roots(qa, qb, qc):
        gdotx = u + s * v
        if gdotx > 0.0:
            continue  # wrong half-cone: needs <e, x>_e >= 0
        w = w0 + s * wn
        x = solve_L(w)
        gap = float(np.dot(c, e - x))
        if gap <= 0.0:
            continue  # maximizer branch (positive multiplier)
        lam = (n - alpha**2) * gdotx / gap
        ytil = ytil_b - lam * ytil_c
        candidates.append((float(np.dot(c, x)), x, w, ytil, lam, gap))
    if not candidates:
        return SubproblemSolution(None, None, None, None, None, SubStatus.NOT_IN_SWATH)

    obj, x, w, ytil, lam, gap = min(candidates, key=lambda cand: cand[0])
    if abs(lam) <= _LAMBDA_TOL:
        raise NumericalFailure("multiplier too close to zero for dual rescaling")
    y = scipy.linalg.solve_triangular(R, ytil)
    y_e = -y / lam
    ip = float(np.dot(ehat, w))  # <e, x>_e
    s_e = (gap / (n - alpha**2)) * oracle.hessian_apply(e, e - (alpha**2 / ip) * x)
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
