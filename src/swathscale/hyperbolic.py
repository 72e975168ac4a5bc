"""Hyperbolic-polynomial families, barrier oracles, and eigenvalue tools.

A family is a closed enumeration: coordinate product, second-order
(Lorentz) form, symmetric determinant on svec coordinates, and the
elementary symmetric polynomial e_k.  Eigenvalues of ``x`` in direction
``e`` are the roots of ``lambda -> p(lambda e - x)``; power sums of those
roots feed the step polynomial of the driver; no coefficient is fitted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import sdp
from .core import (
    RANK_DEFICIENT,
    BarrierOracle,
    check_constraints,
    check_dim,
    check_start,
    gram_factor,
    point_cache,
)
from .errors import (
    DegenerateLeadingCoefficient,
    DimensionMismatch,
    DomainError,
    NotInterior,
    NumericalFailure,
)

PRODUCT = "product"
SECOND_ORDER = "second_order"
DETERMINANT = "determinant"
ELEMENTARY_SYMMETRIC = "elementary_symmetric"


@dataclass(frozen=True)
class HpFamily:
    """One hyperbolic polynomial: name, ambient dim, degree (k for e_k)."""

    name: str
    d: int
    degree: int

    def canonical_direction(self) -> np.ndarray:
        if self.name == SECOND_ORDER:
            e = np.zeros(self.d)
            e[-1] = 1.0
            return e
        if self.name == DETERMINANT:
            return sdp.svec(np.eye(self.degree))
        return np.ones(self.d)


def product_family(d: int) -> HpFamily:
    if d < 2:
        raise DomainError("product family needs d >= 2")
    return HpFamily(PRODUCT, d, d)


def second_order_family(d: int) -> HpFamily:
    if d < 2:
        raise DomainError("second-order family needs d >= 2")
    return HpFamily(SECOND_ORDER, d, 2)


def determinant_family(n: int) -> HpFamily:
    if n < 2:
        raise DomainError("determinant family needs order >= 2")
    return HpFamily(DETERMINANT, sdp.sym_dim(n), n)


def elementary_symmetric_family(d: int, k: int) -> HpFamily:
    if not 2 <= k <= d:
        raise DomainError("elementary symmetric family needs 2 <= k <= d")
    return HpFamily(ELEMENTARY_SYMMETRIC, d, k)


def _minkowski(u: np.ndarray, v: np.ndarray) -> float:
    # On Python floats, which round as numpy scalars do at less cost per call;
    # ndarray.dot is np.dot without its dispatch.
    return u.item(-1) * v.item(-1) - float(u[:-1].dot(v[:-1]))


def _lorentz_restriction(x: np.ndarray, e: np.ndarray) -> tuple[float, float, float]:
    """Ascending coefficients of ``t -> p(x + t e)`` for the Minkowski form."""
    return _minkowski(x, x), 2.0 * _minkowski(x, e), _minkowski(e, e)


def _esym_values(x: np.ndarray, k: int) -> np.ndarray:
    """e_0(x)..e_k(x) by the stable column recurrence."""
    e = np.zeros(k + 1)
    e[0] = 1.0
    for xi in x:
        e[1:] = e[1:] + xi * e[:-1]
    return e


def _esym_deflations(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``D[i, j] = e_j(x without x_i)`` for j = 0..k, in k vector steps from
    ``values = _esym_values(x, k)``; column k - 1 is the gradient of e_k
    itself (not the barrier)."""
    D = np.ones((x.size, values.size))
    for j in range(1, values.size):
        D[:, j] = values[j] - x * D[:, j - 1]
    return D


def _esym_pairs(x: np.ndarray, D: np.ndarray, k: int) -> np.ndarray:
    """Hessian ``e_{k-2}(x without x_i, x_j)`` of e_k, from ``D`` in k - 2 steps;
    the upper triangle (row i deflated by x_j) is mirrored."""
    G = np.ones((x.size, x.size))
    for j in range(1, k - 1):
        G = D[:, j, None] - x[None, :] * G
    G = np.triu(G, 1)
    return G + G.T


def _esym_restriction(x: np.ndarray, e: np.ndarray, k: int) -> np.ndarray:
    """Ascending coefficients of ``t -> e_k(x + t e)``: the recurrence of
    ``_esym_values`` with row j of E holding e_j as a polynomial in t."""
    E = np.zeros((k + 1, k + 1))
    E[0, 0] = 1.0
    for xi, ei in zip(x, e):
        step = xi * E[:-1]
        step[:, 1:] += ei * E[:-1, :-1]
        E[1:] += step
    return E[k]


def eval_p(family: HpFamily, x: np.ndarray) -> float:
    """Value of the family's polynomial at x."""
    x = check_dim(family.d, x)
    if family.name == PRODUCT:
        return float(np.prod(x))
    if family.name == SECOND_ORDER:
        return _minkowski(x, x)
    if family.name == DETERMINANT:
        return float(np.linalg.det(sdp.smat(x)))
    return float(_esym_values(x, family.degree)[-1])


def is_member(family: HpFamily, x: np.ndarray, tol: float = 1e-9) -> bool:
    """Membership in the closed cone, by the family-native test."""
    x = check_dim(family.d, x)
    if family.name == PRODUCT:
        return bool(np.all(x >= -tol))
    if family.name == SECOND_ORDER:
        return x[-1] >= np.linalg.norm(x[:-1]) - tol
    if family.name == DETERMINANT:
        return bool(np.min(np.linalg.eigvalsh(sdp.smat(x))) >= -tol)
    values = _esym_values(x, family.degree)
    scale = 1.0 + float(np.linalg.norm(x))
    return bool(np.all(values[1:] >= -tol * scale ** np.arange(1, values.size)))


def hp_barrier_oracle(family: HpFamily) -> BarrierOracle:
    """Barrier oracle ``-ln p`` of a family, built by that family's constructor.

    The determinant family delegates to the SDP backend.
    """
    if family.name == PRODUCT:
        return _product_oracle(family.d)
    if family.name == SECOND_ORDER:
        return _lorentz_oracle(family.d)
    if family.name == DETERMINANT:
        return sdp.det_barrier_oracle(family.degree)
    return _esym_oracle(family.d, family.degree)


def _product_oracle(d: int) -> BarrierOracle:
    """Barrier ``-sum ln e_i`` of the orthant: H(e) = diag(e)^-2."""
    def point(e):
        # The cache makes what it keeps read-only: a copy of e, not the caller's.
        if not np.all(e > 0.0):
            raise NotInterior(f"point outside the open {PRODUCT} cone")
        return e.copy(), 1.0 / e

    point = point_cache(d, point)

    def value(e):
        e, _ = point(e)
        # np.prod underflows to 0 for large d, and math.log(0) raises.
        return -math.log(np.prod(e))

    def gradient(e):
        _, inv_e = point(e)
        return -inv_e

    def hessian_apply(e, v):
        e, _ = point(e)
        return check_dim(d, v) / e**2

    def direction_power_sums(e, x):
        e, _ = point(e)
        return power_sums(check_dim(d, x) / e)

    def hessian_factor(e):
        e, inv_e = point(e)

        # Scaling the rows of v.T scales each column of a block.
        def apply_L(v):
            return (np.asarray(v, dtype=float).T * inv_e).T

        def solve_any(w):
            return (np.asarray(w, dtype=float).T * e).T

        return apply_L, solve_any, solve_any

    return BarrierOracle(
        dim=d, degree=d, value=value, gradient=gradient,
        hessian_apply=hessian_apply, direction_power_sums=direction_power_sums,
        hessian_factor=hessian_factor,
    )


# An eigenvalue of the Lorentz map's I + C D C^T at or below this fraction
# of the largest (and of 1) is lost in rounding, as it would be in a
# Cholesky factor of M: the map's Gram matrix is then numerically singular.
_NEGLIGIBLE_EIGENVALUE = np.finfo(float).eps


def _lorentz_oracle(d: int) -> BarrierOracle:
    """Barrier ``-ln(t^2 - ||u||^2)`` on e = (u, t), all in closed form."""
    def frame(e):
        """Spectral frame of the Lorentz barrier Hessian at e.

        With t = e[-1] and r = ||e[:-1]||, the Hessian has eigenvalue
        2/(t-r)^2 on b1, 2/(t+r)^2 on b2, and 2/((t-r)(t+r)) on the
        orthogonal complement, where b1, b2 mix the last axis with the
        radial direction.  Returns ``(mu, B, a, W)``: ``mu`` holds those
        three eigenvalues, complement first, and ``B = [b1 b2]`` is
        ``(d, 2)`` (zero at r = 0, where the three eigenvalues coincide).
        Rows 0, 1, 2 of ``a`` and ``W`` serve H(e)^p for p = 1, 1/2, -1/2:
        ``H(e)^p = a_p I + B W_p`` with ``a_p = mu_iso^p`` and the ``(2, d)``
        ``W_p = diag(mu_B^p - a_p) B^T``.
        """
        t, u = float(e[-1]), e[:-1]
        r = math.sqrt(float(u.dot(u)))
        if not t > r:
            raise NotInterior(f"point outside the open {SECOND_ORDER} cone")
        lo, hi = t - r, t + r
        # Rows mu, mu^(1/2) and mu^(-1/2), filled in place: np.array of a
        # list of arrays costs more than the arithmetic.
        powers = np.empty((3, 3))
        mu = powers[0]
        mu[:] = 2.0 / (lo * hi), 2.0 / lo**2, 2.0 / hi**2
        np.sqrt(mu, out=powers[1])
        np.power(mu, -0.5, out=powers[2])
        B = np.zeros((d, 2))
        if r > 0.0:
            B[-1, :] = 1.0 / math.sqrt(2.0)
            B[:-1, 1] = (u / r) / math.sqrt(2.0)
            B[:-1, 0] = -B[:-1, 1]
        a = powers[:, 0]
        # W scales the rows of a contiguous copy of B^T: a strided B.T is slower.
        return mu, B, a, (powers[:, 1:] - a[:, None])[:, :, None] * B.T.copy()

    # The relaxation's frame, the dual slack, the carry-over check and the
    # interiority probe read H at a point; each point's frame is built once.
    frame = point_cache(d, frame)
    HESSIAN, ROOT, INV_ROOT = range(3)

    def spectral_apply(frame_e, v, power):
        """Apply H(e)^p, row ``power`` of the frame's maps, as
        ``a_p v + W_p^T (B^T v)`` from ``frame_e = frame(e)``: no Cholesky
        of the near-singular dense Hessian near the cone boundary.  ``v`` is
        one ``(d,)`` vector, as the frame closures take; the bound map
        applies H(e)^{-1/2} to the constraint rows with the same a_p and
        W_p."""
        _, B, a, W = frame_e
        v = np.asarray(v, dtype=float)
        return a[power] * v + (v @ B) @ W[power]

    def point(e):
        frame(e)  # the point's one interiority test
        return np.asarray(e, dtype=float)

    def value(e):
        e = point(e)
        return -math.log(_minkowski(e, e))

    def gradient(e):
        e = point(e)
        Je = np.concatenate([-e[:-1], e[-1:]])  # J = diag(-1, ..., -1, 1)
        return -(2.0 * Je) / _minkowski(e, e)

    def hessian_apply(e, v):
        return spectral_apply(frame(e), check_dim(d, v), HESSIAN)

    def direction_power_sums(e, x):
        # Newton's identities on the restricted quadratic, as for e_k.
        return power_sums_from_coeffs(_lorentz_restriction(check_dim(d, x), point(e)))

    def hessian_factor(e):
        # Symmetric square root from the closed eigendecomposition;
        # L = L^T, so the transposed and plain solves coincide.
        frame_e = frame(e)

        def apply_L(v):
            return spectral_apply(frame_e, v, ROOT)

        def solve_any(w):
            return spectral_apply(frame_e, w, INV_ROOT)

        return apply_L, solve_any, solve_any

    def bind(A):
        # H(e)^{-1} = (I + B D B^T) / mu_iso with D = diag(mu_iso / mu_B - 1),
        # so with A A^T = R_A^T R_A, factored once per run,
        # M = A H(e)^{-1} A^T = R_A^T (I + C D C^T) R_A / mu_iso for the
        # (m, 2) block C = R_A^{-T} A B, and by Woodbury
        # M^{-1} = mu_iso R_A^{-1} (I - C K C^T) R_A^{-T} with the 2x2
        # K = D (I + C^T C D)^{-1}.  A point takes one A B, which the block
        # shares (its column i is H(e)^{-1/2} A[i], as solve_Lt(A[i]) maps
        # it through the same frame), and one R_A^{-T} A B: no
        # m x m matrix is formed or factored per point.  R_A is factored at
        # the first point, so that a rank-deficient A fails inside the
        # run's loop, as NumericalFailure.
        A = np.ascontiguousarray(A, dtype=float)

        @functools.cache
        def rows_factor():
            return gram_factor(A @ A.T)

        # The product (A B) W_p goes to a buffer kept for the run, and the
        # block is summed into a new array: no other (m, d) temporary per point.
        ABW = np.empty_like(A)

        def mapped(e):
            RA_inv, cond_A = rows_factor()
            RA_inv_T = RA_inv.T
            mu, B, a, W = frame(e)
            AB = A @ B
            C = RA_inv_T @ AB
            C_T = C.T
            mu_iso, mu_1, mu_2 = mu.tolist()
            d1, d2 = mu_iso / mu_1 - 1.0, mu_iso / mu_2 - 1.0
            (g11, g12), (_, g22) = (C_T @ C).tolist()
            # N = I + C^T C D has the eigenvalues of I + C D C^T other than 1.
            n11, n12, n21, n22 = 1.0 + g11 * d1, g12 * d2, g12 * d1, 1.0 + g22 * d2
            det = n11 * n22 - n12 * n21
            half = 0.5 * (n11 + n22)
            lam_hi = half + math.sqrt(max(half * half - det, 0.0))
            lam_lo = det / lam_hi
            if not lam_lo > _NEGLIGIBLE_EIGENVALUE * max(lam_hi, 1.0):
                raise NumericalFailure(RANK_DEFICIENT)
            K = np.array(
                [[d1 * n22 / det, -d1 * n12 / det], [-d2 * n21 / det, d2 * n11 / det]]
            )

            def solve(r):
                s = RA_inv_T @ r
                return mu_iso * (RA_inv @ (s - C @ (K @ (C_T @ s))))

            cond = cond_A * math.sqrt(max(lam_hi, 1.0) / min(lam_lo, 1.0))
            X = a[INV_ROOT] * A
            X += np.matmul(AB, W[INV_ROOT], out=ABW)
            return X.T, solve, cond

        return mapped

    return BarrierOracle(
        dim=d, degree=2, value=value, gradient=gradient,
        hessian_apply=hessian_apply, direction_power_sums=direction_power_sums,
        hessian_factor=hessian_factor, bind=bind,
    )


def _esym_oracle(d: int, k: int) -> BarrierOracle:
    """Barrier ``-ln e_k`` through a Hessian factor split along ``grad p / p``."""
    def point(e):
        # One recurrence tests e_1..e_k > 0, which cuts out the cone in
        # direction 1, and feeds D; e_k is kept as an array the cache can freeze.
        values = _esym_values(e, k)
        if not np.all(values[1:] > 0.0):
            raise NotInterior(f"point outside the open {ELEMENTARY_SYMMETRIC} cone")
        return e.copy(), _esym_deflations(e, values), values[k:]

    point = point_cache(d, point)

    def split_factor(e):
        """``(T, C)`` with ``H(e) = L^T L`` for ``L = C^T T^T``.

        ``H = ghat ghat^T + M`` with ``ghat = grad p / p`` and
        ``M = -hess p / p``.  T is the Householder reflector whose last
        column is ``+-ghat / ||ghat||``, and C is the lower Cholesky factor
        of ``T^T H T``: ``T^T M T`` plus ``||ghat||^2`` in the last diagonal
        entry.  Off ghat, H equals M, so the ``1/p^2`` scale reaches only
        the last pivot.  A Cholesky of the dense H (cond up to 4e16 near
        the boundary) has a backward error that swamps the O(1) curvature
        along e.
        """
        e, deflated, (p_e,) = point(e)
        hp = _esym_pairs(e, deflated, k)
        ghat = deflated[:, k - 1] / p_e
        norm_g = float(np.linalg.norm(ghat))
        v = ghat / norm_g
        v[-1] += math.copysign(1.0, v[-1])
        T = np.eye(d) - (2.0 / np.dot(v, v)) * np.outer(v, v)
        B = T.T @ (-hp / p_e) @ T
        B[-1, -1] += norm_g**2
        try:
            return T, np.linalg.cholesky(B)
        except np.linalg.LinAlgError:
            raise NotInterior("barrier Hessian is not positive definite")

    # The frame, the dual slack and the carry-over check all read the
    # factor at a point; each point's Hessian is built once, from its D.
    split_factor = point_cache(d, split_factor)

    def value(e):
        _, _, (p_e,) = point(e)
        return -math.log(p_e)

    def gradient(e):
        _, deflated, (p_e,) = point(e)
        return -deflated[:, k - 1] / p_e

    def hessian_apply(e, v):
        T, C = split_factor(e)
        return T @ (C @ (C.T @ (T.T @ check_dim(d, v))))

    def direction_power_sums(e, x):
        # Newton's identities on the coefficients: no root extraction, so
        # clustered eigenvalues cost no accuracy.
        e, _, _ = point(e)
        return power_sums_from_coeffs(_esym_restriction(check_dim(d, x), e, k))

    def hessian_factor(e):
        T, C = split_factor(e)

        def apply_L(v):
            return C.T @ (T.T @ np.asarray(v, dtype=float))

        def solve_Lt(v):
            return scipy.linalg.solve_triangular(
                C, T.T @ np.asarray(v, dtype=float), lower=True
            )

        def solve_L(w):
            return T @ scipy.linalg.solve_triangular(
                C, np.asarray(w, dtype=float), lower=True, trans="T"
            )

        return apply_L, solve_Lt, solve_L

    return BarrierOracle(
        dim=d, degree=k, value=value, gradient=gradient,
        hessian_apply=hessian_apply, direction_power_sums=direction_power_sums,
        hessian_factor=hessian_factor,
    )


def restricted_coeffs(family: HpFamily, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Coefficients a_0..a_n of ``t -> p(x + t e)``, ascending.

    The second-order family uses a closed form, the determinant ``det E``
    times the characteristic polynomial of ``-E^{-1} X``, and e_k (the
    product of coordinates is e_d) the exact recurrence of
    ``_esym_restriction``.
    """
    x = check_dim(family.d, x)
    e = check_dim(family.d, e)
    if eval_p(family, e) <= 0.0:
        raise NotInterior("restriction direction must have positive polynomial value")
    if family.name == SECOND_ORDER:
        return np.array(_lorentz_restriction(x, e))
    if family.name == DETERMINANT:
        E = sdp.smat(e)
        return np.linalg.det(E) * np.poly(-np.linalg.solve(E, sdp.smat(x)))[::-1]
    return _esym_restriction(x, e, family.degree)


def power_sums(eigs: np.ndarray) -> tuple[float, float, float, float]:
    """(sum l, sum l^2, sum l^3, sum l^4) from an eigenvalue vector."""
    lam = np.asarray(eigs, dtype=float)
    return tuple(float(np.sum(lam**k)) for k in range(1, 5))


def power_sums_from_coeffs(coeffs: np.ndarray) -> tuple[float, float, float, float]:
    """Power sums from the ascending coefficients of ``t -> p(x + t e)``.

    Uses the monic expansion p(e) prod(t + l_j): e_k = a_{n-k}/a_n, then
    the Newton identities.  Coefficients below index 0 count as zero.
    """
    a = np.asarray(coeffs, dtype=float)
    values = a.tolist()
    mags = [abs(v) for v in values]
    if math.isnan(sum(mags)):
        # np.max of a NaN is NaN, so the test below never fails here, and the
        # sums stay on numpy scalars: they divide by zero to inf or NaN where
        # a Python float raises.
        return _newton_power_sums(a)
    # Relative only: the coefficients scale with p, and a well-scaled
    # polynomial whose p(e) is below 1e-12 is not degenerate.
    if abs(values[-1]) <= 1e-12 * max(mags):
        raise DegenerateLeadingCoefficient("leading coefficient is numerically zero")
    # Past the test a_n is nonzero and every |e_k| is below 1e12, so Python
    # floats, which round as numpy scalars do at a fraction of the cost per
    # operation, neither divide by zero nor overflow.
    return _newton_power_sums(values)


def _newton_power_sums(a) -> tuple[float, float, float, float]:
    """Newton's identities on the ascending coefficients ``a``."""
    n = len(a) - 1
    an = a[-1]

    def elem(k):
        return a[n - k] / an if n - k >= 0 else 0.0

    e1, e2, e3, e4 = (elem(k) for k in range(1, 5))
    p1 = e1
    p2 = e1**2 - 2 * e2
    p3 = e1**3 - 3 * e1 * e2 + 3 * e3
    p4 = e1**4 - 4 * e1**2 * e2 + 2 * e2**2 + 4 * e1 * e3 - 4 * e4
    return (float(p1), float(p2), float(p3), float(p4))


@dataclass(frozen=True)
class HyperbolicityReport:
    trials: int
    failures: int
    max_imag_residual: float


def hyperbolicity_sample_check(
    family: HpFamily, e: np.ndarray, trials: int, seed: int
) -> HyperbolicityReport:
    """Sample Gaussian points and verify all direction eigenvalues are real:
    a trial fails when a root's imaginary part exceeds ``1e-6 (1 + |real|)``."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(family.d)
        a = restricted_coeffs(family, -x, e)
        roots = np.roots(a[::-1])
        resid = float(np.max(np.abs(roots.imag) / (1.0 + np.abs(roots.real))))
        worst = max(worst, resid)
        if resid > 1e-6:
            failures += 1
    return HyperbolicityReport(trials=trials, failures=failures, max_imag_residual=worst)


@dataclass
class HpInstance:
    """min <c, x>  s.t.  A x = b,  x in the family's closed cone."""

    family: HpFamily
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    e0: np.ndarray

    @functools.cached_property
    def oracle(self) -> BarrierOracle:
        """The family's barrier oracle, built once per instance: the start
        check factors ``e0`` with it, and a run reuses that frame."""
        return hp_barrier_oracle(self.family)

    def validate(self) -> None:
        """Check the shapes, then the tests an SDPA file and its start matrix
        pass: :func:`~swathscale.core.check_constraints` and ``check_start``."""
        d = self.family.d
        if self.A.shape[1] != d or self.c.shape != (d,) or self.e0.shape != (d,):
            raise DimensionMismatch("instance arrays inconsistent with ambient dim")
        if self.b.shape != (self.A.shape[0],):
            raise DimensionMismatch("b length must match the rows of A")
        check_constraints(self.A, self.b, self.c)
        check_start(self.A, self.b, self.e0, self.oracle)
