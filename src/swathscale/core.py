"""Local-metric geometry shared by the SDP and hyperbolic backends.

At an interior point ``e`` the barrier Hessian induces the local inner
product ``<u, v>_e = <u, H(e) v>``.  The circular cones ``K_e(alpha)``
measured in that metric, their duals, the scalar schedule constants, and
the instance and start-point checks of both backends live here;
everything is backend-agnostic and works through a :class:`BarrierOracle`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dtrtri

from .errors import (
    DimensionMismatch, DomainError, InvariantViolation, NotInterior, NumericalFailure,
)

Vector = np.ndarray

RANK_DEFICIENT = "constraint map is rank-deficient at this point"


def check_constraints(A: np.ndarray, b: Vector, c: Vector) -> None:
    """The instance test of both backends: finite data, ``b != 0``, and
    independent rows of ``A`` with ``c`` off their span, to a relative 1e-8."""
    tol = 1e-8
    if not all(np.isfinite(M).all() for M in (A, b, c)):
        raise InvariantViolation("instance data must be finite")
    if b.size == 0 or not np.any(np.abs(b) > tol * (1 + np.abs(b).max())):
        raise InvariantViolation("b must be nonzero (and m >= 1)")

    def rank(M):
        return np.linalg.matrix_rank(M, tol=tol * max(1.0, np.abs(M).max()))

    # Singular values interlace, and the rows' tolerance is no larger, so a
    # stacked rank of m + 1 implies row rank m: only a rejected instance
    # pays for the second SVD, which words the error.
    if rank(np.vstack([A, c])) <= b.size:
        if rank(A) < b.size:
            raise InvariantViolation("constraints are linearly dependent")
        raise InvariantViolation("objective lies in the span of the constraints")


def check_start(A: np.ndarray, b: Vector, e0: Vector, oracle: BarrierOracle) -> None:
    """The start test of both backends: ``e0`` finite, on ``A e0 = b`` to
    ``1e-9 (1 + ||b||_inf)``, and in the open cone: the oracle's frame
    ``hessian_factor(e0)`` exists, and each oracle's point cache keeps it."""
    if not np.isfinite(e0).all():
        raise InvariantViolation("start point entries must be finite")
    if np.max(np.abs(A @ e0 - b)) > 1e-9 * (1.0 + np.abs(b).max()):
        raise InvariantViolation("start point violates A e0 = b")
    try:
        oracle.hessian_factor(e0)
    except NotInterior as exc:
        raise InvariantViolation("start point is not interior") from exc


@dataclass(frozen=True)
class BarrierOracle:
    """Behavioral interface to a logarithmically homogeneous barrier.

    All callables act on ambient coordinate vectors of length ``dim``.
    ``degree`` is the degree of the underlying polynomial; the barrier is
    ``-ln p``.  Every callable that reads a point must raise
    :class:`~swathscale.errors.NotInterior` off the open cone, and
    :class:`~swathscale.errors.DimensionMismatch` on a point, or a
    ``hessian_apply`` or ``hessian_solve`` direction, of another length.
    The iteration needs the local frame (``hessian_factor``) and the constraint
    block mapped into it (``bind``, once per run), Hessian products, the
    first four power sums of the eigenvalues of ``x`` in direction ``e``
    (``direction_power_sums``), and ``value`` as an interiority probe.
    ``hessian_solve`` serves the diagnostics and the tests; ``gradient`` the
    instance generators and the diagnostics.  ``bind`` and ``hessian_solve``
    default to their frame-generic forms, built from ``hessian_factor``.
    """

    dim: int
    degree: int
    value: Callable[[Vector], float]
    gradient: Callable[[Vector], Vector]
    hessian_apply: Callable[[Vector, Vector], Vector]
    # direction_power_sums(e, x) returns (p1, p2, p3, p4), p_j the sum of
    # the j-th powers of the eigenvalues of x in direction e, the roots of
    # l -> p(l e - x), without extracting them.
    direction_power_sums: Callable[[Vector, Vector], tuple]
    # hessian_factor(e) returns (apply_L, solve_Lt, solve_L) for a factor
    # H(e) = L^T L, mapping to and from local coordinates w = L x: apply_L
    # applies L, solve_Lt applies L^{-T} and solve_L applies L^{-1}.  L
    # need not be symmetric; the relaxation, its dual pair and the step are
    # the same for every such factor.  Each closure maps one (d,) vector;
    # blocks are mapped by bind.
    hessian_factor: Callable[[Vector], tuple]
    # bind(A) takes the (m, d) constraint block once per run and returns
    # mapped(e) = (X, solve, cond).  X is the (d, m) block whose column i
    # is solve_Lt(A[i]) of the frame at e, in column-major (Fortran) order:
    # the relaxation's projection passes read each mapped constraint
    # contiguously.  solve(r) applies M^{-1} to an (m, k) block r, for the
    # Gram matrix M = X^T X = A H(e)^{-1} A^T, and cond estimates cond(X),
    # from which the relaxation's refinement takes its pass count; the map
    # raises NumericalFailure when M is numerically singular.  An oracle may
    # solve with M through the structure of H(e)^{-1} (the Lorentz oracle
    # does, in O(m^2) work per point and per application), but only with an
    # error no larger than that of the Cholesky solve of X^T X: the solve's
    # error sets the rate at which the refinement passes contract, and near
    # the cone boundary H(e) has condition numbers beyond 1e12.  cond should
    # err high, as cond_1(R) for M = R^T R mostly does: a low estimate
    # costs accuracy, a high one costs passes.  An oracle may unpack A here
    # (the SDP oracle builds its matrix stack, the Lorentz oracle factors
    # A A^T), so A must not change while the map is in use.
    # The default bind hands the frame's solve_Lt the transpose of a
    # C-contiguous A at each point and solves M = X^T X by gram_solve.  An
    # oracle that keeps it needs a solve_Lt that maps a (d, k) block column
    # by column and keeps its column-major order: the product frame's does
    # through numpy broadcasting, the esym frame's through a matrix product
    # and a triangular solve.
    bind: Callable[[np.ndarray], Callable[[Vector], tuple]] | None = None
    # hessian_solve(e, w) = H(e)^{-1} w = L^{-1} L^{-T} w, by default through
    # the frame at e.
    hessian_solve: Callable[[Vector, Vector], Vector] | None = None
    # A placeholder that no oracle sets and nothing calls: perfbench/tracer.py
    # wraps an oracle field of this name, and is its only reader.
    direction_eigs: Callable | None = None

    def __post_init__(self):
        # Only unset fields are filled: dataclasses.replace passes every
        # field, so a copy keeps the callables of its original.
        factor = self.hessian_factor
        if self.bind is None:

            def bind(A):
                At = np.ascontiguousarray(A).T

                def mapped(e):
                    X = factor(e)[1](At)
                    return (X, *gram_solve(X.T @ X))

                return mapped

            object.__setattr__(self, "bind", bind)
        if self.hessian_solve is None:

            def hessian_solve(e, w):
                _, solve_Lt, solve_L = factor(e)
                return solve_L(solve_Lt(check_dim(self.dim, w)))

            object.__setattr__(self, "hessian_solve", hessian_solve)


def gram_factor(M: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse of the upper triangle ``R`` of the Gram matrix ``M = R^T R``,
    and ``cond_1(R)``.

    Raises NumericalFailure when ``M`` is not numerically positive definite
    or ``R`` has a negligible pivot.
    """
    try:
        R = np.linalg.cholesky(M).T
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(RANK_DEFICIENT) from exc
    R_inv, info = dtrtri(R, lower=0)
    diag_R = np.abs(np.diag(R))
    if info != 0 or diag_R.size == 0 or diag_R.min() <= 1e-13 * max(diag_R.max(), 1.0):
        raise NumericalFailure(RANK_DEFICIENT)
    # cond_1(R) from the 1-norms, summed as np.linalg.norm(., 1) sums them.
    cond1 = np.abs(R).sum(axis=0).max() * np.abs(R_inv).sum(axis=0).max()
    return R_inv, cond1


def gram_solve(M: np.ndarray) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """``(solve, cond_1(R))`` for the Gram matrix ``M = R^T R``: ``solve(r)``
    applies ``M^{-1} = R^{-1} R^{-T}`` through the explicit inverse, two
    products and no triangular solve.  The solve of a bound map by default,
    and of the SDP map."""
    R_inv, cond1 = gram_factor(M)

    def solve(r):
        return R_inv @ (R_inv.T @ r)

    return solve, cond1


def check_dim(d: int, x: Vector) -> Vector:
    """``x`` as a float array, which must have shape ``(d,)``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise DimensionMismatch(f"expected vector of length {d}, got {x.shape}")
    return x


def point_cache(d: int, build: Callable[[Vector], tuple]) -> Callable[[Vector], tuple]:
    """One-entry cache of ``build(e)``, keyed on the bytes of the point ``e``.

    Each point first goes through ``check_dim(d, e)``: every oracle reads
    points through its cache, so this is where a point's length is checked,
    and ``build`` sees only ``(d,)`` float arrays.  An iteration visits
    each point several times (frame, dual slack, step, interiority probe,
    carry-over check), so each oracle factors a point once and reads every
    quantity from that factor.  A hit returns exactly what a rebuild would,
    and a point changed in place misses.  A failing build (``NotInterior``)
    is not stored and leaves the cached entry in place.  The cached arrays
    are made read-only, since every later caller shares them.
    """
    key = None
    entry = None

    def cached(e):
        nonlocal key, entry
        e = check_dim(d, e)
        probe = e.tobytes()
        if probe != key:
            built = build(e)
            for arr in built:
                arr.flags.writeable = False
            key, entry = probe, built
        return entry

    return cached


class Membership(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def local_inner(oracle: BarrierOracle, e: Vector, u: Vector, v: Vector) -> float:
    """``<u, v>_e = <u, H(e) v>``; symmetric and bilinear."""
    return float(np.dot(u, oracle.hessian_apply(e, v)))


def local_norm(oracle: BarrierOracle, e: Vector, v: Vector) -> float:
    return math.sqrt(max(local_inner(oracle, e, v, v), 0.0))


@dataclass(frozen=True)
class QuadCone:
    """The circular cone ``K_e(alpha) = {x : <e,x>_e >= alpha ||x||_e}``.

    Requires ``0 < alpha < sqrt(n)`` and degree ``n >= 2`` so that the
    dual parameter ``sqrt(n - alpha^2)`` stays >= 1.
    """

    oracle: BarrierOracle
    e: Vector
    alpha: float

    def __post_init__(self):
        n = self.oracle.degree
        if n < 2:
            raise DomainError(f"cone degree must be >= 2, got {n}")
        if not 0.0 < self.alpha < math.sqrt(n):
            raise DomainError(f"alpha={self.alpha} outside (0, sqrt({n}))")

    @property
    def dual_alpha(self) -> float:
        return math.sqrt(self.oracle.degree - self.alpha**2)


def _classify(proj: float, norm_sq: float, alpha: float) -> Membership:
    """Place ``<e, x>_e = proj`` and ``||x||_e^2 = norm_sq`` against
    ``K_e(alpha)`` (see :func:`primal_cone_member`)."""
    norm = math.sqrt(max(norm_sq, 0.0))
    slack = proj - alpha * norm
    band = 1e-9 * norm
    if abs(slack) <= band:
        return Membership.BOUNDARY
    return Membership.INTERIOR if slack > 0 else Membership.OUTSIDE


def primal_cone_member(cone: QuadCone, x: Vector) -> Membership:
    """Classify ``x`` against ``K_e(alpha)`` with a relative band of 1e-9.

    The band scales with ``||x||_e`` so classification is invariant under
    positive rescaling of ``x`` (cones are scale-invariant sets).
    Boundary means ``|<e,x>_e - alpha ||x||_e| <= 1e-9 ||x||_e``.
    """
    hx = cone.oracle.hessian_apply(cone.e, x)
    return _classify(float(np.dot(cone.e, hx)), float(np.dot(x, hx)), cone.alpha)


def dual_cone_member(cone: QuadCone, s: Vector) -> Membership:
    """Classify ``s`` against ``K_e(alpha)* = H(e) K_e(sqrt(n - alpha^2))``.

    That is ``x = H(e)^{-1} s`` against ``K_e(sqrt(n - alpha^2))``, where
    ``<e, x>_e = <e, s>`` and ``||x||_e^2 = <s, H(e)^{-1} s> = ||L^{-T} s||^2``
    for the frame ``H(e) = L^T L``: one triangular solve.
    """
    pulled = cone.oracle.hessian_factor(cone.e)[1](s)
    return _classify(
        float(np.dot(cone.e, s)), float(np.dot(pulled, pulled)), cone.dual_alpha
    )


@dataclass(frozen=True)
class ScheduleConstants:
    """Step-schedule scalars derived from alpha and the degree."""

    alpha: float
    beta: float
    kappa: float
    ratio_bound: float


def schedule_constants(alpha: float, n: int) -> ScheduleConstants:
    """beta = alpha sqrt((1+alpha)/2), kappa = alpha sqrt((1-alpha)/8),
    ratio_bound = 1 - kappa/(kappa + sqrt(n))."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    if n < 2:
        raise DomainError(f"degree must be >= 2, got {n}")
    beta = alpha * math.sqrt((1.0 + alpha) / 2.0)
    kappa = alpha * math.sqrt((1.0 - alpha) / 8.0)
    return ScheduleConstants(
        alpha=alpha,
        beta=beta,
        kappa=kappa,
        ratio_bound=1.0 - kappa / (kappa + math.sqrt(n)),
    )
