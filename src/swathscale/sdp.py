"""Dense symmetric-matrix backend: -ln det barrier and SDP instances.

Symmetric matrices are carried either as ``(n, n)`` arrays or as
coordinate vectors of length ``d = n(n+1)/2`` under the scaled
vectorization (off-diagonals times sqrt(2)) that turns the trace inner
product into the coordinate dot product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtri

from .core import BarrierOracle, check_constraints, check_dim, gram_solve, point_cache
from .errors import DimensionMismatch, NotInterior

_SQRT2 = np.sqrt(2.0)


def sym_dim(n: int) -> int:
    return n * (n + 1) // 2


def mat_order(d: int) -> int:
    if d < 0 or sym_dim(n := (math.isqrt(8 * d + 1) - 1) // 2) != d:
        raise DimensionMismatch(f"{d} is not a symmetric-matrix coordinate length")
    return n


@functools.lru_cache(maxsize=None)
def _svec_index(n: int) -> tuple[np.ndarray, ...]:
    """For order n: flat positions of the upper triangle in an (n, n)
    matrix and of its mirror image in the lower triangle, half the
    per-coordinate scale (sqrt 2 off the diagonal), the (n, n) map from
    each matrix entry to its coordinate, and the scale of each entry's
    coordinate."""
    iu, ju = np.triu_indices(n)
    upper = iu * n + ju
    lower = ju * n + iu
    scale = np.where(iu == ju, 1.0, _SQRT2)
    coord = np.empty((n, n), dtype=np.intp)
    coord[iu, ju] = coord[ju, iu] = np.arange(iu.size)
    tables = (upper, lower, 0.5 * scale, coord, scale[coord])
    for arr in tables:
        arr.flags.writeable = False  # shared by every caller
    return tables


def svec(X: np.ndarray) -> np.ndarray:
    """Coordinate view of the symmetric part of a matrix:
    ``0.5 (X_ij + X_ji)`` times the scale, so dot(svec X, svec Y) = tr(XY)
    for symmetric X, Y.  On a symmetric matrix this is exactly its upper
    triangle times the scale; callers need not symmetrize first.

    Leading axes are batch axes: ``(..., n, n)`` maps to ``(..., d)``.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[-1]
    upper, lower, half_scale, _, _ = _svec_index(n)
    flat = X.reshape(*X.shape[:-2], n * n)
    # (X_ij + X_ji) * (0.5 scale) rounds as 0.5 (X_ij + X_ji) * scale does:
    # halving is exact.
    out = np.take(flat, upper, axis=-1)
    out += np.take(flat, lower, axis=-1)
    out *= half_scale
    return out


def smat(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`svec`, over the same leading batch axes."""
    v = np.asarray(v, dtype=float)
    *_, coord, entry_scale = _svec_index(mat_order(v.shape[-1]))
    out = np.take(v, coord, axis=-1)
    out /= entry_scale
    return out


@dataclass
class SdpInstance:
    """min tr(C X)  s.t.  tr(A_i X) = b_i,  X psd."""

    C: np.ndarray
    constraints: list[np.ndarray] = field(default_factory=list)
    b: np.ndarray = field(default_factory=lambda: np.zeros(0))
    metadata: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.C.shape[0]

    @property
    def m(self) -> int:
        return len(self.constraints)

    def constraint_rows(self) -> np.ndarray:
        """m x d matrix whose rows are svec(A_i)."""
        return svec(np.reshape(self.constraints, (-1, self.n, self.n)))

    def validate(self) -> None:
        """Check the shapes, then the data with the HP instances' test,
        :func:`~swathscale.core.check_constraints`."""
        if any(A.shape != (self.n, self.n) for A in self.constraints):
            raise DimensionMismatch("constraint matrices must match C's order")
        if self.b.shape != (self.m,):
            raise DimensionMismatch("b length must equal the number of constraints")
        # A non-finite entry of some A_i or of C leaves its svec non-finite.
        check_constraints(self.constraint_rows(), self.b, svec(self.C))


def det_barrier_oracle(n: int) -> BarrierOracle:
    """Barrier ``-ln det`` on svec coordinates: g(E) = -E^{-1},
    H(E)[V] = E^{-1} V E^{-1}."""
    if n < 2:
        raise DimensionMismatch(f"matrix order must be >= 2, got {n}")
    d = sym_dim(n)

    # Every callable reads the point from one Cholesky factor E = G G^T,
    # taken once per point: an iteration probes e_next with value(), and the
    # carry-over check and the next relaxation reuse that factor.  The frame
    # is L[X] = G^{-1} X G^{-T}, a factor of H(E) = L^T L that is not
    # symmetric; the relaxation is the same for every such factor.  numpy
    # and scipy each bundle an OpenBLAS with its own thread pool; with two
    # BLAS threads, a threaded scipy call between numpy calls waits on
    # numpy's spinning workers, which once made an n=40 iteration 3.5 times
    # slower on two cores.  The only scipy call, dtrtri, is a triangular
    # inverse that the relaxation's Gram factor runs as well.
    def build(e):
        """(G, G^{-1}, E^{-1}) at e."""
        try:
            G = np.linalg.cholesky(smat(e))
        except np.linalg.LinAlgError as exc:
            raise NotInterior("matrix is not strictly positive definite") from exc
        G_inv, info = dtrtri(G, lower=1)
        if info != 0:
            raise NotInterior("matrix is not strictly positive definite")
        return G, G_inv, G_inv.T @ G_inv

    factor = point_cache(d, build)

    def value(e):
        G, _, _ = factor(e)
        return -2.0 * float(np.sum(np.log(np.diag(G))))

    def gradient(e):
        _, _, Einv = factor(e)
        return -svec(Einv)

    def hessian_apply(e, v):
        _, _, Einv = factor(e)
        return svec(Einv @ smat(check_dim(d, v)) @ Einv)

    def direction_power_sums(e, x):
        # W = G^{-1} X G^{-T} has the eigenvalues of X in direction E.  Its
        # traces and those of its powers are read as tr W, <W, W>, <W, W^2>
        # and <W^2, W^2> with W symmetric.
        _, G_inv, _ = factor(e)
        W = G_inv @ smat(check_dim(d, x)) @ G_inv.T
        W2 = W @ W
        return (
            float(np.trace(W)), float(np.vdot(W, W)),
            float(np.vdot(W, W2)), float(np.vdot(W2, W2)),
        )

    def congruence(T, v):
        # svec(T smat(v) T^T) for a (d,) vector v.
        return svec(T @ smat(v) @ T.T)

    def hessian_factor(e):
        G, G_inv, _ = factor(e)

        def apply_L(v):
            return congruence(G_inv, v)

        def solve_Lt(s):
            return congruence(G.T, s)

        def solve_L(w):
            return congruence(G, w)

        return apply_L, solve_Lt, solve_L

    def bind(A):
        # The constraint block is mapped at every iterate, so its (m, n, n)
        # matrix stack S is unpacked once per run.  Each iterate maps it as
        # solve_Lt maps each row of A, to the column-major (d, m) block of
        # svec(G^T S_i G), and solves with the block's Gram matrix as the
        # default map does.
        S = smat(A)
        S.flags.writeable = False
        k = len(S)
        # The congruence splits at h: G is lower-triangular, so the rows of
        # G^T from h on are zero left of h, and the upper triangle of
        # G^T S G is read from
        #   [Z11 | Z12] = Y_top G  and  Z22 = (G22^T S22) G22
        # with Y_top = (G^T)[:h] S, for the trailing q x q blocks G22 and S22
        # (S22 read in place, with row stride n: a contiguous copy was no
        # faster): 5n^3/4 multiply-adds per matrix where the full product
        # takes 2n^3.  Splitting Y_top G further, into Y_top G[:, :h] and
        # Y_top[:, h:] G22, saves another n^3/8 but made an n=40 iteration
        # about 3% slower: the smaller products run slower per multiply-add.
        # Each matrix's [Z11 | Z12] rows (h x n) and Z22 (q x q) lie side by
        # side in a (k, h n + q^2) array, from which one np.take gathers the
        # upper triangle in svec order.  The last two products multiply by
        # sqrt(2) G, which gives every entry the svec scale of an
        # off-diagonal one, and the gather scales the n diagonal entries
        # back: a pass over n entries per matrix in place of one over all d.
        h = n // 2
        q = n - h
        iu, ju = np.triu_indices(n)
        split_upper = np.where(iu < h, iu * n + ju, h * n + (iu - h) * q + (ju - h))
        diagonal = np.flatnonzero(iu == ju)
        # The products of every iterate go to buffers kept for the run.  New
        # (m, n, n) arrays per iterate can make glibc trim the heap and fault
        # its pages back in: in a process that built its n=40, m=80
        # instances from the generators, that cost 468 page faults per
        # iterate and made each iterate about 1.5 times as slow.  The
        # gathered block is a new array, which no later iterate overwrites.
        Y_top, Y22 = np.empty((k, h, n)), np.empty((k, q, q))
        Z = np.empty((k, h * n + q * q))

        def mapped(e):
            G, _, _ = factor(e)
            G_scaled = _SQRT2 * G
            np.matmul(G.T[:h], S, out=Y_top)
            np.matmul(G[h:, h:].T, S[:, h:, h:], out=Y22)
            np.matmul(Y_top, G_scaled, out=Z[:, : h * n].reshape(k, h, n))
            np.matmul(Y22, G_scaled[h:, h:], out=Z[:, h * n :].reshape(k, q, q))
            rows = np.take(Z, split_upper, axis=1)
            rows[:, diagonal] /= _SQRT2
            X = rows.T
            return (X, *gram_solve(X.T @ X))

        return mapped

    return BarrierOracle(
        dim=d,
        degree=n,
        value=value,
        gradient=gradient,
        hessian_apply=hessian_apply,
        direction_power_sums=direction_power_sums,
        hessian_factor=hessian_factor,
        bind=bind,
    )
