"""Local frames, the bound constraint-block map, and batched svec/smat.

The frame closures map single vectors and ``bind`` is each oracle's one
block map: each column of the bound map's block is the frame's
``solve_Lt`` of that constraint row, and the batched vectorization maps a
stack of matrices matrix by matrix.  The single-vector calls are the
reference.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import swathscale as sw
from swathscale.core import gram_solve
from swathscale.errors import DimensionMismatch, NumericalFailure
from swathscale.hyperbolic import SECOND_ORDER

FAMILIES = [
    sw.product_family(7),
    sw.second_order_family(7),
    sw.determinant_family(4),
    sw.elementary_symmetric_family(7, 4),
]
SEEDS = st.integers(0, 2**32 - 1)
REL = 1e-12


def interior_point(family, rng):
    """A random point strictly inside the cone, at local distance < 1
    from the family's canonical direction."""
    oracle = sw.hp_barrier_oracle(family)
    e0 = family.canonical_direction()
    w = rng.standard_normal(family.d)
    radius = rng.uniform(0.05, 0.9)
    return e0 + (radius / math.sqrt(float(np.dot(w, oracle.hessian_apply(e0, w))))) * w


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS)
def test_frame_factors_hessian(family, seed):
    # The contract of BarrierOracle.hessian_factor: H(e) = L^T L, solve_L
    # inverts L and solve_Lt inverts L^T.  L need not be symmetric (the SDP
    # frame is the congruence by G^{-1} for E = G G^T), so L L != H there.
    rng = np.random.default_rng(seed)
    e = interior_point(family, rng)
    oracle = sw.hp_barrier_oracle(family)
    apply_L, solve_Lt, solve_L = oracle.hessian_factor(e)
    u, v = rng.standard_normal((2, family.d))
    hv = oracle.hessian_apply(e, v)

    def close(got, want, scale):
        assert np.max(np.abs(got - want)) <= 1e-10 * scale

    Lu, Lv = apply_L(u), apply_L(v)
    close(Lu @ Lv, u @ hv, np.linalg.norm(Lu) * np.linalg.norm(Lv))
    close(solve_L(Lv), v, np.linalg.norm(v))
    close(solve_Lt(u) @ Lv, u @ v, np.linalg.norm(u) * np.linalg.norm(v))


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_bound_map_is_the_frames_block_map(family):
    # At each point the block X of bind(A) is, bit for bit, what a map bound
    # afresh to A returns there: what the map keeps for the run (the SDP
    # oracle's matrix stack and work buffers, the Lorentz oracle's factor
    # of A A^T) carries nothing from one point to the next.  A returned
    # block never shares the work buffers, so a later call leaves it as it
    # was.  test_frame_block_matches_columns checks each column against the
    # frame's solve_Lt.
    rng = np.random.default_rng(0)
    oracle = sw.hp_barrier_oracle(family)
    A = rng.standard_normal((4, family.d))
    mapped = oracle.bind(A)
    blocks = []
    for _ in range(3):
        e = interior_point(family, rng)
        X = mapped(e)[0]
        np.testing.assert_array_equal(X, oracle.bind(A)(e)[0])
        blocks.append((X, X.copy()))
    for X, kept in blocks:
        np.testing.assert_array_equal(X, kept)


def assert_columns_match(block, single_fn, A):
    # Column j of block is single_fn(A[j]), within REL.
    assert block.shape == (A.shape[1], A.shape[0])
    for j in range(A.shape[0]):
        ref = single_fn(np.ascontiguousarray(A[j]))
        assert np.linalg.norm(block[:, j] - ref) <= REL * np.linalg.norm(ref)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, k=st.integers(1, 9))
def test_frame_block_matches_columns(family, seed, k):
    # bind is the one block map: column j of the bound map's (d, k) block
    # is the frame's vector solve_Lt of constraint row j.  A block of full
    # row rank has at most d rows.
    k = min(k, family.d)
    rng = np.random.default_rng(seed)
    oracle = sw.hp_barrier_oracle(family)
    A = rng.standard_normal((k, family.d))
    e = interior_point(family, rng)
    _, solve_Lt, _ = oracle.hessian_factor(e)
    assert_columns_match(oracle.bind(A)(e)[0], solve_Lt, A)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
@settings(max_examples=10, deadline=None)
@given(seed=SEEDS)
def test_frame_accepts_transposed_rows(family, seed):
    # A held as the transpose of a (d, k) array has non-contiguous rows.
    # Each frame closure maps such a strided row as it maps a contiguous
    # copy, and the bound map of the transposed A is, column by column,
    # the frame's solve_Lt of its rows.
    rng = np.random.default_rng(seed)
    oracle = sw.hp_barrier_oracle(family)
    A = rng.standard_normal((family.d, 5)).T
    assert not A[0].flags.c_contiguous
    e = interior_point(family, rng)
    closures = oracle.hessian_factor(e)
    for closure in closures:
        for row in A:
            ref = closure(np.ascontiguousarray(row))
            assert np.linalg.norm(closure(row) - ref) <= REL * np.linalg.norm(ref)
    assert_columns_match(oracle.bind(A)(e)[0], closures[1], A)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, k=st.integers(1, 9))
def test_bound_block_is_column_major(family, seed, k):
    # The relaxation's Gram product and projection passes read each mapped
    # constraint contiguously, so every oracle's bound map returns the
    # (d, k) block in column-major order whatever the memory order of A;
    # the blocks of C-order and F-order A agree column by column.
    k = min(k, family.d)
    rng = np.random.default_rng(seed)
    oracle = sw.hp_barrier_oracle(family)
    A = rng.standard_normal((k, family.d))
    e = interior_point(family, rng)
    blocks = []
    for rows in (A, np.asfortranarray(A)):
        block, _, _ = oracle.bind(rows)(e)
        assert block.shape == (family.d, k)
        assert block.flags.f_contiguous
        blocks.append(block)
    for got, ref in zip(blocks[1].T, blocks[0].T):
        assert np.linalg.norm(got - ref) <= REL * np.linalg.norm(ref)


@settings(max_examples=40, deadline=None)
@given(
    seed=SEEDS,
    n=st.integers(2, 11),
    m=st.sampled_from([1, 4]),
    log_spread=st.floats(0.0, 8.0),
)
def test_sdp_bound_map_split_matches_dense_congruence(seed, n, m, log_spread):
    # The SDP bound map reads the upper triangle of G^T S_i G from products
    # split at h = n // 2 (one row in a block at n = 2, 3), into buffers it
    # keeps for the run.  Each column matches the dense svec(G^T S_i G),
    # the block is column-major, and a block handed out earlier is left as
    # it was by later calls.  At n = 2 the d = 3 coordinates admit at most
    # 3 independent rows.
    m = min(m, sw.sym_dim(n))
    rng = np.random.default_rng(seed)
    oracle = sw.det_barrier_oracle(n)
    A = rng.standard_normal((m, sw.sym_dim(n)))
    S = sw.smat(A)
    mapped = oracle.bind(A)
    blocks = []
    for _ in range(2):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        e = sw.svec((Q * np.logspace(0.0, log_spread, n)) @ Q.T)
        try:
            X = mapped(e)[0]
        except NumericalFailure:
            # The Gram solve judged the block rank-deficient: at a wide
            # spread its Gram matrix can have a condition number near 1/u.
            continue
        assert X.shape == (sw.sym_dim(n), m)
        assert X.flags.f_contiguous
        G = np.linalg.cholesky(sw.smat(e))
        for j in range(m):
            ref = sw.svec(G.T @ S[j] @ G)
            assert np.linalg.norm(X[:, j] - ref) <= 1e-13 * np.linalg.norm(ref)
        blocks.append((X, X.copy()))
    for block, kept in blocks:
        np.testing.assert_array_equal(block, kept)
    if len(blocks) == 2:
        assert not np.shares_memory(blocks[0][0], blocks[1][0])


def cholesky_long_double(M):
    """Lower Cholesky factor of a long-double matrix, in long double."""
    L = np.zeros_like(M)
    for j in range(M.shape[0]):
        pivot = np.sqrt(M[j, j] - L[j, :j] @ L[j, :j])
        L[j, j] = pivot
        L[j + 1 :, j] = (M[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / pivot
    return L


def lorentz_solve_errors(ratio):
    """Errors of the Lorentz map's Gram solve and of the Cholesky solve of
    X^T X at a point with (t - r)/t = ratio, for a random (100, 200) block A.

    The reference is M_ref = A H(e)^{-1} A^T = L_ref L_ref^T in long double,
    from H(e)^{-1} = e e^T - (p(e)/2) J with J = diag(-1, ..., -1, 1) and
    p(e) = (t - r)(t + r).  The error of a solve that applies the matrix S
    is ||L_ref^T S L_ref - I||_2, the factor by which a refinement pass
    leaves the error of the pass before.
    """
    d, m = 200, 100
    rng = np.random.default_rng(0)
    A = rng.standard_normal((m, d))
    u = rng.standard_normal(d - 1)
    e = np.append((1.0 - ratio) * u / np.linalg.norm(u), 1.0)
    X, solve, _ = sw.hp_barrier_oracle(sw.second_order_family(d)).bind(A)(e)
    el, Al = e.astype(np.longdouble), A.astype(np.longdouble)
    t, r = el[-1], np.sqrt(np.sum(el[:-1] ** 2))
    J = np.append(-np.ones(d - 1), 1.0).astype(np.longdouble)
    Ae = Al @ el
    M_ref = np.outer(Ae, Ae) - ((t - r) * (t + r) / 2) * ((Al * J) @ Al.T)
    L = cholesky_long_double(M_ref)

    def error(solve):
        S = solve(np.eye(m)).astype(np.longdouble)
        return np.linalg.norm((L.T @ S @ L - np.eye(m)).astype(float), 2)

    return error(solve), error(gram_solve(X.T @ X)[0])


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_bound_gram_is_the_blocks_gram(family):
    # Beside X the map returns a solve with its Gram matrix
    # M = X^T X = A H(e)^{-1} A^T and an estimate of cond(X): the Cholesky
    # solve of the product X^T X and cond_1 of its factor, bit for bit,
    # except that the Lorentz oracle solves in closed form through
    # H(e)^{-1} and the factor of A A^T.  That inverts X^T X to rounding,
    # its estimate errs high, and near the cone boundary, where H(e) has
    # condition number about 4 / ratio^2 at (t - r)/t = ratio, its solve
    # is no less accurate than the Cholesky solve.
    rng = np.random.default_rng(2)
    oracle = sw.hp_barrier_oracle(family)
    mapped = oracle.bind(rng.standard_normal((5, family.d)))
    for _ in range(5):
        X, solve, cond = mapped(interior_point(family, rng))
        r = rng.standard_normal((5, 3))
        if family.name == SECOND_ORDER:
            back = solve(X.T @ X @ r)
            assert np.linalg.norm(back - r) <= 1e-12 * np.linalg.norm(r)
            assert cond >= np.linalg.cond(X)
        else:
            cholesky_solve, cholesky_cond = gram_solve(X.T @ X)
            np.testing.assert_array_equal(solve(r), cholesky_solve(r))
            assert cond == cholesky_cond
    if family.name == SECOND_ORDER:
        for ratio in (1e-6, 1e-12):
            closed_form, cholesky = lorentz_solve_errors(ratio)
            assert closed_form <= cholesky, ratio


def test_lorentz_gram_solve_rank_verdicts():
    # The Lorentz map judges rank where a Cholesky factor of M would: a
    # repeated constraint row fails the pivot test of A A^T's factor, and a
    # constraint along b1 at (t - r)/t = 2^-53 has curvature (t - r)^2/2
    # lost in rounding against the unit eigenvalue of I + C D C^T.
    oracle = sw.hp_barrier_oracle(sw.second_order_family(3))
    e = np.array([1.0 - 2.0**-53, 0.0, 1.0])
    repeated = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    along_b1 = np.array([[-1.0, 0.0, 1.0]]) / math.sqrt(2.0)
    for A in (repeated, along_b1):
        with pytest.raises(NumericalFailure):
            oracle.bind(A)(e)
    # The same constraint off the boundary solves.
    _, solve, _ = oracle.bind(along_b1)(np.array([0.5, 0.0, 1.0]))
    assert np.isfinite(solve(np.ones((1, 1)))).all()


def lorentz_point_with_exact_radius(d, ratio, rng):
    """e = (u, t) with (t - r)/t = ratio up to rounding of t, where u is an
    integer vector whose sum of squares is the perfect square r^2.  Then
    r = ||u|| and t - r are exact in floating point, so the frame and the
    reference below see the same eigenvalues; with a rounded r, t - r at
    ratio 1e-12 would carry a relative error near u / ratio."""
    w = rng.integers(-50, 51, d - 2)
    if int(w @ w) % 4 == 2:
        w[0] += 1
    S = int(w @ w)
    # (r - z)(r + z) = S with r - z = 1 for odd S and r - z = 2 for S = 0 mod 4.
    z, r = ((S - 1) // 2, (S + 1) // 2) if S % 2 else (S // 4 - 1, S // 4 + 1)
    u = rng.permutation(np.append(w, z)).astype(float)
    return np.append(u, r / (1.0 - ratio))


@pytest.mark.parametrize("ratio", [0.5, 1e-6, 1e-12])
@pytest.mark.parametrize("d", [2, 7, 200])
def test_lorentz_frame_near_the_boundary(d, ratio):
    # The frame maps v to H(e)^p v, p = 1/2 (apply_L), -1/2 (solve_Lt and
    # solve_L) and 1 (hessian_apply), as a scaled identity plus a rank-2
    # update.  The reference is the closed-form eigendecomposition in long
    # double: mu_1^p on b1 = (-u/r, 1)/sqrt(2), mu_2^p on b2 = (u/r, 1)/sqrt(2)
    # and mu_iso^p on their complement, with mu_1 = 2/(t-r)^2,
    # mu_2 = 2/(t+r)^2 and mu_iso = 2/((t-r)(t+r)), applied through explicit
    # projections.  Bound: each mapped vector v is within
    # 8 sqrt(d) u ||H(e)^p||_2 ||v|| of the reference (u = 2^-53), the
    # rounding of B's entries and of the d-term sums v^T B scaled by the
    # largest eigenvalue.  Each column of the bound map's block, the p = -1/2
    # map of a constraint row, is held to the same bound, for a block of
    # full row rank that the map's rank verdict accepts at every point here.
    # At (t - r)/t = 1e-12, H(e) has condition number about 4e24.
    rng = np.random.default_rng([d, int(-math.log10(ratio))])
    e = lorentz_point_with_exact_radius(d, ratio, rng)
    oracle = sw.hp_barrier_oracle(sw.second_order_family(d))
    apply_L, solve_Lt, solve_L = oracle.hessian_factor(e)
    el = e.astype(np.longdouble)
    t, r = el[-1], np.sqrt(np.sum(el[:-1] ** 2))
    lo, hi = t - r, t + r
    mu_iso, mu_B = 2 / (lo * hi), np.array([2 / lo**2, 2 / hi**2])
    B = np.zeros((d, 2), dtype=np.longdouble)
    B[:-1, 0], B[:-1, 1] = -el[:-1] / r, el[:-1] / r
    B[-1, :] = 1
    B /= np.sqrt(np.longdouble(2))
    # Random columns, b1, b2, and (for d > 2) a column in the complement.
    Bf = B.astype(float)
    V = np.column_stack([rng.standard_normal((d, 4)), Bf])
    if d > 2:
        c = rng.standard_normal(d)
        V = np.column_stack([V, c - Bf @ (Bf.T @ c)])

    def reference(v, p):
        C = B.T @ v.astype(np.longdouble)
        return (mu_iso**p * (v - B @ C) + B @ (mu_B[:, None] ** p * C)).astype(float)

    maps = [
        (apply_L, 0.5), (solve_Lt, -0.5), (solve_L, -0.5),
        (lambda v: oracle.hessian_apply(e, v), 1.0),
    ]
    u = np.finfo(float).eps / 2

    def bound(v, p):
        norm_Hp = float(max(mu_iso**p, *(mu_B**p)))
        return 8 * math.sqrt(d) * u * norm_Hp * np.linalg.norm(v)

    for fn, p in maps:
        want = reference(V, p)
        for j in range(V.shape[1]):
            assert np.linalg.norm(fn(V[:, j]) - want[:, j]) <= bound(V[:, j], p), (p, j)
    A = rng.standard_normal((min(d - 1, 4), d))
    X, _, _ = oracle.bind(A)(e)
    want = reference(A.T, -0.5)
    for j, row in enumerate(A):
        assert np.linalg.norm(X[:, j] - want[:, j]) <= bound(row, -0.5), j


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 9), batch=st.lists(st.integers(0, 4), max_size=2))
def test_batched_svec_smat_match_per_matrix(seed, n, batch):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((*batch, n, n))
    X = 0.5 * (M + np.swapaxes(M, -1, -2))
    V = sw.svec(X)
    assert V.shape == (*batch, sw.sym_dim(n))
    for idx in np.ndindex(*batch):
        np.testing.assert_array_equal(V[idx], sw.svec(X[idx]))
    back = sw.smat(V)
    assert back.shape == X.shape
    for idx in np.ndindex(*batch):
        np.testing.assert_array_equal(back[idx], sw.smat(V[idx]))
    np.testing.assert_allclose(back, X, rtol=0, atol=1e-14)
    np.testing.assert_allclose(sw.svec(back), V, rtol=0, atol=1e-14)
    # svec reads the symmetric part: the upper triangle of a symmetric
    # matrix exactly, and of 0.5 (M + M^T) for any M.
    iu, ju = np.triu_indices(n)
    scale = np.where(iu == ju, 1.0, math.sqrt(2.0))
    np.testing.assert_array_equal(V, X[..., iu, ju] * scale)
    np.testing.assert_array_equal(sw.svec(M), V)


@pytest.mark.parametrize("shape", [(11,), (3, 11), (2, 2, 4)])
def test_smat_rejects_bad_length(shape):
    with pytest.raises(DimensionMismatch):
        sw.smat(np.zeros(shape))


def test_constraint_rows_is_one_batched_svec():
    inst, _ = sw.gen_central_path_sdp(6, 9, 1.0, 3)
    rows = inst.constraint_rows()
    assert rows.shape == (9, sw.sym_dim(6))
    for row, A in zip(rows, inst.constraints):
        np.testing.assert_array_equal(row, sw.svec(A))
