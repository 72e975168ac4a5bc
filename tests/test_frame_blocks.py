"""Block-capable local frames, the bound constraint-block map, and
batched svec/smat.

Every frame closure maps a ``(d, k)`` block column by column, the bound
map of a block is the frame's map of it, and the batched vectorization
maps a stack of matrices matrix by matrix.  The single-vector calls are
the reference.
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


def assert_columns_match(block_fn, single_fn, B):
    out = block_fn(B)
    assert out.shape == B.shape
    for j in range(B.shape[1]):
        ref = single_fn(B[:, j])
        assert np.linalg.norm(out[:, j] - ref) <= REL * np.linalg.norm(ref)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, k=st.integers(1, 9))
def test_frame_block_matches_columns(family, seed, k):
    rng = np.random.default_rng(seed)
    e = interior_point(family, rng)
    B = rng.standard_normal((family.d, k))
    for closure in sw.hp_barrier_oracle(family).hessian_factor(e):
        assert_columns_match(closure, closure, B)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, k=st.integers(1, 5))
def test_frame_factors_hessian(family, seed, k):
    # The contract of BarrierOracle.hessian_factor: H(e) = L^T L, solve_L
    # inverts L and solve_Lt inverts L^T.  L need not be symmetric (the SDP
    # frame is the congruence by G^{-1} for E = G G^T), so L L != H there.
    rng = np.random.default_rng(seed)
    e = interior_point(family, rng)
    oracle = sw.hp_barrier_oracle(family)
    apply_L, solve_Lt, solve_L = oracle.hessian_factor(e)
    U, V = rng.standard_normal((2, family.d, k))
    HV = np.column_stack([oracle.hessian_apply(e, v) for v in V.T])

    def close(got, want, scale):
        assert np.max(np.abs(got - want)) <= 1e-10 * scale

    # (d, k) blocks, then single vectors.
    for u, v, hv in ((U, V, HV), (U[:, 0], V[:, 0], HV[:, 0])):
        Lu, Lv = apply_L(u), apply_L(v)
        close(Lu.T @ Lv, u.T @ hv, np.linalg.norm(Lu) * np.linalg.norm(Lv))
        close(solve_L(Lv), v, np.linalg.norm(v))
        close(solve_Lt(u).T @ Lv, u.T @ v, np.linalg.norm(u) * np.linalg.norm(v))


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
@settings(max_examples=10, deadline=None)
@given(seed=SEEDS)
def test_frame_accepts_transposed_rows(family, seed):
    # solve_qcp hands the frame A.T, a non-contiguous view of the rows.
    rng = np.random.default_rng(seed)
    e = interior_point(family, rng)
    A = rng.standard_normal((5, family.d))
    _, solve_Lt, _ = sw.hp_barrier_oracle(family).hessian_factor(e)
    assert_columns_match(solve_Lt, solve_Lt, A.T)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_bound_map_is_the_frames_block_map(family):
    # The block X of bind(A) maps the constraint block at each point bit for
    # bit as the frame's solve_Lt(A.T) does (the SDP oracle from a matrix
    # stack it unpacks once, through work buffers it keeps for the run; a
    # returned block never shares them, so a later call leaves it as it
    # was; the Lorentz oracle through the A B it shares with its Gram
    # solve).  An
    # unbound block is mapped from its contents at each call, so one
    # changed in place maps from its new entries.
    rng = np.random.default_rng(0)
    oracle = sw.hp_barrier_oracle(family)
    A = rng.standard_normal((4, family.d))
    mapped = oracle.bind(A)
    blocks = []
    for _ in range(3):
        e = interior_point(family, rng)
        _, solve_Lt, _ = oracle.hessian_factor(e)
        blocks.append((mapped(e)[0], solve_Lt(A.T)))
    for got, want in blocks:
        np.testing.assert_array_equal(got, want)
    before = solve_Lt(A.T)
    A[1, 3] += 1.0
    after = solve_Lt(A.T)
    _, fresh, _ = sw.hp_barrier_oracle(family).hessian_factor(e)
    np.testing.assert_array_equal(after, fresh(A.T))
    assert not np.array_equal(after, before)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_bound_block_is_column_major(family):
    # The relaxation's Gram product and projection passes read each mapped
    # constraint contiguously, so every oracle's bound map returns the
    # (d, m) block in column-major order, each column the frame's map of
    # that constraint row, whatever the memory order of A.
    rng = np.random.default_rng(1)
    oracle = sw.hp_barrier_oracle(family)
    A = rng.standard_normal((5, family.d))
    e = interior_point(family, rng)
    _, solve_Lt, _ = oracle.hessian_factor(e)
    for rows in (A, np.asfortranarray(A)):
        block, _, _ = oracle.bind(rows)(e)
        assert block.shape == (family.d, 5)
        assert block.flags.f_contiguous
        assert_columns_match(lambda _: block, solve_Lt, A.T)


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
    # keeps for the run; the frame's block solve_Lt runs the same products.
    # Each column matches the dense svec(G^T S_i G), the block is
    # column-major and the bound map's block is solve_Lt(A.T) bit for bit,
    # and a block handed out earlier is left as it was by later calls.
    # At n = 2 the d = 3 coordinates admit at most 3 independent rows.
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
        _, solve_Lt, _ = oracle.hessian_factor(e)
        X = solve_Lt(A.T)
        assert X.shape == (sw.sym_dim(n), m)
        assert X.flags.f_contiguous
        G = np.linalg.cholesky(sw.smat(e))
        for j in range(m):
            ref = sw.svec(G.T @ S[j] @ G)
            assert np.linalg.norm(X[:, j] - ref) <= 1e-13 * np.linalg.norm(ref)
        try:
            block = mapped(e)[0]
        except NumericalFailure:
            # The Gram solve judged the block rank-deficient: at a wide
            # spread its Gram matrix can have a condition number near 1/u.
            continue
        np.testing.assert_array_equal(block, X)
        blocks.append((block, block.copy()))
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
    # projections.  Bound: each mapped column v, as a (d, k) block and as a
    # vector, is within 8 sqrt(d) u ||H(e)^p||_2 ||v|| of the reference
    # (u = 2^-53), the rounding of B's entries and of the d-term sums v^T B
    # scaled by the largest eigenvalue.  At (t - r)/t = 1e-12, H(e) has
    # condition number about 4e24.
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
    for fn, p in maps:
        want = reference(V, p)
        norm_Hp = float(max(mu_iso**p, *(mu_B**p)))
        block = fn(V)
        assert block.shape == V.shape
        for j in range(V.shape[1]):
            bound = 8 * math.sqrt(d) * u * norm_Hp * np.linalg.norm(V[:, j])
            assert np.linalg.norm(block[:, j] - want[:, j]) <= bound, (p, j)
            assert np.linalg.norm(fn(V[:, j]) - want[:, j]) <= bound, (p, j)


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
