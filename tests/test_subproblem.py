"""Quadratic-cone relaxation: closed-form optimum, dual recovery, KKT."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swathscale as sw
from swathscale.errors import DimensionMismatch, DomainError, NumericalFailure
from swathscale.core import gram_factor, gram_solve
from swathscale.subproblem import _pass_count, _refined_solve

from conftest import diag2_problem, make_sdp

SQRT7 = 2.6457513110645905905


def assemble_first_order_system(oracle, A, c, e, alpha):
    """Linear part of the stationarity system over unknowns (x, y, lambda).

    Rows encode ``A x = A e`` and
    ``0 = lambda c + A^T y + <g(e), x> g(e) - alpha^2 H(e) x``, with the
    dense H(e) built column by column from ``hessian_apply``: an
    independent check on the closed-form solve, which never forms H.
    """
    m, d = A.shape
    g = oracle.gradient(e)
    H = np.column_stack([oracle.hessian_apply(e, col) for col in np.eye(d)])
    M = np.zeros((m + d, d + m + 1))
    M[:m, :d] = A
    M[m:, :d] = np.outer(g, g) - alpha**2 * H
    M[m:, d : d + m] = A.T
    M[m:, d + m] = c
    rhs = np.concatenate([A @ e, np.zeros(d)])
    return M, rhs


class TestWorkedInstance:
    """Hand-solvable diagonal instance with every quantity known exactly."""

    def solve(self):
        oracle, A, b, c, e = diag2_problem()
        return oracle, sw.solve_qcp(oracle, A, b, c, e, 0.5)

    def test_primal(self):
        _, sol = self.solve()
        X = sw.smat(sol.x_e)
        # [DERIVED] closed-form solution of the 2x2 diagonal relaxation.
        assert X[0, 0] == pytest.approx(1.0 + SQRT7, rel=1e-10)
        assert X[1, 1] == pytest.approx(1.0 - SQRT7, rel=1e-10)
        assert abs(X[0, 1]) < 1e-10

    def test_gap_and_multiplier(self):
        _, sol = self.solve()
        assert sol.gap == pytest.approx(SQRT7, rel=1e-10)
        assert sol.lambda_mult == pytest.approx(-3.5 / SQRT7, rel=1e-10)

    def test_dual_pair(self):
        _, sol = self.solve()
        S = sw.smat(sol.s_e)
        assert S[0, 0] == pytest.approx((SQRT7 - 1.0) / 2.0, rel=1e-10)
        assert S[1, 1] == pytest.approx((SQRT7 + 1.0) / 2.0, rel=1e-10)
        assert abs(S[0, 1]) < 1e-10
        assert sol.y_e[0] == pytest.approx((3.0 - SQRT7) / 2.0, rel=1e-10)


class TestFirstOrderSystem:
    def test_solution_satisfies_linear_system(self):
        # The returned (x, y*lambda-scaled, lambda) solves the assembled system.
        oracle, A, b, c, e, _, _ = make_sdp(4, seed=1)
        alpha = 0.5
        sol = sw.solve_qcp(oracle, A, b, c, e, alpha)
        M, rhs = assemble_first_order_system(oracle, A, c, e, alpha)
        m, d = A.shape
        y_scaled = -sol.lambda_mult * sol.y_e
        z = np.concatenate([sol.x_e, y_scaled, [sol.lambda_mult]])
        resid = M @ z - rhs
        assert np.max(np.abs(resid)) < 1e-6 * (1.0 + np.max(np.abs(M)))

    def test_shape_and_feasibility_rows(self):
        oracle, A, b, c, e, _, _ = make_sdp(3, m=3, seed=0)
        M, rhs = assemble_first_order_system(oracle, A, c, e, 0.5)
        m, d = A.shape
        assert M.shape == (m + d, d + m + 1)
        assert np.allclose(M[:m, :d], A)
        assert np.allclose(rhs[:m], A @ e)


def kkt_input(seed):
    """(oracle, A, b, c, e, alpha) of one TestKktIdentities case: a
    generated instance at its start point, or the named parabolic point."""
    if seed == "diag2-parabolic":
        # The worked instance's second iterate at alpha = 0.5,
        # E1 = diag(1 + sqrt7/7, 1 - sqrt7/7).  There ||ehat_perp||^2 =
        # n - (tr E1^-1)^2 / tr E1^-2 = alpha^2, so the feasible slice of
        # the relaxation is a parabola.
        oracle, A, b, c, _ = diag2_problem()
        E1 = np.diag([1.0 + SQRT7 / 7.0, 1.0 - SQRT7 / 7.0])
        inv = np.linalg.inv(E1)
        assert np.trace(inv) ** 2 / np.trace(inv @ inv) == pytest.approx(2.0 - 0.25)
        return oracle, A, b, c, sw.svec(E1), 0.5
    n = 3 + seed % 4
    oracle, A, b, c, e, _, _ = make_sdp(n, m=n, seed=seed)
    return oracle, A, b, c, e, 0.3 + 0.1 * (seed % 5)


class TestKktIdentities:
    @pytest.mark.parametrize("seed", [*range(8), "diag2-parabolic"])
    def test_random_instances(self, seed):
        oracle, A, b, c, e, alpha = kkt_input(seed)
        n = oracle.degree
        sol = sw.solve_qcp(oracle, A, b, c, e, alpha)
        assert sol is not None
        gap = sol.gap
        assert gap > 0
        # <e, s_e> = gap
        assert np.dot(e, sol.s_e) == pytest.approx(gap, rel=1e-9)
        # <x_e, s_e> = 0 relative to the gap scale
        assert abs(np.dot(sol.x_e, sol.s_e)) < 1e-9 * gap
        # dual feasibility A^T y_e + s_e = c
        resid = A.T @ sol.y_e + sol.s_e - c
        assert np.max(np.abs(resid)) < 1e-8 * (1.0 + np.max(np.abs(c)))
        # boundary equation <e,x>_e = alpha ||x||_e
        hx = oracle.hessian_apply(e, sol.x_e)
        proj = float(np.dot(e, hx))
        norm = math.sqrt(float(np.dot(sol.x_e, hx)))
        assert proj == pytest.approx(alpha * norm, rel=1e-9)
        # primal feasibility of the relaxation optimum
        assert np.max(np.abs(A @ sol.x_e - b)) < 1e-9 * (1.0 + np.max(np.abs(b)))
        # multiplier sign and the pairing identity lambda*gap = (n-a^2)<g,x>
        assert sol.lambda_mult < 0
        gdotx = float(np.dot(oracle.gradient(e), sol.x_e))
        assert sol.lambda_mult * gap == pytest.approx(
            (n - alpha**2) * gdotx, rel=1e-8
        )

    def test_trace_square_identity(self):
        # tr((E s_E)^2) (n - alpha^2) = gap^2 in matrix coordinates.
        for seed in range(5):
            n = 4
            oracle, A, b, c, e, _, E0 = make_sdp(n, seed=seed)
            sol = sw.solve_qcp(oracle, A, b, c, e, 0.5)
            S = sw.smat(sol.s_e)
            val = float(np.trace((E0 @ S) @ (E0 @ S))) * (n - 0.25)
            assert val == pytest.approx(sol.gap**2, rel=1e-8)

    def test_bound_block_solves_as_the_plain_array(self):
        # A run binds its constraint block once and passes the map; a call
        # with the plain array binds it itself.  One oracle serves blocks of
        # the same shape one after another, each from its own contents.
        oracle = sw.det_barrier_oracle(4)
        for seed in range(3):
            _, A, b, c, e, _, _ = make_sdp(4, seed=seed)
            plain = sw.solve_qcp(oracle, A, b, c, e, 0.5)
            fresh = sw.det_barrier_oracle(4)
            bound = sw.solve_qcp(fresh, A, b, c, e, 0.5, fresh.bind(A))
            for name in ("x_e", "y_e", "s_e"):
                np.testing.assert_array_equal(getattr(plain, name), getattr(bound, name))


class TestStatusAndErrors:
    def test_not_in_swath_on_unbounded_relaxation(self):
        # Random non-planted objective: the relaxation recedes to -inf.
        inst, E0 = sw.gen_central_path_sdp(3, 2, 1.0, 0)
        oracle = sw.det_barrier_oracle(3)
        r = np.random.default_rng(0)
        M = r.standard_normal((3, 3))
        c = sw.svec(0.5 * (M + M.T))
        sol = sw.solve_qcp(
            oracle, inst.constraint_rows(), inst.b, c, sw.svec(E0), 0.5
        )
        assert sol is None
        assert not sw.in_swath(
            oracle, inst.constraint_rows(), inst.b, c, sw.svec(E0), 0.5
        )

    def test_in_swath_for_planted_instance(self):
        oracle, A, b, c, e, _, _ = make_sdp(4, seed=2)
        for alpha in (0.1, 0.5, 0.9):
            assert sw.in_swath(oracle, A, b, c, e, alpha)

    def test_alpha_domain(self):
        oracle, A, b, c, e, _, _ = make_sdp(3, m=3, seed=0)
        with pytest.raises(DomainError):
            sw.solve_qcp(oracle, A, b, c, e, 0.0)
        with pytest.raises(DomainError):
            sw.solve_qcp(oracle, A, b, c, e, 1.0)

    def test_dimension_mismatch(self):
        oracle, A, b, c, e, _, _ = make_sdp(3, m=3, seed=0)
        with pytest.raises(DimensionMismatch):
            sw.solve_qcp(oracle, A, b, c[:-1], e, 0.5)

    def test_infeasible_center_rejected(self):
        oracle, A, b, c, e, _, _ = make_sdp(3, m=3, seed=0)
        with pytest.raises(DomainError):
            sw.solve_qcp(oracle, A, b + 1.0, c, e, 0.5)

    def test_duplicate_constraint_is_rank_failure(self):
        oracle, A, b, c, e, _, _ = make_sdp(4, m=5, seed=0)
        A2, b2 = np.vstack([A, A[:1]]), np.append(b, b[0])
        with pytest.raises(NumericalFailure):
            sw.solve_qcp(oracle, A2, b2, c, e, 0.5)


def spread_block(seed, d, m, log_kappa):
    """A random d x m block whose singular values spread log-uniformly
    over [s, s * 10^log_kappa] for a random overall scale s."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((d, m)))
    V, _ = np.linalg.qr(rng.standard_normal((m, m)))
    sv = np.logspace(0.0, log_kappa, m) * 10.0 ** rng.uniform(-3.0, 3.0)
    return (U * sv) @ V.T


# u^{-1/3} for the unit roundoff u = 2^-53: up to this cond_1(R) of the
# Gram factor three refinement passes reach u.
THREE_PASS_COND = 2.0 ** (53.0 / 3.0)
# A block with u^{-1/4} < cond_1(R) ~ 1.4e5 <= u^{-1/3}: three passes, where
# two would not be enough.
IN_THREE_PASS_BAND = dict(seed=1, m=30, extra=70, log_kappa=4.3)

# Below this cond_1(R), u^{-1/2} / 8 (about 1.2e7), the refinement must
# converge.  Each pass leaves about c u cond^2 of the error before it, and
# for small m the constant c reaches about 7: of 16000 draws with m <= 4
# and log_kappa <= 7.6 none stalled, and of 14000 draws with log_kappa in
# [7, 8] the lowest cond_1(R) of a stalled draw was 4.1e7 (m = 2).
STALL_FREE_COND = 2.0**23.5
# Draws where u cond^2 is near 1: the passes stop contracting before they
# reach rounding level (53 passes still move the remainder by 1e-5 and
# 2e-4 of the first two, at cond_1(R) 2.2e8 and 1.5e8), or the Gram
# Cholesky fails (the third).
STALLED = [
    dict(seed=2212, m=5, extra=62, log_kappa=7.96875),
    dict(seed=0, m=2, extra=62, log_kappa=7.96875),
    dict(seed=197, m=4, extra=63, log_kappa=8.0),
]


def stalled_examples(test):
    for draw in STALLED:
        test = example(**draw)(test)
    return test


def assert_may_stall(X):
    """A NumericalFailure on the spread block X is allowed only where the
    Cholesky of X^T X fails or its factor has cond_1(R) >= STALL_FREE_COND."""
    try:
        R = np.linalg.cholesky(X.T @ X).T
    except np.linalg.LinAlgError:
        return
    assert np.linalg.cond(R, 1) >= STALL_FREE_COND


def refined_or_stalled(X, rhs, V, draw):
    """``_refined_solve`` of a spread block against its Cholesky solve, or
    None where it raises NumericalFailure, which it may only do under
    :func:`assert_may_stall`; the draws in STALLED must raise."""
    try:
        result = _refined_solve(X, *gram_solve(X.T @ X), rhs, V)
    except NumericalFailure:
        assert_may_stall(X)
        return None
    assert draw not in STALLED
    return result


spread_blocks = given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 30),
    extra=st.integers(0, 70),
    log_kappa=st.floats(0.0, 8.0),
)


class TestRefinedSolve:
    """Least-squares solves against one Gram solve, refined by as many
    passes as the block's estimated condition number calls for."""

    def test_pass_count_bounds(self):
        assert _pass_count(1.0) == 3
        assert _pass_count(0.99 * THREE_PASS_COND) == 3
        assert _pass_count(1.01 * THREE_PASS_COND) == 4
        counts = [_pass_count(k) for k in np.logspace(5.5, 9.0, 50)]
        assert counts == sorted(counts)
        # From u cond^2 = 1/2 on, the rate is clipped at 1/2, and 53
        # halvings reach u = 2^-53.
        assert _pass_count(1e8) == _pass_count(1e300) == _pass_count(math.inf) == 53

    @settings(max_examples=60, deadline=None)
    @spread_blocks
    @example(**IN_THREE_PASS_BAND)
    @example(seed=197, m=4, extra=63, log_kappa=8.0)  # cond(X^T X) ~ 1e16
    def test_pass_count_follows_cond1(self, seed, m, extra, log_kappa):
        # gram_factor may judge the Gram matrix rank-deficient only where
        # the refined solve may stall; every other draw is checked in full.
        X = spread_block(seed, m + extra, m, log_kappa)
        try:
            T, cond = gram_factor(X.T @ X)
        except NumericalFailure:
            assert_may_stall(X)
            return
        passes = _pass_count(cond)
        R = np.linalg.cholesky(X.T @ X).T
        assert np.linalg.norm(T @ R - np.eye(m), 2) <= 1e-13 * np.linalg.cond(R)
        cond1 = np.linalg.cond(R, 1)
        assert cond == pytest.approx(cond1, rel=1e-6)
        assert 3 <= passes <= 53
        if cond1 <= 0.99 * THREE_PASS_COND:
            assert passes == 3
        elif cond1 >= 1.01 * THREE_PASS_COND:
            assert passes > 3

    @settings(max_examples=60, deadline=None)
    @spread_blocks
    @example(**IN_THREE_PASS_BAND)
    @example(seed=0, m=12, extra=30, log_kappa=8.0)
    @stalled_examples
    def test_projection_matches_householder(self, seed, m, extra, log_kappa):
        # For every condition number, three-pass band included, the refined
        # projection onto the range matches Householder's to the accuracy
        # either factorization has: u times the condition number, with
        # margin.  Where u cond^2 nears 1 the solve may report
        # NumericalFailure instead.
        X = spread_block(seed, m + extra, m, log_kappa)
        v = np.random.default_rng([seed, 1]).standard_normal(m + extra)
        v /= np.linalg.norm(v)
        draw = dict(seed=seed, m=m, extra=extra, log_kappa=log_kappa)
        result = refined_or_stalled(X, np.zeros((m, 1)), v[:, None], draw)
        if result is None:
            return
        Z, rest = result
        assert Z.shape == (m, 1) and rest.shape == (m + extra, 1)
        Qh, _ = np.linalg.qr(X)
        tol = 1e-13 * 10.0**log_kappa
        assert np.linalg.norm((v - rest[:, 0]) - Qh @ (Qh.T @ v)) <= tol
        # The refined remainder is orthogonal to the range to about u times
        # the condition number; one projection alone leaves up to u cond^2.
        assert np.linalg.norm(Qh.T @ rest) <= 0.1 * tol

    @settings(max_examples=60, deadline=None)
    @spread_blocks
    @example(**IN_THREE_PASS_BAND)
    @example(seed=0, m=12, extra=30, log_kappa=8.0)
    @stalled_examples
    def test_least_norm_solution_matches_householder(self, seed, m, extra, log_kappa):
        # With V = 0 the remainder is minus the least-norm solution w0 of
        # X^T w = b, and X Z = w0.  Householder gives w0 = Q R^{-T} b; both
        # are scaled by ||w0|| for the comparison.
        X = spread_block(seed, m + extra, m, log_kappa)
        b = np.random.default_rng([seed, 2]).standard_normal(m)
        draw = dict(seed=seed, m=m, extra=extra, log_kappa=log_kappa)
        result = refined_or_stalled(X, b[:, None], np.zeros((m + extra, 1)), draw)
        if result is None:
            return
        Z, rest = result
        Qh, Rh = np.linalg.qr(X)
        w0 = Qh @ scipy.linalg.solve_triangular(Rh, b, trans="T")
        tol = 1e-13 * 10.0**log_kappa * np.linalg.norm(w0)
        assert np.linalg.norm(-rest[:, 0] - w0) <= tol
        assert np.linalg.norm(X @ Z[:, 0] - w0) <= tol

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 20),
        extra=st.integers(0, 40),
        data=st.data(),
    )
    def test_rank_deficient_block_is_numerical_failure(self, seed, m, extra, data):
        X = spread_block(seed, m + extra, m, 0.0)
        X[:, data.draw(st.integers(0, m - 1))] = 0.0
        with pytest.raises(NumericalFailure):
            _refined_solve(X, *gram_solve(X.T @ X), np.zeros((m, 1)), np.zeros((m + extra, 1)))
