"""Symmetric-matrix coordinates and the log-det barrier oracle."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import swathscale as sw
from swathscale.errors import DimensionMismatch, InvariantViolation, NotInterior


def random_sym(n, rng):
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


def random_spd(n, rng):
    G = rng.standard_normal((n, n))
    return G @ G.T + n * np.eye(n)


class TestVectorization:
    def test_roundtrip(self, rng):
        for n in (2, 3, 5, 8):
            X = random_sym(n, rng)
            assert np.allclose(sw.smat(sw.svec(X)), X, atol=1e-14)

    def test_trace_inner_product(self, rng):
        # [DERIVED] oracle: direct trace computation.
        for _ in range(20):
            X = random_sym(4, rng)
            Y = random_sym(4, rng)
            assert np.dot(sw.svec(X), sw.svec(Y)) == pytest.approx(
                float(np.trace(X @ Y)), rel=1e-12
            )

    def test_dims(self):
        assert sw.sym_dim(4) == 10
        assert sw.mat_order(10) == 4
        for d in (11, -1, -3):
            with pytest.raises(DimensionMismatch, match=f"^{d} is not a symmetric"):
                sw.mat_order(d)

    @given(n=st.integers(2, 10**6))
    def test_mat_order_inverts_sym_dim(self, n):
        # Integer square roots stay exact where a float sqrt would round.
        d = sw.sym_dim(n)
        assert sw.mat_order(d) == n
        for off in (d - 1, d + 1):
            with pytest.raises(DimensionMismatch):
                sw.mat_order(off)

    def test_identity_svec(self):
        # [TRIVIAL] diagonal entries pass through unscaled.
        v = sw.svec(np.eye(3))
        assert sorted(v[np.abs(v) > 1e-15]) == [1.0, 1.0, 1.0]


class TestDetBarrierOracle:
    def test_value_gradient(self, rng):
        oracle = sw.det_barrier_oracle(4)
        E = random_spd(4, rng)
        e = sw.svec(E)
        # [DERIVED] oracle: slogdet and explicit inverse.
        assert oracle.value(e) == pytest.approx(
            -np.linalg.slogdet(E)[1], rel=1e-12
        )
        g = sw.smat(oracle.gradient(e))
        assert np.allclose(g, -np.linalg.inv(E), atol=1e-10)

    def test_hessian_apply_solve_inverse_pair(self, rng):
        oracle = sw.det_barrier_oracle(4)
        e = sw.svec(random_spd(4, rng))
        v = rng.standard_normal(oracle.dim)
        assert np.allclose(
            oracle.hessian_solve(e, oracle.hessian_apply(e, v)), v, atol=1e-8
        )

    def test_hessian_matrix_consistent(self, rng):
        # [DERIVED] column j of H(E) is svec(E^-1 smat(b_j) E^-1) for the
        # j-th coordinate basis vector b_j.
        oracle = sw.det_barrier_oracle(3)
        E = random_spd(3, rng)
        e = sw.svec(E)
        Einv = np.linalg.inv(E)
        H = np.column_stack([sw.svec(Einv @ sw.smat(b) @ Einv) for b in np.eye(6)])
        v = rng.standard_normal(6)
        assert np.allclose(H @ v, oracle.hessian_apply(e, v), atol=1e-9)
        assert np.allclose(H, H.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(H)) > 0

    def test_structural_identities(self, rng):
        # H(e)e = -g(e), H(e)^{-1} g(e) = -e, <g, e> = -n.
        oracle = sw.det_barrier_oracle(5)
        for seed in range(5):
            e = sw.svec(random_spd(5, np.random.default_rng(seed)))
            g = oracle.gradient(e)
            assert np.allclose(oracle.hessian_apply(e, e), -g, atol=1e-9)
            assert np.allclose(oracle.hessian_solve(e, g), -e, atol=1e-9)
            assert np.dot(g, e) == pytest.approx(-5.0, rel=1e-10)

    def test_order_below_two_raises(self):
        with pytest.raises(DimensionMismatch, match="matrix order"):
            sw.det_barrier_oracle(1)

    def test_not_interior_raises(self):
        oracle = sw.det_barrier_oracle(3)
        e = sw.svec(np.diag([1.0, 1.0, -0.5]))
        with pytest.raises(NotInterior):
            oracle.value(e)
        with pytest.raises(NotInterior):
            oracle.gradient(e)


class TestDirectionEigs:
    # The oracle reports the eigenvalues of X in direction E through their
    # first four power sums.
    def test_against_generalized_eigenproblem(self, rng):
        # [DERIVED] oracle: scipy generalized symmetric eigensolver.
        for _ in range(10):
            E = random_spd(4, rng)
            X = random_sym(4, rng)
            sums = sw.det_barrier_oracle(4).direction_power_sums(sw.svec(E), sw.svec(X))
            lam = scipy.linalg.eigvalsh(X, E)
            for j, got in enumerate(sums, 1):
                ref = float(np.sum(lam**j))
                assert abs(got - ref) <= 1e-9 * float(np.sum(np.abs(lam) ** j))

    def test_identity_direction(self):
        # [TRIVIAL] eigenvalues of X at E = I are plain eigenvalues: -1, 0.5, 3.
        X = np.diag([3.0, -1.0, 0.5])
        sums = sw.det_barrier_oracle(3).direction_power_sums(
            sw.svec(np.eye(3)), sw.svec(X)
        )
        assert np.allclose(sums, [2.5, 10.25, 26.125, 82.0625], rtol=1e-13)


class TestSdpInstanceValidate:
    def test_good_instance_passes(self):
        inst, _ = sw.gen_central_path_sdp(4, 6, 1.0, 0)
        inst.validate()

    @pytest.mark.parametrize("constraints, b, message", [
        ([np.eye(3)], np.ones(1), "match C's order"),
        ([np.eye(2)], np.ones(2), "b length"),
    ], ids=["constraint-order", "b-length"])
    def test_rejects_inconsistent_shapes(self, constraints, b, message):
        inst = sw.SdpInstance(C=np.diag([1.0, 2.0]), constraints=constraints, b=b)
        with pytest.raises(DimensionMismatch, match=message):
            inst.validate()

    def test_generator_rejects_m_out_of_range(self):
        # An order-3 matrix has 6 free entries; m = 6 would leave C in the
        # constraints' span.
        with pytest.raises(InvariantViolation, match="need 1 <= m <= 5"):
            sw.gen_central_path_sdp(3, 6)

    def test_rejects_zero_b(self):
        inst = sw.SdpInstance(
            C=np.diag([1.0, 2.0]), constraints=[np.eye(2)], b=np.zeros(1)
        )
        with pytest.raises(InvariantViolation):
            inst.validate()

    def test_rejects_dependent_constraints(self):
        inst = sw.SdpInstance(
            C=np.diag([1.0, 2.0]),
            constraints=[np.eye(2), 2.0 * np.eye(2)],
            b=np.array([2.0, 4.0]),
        )
        with pytest.raises(InvariantViolation, match="linearly dependent"):
            inst.validate()

    def test_rejects_objective_in_constraint_span(self):
        inst = sw.SdpInstance(
            C=3.0 * np.eye(2), constraints=[np.eye(2)], b=np.array([2.0])
        )
        with pytest.raises(InvariantViolation, match="span of the constraints"):
            inst.validate()
