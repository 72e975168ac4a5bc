"""Independent oracles: trace quadratic, membership threshold, bounds."""

import dataclasses
import math

import numpy as np
import pytest

import swathscale as sw
from swathscale.diagnostics import (
    boundary_dual_point,
    boundary_point,
    conjecture_curve,
    decrease_bound_check,
    fd_check,
    membership_equiv_check,
    q_scaling_check,
    trace_q,
)
from swathscale.errors import DomainError

from conftest import make_sdp


class TestTraceQ:
    def test_against_eigen_expansion(self, rng):
        # [DERIVED] oracle: expand tr(((E+tX)S)^2) by brute force numpy.
        E = np.diag([1.0, 2.0, 3.0])
        X = rng.standard_normal((3, 3))
        X = 0.5 * (X + X.T)
        S = rng.standard_normal((3, 3))
        S = 0.5 * (S + S.T)
        for t in (0.0, 0.3, 1.7):
            M = (E + t * X) @ S
            assert trace_q(E, X, S, t) == pytest.approx(
                float(np.sum(M * M.T)), rel=1e-12
            )

    def test_worked_instance_at_zero(self):
        # [DERIVED] q(0) = 1/(n - alpha^2) for the normalized dual slack.
        sqrt7 = math.sqrt(7.0)
        E = np.eye(2)
        X = np.diag([1.0 + sqrt7, 1.0 - sqrt7])
        S = np.diag([(sqrt7 - 1) / 2, (sqrt7 + 1) / 2]) / sqrt7
        assert trace_q(E, X, S, 0.0) == pytest.approx(1.0 / 1.75, rel=1e-12)


class TestQScaling:
    @pytest.mark.parametrize("seed", range(4))
    def test_passes_on_generated_instances(self, seed):
        _, _, _, _, _, inst, E0 = make_sdp(4, seed=seed)
        report = q_scaling_check(inst, E0, 0.5)
        assert report.passed
        assert report.samples == 11

    def test_rejects_point_outside_swath(self):
        inst, E0 = sw.gen_central_path_sdp(3, 2, 1.0, 0)
        r = np.random.default_rng(0)
        M = r.standard_normal((3, 3))
        bad = sw.SdpInstance(
            C=0.5 * (M + M.T), constraints=inst.constraints, b=inst.b
        )
        with pytest.raises(DomainError):
            q_scaling_check(bad, E0, 0.5)


class TestMembershipEquiv:
    @pytest.mark.parametrize("seed", range(4))
    def test_zero_disagreements(self, seed):
        _, _, _, _, _, inst, E0 = make_sdp(4, seed=seed)
        grid = np.linspace(-0.5, 3.0, 25)
        beta = 0.5 * math.sqrt(0.75)
        report = membership_equiv_check(inst, E0, 0.5, beta, grid)
        assert report.max_rel_err == 0.0

    def test_beta_domain(self):
        _, _, _, _, _, inst, E0 = make_sdp(4, seed=0)
        with pytest.raises(DomainError):
            membership_equiv_check(inst, E0, 0.5, 1.5, np.array([0.0]))


class TestBoundaryDualPoint:
    def test_identities(self, rng):
        # <E, S> = 1 and <X, S> = 0 in the trace pairing, S in the dual cone.
        n, alpha = 4, 0.5
        _, _, _, _, _, _, E0 = make_sdp(n, seed=1)
        X, _ = boundary_point(E0, alpha, rng)
        S = boundary_dual_point(E0, X, alpha)
        assert float(np.trace(E0 @ S)) == pytest.approx(1.0, rel=1e-9)
        assert abs(float(np.trace(X @ S))) < 1e-9


class TestDecreaseBound:
    @pytest.mark.parametrize("n", [3, 5])
    def test_passes_on_boundary_points(self, n, rng):
        alpha = 0.5
        _, _, _, _, _, _, E0 = make_sdp(n, m=n, seed=n)
        for _ in range(10):
            X, x_norm = boundary_point(E0, alpha, rng)
            grid = np.linspace(1e-3, alpha / x_norm, 15)
            report = decrease_bound_check(E0, X, alpha, grid)
            assert report.passed


class TestFdCheck:
    def test_sdp_oracle(self):
        oracle, _, _, _, e, _, _ = make_sdp(4, seed=2)
        assert fd_check(oracle, e).passed

    def test_detects_wrong_gradient(self):
        oracle, _, _, _, e, _, _ = make_sdp(3, m=3, seed=2)
        broken = dataclasses.replace(oracle, gradient=lambda x: 2.0 * oracle.gradient(x))
        assert not fd_check(broken, e).passed


class TestConjectureCurve:
    def test_finite_inside_nan_outside(self):
        oracle, A, b, c, e, _, _ = make_sdp(4, seed=3)
        sol = sw.solve_qcp(oracle, A, b, c, e, 0.5)
        grid = np.array([0.0, 0.1, 1e9])
        vals = conjecture_curve(oracle, e, sol.x_e, sol.s_e, grid)
        assert math.isfinite(vals[0]) and math.isfinite(vals[1])
        assert math.isnan(vals[2])  # far along x the point leaves the cone

    def test_zero_denominator_raises(self):
        oracle, A, b, c, e, _, _ = make_sdp(4, seed=3)
        with pytest.raises(DomainError):
            conjecture_curve(oracle, e, e, np.zeros(oracle.dim), np.array([0.0]))
