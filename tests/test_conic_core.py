"""Local-metric geometry: inner products, cone membership, schedule scalars,
and the per-point factor cache the oracles share."""

import math

import numpy as np
import pytest

import swathscale as sw
from swathscale.core import point_cache
from swathscale.errors import DimensionMismatch, DomainError, NotInterior

from conftest import make_sdp


class TestLocalInner:
    def test_symmetry_and_bilinearity(self, rng):
        oracle, _, _, _, e, _, _ = make_sdp(4, seed=3)
        u = rng.standard_normal(oracle.dim)
        v = rng.standard_normal(oracle.dim)
        left = sw.local_inner(oracle, e, u, v)
        right = sw.local_inner(oracle, e, v, u)
        assert left == pytest.approx(right, rel=1e-12)
        scaled = sw.local_inner(oracle, e, 2.5 * u, v)
        assert scaled == pytest.approx(2.5 * left, rel=1e-12)

    def test_identity_direction_norm_is_sqrt_degree(self):
        # [DERIVED] <e, e>_e equals the barrier degree for every backend.
        for n in (2, 4, 6):
            oracle, _, _, _, e, _, _ = make_sdp(n, m=2, seed=n)
            assert sw.local_inner(oracle, e, e, e) == pytest.approx(n, rel=1e-10)
            assert sw.local_norm(oracle, e, e) == pytest.approx(
                math.sqrt(n), rel=1e-10
            )


class TestQuadCone:
    def test_dual_alpha(self):
        oracle, _, _, _, e, _, _ = make_sdp(4, seed=0)
        cone = sw.QuadCone(oracle, e, 0.5)
        # [TRIVIAL] sqrt(n - alpha^2) with n = 4, alpha = 0.5.
        assert cone.dual_alpha == pytest.approx(math.sqrt(3.75), rel=1e-15)

    def test_rejects_bad_alpha(self):
        oracle, _, _, _, e, _, _ = make_sdp(4, seed=0)
        with pytest.raises(DomainError):
            sw.QuadCone(oracle, e, 0.0)
        with pytest.raises(DomainError):
            sw.QuadCone(oracle, e, 2.5)  # >= sqrt(4)


class TestPrimalMembership:
    def test_center_is_interior(self):
        oracle, _, _, _, e, _, _ = make_sdp(4, seed=1)
        cone = sw.QuadCone(oracle, e, 0.5)
        assert sw.primal_cone_member(cone, e) is sw.Membership.INTERIOR

    def test_constructed_boundary_point(self, rng):
        # Build x = e + sigma*v with v orthogonal to e in the local metric
        # and sigma chosen so <e,x>_e = alpha ||x||_e exactly.
        oracle, _, _, _, e, _, _ = make_sdp(4, seed=2)
        n, alpha = 4, 0.5
        v = rng.standard_normal(oracle.dim)
        hv = oracle.hessian_apply(e, v)
        v = v - (np.dot(e, hv) / n) * e
        norm_v = sw.local_norm(oracle, e, v)
        sigma = math.sqrt(n**2 / alpha**2 - n) / norm_v
        x = e + sigma * v
        cone = sw.QuadCone(oracle, e, alpha)
        assert sw.primal_cone_member(cone, x) is sw.Membership.BOUNDARY
        # Slightly inside / outside flips the classification.
        assert (
            sw.primal_cone_member(cone, e + 0.9 * sigma * v)
            is sw.Membership.INTERIOR
        )
        assert (
            sw.primal_cone_member(cone, e + 1.1 * sigma * v)
            is sw.Membership.OUTSIDE
        )

    def test_scale_invariance(self, rng):
        oracle, _, _, _, e, _, _ = make_sdp(4, seed=4)
        cone = sw.QuadCone(oracle, e, 0.5)
        x = e + 0.1 * rng.standard_normal(oracle.dim)
        for scale in (1e-9, 1.0, 1e9):
            assert sw.primal_cone_member(cone, scale * x) is sw.primal_cone_member(
                cone, x
            )


class TestDualMembership:
    def test_pullback_equivalence(self, rng):
        # s interior in the dual cone iff H(e)^{-1} s interior in the
        # complementary-parameter primal cone.
        oracle, _, _, _, e, _, _ = make_sdp(4, seed=5)
        cone = sw.QuadCone(oracle, e, 0.5)
        dual = sw.QuadCone(oracle, e, cone.dual_alpha)
        agree = 0
        for _ in range(50):
            s = rng.standard_normal(oracle.dim)
            lhs = sw.dual_cone_member(cone, s)
            rhs = sw.primal_cone_member(dual, oracle.hessian_solve(e, s))
            if lhs is rhs:
                agree += 1
        assert agree == 50

    def test_gradient_negation_is_dual_interior(self):
        # -g(e) = H(e) e and e is interior in every K_e(gamma), gamma < sqrt(n).
        oracle, _, _, _, e, _, _ = make_sdp(4, seed=6)
        cone = sw.QuadCone(oracle, e, 0.5)
        s = -oracle.gradient(e)
        assert sw.dual_cone_member(cone, s) is sw.Membership.INTERIOR


class TestScheduleConstants:
    def test_frozen_values(self):
        # [DERIVED] high-precision evaluation of the closed forms.
        consts = sw.schedule_constants(0.5, 5)
        assert consts.kappa == pytest.approx(0.125, abs=1e-15)
        assert consts.beta == pytest.approx(0.43301270189221932, rel=1e-14)
        assert consts.ratio_bound == pytest.approx(
            0.94705785636364163771, rel=1e-14
        )
        consts = sw.schedule_constants(0.8, 3)
        assert consts.kappa == pytest.approx(0.12649110640673517, rel=1e-14)
        assert consts.beta == pytest.approx(0.75894663844041104, rel=1e-14)
        assert consts.ratio_bound == pytest.approx(0.9319406759376452931, rel=1e-14)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            sw.schedule_constants(0.0, 5)
        with pytest.raises(DomainError):
            sw.schedule_constants(1.0, 5)
        with pytest.raises(DomainError):
            sw.schedule_constants(0.5, 1)


class TestPointCache:
    @staticmethod
    def reciprocal_cache(d):
        """A cached ``e -> (1 / e,)`` on the open orthant, with its builds."""
        builds = []

        def build(e):
            builds.append(e.copy())
            if np.any(e <= 0.0):
                raise NotInterior("outside the orthant")
            return (1.0 / e,)

        return point_cache(d, build), builds

    def test_equal_bytes_hit_and_mutation_misses(self):
        cached, builds = self.reciprocal_cache(3)
        e = np.array([1.0, 2.0, 4.0])
        first = cached(e)
        assert cached(e.copy()) is first
        assert len(builds) == 1
        e[1] = 8.0  # the same array, mutated in place
        second = cached(e)
        assert len(builds) == 2
        np.testing.assert_array_equal(second[0], [1.0, 0.125, 0.25])

    def test_failed_build_keeps_the_cached_entry(self):
        cached, builds = self.reciprocal_cache(2)
        e = np.array([1.0, 2.0])
        entry = cached(e)
        with pytest.raises(NotInterior):
            cached(np.array([1.0, -2.0]))
        assert cached(e) is entry
        assert len(builds) == 2

    @pytest.mark.parametrize("e", [np.ones(2), np.ones(4), np.ones((3, 1))])
    def test_wrong_shape_raises_before_the_build(self, e):
        cached, builds = self.reciprocal_cache(3)
        with pytest.raises(DimensionMismatch):
            cached(e)
        assert builds == []

    def test_cached_arrays_are_read_only(self):
        cached, _ = self.reciprocal_cache(2)
        (inv,) = cached(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            inv[0] = 0.0
