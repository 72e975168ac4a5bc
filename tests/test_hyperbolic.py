"""Hyperbolic families: polynomial oracles, eigenvalues, barrier identities."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import swathscale as sw
import swathscale.hyperbolic
from swathscale.errors import (
    DegenerateLeadingCoefficient,
    DimensionMismatch,
    DomainError,
    InvariantViolation,
    NotInterior,
)
from swathscale.hyperbolic import (
    eval_p,
    is_member,
)

ALL_FAMILIES = [
    sw.product_family(5),
    sw.second_order_family(5),
    sw.determinant_family(3),
    sw.elementary_symmetric_family(5, 3),
]


def interior_point(family, rng, radius=0.4):
    e = family.canonical_direction()
    oracle = sw.hp_barrier_oracle(family)
    w = rng.standard_normal(family.d)
    norm = math.sqrt(float(np.dot(w, oracle.hessian_apply(e, w))))
    return e + (radius / norm) * w


@pytest.mark.parametrize("make, args", [
    (sw.product_family, (1,)),
    (sw.second_order_family, (1,)),
    (sw.determinant_family, (1,)),
    (sw.elementary_symmetric_family, (3, 4)),
], ids=["product", "second_order", "determinant", "elementary_symmetric"])
def test_family_constructor_rejects_degenerate_parameters(make, args):
    with pytest.raises(DomainError):
        make(*args)


class TestEvalP:
    def test_frozen_values(self):
        # [DERIVED] by hand / itertools oracle.
        assert eval_p(sw.product_family(4), np.array([1.0, 2, 3, 4])) == 24.0
        assert eval_p(
            sw.second_order_family(3), np.array([3.0, 4.0, 6.0])
        ) == pytest.approx(36 - 25, rel=1e-14)
        assert eval_p(
            sw.determinant_family(2), sw.svec(np.array([[2.0, 1.0], [1.0, 3.0]]))
        ) == pytest.approx(5.0, rel=1e-12)
        assert eval_p(
            sw.elementary_symmetric_family(5, 3), np.arange(1.0, 6.0)
        ) == pytest.approx(225.0, rel=1e-13)

    def test_esym_matches_combinations_oracle(self, rng):
        # [DERIVED] oracle: explicit sum over index subsets.
        for _ in range(20):
            x = rng.standard_normal(6)
            for k in (2, 3, 4):
                ref = sum(
                    math.prod(x[list(idx)])
                    for idx in itertools.combinations(range(6), k)
                )
                got = eval_p(sw.elementary_symmetric_family(6, k), x)
                assert got == pytest.approx(ref, rel=1e-10, abs=1e-10)


class TestMembership:
    """The open cone is where the oracle's frame exists: ``hessian_factor``
    succeeds inside and raises NotInterior outside."""

    def test_canonical_directions_interior(self):
        for fam in ALL_FAMILIES:
            sw.hp_barrier_oracle(fam).hessian_factor(fam.canonical_direction())

    def test_product(self):
        fam = sw.product_family(3)
        oracle = sw.hp_barrier_oracle(fam)
        oracle.hessian_factor(np.array([1.0, 2.0, 0.5]))
        with pytest.raises(NotInterior):
            oracle.hessian_factor(np.array([1.0, 0.0, 0.5]))
        assert is_member(fam, np.array([1.0, 0.0, 0.5]))
        assert not is_member(fam, np.array([1.0, -0.1, 0.5]))

    def test_second_order(self):
        fam = sw.second_order_family(3)
        oracle = sw.hp_barrier_oracle(fam)
        oracle.hessian_factor(np.array([0.3, 0.4, 1.0]))
        with pytest.raises(NotInterior):
            oracle.hessian_factor(np.array([3.0, 4.0, 5.0]))
        assert is_member(fam, np.array([3.0, 4.0, 5.0]))
        assert not is_member(fam, np.array([3.0, 4.0, -5.0]))

    def test_determinant(self):
        fam = sw.determinant_family(2)
        oracle = sw.hp_barrier_oracle(fam)
        oracle.hessian_factor(sw.svec(np.eye(2)))
        with pytest.raises(NotInterior):
            oracle.hessian_factor(sw.svec(np.diag([1.0, 0.0])))
        assert is_member(fam, sw.svec(np.diag([1.0, 0.0])))
        assert not is_member(fam, sw.svec(np.diag([1.0, -1.0])))

    def test_elementary_symmetric_contains_orthant(self, rng):
        fam = sw.elementary_symmetric_family(5, 3)
        for _ in range(20):
            x = np.abs(rng.standard_normal(5))
            assert is_member(fam, x)
        # A point with one moderately negative coordinate can still be
        # inside: e_1, e_2, e_3 all positive for (3, 3, 3, 3, -1).
        sw.hp_barrier_oracle(fam).hessian_factor(np.array([3.0, 3.0, 3.0, 3.0, -1.0]))
        assert not is_member(fam, np.array([-1.0, -1.0, -1.0, -1.0, -1.0]))


class TestBarrierIdentities:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_hessian_times_e_is_minus_gradient(self, family, rng):
        oracle = sw.hp_barrier_oracle(family)
        for _ in range(10):
            e = interior_point(family, rng)
            g = oracle.gradient(e)
            he = oracle.hessian_apply(e, e)
            assert np.allclose(he, -g, atol=1e-8 * (1 + np.max(np.abs(g))))
            assert np.dot(e, he) == pytest.approx(family.degree, rel=1e-8)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_factor_consistent_with_hessian(self, family, rng):
        oracle = sw.hp_barrier_oracle(family)
        e = interior_point(family, rng)
        apply_L, solve_Lt, solve_L = oracle.hessian_factor(e)
        v = rng.standard_normal(family.d)
        assert np.allclose(solve_L(apply_L(v)), v, atol=1e-9)
        # ||L v||^2 = <v, H v> pins the factor to the Hessian.
        hv = oracle.hessian_apply(e, v)
        w = apply_L(v)
        assert np.dot(w, w) == pytest.approx(float(np.dot(v, hv)), rel=1e-8)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_solve_inverts_apply(self, family, rng):
        oracle = sw.hp_barrier_oracle(family)
        e = interior_point(family, rng)
        v = rng.standard_normal(family.d)
        assert np.allclose(
            oracle.hessian_solve(e, oracle.hessian_apply(e, v)), v, atol=1e-7
        )

    @pytest.mark.parametrize("d, k", [(5, 3), (9, 4)])
    def test_esym_gradient_takes_single_deflations(self, d, k, rng, monkeypatch):
        # The gradient needs e_{k-1} with one coordinate removed, a column of
        # the single-deflation table; the pair table of the Hessian is left
        # to the frame.
        family = sw.elementary_symmetric_family(d, k)
        oracle = sw.hp_barrier_oracle(family)
        e = interior_point(family, rng)
        calls = [0]
        pairs = swathscale.hyperbolic._esym_pairs

        def counted(*args):
            calls[0] += 1
            return pairs(*args)

        monkeypatch.setattr(swathscale.hyperbolic, "_esym_pairs", counted)
        g = oracle.gradient(e)
        assert calls[0] == 0
        oracle.hessian_apply(e, e)  # the frame does build it, once
        assert calls[0] == 1
        monkeypatch.undo()
        p = eval_p(family, e)
        for i in range(d):
            rest = np.delete(e, i)
            minor = sum(math.prod(c) for c in itertools.combinations(rest, k - 1))
            assert g[i] == pytest.approx(-minor / p, rel=1e-12)

    @pytest.mark.parametrize("d, k", [(5, 2), (6, 3), (9, 4), (10, 7)])
    def test_esym_tables_match_combinations(self, d, k, rng):
        # [DERIVED] oracle: explicit sums over index subsets, and bit for bit
        # the scalar deflation recurrence that each row and pair runs.
        hyp = swathscale.hyperbolic
        x = rng.uniform(0.5, 2.0, d)
        e_full = hyp._esym_values(x, k)
        D = hyp._esym_deflations(x, e_full)
        P = hyp._esym_pairs(x, D, k)
        assert np.array_equal(P, P.T) and np.all(np.diag(P) == 0.0)
        for i in range(d):
            rest = np.delete(x, i)
            row = [1.0]
            for j in range(1, k + 1):
                row.append(e_full[j] - x[i] * row[-1])
            assert D[i].tolist() == row
            for j in range(k + 1):
                ref = sum(math.prod(c) for c in itertools.combinations(rest, j))
                assert D[i, j] == pytest.approx(ref, rel=1e-12)
            for j in range(i + 1, d):
                twice = 1.0
                for m in range(1, k - 1):
                    twice = D[i, m] - x[j] * twice
                assert P[i, j] == twice
                rest = np.delete(x, [i, j])
                ref = sum(math.prod(c) for c in itertools.combinations(rest, k - 2))
                assert P[i, j] == pytest.approx(ref, rel=1e-12)

    def test_gradient_raises_off_cone(self):
        fam = sw.product_family(3)
        oracle = sw.hp_barrier_oracle(fam)
        with pytest.raises(NotInterior):
            oracle.gradient(np.array([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("reader", [
        "value", "gradient", "hessian_apply", "direction_power_sums", "hessian_factor",
    ])
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_point_readers_raise_off_cone(self, family, reader):
        # -e lies outside the open cone of each family.  The oracle has
        # cached e first: a miss must still test the new point.
        oracle = sw.hp_barrier_oracle(family)
        e = family.canonical_direction()
        oracle.value(e)
        second = (e,) if reader in ("hessian_apply", "direction_power_sums") else ()
        with pytest.raises(NotInterior):
            getattr(oracle, reader)(-e, *second)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_cache_leaves_the_callers_point_alone(self, family, rng):
        # The cache makes what it stores read-only; the caller's e must stay
        # writeable, and a change in place must reach the next call.
        oracle = sw.hp_barrier_oracle(family)
        e = interior_point(family, rng)
        oracle.gradient(e)
        oracle.hessian_factor(e)
        before = oracle.value(e)
        assert e.flags.writeable
        e *= 2.0
        # -ln p is logarithmically homogeneous of degree n.
        assert oracle.value(e) == pytest.approx(
            before - family.degree * math.log(2.0), rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_direction_of_wrong_length(self, family):
        oracle = sw.hp_barrier_oracle(family)
        e = family.canonical_direction()
        with pytest.raises(DimensionMismatch):
            oracle.direction_power_sums(e, np.array([0.5]))
        with pytest.raises(DimensionMismatch):
            oracle.hessian_apply(e, np.array([0.5]))
        with pytest.raises(DimensionMismatch):
            oracle.hessian_solve(e, np.array([0.5]))

    @pytest.mark.parametrize("reader", [
        "value", "gradient", "hessian_apply", "direction_power_sums", "hessian_factor",
    ])
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_point_readers_check_the_length(self, family, reader):
        # A point one size short.  For the determinant family that is the
        # identity of one order less, whose triangular length smat accepts.
        oracle = sw.hp_barrier_oracle(family)
        e = family.canonical_direction()
        if family.name == "determinant":
            short = sw.svec(np.eye(family.degree - 1))
        else:
            short = e[:-1]
        second = (e,) if reader in ("hessian_apply", "direction_power_sums") else ()
        with pytest.raises(DimensionMismatch):
            getattr(oracle, reader)(short, *second)


def lorentz_dense_hessian(x):
    """Hessian of -ln p with p(x) = <x, Jx>, J = diag(-1, ..., -1, 1):
    4 Jx (Jx)^T / p^2 - 2 J / p."""
    J = np.diag(np.concatenate([-np.ones(x.size - 1), [1.0]]))
    Jx = J @ x
    p = float(x @ Jx)
    return 4.0 * np.outer(Jx, Jx) / p**2 - 2.0 * J / p


class TestLorentzClosedForms:
    def test_against_dense_hessian(self, rng):
        fam = sw.second_order_family(6)
        oracle = sw.hp_barrier_oracle(fam)
        for _ in range(10):
            e = interior_point(fam, rng)
            H = lorentz_dense_hessian(e)
            v = rng.standard_normal(6)
            assert np.allclose(oracle.hessian_apply(e, v), H @ v, atol=1e-9)
            assert np.allclose(
                oracle.hessian_solve(e, v), np.linalg.solve(H, v), atol=1e-9
            )

    def test_axis_point(self, rng):
        # Degenerate radial part: the Hessian is isotropic there.
        fam = sw.second_order_family(4)
        oracle = sw.hp_barrier_oracle(fam)
        e = np.array([0.0, 0.0, 0.0, 2.0])
        v = rng.standard_normal(4)
        H = lorentz_dense_hessian(e)
        assert np.allclose(oracle.hessian_apply(e, v), H @ v, atol=1e-12)
        apply_L, _, solve_L = oracle.hessian_factor(e)
        assert np.allclose(solve_L(apply_L(v)), v, atol=1e-12)


def reference_eigs(family, e, x):
    """Eigenvalues of x in direction e, found independently of the oracle:
    x / e for the product, the generalized symmetric eigensolver for the
    determinant, and otherwise the roots of ``l -> p(l e - x)``."""
    if family.name == "product":
        return x / e
    if family.name == "determinant":
        return scipy.linalg.eigvalsh(sw.smat(x), sw.smat(e))
    roots = np.roots(sw.restricted_coeffs(family, -x, e)[::-1])
    assert np.all(np.abs(roots.imag) <= 1e-6 * (1.0 + np.abs(roots.real)))
    return roots.real


def assert_power_sums_match(sums, lam, rel):
    for j, (got, ref) in enumerate(zip(sums, sw.power_sums(lam)), 1):
        scale = float(np.sum(np.abs(lam) ** j))
        assert abs(got - ref) <= rel * scale, (j, got, ref)


class TestDirectionEigs:
    # The oracle reports the eigenvalues of x in direction e only through
    # their first four power sums, formed without extracting roots; each
    # test checks them against power sums of reference eigenvalues.
    def test_product_closed_form(self, rng):
        fam = sw.product_family(5)
        oracle = sw.hp_barrier_oracle(fam)
        e = np.abs(rng.standard_normal(5)) + 0.5
        x = rng.standard_normal(5)
        assert_power_sums_match(oracle.direction_power_sums(e, x), x / e, 1e-12)

    def test_determinant_matches_sdp(self, rng):
        fam = sw.determinant_family(3)
        oracle = sw.hp_barrier_oracle(fam)
        G = rng.standard_normal((3, 3))
        E = G @ G.T + 3 * np.eye(3)
        X = rng.standard_normal((3, 3))
        X = 0.5 * (X + X.T)
        sums = oracle.direction_power_sums(sw.svec(E), sw.svec(X))
        assert_power_sums_match(sums, scipy.linalg.eigvalsh(X, E), 1e-9)

    def test_eigs_reproduce_polynomial_factorization(self, rng):
        # p(lambda e - x) vanishes at each reference eigenvalue, and the
        # oracle's power sums are theirs.
        for fam in ALL_FAMILIES:
            e = interior_point(fam, rng)
            x = rng.standard_normal(fam.d)
            lam = reference_eigs(fam, e, x)
            assert lam.shape == (fam.degree,)
            scale = abs(eval_p(fam, e)) * (1.0 + np.max(np.abs(lam))) ** fam.degree
            for lam_j in lam:
                assert abs(eval_p(fam, lam_j * e - x)) <= 1e-7 * scale
            sums = sw.hp_barrier_oracle(fam).direction_power_sums(e, x)
            assert_power_sums_match(sums, lam, 1e-9)

    def test_sum_of_eigs_is_local_inner(self, rng):
        # sum lambda_j = <e, x>_e for every family.
        for fam in ALL_FAMILIES:
            oracle = sw.hp_barrier_oracle(fam)
            e = interior_point(fam, rng)
            x = rng.standard_normal(fam.d)
            p1 = oracle.direction_power_sums(e, x)[0]
            assert p1 == pytest.approx(
                sw.local_inner(oracle, e, e, x), rel=1e-7, abs=1e-9
            )

    def test_power_sums_match_eigs(self, rng):
        # At points where the roots are well separated the power sums agree
        # with those of the reference eigenvalues.
        families = [*ALL_FAMILIES, sw.determinant_family(6),
                    sw.elementary_symmetric_family(8, 4)]
        for fam in families:
            oracle = sw.hp_barrier_oracle(fam)
            for _ in range(10):
                e = interior_point(fam, rng)
                x = rng.standard_normal(fam.d)
                sums = oracle.direction_power_sums(e, x)
                assert_power_sums_match(sums, reference_eigs(fam, e, x), 1e-9)


class TestRestrictedCoeffs:
    def test_product_matches_numpy_polynomial(self, rng):
        # [DERIVED] oracle: multiply the linear factors with numpy.
        fam = sw.product_family(4)
        x = rng.standard_normal(4)
        e = np.abs(rng.standard_normal(4)) + 0.5
        got = sw.restricted_coeffs(fam, x, e)
        ref = np.array([1.0])
        for xi, ei in zip(x, e):
            ref = np.polynomial.polynomial.polymul(ref, [xi, ei])
        assert np.allclose(got, ref, atol=1e-12)

    def test_leading_coefficient_is_p_of_e(self, rng):
        for fam in ALL_FAMILIES:
            e = interior_point(fam, rng)
            x = rng.standard_normal(fam.d)
            coeffs = sw.restricted_coeffs(fam, x, e)
            assert coeffs.shape == (fam.degree + 1,)
            assert coeffs[-1] == pytest.approx(eval_p(fam, e), rel=1e-8)

    def test_rejects_nonpositive_direction(self):
        fam = sw.product_family(3)
        with pytest.raises(NotInterior):
            sw.restricted_coeffs(fam, np.ones(3), np.array([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_coeffs_reproduce_polynomial(self, family, seed):
        # sum_j a_j t^j = p(x + t e) at several t; the scale bounds |p(y)|
        # for each family, so the tolerance is relative to the terms summed.
        rng = np.random.default_rng(seed)
        e = interior_point(family, rng)
        x = rng.standard_normal(family.d)
        a = sw.restricted_coeffs(family, x, e)
        for t in (-2.0, -0.5, 0.0, 0.7, 3.0):
            y = x + t * e
            scale = (1.0 + np.sum(np.abs(y))) ** family.degree
            got = np.polynomial.polynomial.polyval(t, a)
            assert abs(got - eval_p(family, y)) <= 1e-13 * scale

    @pytest.mark.parametrize("d, k", [(12, 4), (30, 4), (20, 7)])
    def test_esym_coeffs_match_exact_arithmetic(self, d, k, rng):
        # [DERIVED] oracle: the coefficient of s^k in prod_i (1 + s (x_i + t e_i)),
        # expanded in rationals.  Sampling p and fitting the coefficients
        # left errors of 3e-14 (d=30) to 6e-13 (d=20, k=7) of the largest one.
        fam = sw.elementary_symmetric_family(d, k)
        for _ in range(10):
            e = 1.0 + 0.5 * rng.uniform(-1.0, 1.0, d)
            x = rng.standard_normal(d)
            E = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
            E[0][0] = Fraction(1)
            for xi, ei in zip(map(Fraction, x), map(Fraction, e)):
                for j in range(k, 0, -1):
                    for m in range(j + 1):
                        shifted = ei * E[j - 1][m - 1] if m else 0
                        E[j][m] += xi * E[j - 1][m] + shifted
            ref = np.array([float(v) for v in E[k]])
            got = sw.restricted_coeffs(fam, x, e)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestPowerSums:
    def test_newton_identities_match_roots(self, rng):
        # [DERIVED] oracle: sum powers of the planted roots directly.
        for deg in (2, 3, 5, 8, 12):
            roots = rng.uniform(-3.0, 3.0, size=deg)
            lead = rng.uniform(0.5, 2.0)
            # ascending coefficients of lead * prod (t + root_j)
            coeffs = np.array([lead])
            for r in roots:
                coeffs = np.polynomial.polynomial.polymul(coeffs, [r, 1.0])
            got = sw.power_sums_from_coeffs(coeffs)
            ref = sw.power_sums(roots)
            for g, r in zip(got, ref):
                assert g == pytest.approx(r, rel=1e-8, abs=1e-8)

    def test_tiny_polynomial_is_not_degenerate(self):
        # The coefficients of t -> e_3(x + t e) at a late esym iterate: all
        # below 1e-12, yet well scaled, so the test on the leading one is
        # relative and the power sums do not depend on the scale.
        coeffs = np.array([3.2e-14, -2.6e-13, 3.3e-13, 6.2e-13])
        got = sw.power_sums_from_coeffs(coeffs)
        ref = sw.power_sums_from_coeffs(coeffs * 1e13)
        for g, r in zip(got, ref):
            assert g == pytest.approx(r, rel=1e-14)

    def test_degenerate_leading_coefficient(self):
        with pytest.raises(DegenerateLeadingCoefficient):
            sw.power_sums_from_coeffs(np.array([1.0, 1.0, 0.0]))

    def test_python_floats_give_the_numpy_scalar_sums(self, rng):
        # The identities run on Python floats, and on numpy scalars where a
        # coefficient is NaN: both ways give the same bits, and a NaN with a
        # zero leading coefficient divides as numpy does instead of raising
        # ZeroDivisionError.
        cases = [
            rng.standard_normal(deg) * 10.0 ** rng.uniform(-30.0, 30.0)
            for deg in (2, 3, 4, 5, 9)
            for _ in range(40)
        ]
        cases += [np.array([np.nan, 1.0, 0.0]), np.array([2.0, np.nan, 1.0])]
        for a in cases:
            with np.errstate(divide="ignore", invalid="ignore"):
                got = sw.power_sums_from_coeffs(a)
                ref = swathscale.hyperbolic._newton_power_sums(a)
            assert np.array(got).tobytes() == np.array(ref).tobytes(), a


class TestHyperbolicitySampling:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_all_real(self, family):
        report = sw.hyperbolicity_sample_check(
            family, family.canonical_direction(), trials=50, seed=7
        )
        assert report.failures == 0

    def test_needs_a_trial(self):
        family = sw.product_family(3)
        with pytest.raises(DomainError, match="trials"):
            sw.hyperbolicity_sample_check(
                family, family.canonical_direction(), trials=0, seed=7
            )


class TestEsymSplitFrame:
    def test_frame_and_weak_duality_at_last_iterate(self):
        # Generator seed 662040669 through the HP JSON round trip.  A
        # Cholesky of the dense Hessian left ||L e||^2 - n = +0.835 at the
        # last iterate and a dual vector with b.y > c.e by 1.9e-7.
        fam = sw.elementary_symmetric_family(30, 4)
        inst, _ = sw.gen_hp_instance(fam, 15, seed=662040669)
        inst = sw.read_hp_json(sw.write_hp_json(inst))
        oracle = sw.hp_barrier_oracle(inst.family)
        res = sw.run(oracle, inst.A, inst.b, inst.c, inst.e0, sw.SolverConfig())
        assert res.status is sw.RunStatus.CONVERGED
        apply_L, _, _ = oracle.hessian_factor(res.final_e)
        ehat = apply_L(res.final_e)
        assert abs(float(np.dot(ehat, ehat)) - fam.degree) <= 1e-5
        assert np.dot(inst.b, res.final_y) <= np.dot(inst.c, res.final_e)


class TestHpInstanceValidate:
    def test_generated_instance_passes(self):
        inst, _ = sw.gen_hp_instance(sw.product_family(6), 3, 1.0, 0)
        inst.validate()

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize(
        "family", [sw.product_family(5), sw.determinant_family(4)],
        ids=lambda f: f.name,
    )
    def test_generator_rejects_bad_mu(self, family, mu, monkeypatch):
        # Rejected before the first draw, not as RetryExhausted after ten.
        def no_draws(*args):
            raise AssertionError("the generator drew before checking mu")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(InvariantViolation, match="mu"):
            sw.gen_hp_instance(family, 3, mu, 0)

    @pytest.mark.parametrize("field, message", [
        ("e0", "inconsistent with ambient dim"), ("b", "b length"),
    ])
    def test_rejects_inconsistent_shapes(self, field, message):
        inst, _ = sw.gen_hp_instance(sw.product_family(6), 3, 1.0, 0)
        inst = dataclasses.replace(inst, **{field: getattr(inst, field)[:-1]})
        with pytest.raises(DimensionMismatch, match=message):
            inst.validate()

    def test_generator_rejects_m_out_of_range(self):
        with pytest.raises(InvariantViolation, match="need 1 <= m <= 3"):
            sw.gen_hp_instance(sw.product_family(4), 4)

    def test_rejects_infeasible_start(self):
        inst, _ = sw.gen_hp_instance(sw.product_family(6), 3, 1.0, 0)
        inst.b = inst.b + 1.0
        with pytest.raises(InvariantViolation):
            inst.validate()

    def test_rejects_zero_b(self):
        fam = sw.product_family(4)
        inst = sw.HpInstance(
            family=fam,
            c=np.array([1.0, 2.0, 3.0, 5.0]),
            A=np.array([[1.0, -1.0, 0.0, 0.0]]),
            b=np.zeros(1),
            e0=np.ones(4),
        )
        with pytest.raises(InvariantViolation):
            inst.validate()
