"""The iteration loop: step selection, monotone progress, alpha schedule."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

import swathscale as sw
import swathscale.driver
import swathscale.errors
import swathscale.hyperbolic
import swathscale.sdp
from swathscale.errors import (
    ConvexityViolation,
    DomainError,
    NumericalFailure,
    StepBoundViolation,
)

from conftest import diag2_problem, make_sdp

SQRT7 = 2.6457513110645905905

# Every typed error of the package, subclasses of NumericalFailure included.
TYPED_ERRORS = [
    obj for obj in vars(swathscale.errors).values()
    if isinstance(obj, type) and issubclass(obj, sw.SwathscaleError)
    and obj is not sw.SwathscaleError
]


def raising_on_call(fn, call, error):
    """``fn`` with its ``call``-th call, counted from 1, raising ``error``."""
    calls = [0]

    def wrapped(*args):
        calls[0] += 1
        if calls[0] == call:
            raise error("injected")
        return fn(*args)

    return wrapped


def count_hessian_applies(oracle, monkeypatch):
    """The oracle with a counted ``hessian_apply``, and the counts of its
    calls made inside and outside the driver's relaxation solves."""
    counts = {"inside": 0, "outside": 0}
    depth = [0]
    apply, solve = oracle.hessian_apply, swathscale.driver.solve_qcp

    def counted_apply(*args):
        counts["inside" if depth[0] else "outside"] += 1
        return apply(*args)

    def tracked_solve(*args):
        depth[0] += 1
        try:
            return solve(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(swathscale.driver, "solve_qcp", tracked_solve)
    return dataclasses.replace(oracle, hessian_apply=counted_apply), counts


class TestStepPolynomial:
    def test_worked_instance_coefficients(self):
        # [DERIVED] power sums of eigenvalues 1 +/- sqrt7 are (2, 16, 44, 184);
        # the quadratic coefficients follow by hand.
        a, b, c = sw.step_poly_coeffs(2.0, 16.0, 44.0, 184.0, 0.5, 2)
        assert a == pytest.approx(31.5, rel=1e-12)
        assert b == pytest.approx(-10.5, rel=1e-12)
        assert c == pytest.approx(7.0, rel=1e-12)
        t = sw.step_length(a, b, 0.5, 4.0, sw.StepMode.QTILDE_MINIMIZER)
        assert t == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_rejects_wrong_half_cone(self):
        with pytest.raises(DomainError):
            sw.step_poly_coeffs(-2.0, 16.0, 44.0, 184.0, 0.5, 2)

    def test_rejects_boundary_violation(self):
        with pytest.raises(DomainError):
            sw.step_poly_coeffs(3.0, 16.0, 44.0, 184.0, 0.5, 2)

    def test_constant_term(self):
        # q~(0) = (n - alpha^2) p1^2 by construction.
        a, b, c = sw.step_poly_coeffs(2.0, 16.0, 44.0, 184.0, 0.5, 2)
        assert c == pytest.approx((2 - 0.25) * 4.0, rel=1e-12)


class TestStepLength:
    def test_fixed_mode(self):
        t = sw.step_length(31.5, -10.5, 0.5, 4.0, sw.StepMode.FIXED_HALF_ALPHA)
        assert t == pytest.approx(0.0625, rel=1e-14)

    def test_minimizer_exceeds_fixed(self):
        t_min = sw.step_length(31.5, -10.5, 0.5, 4.0, sw.StepMode.QTILDE_MINIMIZER)
        t_fix = sw.step_length(31.5, -10.5, 0.5, 4.0, sw.StepMode.FIXED_HALF_ALPHA)
        assert t_min > t_fix

    def test_bound_violation_raises(self):
        # A minimizer below alpha/(2||x||) indicates corrupted inputs.
        with pytest.raises(StepBoundViolation):
            sw.step_length(100.0, -1.0, 0.5, 4.0, sw.StepMode.QTILDE_MINIMIZER)

    def test_nonconvex_raises(self):
        with pytest.raises(ConvexityViolation):
            sw.step_length(-1.0, 2.0, 0.5, 4.0, sw.StepMode.QTILDE_MINIMIZER)


class TestNextIterate:
    def test_convex_combination(self):
        e = np.array([1.0, 2.0])
        x = np.array([3.0, 0.0])
        out = sw.next_iterate(e, x, 0.5)
        assert np.allclose(out, (e + 0.5 * x) / 1.5)

    def test_preserves_affine_feasibility(self, rng):
        oracle, A, b, c, e, _, _ = make_sdp(4, seed=7)
        sol = sw.solve_qcp(oracle, A, b, c, e, 0.5)
        e2 = sw.next_iterate(e, sol.x_e, 0.3)
        assert np.allclose(A @ e2, b, atol=1e-10)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(DomainError):
            sw.next_iterate(np.ones(2), np.ones(2), 0.0)


class TestWorkedInstanceStep:
    def test_next_iterate_matches_closed_form(self):
        oracle, A, b, c, e = diag2_problem()
        sol = sw.solve_qcp(oracle, A, b, c, e, 0.5)
        e2 = sw.next_iterate(e, sol.x_e, 1.0 / 6.0)
        E2 = sw.smat(e2)
        # [DERIVED] (I + X/6)/(7/6) with X = diag(1 +/- sqrt7).
        assert E2[0, 0] == pytest.approx((7.0 + SQRT7) / 7.0, rel=1e-10)
        assert E2[1, 1] == pytest.approx((7.0 - SQRT7) / 7.0, rel=1e-10)


class TestRun:
    def test_converges_with_zero_violations(self):
        oracle, A, b, c, e, _, _ = make_sdp(5, seed=0)
        res = sw.run(oracle, A, b, c, e, sw.SolverConfig())
        assert res.status is sw.RunStatus.CONVERGED
        assert all(v == 0 for v in res.violations.values())
        gaps = res.gaps
        assert gaps[-1] <= 1e-8 * gaps[0]
        assert np.all(np.diff(gaps) < 0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_worked_instance_reaches_objective_two(self, alpha):
        # The second iterate at alpha = 0.5 is a parabolic point of the
        # relaxation (||ehat_perp|| = alpha), which the solve must pass.
        oracle, A, b, c, e = diag2_problem()
        res = sw.run(oracle, A, b, c, e, sw.SolverConfig(alpha=alpha))
        assert res.status is sw.RunStatus.CONVERGED
        assert all(v == 0 for v in res.violations.values())
        assert float(np.dot(c, res.final_e)) == pytest.approx(2.0, abs=1e-7)
        assert np.dot(b, res.final_y) <= np.dot(c, res.final_e)

    def test_fixed_step_converges(self):
        oracle, A, b, c, e, _, _ = make_sdp(4, seed=1)
        res = sw.run(
            oracle,
            A,
            b,
            c,
            e,
            sw.SolverConfig(step_mode=sw.StepMode.FIXED_HALF_ALPHA, max_iters=2000),
        )
        assert res.status is sw.RunStatus.CONVERGED
        assert all(v == 0 for v in res.violations.values())

    def test_max_iters_status(self):
        oracle, A, b, c, e, _, _ = make_sdp(4, seed=2)
        res = sw.run(oracle, A, b, c, e, sw.SolverConfig(max_iters=3))
        assert res.status is sw.RunStatus.MAX_ITERS
        assert res.iterations == 3

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_max_iters_below_one_is_domain_error(self, max_iters):
        # Without an iteration there is no gap to report.
        with pytest.raises(DomainError):
            sw.SolverConfig(max_iters=max_iters)

    @pytest.mark.parametrize("max_iters", [2.5, True])
    def test_non_integer_max_iters_is_domain_error(self, max_iters):
        # 2.5 would reach range() as an untyped TypeError; True is an int
        # subclass, but not an iteration count.
        with pytest.raises(DomainError):
            sw.SolverConfig(max_iters=max_iters)

    def test_numpy_integer_max_iters_is_accepted(self):
        assert sw.SolverConfig(max_iters=np.int64(7)).max_iters == 7

    @pytest.mark.parametrize("gap_tol", [math.nan, math.inf])
    def test_non_finite_gap_tol_is_domain_error(self, gap_tol):
        # A NaN tolerance never converges and an infinite one stops after the
        # first relaxation.
        with pytest.raises(DomainError):
            sw.SolverConfig(gap_tol=gap_tol)

    def test_not_in_swath_status(self):
        inst, E0 = sw.gen_central_path_sdp(3, 2, 1.0, 0)
        oracle = sw.det_barrier_oracle(3)
        r = np.random.default_rng(0)
        M = r.standard_normal((3, 3))
        c = sw.svec(0.5 * (M + M.T))
        res = sw.run(
            oracle, inst.constraint_rows(), inst.b, c, sw.svec(E0), sw.SolverConfig()
        )
        assert res.status is sw.RunStatus.NOT_IN_SWATH

    def test_late_missing_optimum_is_numerical_failure(self):
        # The carry-over check keeps every later iterate in the swath, so a
        # relaxation without an optimum after the start is rounding.  This
        # Lorentz run loses it at iterate 28 with no violation counted.
        family = sw.second_order_family(5)
        inst, e0 = sw.gen_hp_instance(family, 2, 1.0, 0)
        res = sw.run(
            sw.hp_barrier_oracle(family), inst.A, inst.b, inst.c, e0,
            sw.SolverConfig(gap_tol=1e-12),
        )
        assert res.status is sw.RunStatus.NUMERICAL_FAILURE
        assert res.iterations == 28
        assert res.violations == {"primal": 0, "dual": 0, "ratio": 0, "carryover": 0}

    def test_drifted_iterate_is_numerical_failure(self, monkeypatch):
        # The third iterate leaves A e = b by 1e-6 relative, past the
        # relaxation's 1e-8 feasibility check: the run ends with a status.
        oracle, A, b, c, e, _, _ = make_sdp(5, seed=0)
        r = np.zeros(b.size)
        r[0] = 1e-6 * (1.0 + np.max(np.abs(b)))
        drift = A.T @ np.linalg.solve(A @ A.T, r)
        step, calls = swathscale.driver.next_iterate, [0]

        def drifting(*args):
            calls[0] += 1
            return step(*args) + (drift if calls[0] == 2 else 0.0)

        monkeypatch.setattr(swathscale.driver, "next_iterate", drifting)
        res = sw.run(oracle, A, b, c, e, sw.SolverConfig())
        assert res.status is sw.RunStatus.NUMERICAL_FAILURE
        assert res.iterations == 2
        # An infeasible start is the caller's error, not a run outcome, and
        # so is a start with a NaN entry, whose residual is NaN.
        with pytest.raises(DomainError):
            sw.run(oracle, A, b, c, e + drift, sw.SolverConfig())
        e_nan = e.copy()
        e_nan[0] = np.nan
        with pytest.raises(DomainError):
            sw.run(oracle, A, b, c, e_nan, sw.SolverConfig())

    # One rule for a typed error inside the run: at iterate 0 one from the
    # relaxation, other than a NumericalFailure, is the caller's and
    # propagates; every other one ends the run numerical_failure.
    @pytest.mark.parametrize("error", TYPED_ERRORS, ids=lambda e: e.__name__)
    def test_typed_error_from_the_first_relaxation(self, monkeypatch, error):
        oracle, A, b, c, e, _, _ = make_sdp(5, seed=0)
        monkeypatch.setattr(
            swathscale.driver, "solve_qcp",
            raising_on_call(swathscale.driver.solve_qcp, 1, error),
        )
        if not issubclass(error, NumericalFailure):
            with pytest.raises(error):
                sw.run(oracle, A, b, c, e, sw.SolverConfig())
            return
        res = sw.run(oracle, A, b, c, e, sw.SolverConfig())
        assert res.status is sw.RunStatus.NUMERICAL_FAILURE
        assert res.iterations == 0

    @pytest.mark.parametrize("error", TYPED_ERRORS, ids=lambda e: e.__name__)
    @pytest.mark.parametrize("target, call, iterations", [
        ("solve_qcp", 3, 2), ("next_iterate", 1, 0),
    ], ids=["third-relaxation", "first-step"])
    def test_later_typed_error_is_numerical_failure(
        self, monkeypatch, error, target, call, iterations
    ):
        oracle, A, b, c, e, _, _ = make_sdp(5, seed=0)
        monkeypatch.setattr(
            swathscale.driver, target,
            raising_on_call(getattr(swathscale.driver, target), call, error),
        )
        res = sw.run(oracle, A, b, c, e, sw.SolverConfig())
        assert res.status is sw.RunStatus.NUMERICAL_FAILURE
        assert res.iterations == iterations

    # Each guarantee counter, driven by one injected fault into a run that
    # counts no violation unfaulted.
    def test_stalled_step_counts_a_primal_violation(self, monkeypatch):
        # The third step returns its start point, so the next primal
        # objective equals the last one.  At that unmoved point the dual
        # slack lies on the boundary of K_e(alpha)*, not inside K_e(beta)*,
        # so the carry-over check fails once as well.
        oracle, A, b, c, e, _, _ = make_sdp(5, seed=0)
        step, calls = swathscale.driver.next_iterate, [0]

        def stalled(e, x, t):
            calls[0] += 1
            return e.copy() if calls[0] == 3 else step(e, x, t)

        monkeypatch.setattr(swathscale.driver, "next_iterate", stalled)
        res = sw.run(oracle, A, b, c, e, sw.SolverConfig())
        assert res.violations == {"primal": 1, "dual": 0, "ratio": 0, "carryover": 1}
        assert res.status is sw.RunStatus.CONVERGED

    def test_lowered_dual_counts_a_dual_violation(self, monkeypatch):
        # The fourth relaxation's y_e moves so that b.y drops by 1; nothing
        # but the recorded dual objective reads y_e.
        oracle, A, b, c, e, _, _ = make_sdp(5, seed=0)
        solve, calls = swathscale.driver.solve_qcp, [0]

        def lowered(*args):
            sol = solve(*args)
            calls[0] += 1
            if calls[0] == 4:
                sol = dataclasses.replace(sol, y_e=sol.y_e - b / (b @ b))
            return sol

        monkeypatch.setattr(swathscale.driver, "solve_qcp", lowered)
        res = sw.run(oracle, A, b, c, e, sw.SolverConfig())
        assert res.violations == {"primal": 0, "dual": 1, "ratio": 0, "carryover": 0}
        assert res.status is sw.RunStatus.CONVERGED

    def test_held_gap_counts_a_ratio_violation(self, monkeypatch):
        # The third and fourth relaxations report the second one's gap, so
        # two consecutive gap ratios are 1; nothing but the record, the
        # ratio check and the convergence test reads the gap.
        oracle, A, b, c, e, _, _ = make_sdp(5, seed=0)
        solve, gaps = swathscale.driver.solve_qcp, []

        def held(*args):
            sol = solve(*args)
            gaps.append(sol.gap)
            if len(gaps) in (3, 4):
                sol = dataclasses.replace(sol, gap=gaps[1])
            return sol

        monkeypatch.setattr(swathscale.driver, "solve_qcp", held)
        res = sw.run(oracle, A, b, c, e, sw.SolverConfig())
        assert res.violations == {"primal": 0, "dual": 0, "ratio": 1, "carryover": 0}
        assert res.status is sw.RunStatus.CONVERGED

    def test_trace_records_are_consistent(self):
        oracle, A, b, c, e, _, _ = make_sdp(4, seed=3)
        res = sw.run(oracle, A, b, c, e, sw.SolverConfig())
        for rec in res.trace[:-1]:
            assert rec.gap > 0 and rec.t > 0 and rec.x_norm_e > 0
            a, bq, cq = rec.qtilde_a, rec.qtilde_b, rec.qtilde_c
            assert a > 0
            # the recorded step is the quadratic's minimizer
            assert rec.t == pytest.approx(-bq / (2 * a), rel=1e-9)
            # step exceeds the guaranteed lower bound
            assert rec.t > 0.5 * rec.alpha / rec.x_norm_e * (1 - 1e-9)

    def test_one_frame_per_iterate(self, monkeypatch):
        # One Cholesky factor of E per step taken, plus the one for the
        # relaxation at the final, converged iterate, and no
        # eigendecomposition.  The metric factor is read twice per step, by
        # the relaxation and by the carry-over check at the next iterate, and
        # both reads share that point's Cholesky factor.  Outside the
        # relaxation the metric is never applied: the carry-over check takes
        # one solve in the frame, and the norms of x_e come from the
        # relaxation's frame.
        n = 10
        oracle, A, b, c, e, _, _ = make_sdp(n, m=20, seed=0)
        oracle, applies = count_hessian_applies(oracle, monkeypatch)
        calls = {"eigh": 0, "cholesky": 0, "hessian_factor": 0}
        eigh, cholesky = np.linalg.eigh, np.linalg.cholesky
        factor = oracle.hessian_factor

        def counted(name, fn, shape=None):
            def wrapper(*args, **kwargs):
                if shape is None or np.shape(args[0]) == shape:
                    calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        oracle = dataclasses.replace(
            oracle, hessian_factor=counted("hessian_factor", factor)
        )
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", cholesky, (n, n)))
        res = sw.run(oracle, A, b, c, e, sw.SolverConfig())
        monkeypatch.undo()
        assert res.status is sw.RunStatus.CONVERGED
        steps = res.iterations - 1
        assert calls == {
            "eigh": 0, "cholesky": steps + 1, "hessian_factor": 2 * steps + 1
        }
        assert applies == {"inside": steps + 1, "outside": 0}

        oracle, applies = count_hessian_applies(oracle, monkeypatch)
        _, iterations = sw.alpha_reduction_run(oracle, A, b, c, e, 0.9, 0.3)
        monkeypatch.undo()
        assert applies == {"inside": iterations, "outside": 0}

    def test_one_factorization_per_point(self, monkeypatch):
        # Each point is factored once and every oracle call at it reads that
        # factor: the SDP oracle takes one n x n Cholesky per point, and
        # nothing eigendecomposes or inverts a matrix.  The relaxation takes
        # one m x m Cholesky factor of its Gram matrix per point, however
        # ill-conditioned the constraint block: the refined solve takes more
        # passes against it instead of a second factor.  The Lorentz map
        # solves with its Gram matrix in closed form from the factor of
        # A A^T, so a Lorentz run takes one m x m Cholesky in all.
        n, m = 10, 20
        oracle, A, b, c, e, _, _ = make_sdp(n, m=m, seed=0)
        calls = {"solve_qcp": 0, "eigh": 0, "inv": 0, (n, n): 0, (m, m): 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def counted_by_shape(fn):
            def wrapper(M, *args, **kwargs):
                calls[np.shape(M)] += 1
                return fn(M, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            swathscale.driver, "solve_qcp",
            counted("solve_qcp", swathscale.driver.solve_qcp),
        )
        for name in ("eigh", "inv"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(np.linalg, "cholesky", counted_by_shape(np.linalg.cholesky))
        res = sw.run(oracle, A, b, c, e, sw.SolverConfig())
        monkeypatch.undo()
        assert res.status is sw.RunStatus.CONVERGED
        solves = calls["solve_qcp"]
        assert solves == res.iterations
        assert calls["eigh"] == 0 and calls["inv"] == 0
        assert calls[(n, n)] == solves
        assert calls[(m, m)] == solves

        inst, e_lor = sw.gen_hp_instance(sw.second_order_family(30), 15, 1.0, 0)
        shapes = []

        def recorded(M, *args, **kwargs):
            shapes.append(np.shape(M))
            return cholesky(M, *args, **kwargs)

        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", recorded)
        res = sw.run(
            sw.hp_barrier_oracle(inst.family), inst.A, inst.b, inst.c, e_lor,
            sw.SolverConfig(),
        )
        monkeypatch.undo()
        assert res.status is sw.RunStatus.CONVERGED and res.iterations > 1
        assert shapes == [(15, 15)]

        # Each cache of an HP oracle builds each iterate once.  The Lorentz
        # oracle caches its spectral frame, the product oracle e and 1/e, and
        # the esym oracle the point's one build and the split Hessian factor
        # read from it.
        point_cache = swathscale.hyperbolic.point_cache
        families = (
            sw.elementary_symmetric_family(8, 3), sw.second_order_family(30),
            sw.product_family(20),
        )
        for family, caches_per_run in zip(families, (2, 1, 1)):
            caches = []

            def recording_cache(d, build):
                builds = []
                caches.append(builds)

                def recorded(e):
                    builds.append(e.tobytes())
                    return build(e)

                return point_cache(d, recorded)

            inst, e = sw.gen_hp_instance(family, family.d // 2, 1.0, 0)
            monkeypatch.setattr(swathscale.hyperbolic, "point_cache", recording_cache)
            oracle = sw.hp_barrier_oracle(inst.family)
            monkeypatch.undo()
            res = sw.run(oracle, inst.A, inst.b, inst.c, e, sw.SolverConfig())
            assert res.status is sw.RunStatus.CONVERGED
            assert len(caches) == caches_per_run, family.name
            for builds in caches:
                assert len(builds) == len(set(builds)) == res.iterations, family.name

    def test_constraint_block_stack_built_once_per_run(self, monkeypatch):
        # The run binds the constraint block once, and the SDP oracle maps it
        # at every iterate from the matrix stack it unpacked then, so smat
        # sees the block once per run; single vectors still go through smat
        # each time.
        oracle, A, b, c, e, _, _ = make_sdp(10, m=20, seed=0)
        ndims = []
        smat = swathscale.sdp.smat

        def recorded(v):
            ndims.append(np.ndim(v))
            return smat(v)

        monkeypatch.setattr(swathscale.sdp, "smat", recorded)
        res = sw.run(oracle, A, b, c, e, sw.SolverConfig())
        monkeypatch.undo()
        assert res.status is sw.RunStatus.CONVERGED and res.iterations > 1
        assert ndims.count(2) == 1

    def test_sdp_and_lorentz_runs_make_no_scipy_solves(self, monkeypatch):
        # numpy and scipy each bundle a BLAS with its own thread pool.  A
        # threaded scipy call between numpy calls waits on numpy's idle
        # workers, so the loop applies every triangle through numpy, from
        # the explicit inverses that dtrtri returns.
        inst, e_lor = sw.gen_hp_instance(sw.second_order_family(30), 15, 1.0, 0)
        runs = [
            make_sdp(10, m=20, seed=0)[:5],
            (sw.hp_barrier_oracle(inst.family), inst.A, inst.b, inst.c, e_lor),
        ]
        calls = []

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("solve_triangular", "cho_solve"):
            monkeypatch.setattr(scipy.linalg, name, recorded(name, getattr(scipy.linalg, name)))
        results = [sw.run(*args, sw.SolverConfig()) for args in runs]
        monkeypatch.undo()
        assert all(res.status is sw.RunStatus.CONVERGED for res in results)
        assert calls == []

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("family", ["sdp", "lorentz"])
    def test_tight_gap_tolerance_converges(self, family, seed):
        # Near a 1e-10 gap ratio the frame-transformed constraint block has
        # condition numbers up to ~1e6; the relaxation's orthogonal factor
        # must stay accurate enough to keep every iterate in the swath.
        if family == "sdp":
            oracle, A, b, c, e, _, _ = make_sdp(10, m=20, seed=seed)
        else:
            inst, e = sw.gen_hp_instance(sw.second_order_family(30), 15, 1.0, seed)
            oracle, A, b, c = sw.hp_barrier_oracle(inst.family), inst.A, inst.b, inst.c
        res = sw.run(oracle, A, b, c, e, sw.SolverConfig(gap_tol=1e-10))
        assert res.status is sw.RunStatus.CONVERGED
        assert all(v == 0 for v in res.violations.values()), res.violations

    @pytest.mark.parametrize("seed", [*range(8), *range(63352, 63360)])
    def test_full_size_lorentz_tight_tolerance(self, seed):
        # The benchmark's Lorentz d=200, m=100 instances of pool seeds 0 and
        # 7919 at a 1e-12 gap ratio, where the constraint block reaches
        # condition numbers ~5e6 and the refined solve takes more than three
        # passes against the Gram solve: with three passes alone these runs
        # fail.  Each takes 36 iterations, a tripwire for a change to the
        # relaxation's Gram solve.
        inst, e = sw.gen_hp_instance(sw.second_order_family(200), 100, seed=seed)
        oracle = sw.hp_barrier_oracle(inst.family)
        res = sw.run(oracle, inst.A, inst.b, inst.c, e, sw.SolverConfig(gap_tol=1e-12))
        assert res.status is sw.RunStatus.CONVERGED
        assert res.iterations == 36
        assert all(v == 0 for v in res.violations.values()), res.violations

    def test_full_size_sdp_dual_pair_at_tight_tolerance(self):
        # The benchmark's sdp-n40 seed-0 pool (generator seeds 0-3) at a
        # 1e-10 gap ratio, where the frame-transformed constraint block is
        # ill-conditioned enough that the refined solve takes up to five
        # passes: the dual vector it recovers must still pair with the dual
        # slack to ||A^T y + s - c|| / (1 + ||c||) <= 2e-6, and the iterates
        # must keep their counts.
        iterations = []
        for seed in range(4):
            inst, E0 = sw.gen_central_path_sdp(40, 80, seed=seed)
            A, c = inst.constraint_rows(), sw.svec(inst.C)
            res = sw.run(
                sw.det_barrier_oracle(40), A, inst.b, c, sw.svec(E0),
                sw.SolverConfig(gap_tol=1e-10),
            )
            assert res.status is sw.RunStatus.CONVERGED
            assert all(v == 0 for v in res.violations.values()), res.violations
            residual = np.abs(A.T @ res.final_y + res.final_s - c).max()
            assert residual <= 2e-6 * (1.0 + np.abs(c).max()), (seed, residual)
            iterations.append(res.iterations)
        assert iterations == [100, 105, 106, 106]

    def test_full_size_lorentz_dual_pair_at_tight_tolerance(self):
        # The benchmark's lorentz-d200 seed-0 pool (generator seeds 0-7) at a
        # 1e-10 gap ratio, where the refined solve takes up to ten passes
        # against the Lorentz map's closed-form Gram solve: the dual vector
        # must pair with the dual slack to
        # ||A^T y + s - c|| / (1 + ||c||) <= 2e-6, and each run must keep
        # its 30 iterations.
        family = sw.second_order_family(200)
        for seed in range(8):
            inst, e = sw.gen_hp_instance(family, 100, seed=seed)
            res = sw.run(
                sw.hp_barrier_oracle(family), inst.A, inst.b, inst.c, e,
                sw.SolverConfig(gap_tol=1e-10),
            )
            assert res.status is sw.RunStatus.CONVERGED
            assert res.iterations == 30, seed
            assert all(v == 0 for v in res.violations.values()), res.violations
            residual = np.abs(inst.A.T @ res.final_y + res.final_s - inst.c).max()
            assert residual <= 2e-6 * (1.0 + np.abs(inst.c).max()), (seed, residual)

    def test_benchmark_pools_keep_their_iterates(self):
        # A tripwire for speedups: the iteration counts of the benchmark's
        # seed-0 pools (sdp-n40: generator seeds 0-3; lorentz-d200: 0-7) and
        # held-out seed-7919 pools (sdp-n40: 31676-31679; lorentz-d200:
        # 63352-63359) at the default config.  A change that moves the
        # iterates changes what the benchmark compares.
        runs = []
        for seed in [*range(4), *range(31676, 31680)]:
            inst, E0 = sw.gen_central_path_sdp(40, 80, seed=seed)
            runs.append((
                sw.det_barrier_oracle(40), inst.constraint_rows(), inst.b,
                sw.svec(inst.C), sw.svec(E0),
            ))
        family = sw.second_order_family(200)
        for seed in [*range(8), *range(63352, 63360)]:
            inst, e = sw.gen_hp_instance(family, 100, seed=seed)
            runs.append((sw.hp_barrier_oracle(family), inst.A, inst.b, inst.c, e))
        results = [sw.run(*args, sw.SolverConfig()) for args in runs]
        assert [res.iterations for res in results] == (
            [81, 85, 85, 86] + [80, 85, 86, 85] + [25] * 16
        )
        for res in results:
            assert res.status is sw.RunStatus.CONVERGED
            assert all(v == 0 for v in res.violations.values()), res.violations

    def test_config_validation(self):
        with pytest.raises(DomainError):
            sw.SolverConfig(alpha=1.5)
        with pytest.raises(DomainError):
            sw.SolverConfig(gap_tol=0.0)


class TestAlphaSchedule:
    def test_schedule_next_value(self):
        # [TRIVIAL] 0.5 * sqrt(0.75)
        assert sw.alpha_schedule_next(0.5) == pytest.approx(
            0.5 * math.sqrt(0.75), rel=1e-14
        )

    def test_schedule_decreases(self):
        a = 0.9
        for _ in range(50):
            nxt = sw.alpha_schedule_next(a)
            assert nxt < a
            a = nxt

    def test_frozen_bounds(self):
        # [DERIVED] high-precision evaluation of the ceiling formula.
        assert sw.alpha_reduction_bound(0.9, 0.3) == 33
        assert sw.alpha_reduction_bound(0.99, 0.5) == 44
        assert sw.alpha_reduction_bound(0.6, 0.1) == 34

    def test_reduction_run_reaches_target_in_swath(self):
        oracle, A, b, c, e, _, _ = make_sdp(4, seed=5)
        e_fin, iters = sw.alpha_reduction_run(oracle, A, b, c, e, 0.9, 0.3)
        assert iters <= sw.alpha_reduction_bound(0.9, 0.3)
        assert sw.in_swath(oracle, A, b, c, e_fin, 0.3)

    def test_reduction_off_the_swath_is_numerical_failure(self):
        # min -x0 s.t. x1 + x2 = 2 over the orthant: the relaxation recedes
        # at e0, so the first step has no optimum to move toward.
        oracle = sw.hp_barrier_oracle(sw.product_family(3))
        A, b, c = np.array([[0.0, 1.0, 1.0]]), np.array([2.0]), np.array([-1.0, 0.0, 0.0])
        with pytest.raises(NumericalFailure, match="left swath"):
            sw.alpha_reduction_run(oracle, A, b, c, np.ones(3), 0.9, 0.3)

    def test_reduction_domain(self):
        oracle, A, b, c, e, _, _ = make_sdp(4, seed=5)
        with pytest.raises(DomainError):
            sw.alpha_reduction_run(oracle, A, b, c, e, 0.3, 0.9)

    @pytest.mark.parametrize(
        "alpha0, target", [(1.5, 0.3), (0.3, 0.9), (0.5, 0.5), (0.5, 0.0), (1.0, 0.5)]
    )
    def test_reduction_bound_domain(self, alpha0, target):
        # Outside 0 < target < alpha0 < 1 the logarithms are undefined or
        # the bound is meaningless.
        with pytest.raises(DomainError):
            sw.alpha_reduction_bound(alpha0, target)


class TestDualityGap:
    def test_matches_subproblem_gap(self):
        oracle, A, b, c, e, _, _ = make_sdp(4, seed=6)
        sol = sw.solve_qcp(oracle, A, b, c, e, 0.5)
        assert sw.duality_gap(c, e, sol.x_e) == pytest.approx(sol.gap, rel=1e-12)
        # strong duality: gap equals primal minus dual objective
        assert sol.gap == pytest.approx(
            float(np.dot(c, e)) - float(np.dot(b, sol.y_e)), rel=1e-8
        )
