"""Acceptance gate: fourteen end-to-end properties of the solver.

Each test prints one pass/fail line in the terminal summary via
``record_criterion``.  Tolerances are stated inline and match the
project's acceptance thresholds exactly.
"""

import math
import time

import numpy as np
import pytest

import swathscale as sw
from swathscale.diagnostics import (
    boundary_point,
    decrease_bound_check,
    fd_check,
    membership_equiv_check,
    q_scaling_check,
)
from swathscale.hyperbolic import is_member

from conftest import diag2_problem, record_criterion

SQRT7 = 2.6457513110645905905
RATIO_SLACK = 1e-9

SUITE1_SIZES = (5, 10, 20)
SUITE1_COUNT = 20


def halving_bound(n: int, kappa: float = 0.125) -> int:
    return math.ceil(2.0 * math.log(2.0) / -math.log(1.0 - kappa / (kappa + math.sqrt(n))))


def contraction_ok(gaps: np.ndarray, bound: float) -> bool:
    ratios = gaps[1:] / gaps[:-1]
    for i in range(len(ratios) - 1):
        if min(ratios[i], ratios[i + 1]) > bound + RATIO_SLACK:
            return False
    return True


def halving_ok(gaps: np.ndarray, bound: int) -> bool:
    for i in range(len(gaps) - bound):
        if gaps[i + bound] > 0.5 * gaps[i]:
            return False
    return True


@pytest.fixture(scope="module")
def suite1():
    """20 SDP runs per size n in {5, 10, 20}, m = 2n, alpha = 0.5."""
    runs = {}
    start = time.perf_counter()
    for n in SUITE1_SIZES:
        oracle = sw.det_barrier_oracle(n)
        for seed in range(SUITE1_COUNT):
            inst, E0 = sw.gen_central_path_sdp(n, 2 * n, 1.0, seed)
            res = sw.run(
                oracle,
                inst.constraint_rows(),
                inst.b,
                sw.svec(inst.C),
                sw.svec(E0),
                sw.SolverConfig(alpha=0.5, gap_tol=1e-8),
            )
            runs[(n, seed)] = res
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def kkt_suite():
    """200 solved relaxations across sizes and cone parameters."""
    out = []
    for i in range(200):
        n = 3 + i % 5
        alpha = 0.3 + 0.1 * (i % 5)
        inst, E0 = sw.gen_central_path_sdp(n, n, 1.0, i)
        oracle = sw.det_barrier_oracle(n)
        A = inst.constraint_rows()
        c = sw.svec(inst.C)
        e = sw.svec(E0)
        sol = sw.solve_qcp(oracle, A, inst.b, c, e, alpha)
        out.append((n, alpha, oracle, A, inst.b, c, e, E0, sol))
    return out


def test_criterion_01_two_step_contraction(suite1):
    runs, elapsed = suite1
    ok = True
    for (n, seed), res in runs.items():
        bound = sw.schedule_constants(0.5, n).ratio_bound
        if res.status is not sw.RunStatus.CONVERGED:
            ok = False
        elif not contraction_ok(res.gaps, bound):
            ok = False
    ok = ok and elapsed < 120.0
    record_criterion(
        1,
        "two-step gap contraction on 60 runs, gap <= 1e-8 gap0",
        ok,
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_halving_bound(suite1):
    runs, _ = suite1
    ok = all(
        halving_ok(res.gaps, halving_bound(n)) for (n, _), res in runs.items()
    )
    record_criterion(2, "gap halves within the schedule bound from every index", ok)
    assert ok


def test_criterion_03_monotonicity(suite1):
    runs, _ = suite1
    ok = True
    for res in runs.values():
        primal = np.array([rec.primal_obj for rec in res.trace])
        if not np.all(np.diff(primal) < 0):
            ok = False
        if res.violations["primal"] != 0 or res.violations["dual"] != 0:
            ok = False
    record_criterion(3, "primal strictly decreases, dual never decreases", ok)
    assert ok


def test_criterion_04_swath_and_carryover(suite1):
    runs, _ = suite1
    # Convergence certifies the in-swath property at every iterate (each
    # iteration re-solves the relaxation and stops on failure); the
    # carry-over counter certifies the relaxed-dual-cone membership.
    ok = all(
        res.status is sw.RunStatus.CONVERGED and res.violations["carryover"] == 0
        for res in runs.values()
    )
    # Independent spot re-check on one run per size.
    for n in SUITE1_SIZES:
        inst, E0 = sw.gen_central_path_sdp(n, 2 * n, 1.0, 0)
        oracle = sw.det_barrier_oracle(n)
        ok = ok and sw.solve_qcp(
            oracle, inst.constraint_rows(), inst.b, sw.svec(inst.C), sw.svec(E0), 0.5
        ) is not None
    record_criterion(4, "every iterate in the swath; dual slack carries over", ok)
    assert ok


def test_criterion_05_worked_instance_exactness():
    oracle, A, b, c, e = diag2_problem()
    sol = sw.solve_qcp(oracle, A, b, c, e, 0.5)
    X = sw.smat(sol.x_e)
    checks = [
        (X[0, 0], 1.0 + SQRT7),
        (X[1, 1], 1.0 - SQRT7),
        (sol.gap, SQRT7),
    ]
    p = oracle.direction_power_sums(e, sol.x_e)
    qt = sw.step_poly_coeffs(*p, 0.5, 2)
    checks += [(qt[0], 31.5), (qt[1], -10.5), (qt[2], 7.0)]
    t = sw.step_length(qt[0], qt[1], 0.5, math.sqrt(p[1]), sw.StepMode.QTILDE_MINIMIZER)
    checks.append((t, 1.0 / 6.0))
    E2 = sw.smat(sw.next_iterate(e, sol.x_e, t))
    checks += [(E2[0, 0], (7.0 + SQRT7) / 7.0), (E2[1, 1], (7.0 - SQRT7) / 7.0)]
    worst = max(abs(got - ref) / abs(ref) for got, ref in checks)
    ok = worst <= 1e-10
    record_criterion(5, "worked diagonal instance exact to 1e-10", ok, f"worst={worst:.2e}")
    assert ok


def test_criterion_06_kkt_identities(kkt_suite):
    tol = 1e-7
    worst = 0.0
    for n, alpha, oracle, A, b, c, e, _, sol in kkt_suite:
        assert sol is not None
        gap = sol.gap
        worst = max(worst, abs(np.dot(e, sol.s_e) - gap) / gap)
        worst = max(worst, abs(np.dot(sol.x_e, sol.s_e)) / gap)
        resid = A.T @ sol.y_e + sol.s_e - c
        worst = max(worst, np.max(np.abs(resid)) / (1.0 + np.max(np.abs(c))))
        hx = oracle.hessian_apply(e, sol.x_e)
        proj = float(np.dot(e, hx))
        norm = math.sqrt(float(np.dot(sol.x_e, hx)))
        worst = max(worst, abs(proj - alpha * norm) / abs(proj))
    ok = worst <= tol
    record_criterion(
        6, "KKT identities to 1e-7 on 200 instances", ok, f"worst={worst:.2e}"
    )
    assert ok


def test_criterion_07_trace_square_identity(kkt_suite):
    tol = 1e-7
    worst = 0.0
    for n, alpha, _, _, _, _, _, E0, sol in kkt_suite:
        S = sw.smat(sol.s_e)
        val = float(np.trace((E0 @ S) @ (E0 @ S))) * (n - alpha**2)
        worst = max(worst, abs(val - sol.gap**2) / sol.gap**2)
    ok = worst <= tol
    record_criterion(
        7, "tr((E s)^2)(n - a^2) = gap^2 to 1e-7 on 200 instances", ok,
        f"worst={worst:.2e}",
    )
    assert ok


def test_criterion_08_q_scaling():
    worst = 0.0
    ok = True
    for seed in range(50):
        inst, E0 = sw.gen_central_path_sdp(4 + seed % 2, 6, 1.0, seed)
        report = q_scaling_check(inst, E0, 0.5)
        worst = max(worst, report.max_rel_err)
        ok = ok and report.passed
    record_criterion(
        8, "trace quadratic matches eigenvalue form to 1e-8 (50 x 11)", ok,
        f"worst={worst:.2e}",
    )
    assert ok


def test_criterion_09_membership_equivalence():
    disagreements = 0
    beta = 0.5 * math.sqrt(0.75)
    grid = np.linspace(-0.5, 3.0, 25)
    for seed in range(50):
        inst, E0 = sw.gen_central_path_sdp(4 + seed % 2, 6, 1.0, seed)
        report = membership_equiv_check(inst, E0, 0.5, beta, grid)
        disagreements += int(report.max_rel_err)
    ok = disagreements == 0
    record_criterion(
        9, "membership equivalence: 0 disagreements on 50 instances", ok,
        f"disagreements={disagreements}",
    )
    assert ok


def test_criterion_10_decrease_bound():
    alpha = 0.5
    ok = True
    for n in range(3, 9):
        rng = np.random.default_rng(n)
        _, E0 = sw.gen_central_path_sdp(n, 2, 1.0, n)
        for _ in range(50):
            X, x_norm = boundary_point(E0, alpha, rng)
            grid = np.linspace(1e-3, alpha / x_norm, 20)
            report = decrease_bound_check(E0, X, alpha, grid)
            ok = ok and report.passed
    record_criterion(
        10, "strict decrease bound on 50 boundary points per n in 3..8", ok
    )
    assert ok


def test_criterion_11_alpha_reduction():
    ok = True
    for alpha0, target in ((0.9, 0.3), (0.99, 0.5), (0.6, 0.1)):
        bound = sw.alpha_reduction_bound(alpha0, target)
        for seed in range(10):
            inst, E0 = sw.gen_central_path_sdp(5, 10, 1.0, seed)
            oracle = sw.det_barrier_oracle(5)
            A, c = inst.constraint_rows(), sw.svec(inst.C)
            e_fin, iters = sw.alpha_reduction_run(
                oracle, A, inst.b, c, sw.svec(E0), alpha0, target
            )
            if iters > bound or sw.solve_qcp(oracle, A, inst.b, c, e_fin, target) is None:
                ok = False
    record_criterion(
        11, "alpha reduction reaches target within bound, in swath", ok
    )
    assert ok


def test_criterion_12_cross_backend_equivalence():
    tol = 1e-6
    worst = 0.0
    ok = True
    fam = sw.determinant_family(4)
    for seed in range(10):
        inst_hp, e0 = sw.gen_hp_instance(fam, 8, 1.0, seed)
        inst_sdp, E0 = sw.gen_central_path_sdp(4, 8, 1.0, seed)
        r_hp = sw.run(
            sw.hp_barrier_oracle(fam), inst_hp.A, inst_hp.b, inst_hp.c, e0,
            sw.SolverConfig(),
        )
        r_sdp = sw.run(
            sw.det_barrier_oracle(4),
            inst_sdp.constraint_rows(), inst_sdp.b, sw.svec(inst_sdp.C),
            sw.svec(E0), sw.SolverConfig(),
        )
        if r_hp.iterations != r_sdp.iterations:
            ok = False
            continue
        rel = float(np.max(np.abs(r_hp.gaps - r_sdp.gaps) / np.abs(r_sdp.gaps)))
        worst = max(worst, rel)
    ok = ok and worst <= tol
    record_criterion(
        12, "determinant-family runs match the matrix backend to 1e-6", ok,
        f"worst={worst:.2e}",
    )
    assert ok


def test_criterion_13_hyperbolic_oracles():
    rng = np.random.default_rng(99)
    ok = True
    detail = []

    # Newton-identity power sums vs root power sums, 100 cases, 1e-8.
    worst = 0.0
    for i in range(100):
        deg = 2 + i % 11  # degrees 2..12
        roots = rng.uniform(-3.0, 3.0, size=deg)
        coeffs = np.array([rng.uniform(0.5, 2.0)])
        for r in roots:
            coeffs = np.polynomial.polynomial.polymul(coeffs, [r, 1.0])
        got = sw.power_sums_from_coeffs(coeffs)
        ref = sw.power_sums(roots)
        for g, r in zip(got, ref):
            worst = max(worst, abs(g - r) / (1.0 + abs(r)))
    ok = ok and worst <= 1e-8
    detail.append(f"newton={worst:.1e}")

    families = [
        sw.product_family(5),
        sw.second_order_family(5),
        sw.determinant_family(3),
        sw.elementary_symmetric_family(5, 3),
    ]

    def interior(family, radius=0.4):
        e = family.canonical_direction()
        oracle = sw.hp_barrier_oracle(family)
        w = rng.standard_normal(family.d)
        norm = math.sqrt(float(np.dot(w, oracle.hessian_apply(e, w))))
        return e + (radius / norm) * w

    # Finite-difference derivative checks at 1e-5 for all four families.
    fd_worst = 0.0
    for fam in families:
        report = fd_check(sw.hp_barrier_oracle(fam), interior(fam))
        fd_worst = max(fd_worst, report.max_rel_err)
        ok = ok and report.passed
    detail.append(f"fd={fd_worst:.1e}")

    # ||e||_e = sqrt(n) and H(e)e = -g(e) to 1e-8 on 100 points per family.
    id_worst = 0.0
    for fam in families:
        oracle = sw.hp_barrier_oracle(fam)
        for _ in range(100):
            e = interior(fam, radius=0.3 + 0.4 * rng.random())
            he = oracle.hessian_apply(e, e)
            g = oracle.gradient(e)
            id_worst = max(
                id_worst,
                float(np.max(np.abs(he + g))) / (1.0 + float(np.max(np.abs(g)))),
            )
            id_worst = max(
                id_worst, abs(float(np.dot(e, he)) - fam.degree) / fam.degree
            )
    ok = ok and id_worst <= 1e-8
    detail.append(f"ident={id_worst:.1e}")

    # Sandwich sampling, 1000 points per family, zero misclassifications.
    miss = 0
    for fam in families:
        oracle = sw.hp_barrier_oracle(fam)
        e = fam.canonical_direction()
        n = fam.degree
        outer = sw.QuadCone(oracle, e, 1.0)
        inner_alpha = math.sqrt(n - 1.0) if n > 1 else 0.5
        for _ in range(500):
            # A cone point must not classify Outside the enclosing cone.
            if fam.name == "product":
                x = np.abs(rng.standard_normal(fam.d))
            elif fam.name == "second_order":
                x = rng.standard_normal(fam.d)
                x[-1] = np.linalg.norm(x[:-1]) + abs(rng.standard_normal())
            elif fam.name == "determinant":
                G = rng.standard_normal((n, n))
                x = sw.svec(G @ G.T)
            else:
                x = np.abs(rng.standard_normal(fam.d))
            if sw.primal_cone_member(outer, x) is sw.Membership.OUTSIDE:
                miss += 1
        for _ in range(500):
            # A point of the narrow inner cone must be a cone member.
            v = rng.standard_normal(fam.d)
            hv = oracle.hessian_apply(e, v)
            v = v - (float(np.dot(e, hv)) / n) * e
            norm = math.sqrt(max(float(np.dot(v, oracle.hessian_apply(e, v))), 1e-300))
            sigma_max = math.sqrt(n**2 / inner_alpha**2 - n)
            x = e + (0.999 * rng.random() * sigma_max / norm) * v
            if not is_member(fam, x, tol=1e-8):
                miss += 1
    ok = ok and miss == 0
    detail.append(f"sandwich_miss={miss}")

    record_criterion(13, "hyperbolic oracle identities", ok, ", ".join(detail))
    assert ok


def test_criterion_14_hp_end_to_end():
    start = time.perf_counter()
    ok = True
    families = [
        fam
        for d in (6, 12, 20)
        for fam in (
            sw.product_family(d),
            sw.second_order_family(d),
            sw.elementary_symmetric_family(d, 3),
            sw.elementary_symmetric_family(d, 4),
        )
    ]
    for fam in families:
        n = fam.degree
        bound = sw.schedule_constants(0.5, n).ratio_bound
        hbound = halving_bound(n)
        for seed in range(3):
            inst, e0 = sw.gen_hp_instance(fam, fam.d // 2, 1.0, seed)
            res = sw.run(
                sw.hp_barrier_oracle(fam), inst.A, inst.b, inst.c, e0,
                sw.SolverConfig(alpha=0.5, gap_tol=1e-8),
            )
            if res.status is not sw.RunStatus.CONVERGED:
                ok = False
                continue
            if any(v != 0 for v in res.violations.values()):
                ok = False
            if not contraction_ok(res.gaps, bound):
                ok = False
            if not halving_ok(res.gaps, hbound):
                ok = False
            primal = np.array([rec.primal_obj for rec in res.trace])
            if not np.all(np.diff(primal) < 0):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    record_criterion(
        14, "product, Lorentz and elementary-symmetric families meet criteria 1-4",
        ok, f"{elapsed:.1f}s",
    )
    assert ok
