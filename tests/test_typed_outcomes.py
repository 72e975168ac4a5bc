"""Every run ends in a RunStatus or raises a SwathscaleError, never another
exception: near-boundary starts, ill-conditioned start matrices, and as
many constraints as the cone allows."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swathscale as sw
from swathscale.errors import InvariantViolation, RetryExhausted, SwathscaleError

from conftest import ESYM_TINY_LEADING

SEEDS = st.integers(0, 2**32 - 1)
HP_FAMILIES = {
    "product": sw.product_family,
    "second_order": sw.second_order_family,
    "elementary_symmetric": lambda d: sw.elementary_symmetric_family(d, 3),
}


def constraint_count(choice, dim):
    """One constraint, half the dimension, or one short of the dimension."""
    return {"one": 1, "half": max(dim // 2, 1), "all_but_one": dim - 1}[choice]


def run_outcome(oracle, A, b, c, e0):
    """The run's status, or None when it raised a SwathscaleError; any other
    exception propagates and fails the test."""
    try:
        return sw.run(oracle, A, b, c, e0, sw.SolverConfig()).status
    except SwathscaleError:
        return None


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(HP_FAMILIES)),
    d=st.integers(3, 20),
    m_choice=st.sampled_from(["one", "half", "all_but_one"]),
    radius=st.floats(0.0, 1.0 - 1e-6),
    seed=SEEDS,
)
def test_hp_run_outcome_is_typed(family, d, m_choice, radius, seed):
    # The start is the canonical direction moved by local norm `radius`
    # (the Dikin ball), out to 1e-6 from its edge; c plants it on the
    # central path, so the run starts in the swath.
    fam = HP_FAMILIES[family](d)
    oracle = sw.hp_barrier_oracle(fam)
    rng = np.random.default_rng(seed)
    e_can = fam.canonical_direction()
    w = rng.standard_normal(d)
    e0 = e_can + (radius / sw.local_norm(oracle, e_can, w)) * w
    m = constraint_count(m_choice, d)
    A = rng.standard_normal((m, d))
    c = A.T @ rng.standard_normal(m) - oracle.gradient(e0)
    outcome = run_outcome(oracle, A, A @ e0, c, e0)
    assert outcome is None or isinstance(outcome, sw.RunStatus)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(2, 12),
    m_choice=st.sampled_from(["one", "half", "all_but_one"]),
    log10_cond=st.floats(0.0, 11.0),
    seed=SEEDS,
)
def test_sdp_run_outcome_is_typed(n, m_choice, log10_cond, seed):
    # E0 has eigenvalues spread evenly in log scale over a ratio of
    # 10**log10_cond, up to cond(E0) = 1e11; c = A^T y + E0^{-1} plants it
    # on the central path.  svec takes the symmetric part of each matrix.
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigs = 10.0 ** (-log10_cond * rng.permutation(np.linspace(0.0, 1.0, n)))
    e0 = sw.svec((Q * eigs) @ Q.T)
    m = constraint_count(m_choice, sw.sym_dim(n))
    A = sw.svec(rng.standard_normal((m, n, n)))
    c = A.T @ rng.standard_normal(m) + sw.svec((Q / eigs) @ Q.T)
    outcome = run_outcome(sw.det_barrier_oracle(n), A, A @ e0, c, e0)
    assert outcome is None or isinstance(outcome, sw.RunStatus)


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-13])
def test_rank_deficient_lorentz_block_is_numerical_failure(scale):
    # A repeated constraint row, exact or off by a relative 1e-13: the
    # Lorentz map factors A A^T at the run's first point, inside the loop,
    # so the run ends numerical_failure at iterate 0 instead of raising.
    inst, e0 = sw.gen_hp_instance(sw.second_order_family(30), 15, 1.0, 0)
    A = np.vstack([inst.A, scale * inst.A[:1]])
    b = np.append(inst.b, scale * inst.b[0])
    res = sw.run(sw.hp_barrier_oracle(inst.family), A, b, inst.c, e0, sw.SolverConfig())
    assert res.status is sw.RunStatus.NUMERICAL_FAILURE
    assert res.iterations == 0


@pytest.mark.parametrize("d, seed", ESYM_TINY_LEADING)
def test_esym_tiny_leading_coefficient_run_ends_in_status(d, seed):
    # The step's power sums read the restricted polynomial relative to its
    # own scale, and a frame that fails at a later iterate ends the run as
    # a numerical failure: the run returns a status and raises nothing.
    inst, e0 = sw.gen_hp_instance(sw.elementary_symmetric_family(d, 3), 1, 1.0, seed)
    oracle = sw.hp_barrier_oracle(inst.family)
    res = sw.run(oracle, inst.A, inst.b, inst.c, e0, sw.SolverConfig())
    assert isinstance(res.status, sw.RunStatus)


@pytest.mark.xfail(strict=True, raises=ValueError)
def test_product_d100_outcome_is_typed():
    """Known defect: the product barrier's ``value`` is ``-log(prod(e))``,
    and at d=100 the product underflows to 0, so ``math.log`` raises an
    untyped ValueError mid-run.  The fix, ``-sum(log(e))``, waits on a
    change to the benchmark: ``perfbench/test_perfbench.py``'s
    ``test_exception_in_run_is_a_counted_failure`` feeds this instance
    (``KNOWN_DEFECTS["product-d100-seed0"]``) and asserts that ValueError."""
    inst, e0 = sw.gen_hp_instance(sw.product_family(100), 50, 1.0, 0)
    outcome = run_outcome(sw.hp_barrier_oracle(inst.family), inst.A, inst.b, inst.c, e0)
    assert outcome is None or isinstance(outcome, sw.RunStatus)


@pytest.mark.parametrize("generate, shape", [
    (lambda: sw.gen_central_path_sdp(10**10, 1), (1, 10**10, 10**10)),
    (lambda: sw.gen_hp_instance(sw.product_family(10**19), 1), (1, 10**19)),
], ids=["sdp", "hp"])
def test_generator_refuses_an_unallocatable_instance(monkeypatch, generate, shape):
    # Sizes past numpy's own limits (over 2**63 bytes, or a dimension past
    # intp), refused before the first draw whatever memory the host has.
    def no_draws(*args):
        raise AssertionError("the generator drew before checking its size")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    message = f"instance too large: cannot allocate an array of shape {shape}"
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        generate()


@pytest.mark.parametrize("cls, generate", [
    (sw.SdpInstance, lambda: sw.gen_central_path_sdp(4, 6, 1.0, 0)),
    (sw.HpInstance, lambda: sw.gen_hp_instance(sw.product_family(6), 3, 1.0, 0)),
], ids=["sdp", "hp"])
def test_generator_gives_up_after_ten_draws(monkeypatch, cls, generate):
    calls = []

    def invalid(self):
        calls.append(self)
        raise InvariantViolation("injected")

    monkeypatch.setattr(cls, "validate", invalid)
    with pytest.raises(RetryExhausted, match="in 10 draws"):
        generate()
    assert len(calls) == 10
