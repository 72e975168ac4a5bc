"""Shared helpers for the test suite."""

import numpy as np
import pytest

import swathscale as sw

_CRITERIA: list[tuple[int, str, bool, str]] = []


def record_criterion(num: int, title: str, passed: bool, detail: str = ""):
    """Collect one acceptance-criterion verdict for the terminal summary."""
    _CRITERIA.append((num, title, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for num, title, passed, detail in sorted(_CRITERIA):
        verdict = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"  criterion {num:2d} [{verdict}] {title}{suffix}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# Elementary-symmetric k=3 instances with one constraint, (d, generator
# seed), on which e_3 at the iterate falls below 1e-12 while the restricted
# polynomial t -> e_3(x + t e) stays well scaled.
ESYM_TINY_LEADING = [
    *((4, s) for s in (0, 1, 2, 3, 4, 5, 7, 8, 9)), (8, 0), (12, 3), (20, 8),
]


def make_sdp(n=5, m=None, seed=0, mu=1.0):
    """Convenience: generated instance plus solver-ready arrays."""
    if m is None:
        m = 2 * n
    inst, E0 = sw.gen_central_path_sdp(n, m, mu, seed)
    oracle = sw.det_barrier_oracle(n)
    return (
        oracle,
        inst.constraint_rows(),
        inst.b,
        sw.svec(inst.C),
        sw.svec(E0),
        inst,
        E0,
    )


def diag2_problem():
    """The two-by-two diagonal worked instance.

    min tr(diag(1, 2) X)  s.t.  tr(X) = 2,  X psd, started at the identity.
    """
    C = np.diag([1.0, 2.0])
    A1 = np.eye(2)
    inst = sw.SdpInstance(C=C, constraints=[A1], b=np.array([2.0]))
    oracle = sw.det_barrier_oracle(2)
    e0 = sw.svec(np.eye(2))
    return oracle, inst.constraint_rows(), inst.b, sw.svec(C), e0
