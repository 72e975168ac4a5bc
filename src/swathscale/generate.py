"""Reproducible instance generators planted on the central path.

Both generators pick a strictly interior start point, random independent
constraints through it, and an objective of the form
``c = A^T y0 - mu * g(e0)`` so that e0 is exactly the central-path point
at parameter mu — hence inside the swath for every cone parameter.
"""

from __future__ import annotations

import math

import numpy as np

from .core import local_norm
from .errors import InvariantViolation, RetryExhausted
from .hyperbolic import (
    DETERMINANT,
    HpFamily,
    HpInstance,
    hp_barrier_oracle,
)
from .sdp import SdpInstance, sym_dim, svec

_MAX_RETRIES = 10


def _random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _check_allocatable(shape: tuple[int, ...]) -> None:
    # The largest array the generator holds, allocated and freed before any
    # draw.  np.empty touches no pages; numpy refuses a size past its limits.
    try:
        np.empty(shape)
    except (ValueError, MemoryError) as exc:
        raise InvariantViolation(
            f"instance too large: cannot allocate an array of shape {shape}"
        ) from exc


def _random_sym(n: int, rng: np.random.Generator) -> np.ndarray:
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


def gen_central_path_sdp(
    n: int, m: int, mu: float = 1.0, seed: int = 0
) -> tuple[SdpInstance, np.ndarray]:
    """Random SDP whose start matrix E0 sits on the central path at mu.

    E0 is an orthogonal conjugation of eigenvalues drawn from [0.5, 2];
    C = sum_i y0_i A_i + mu E0^{-1}.  Deterministic in seed.
    """
    if n < 2:
        raise InvariantViolation(f"need n >= 2, got {n}")
    if not 1 <= m <= sym_dim(n) - 1:
        raise InvariantViolation(f"need 1 <= m <= {sym_dim(n) - 1}")
    if not (math.isfinite(mu) and mu > 0.0):
        raise InvariantViolation(f"mu={mu} must be positive and finite")
    _check_allocatable((m, n, n))
    rng = np.random.default_rng(seed)

    Q = _random_orthogonal(n, rng)
    eigs = rng.uniform(0.5, 2.0, size=n)
    E0 = Q @ np.diag(eigs) @ Q.T
    E0 = 0.5 * (E0 + E0.T)
    E0_inv = Q @ np.diag(1.0 / eigs) @ Q.T
    E0_inv = 0.5 * (E0_inv + E0_inv.T)

    for _ in range(_MAX_RETRIES):
        constraints = [_random_sym(n, rng) for _ in range(m)]
        b = np.array([float(np.trace(A @ E0)) for A in constraints])
        y0 = rng.standard_normal(m)
        C = sum(y * A for y, A in zip(y0, constraints)) + mu * E0_inv
        C = 0.5 * (C + C.T)
        inst = SdpInstance(
            C=C,
            constraints=constraints,
            b=b,
            metadata={"mu": mu, "seed": seed, "y0": y0.tolist()},
        )
        try:
            inst.validate()
        except InvariantViolation:
            continue
        return inst, E0
    raise RetryExhausted(
        f"no independent constraint set found in {_MAX_RETRIES} draws"
    )


def gen_hp_instance(
    family: HpFamily,
    m: int,
    mu: float = 1.0,
    seed: int = 0,
) -> tuple[HpInstance, np.ndarray]:
    """Random HP planted at a perturbation of the canonical direction.

    The start point is the canonical direction moved by a random vector
    of local norm 0.5 (< 1 keeps it inside the Dikin ball, hence
    interior).  The determinant family delegates to the SDP generator so
    both backends see the identical instance under vectorization.
    """
    if family.name == DETERMINANT:
        sdp_inst, E0 = gen_central_path_sdp(family.degree, m, mu, seed)
        e0 = svec(E0)
        inst = HpInstance(
            family=family,
            c=svec(sdp_inst.C),
            A=sdp_inst.constraint_rows(),
            b=sdp_inst.b.copy(),
            e0=e0,
        )
        inst.validate()
        return inst, e0
    if not (math.isfinite(mu) and mu > 0.0):
        raise InvariantViolation(f"mu={mu} must be positive and finite")
    d = family.d
    if not 1 <= m <= d - 1:
        raise InvariantViolation(f"need 1 <= m <= {d - 1}")
    _check_allocatable((m, d))
    rng = np.random.default_rng(seed)
    oracle = hp_barrier_oracle(family)

    e_can = family.canonical_direction()
    w = rng.standard_normal(d)
    e0 = e_can + (0.5 / local_norm(oracle, e_can, w)) * w
    g0 = oracle.gradient(e0)

    for _ in range(_MAX_RETRIES):
        A = rng.standard_normal((m, d))
        b = A @ e0
        y0 = rng.standard_normal(m)
        c = A.T @ y0 - mu * g0
        inst = HpInstance(family=family, c=c, A=A, b=b, e0=e0)
        try:
            inst.validate()
        except InvariantViolation:
            continue
        return inst, e0
    raise RetryExhausted(
        f"no valid random instance found in {_MAX_RETRIES} draws"
    )
