"""Tests of the benchmark's own arithmetic and failure accounting.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import math

import pytest

import stats


def test_tail_picks_highest_percentile_with_ten_beyond():
    samples = [float(x) for x in range(1, 41)]  # 1..40, shuffled below
    samples = samples[::2] + samples[1::2]
    value, pct, n = stats.tail(samples)
    assert (value, n) == (30.0, 40)  # 31..40 lie beyond it
    assert pct == pytest.approx(75.0)
    assert sum(x > value for x in samples) == 10


def test_tail_at_eleven_samples_and_below():
    assert stats.tail([float(x) for x in range(11)]) == (0.0, 100.0 / 11, 11)
    # No percentile leaves ten samples above it: the maximum, marked p100.
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        stats.tail([])


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 9.0, 0)]
    assert stats.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0), (9.0, 12.0, 0)]
    # Children cover [1, 7] and, clipped to the parent, [9, 10].
    assert stats.self_times(spans)[0] == pytest.approx(3.0)


def test_per_layer_normalises_by_total_iterations():
    # Two solves of 3 and 5 iterations: 8 iterations, 16 svec calls.
    names = ["sdp.svec"] * 16 + ["frame.solve_Lt"] * 4
    selfs = [0.001] * 16 + [0.002] * 4
    rates = stats.per_layer(names, selfs, iterations=3 + 5)
    assert rates["sdp.svec"] == pytest.approx((2.0, 2.0))
    assert rates["frame.solve_Lt"] == pytest.approx((0.5, 1.0))
    with pytest.raises(ValueError):
        stats.per_layer(names, selfs, iterations=0)


def test_exception_in_run_is_a_counted_failure():
    import harness
    import workloads

    problem = workloads.hp_problem(seed=workloads.PRODUCT_D100_SEED, **workloads.PRODUCT_D100)
    job = harness.job(problem)
    assert job.failed and job.error == "ValueError"
    assert math.isnan(job.final_gap) and job.iterations == 0
