"""Tests of the benchmark's own arithmetic.

Run from the root of the repository:

    python3 -m pytest perfbench
"""

import numpy as np
import pytest

from stats import bulk_ess, self_times, tail_value


def test_self_time_subtracts_nested_children():
    spans = [
        (0.0, 10.0, -1),   # root
        (1.0, 4.0, 0),     # child of root, itself with a child
        (2.0, 3.0, 1),     # grandchild: counts against span 1 only
        (5.0, 7.0, 0),     # second child of root
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    x = np.arange(1, 1001, dtype=float)
    # 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1
    assert tail_value(x) == pytest.approx(np.percentile(x, 99.0))
    # 300 samples: p95 leaves 15 beyond, p99 only 3
    x = np.arange(300, dtype=float)
    assert tail_value(x) == pytest.approx(np.percentile(x, 95.0))
    # 20 samples: only the median leaves ten beyond
    x = np.arange(20, dtype=float)
    assert tail_value(x) == pytest.approx(np.median(x))


def test_tail_falls_back_to_maximum_below_twenty_samples():
    assert tail_value([3.0, 1.0, 2.0]) == 3.0
    with pytest.raises(ValueError):
        tail_value([])


def _ar1(rho, n, seed):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / np.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + e[t]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8, -0.3])
def test_bulk_ess_matches_ar1_closed_form(rho):
    # ESS / n of a stationary AR(1) series is (1 - rho) / (1 + rho)
    n = 40_000
    expected = n * (1.0 - rho) / (1.0 + rho)
    got = np.mean([bulk_ess(_ar1(rho, n, seed)) for seed in range(3)])
    assert got == pytest.approx(expected, rel=0.08)


def test_bulk_ess_is_rank_based():
    x = _ar1(0.5, 4000, 7)
    assert bulk_ess(np.exp(x)) == pytest.approx(bulk_ess(x))


def test_bulk_ess_rejects_constant_and_short_chains():
    with pytest.raises(ValueError):
        bulk_ess(np.ones(100))
    with pytest.raises(ValueError):
        bulk_ess(np.arange(5.0))
