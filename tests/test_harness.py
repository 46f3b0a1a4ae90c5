import math

import numpy as np
import pytest

from kmpoly import (PriorConfig, ScenarioSpec, run_benchmark, run_coverage,
                    truth_plm_eta, truth_volterra)
from kmpoly.harness import PLM_BETA0, _window_mean


def _volterra_reordered(x, terms):
    """Same series, summed high-to-low with per-term accumulation."""
    total = np.zeros(np.atleast_1d(np.asarray(x, dtype=float)).shape[0])
    for s in range(terms, 0, -1):
        coef = s**-1.5 * math.sin(s)
        total += coef * np.cos((s - 0.5) * math.pi * np.atleast_1d(x))
    return math.sqrt(2.0) * total


def test_volterra_matches_reordered_summation():
    x = np.array([0.0, 0.17, 0.5, 0.83, 1.0])
    np.testing.assert_allclose(truth_volterra(x, terms=20000),
                               _volterra_reordered(x, 20000), atol=1e-9)


def test_volterra_tail_bound_at_zero():
    lo = truth_volterra(np.array([0.0]), terms=1000)[0]
    hi = truth_volterra(np.array([0.0]), terms=100000)[0]
    assert abs(hi - lo) <= 2.0 * math.sqrt(2.0) / math.sqrt(1000)


def test_volterra_is_continuous_on_fine_grid():
    x = np.linspace(0, 1, 2000)
    f = truth_volterra(x, terms=10000)
    # term-wise derivative bound: sqrt(2) sum s^(-1/2) pi |sin s| over s <= S
    s = np.arange(1, 10001)
    lip = math.sqrt(2.0) * float(np.sum(s**-0.5 * np.abs(np.sin(s)) * math.pi))
    assert np.max(np.abs(np.diff(f))) <= lip / 1999 + 1e-9


def test_volterra_rejects_empty_series():
    with pytest.raises(ValueError):
        truth_volterra(np.array([0.5]), terms=0)


def test_plm_eta_values():
    assert truth_plm_eta(np.array([0.0]))[0] == 0.0
    assert truth_plm_eta(np.array([0.05]))[0] == pytest.approx(
        2.5 * math.exp(-0.05), rel=1e-12)


def test_plm_beta0_frozen():
    np.testing.assert_array_equal(
        PLM_BETA0, [1.0338, 0.1346, 0.2854, 0.6675, 0.6732, 0.5293,
                    -0.5073, -3.3942])


def test_simulate_deterministic_and_shaped():
    spec = ScenarioSpec(truth="plm", n=40, base_seed=5)
    a = spec.simulate(5)
    b = spec.simulate(5)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.z, b.z)
    assert a.z.shape == (40, 8)
    # the linear part is actually in the response
    resid = a.y - a.z @ PLM_BETA0 - truth_plm_eta(a.x.ravel())
    assert np.std(resid) < 3.0 * spec.noise_sd


def test_unknown_truth_rejected():
    with pytest.raises(ValueError):
        ScenarioSpec(truth="doppler").truth_values(np.array([0.5]))


def test_window_mean():
    grid = np.linspace(0, 1, 11)
    vals = grid.copy()
    assert _window_mean(grid, vals, 0.0, 0.2) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        _window_mean(grid, vals, 0.33, 0.34)


def test_truth_meta_reports_tail_bound():
    meta = ScenarioSpec(truth="volterra", truth_terms=10000).truth_meta()
    assert meta["series_tail_bound"] == pytest.approx(2 * math.sqrt(2.0 / 10000))
    assert "eta0_amplitude" in ScenarioSpec(truth="plm").truth_meta()


def test_run_coverage_conjugate_plumbing():
    spec = ScenarioSpec(truth="volterra", n=80, noise_sd=0.3, replicates=5,
                        base_seed=1, grid_size=60, truth_terms=5000)
    report = run_coverage(spec, estimators=("conjugate",))
    assert report.n_success == 5
    cov = report.coverage["conjugate"]
    assert cov.shape == (60,)
    assert np.all((cov >= 0.0) & (cov <= 1.0))
    assert np.all(report.width["conjugate"] >= 0.0)
    assert set(report.windows["conjugate"]) == {"bump", "flat"}
    # replicate determinism: the whole study reruns bit-identically
    again = run_coverage(spec, estimators=("conjugate",))
    np.testing.assert_array_equal(cov, again.coverage["conjugate"])
    payload = report.to_json_dict()
    assert payload["n_replicates"] == 5
    assert "series_tail_bound" in payload["meta"]


def test_run_coverage_rejects_unknown_estimator():
    with pytest.raises(ValueError, match="unknown estimators"):
        run_coverage(ScenarioSpec(replicates=1), estimators=("spline",))


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, math.nan])
def test_scenario_rejects_bad_level(level):
    with pytest.raises(ValueError, match="level must be in"):
        run_coverage(ScenarioSpec(n=20, replicates=2, grid_size=5,
                                  truth_terms=100, K=2, burnin=2, samples=2,
                                  level=level), estimators=("conjugate",))


def test_run_benchmark_smoke():
    spec = ScenarioSpec(truth="volterra", n=80, noise_sd=0.3, base_seed=2,
                        grid_size=60, truth_terms=5000, K=3,
                        burnin=40, samples=40)
    out = run_benchmark(spec, gp_covariances=("squared_exponential",))
    assert set(out["results"]) == {"kmp", "gp_squared_exponential"}
    assert out["results"]["kmp"]["K"] == 3
    assert out["results"]["kmp"]["mse"] > 0
    assert out["results"]["gp_squared_exponential"]["runtime_s"] > 0
    assert out["iteration_budget"] == {"burnin": 40, "samples": 40}
    assert "workers" not in out["results"]["kmp"]


def test_run_benchmark_records_select_K_workers():
    spec = ScenarioSpec(truth="volterra", n=60, noise_sd=0.3, base_seed=2,
                        grid_size=40, truth_terms=2000, K=None,
                        burnin=20, samples=20)
    out = run_benchmark(spec, PriorConfig(K_min=3, K_max=4), gp_covariances=())
    kmp = out["results"]["kmp"]
    assert kmp["K"] in (3, 4)
    assert 1 <= kmp["workers"] <= 2
