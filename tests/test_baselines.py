import math

import numpy as np
import pytest
from scipy import stats

from kmpoly import (Dataset, GpConfig, GpFit, KernelSpec, LocalFitConfig,
                    gp_covariance, local_poly_estimate, nw_estimate,
                    rescaled_gp_fit)
from kmpoly.baselines import cv_bandwidth, gp_marginal_loglik

from conftest import sine_data


# ---------------------------------------------------------------- local fits

def test_nw_constant_data(rng):
    data = Dataset(rng.uniform(0, 1, (30, 1)), np.full(30, 4.2))
    out = nw_estimate(data, LocalFitConfig(bandwidth=0.2), np.linspace(0, 1, 20))
    finite = np.isfinite(out)
    np.testing.assert_allclose(out[finite], 4.2, atol=1e-12)


def test_nw_single_observation():
    data = Dataset(np.array([[0.5]]), np.array([2.0]))
    out = nw_estimate(data, LocalFitConfig(bandwidth=0.1),
                      np.array([0.45, 0.5, 0.55, 0.9]))
    np.testing.assert_allclose(out[:3], 2.0)
    assert np.isnan(out[3])  # empty neighborhood flagged, not silently zeroed


def test_nw_matches_double_loop_oracle(rng):
    data = Dataset(rng.uniform(0, 1, (25, 1)), rng.normal(size=25))
    grid = np.linspace(0.1, 0.9, 9)
    h = 0.3
    out = nw_estimate(data, LocalFitConfig(bandwidth=h), grid)
    spec = KernelSpec("bump", h)
    for g, x0 in enumerate(grid):
        num = den = 0.0
        for i in range(25):
            w = float(spec.profile(np.asarray(abs(data.x[i, 0] - x0) / h)))
            num += w * data.y[i]
            den += w
        assert out[g] == pytest.approx(num / den, abs=1e-12)


def test_degree_zero_equals_nw(rng):
    for _ in range(50):
        n = int(rng.integers(5, 40))
        data = Dataset(rng.uniform(0, 1, (n, 1)), rng.normal(size=n))
        h = float(rng.uniform(0.05, 0.5))
        grid = rng.uniform(0, 1, 7)
        cfg = LocalFitConfig(degree=0, bandwidth=h)
        a = nw_estimate(data, cfg, grid)
        b = local_poly_estimate(data, cfg, grid)
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
        m = np.isfinite(a)
        np.testing.assert_allclose(a[m], b[m], atol=1e-12)


def test_local_linear_reproduces_lines(rng):
    x = rng.uniform(0, 1, 60)
    data = Dataset(x[:, None], 2.0 - 3.0 * x)
    grid = np.linspace(0.1, 0.9, 15)
    out = local_poly_estimate(data, LocalFitConfig(degree=1, bandwidth=0.25), grid)
    np.testing.assert_allclose(out, 2.0 - 3.0 * grid, atol=1e-9)


def test_cv_bandwidth_gives_reasonable_fit():
    data = sine_data(500, sigma=0.1, seed=20)
    cfg = LocalFitConfig(degree=1)
    h = cv_bandwidth(data, cfg)
    assert cfg.cv_lo <= h <= cfg.cv_hi
    grid = np.linspace(0, 1, 200)
    fit = local_poly_estimate(data, LocalFitConfig(degree=1, bandwidth=h), grid)
    mse = float(np.mean((fit - np.sin(2 * math.pi * grid)) ** 2))
    assert mse < 5e-3


def test_local_config_validation():
    with pytest.raises(ValueError):
        LocalFitConfig(bandwidth=0.0)
    with pytest.raises(ValueError):
        LocalFitConfig(degree=-1)


# ---------------------------------------------------------------- gp pieces

def test_covariance_at_zero_distance():
    for cov in ("squared_exponential", "matern32", "matern52"):
        assert gp_covariance(GpConfig(covariance=cov), 0.0) == pytest.approx(1.0)


def test_covariance_frozen_values():
    cfg = GpConfig(covariance="squared_exponential")
    assert gp_covariance(cfg, 0.7, psi=0.7) == pytest.approx(math.exp(-1.0))
    cfg = GpConfig(covariance="matern32")
    assert gp_covariance(cfg, 0.7, psi=0.7) == pytest.approx(
        (1 + math.sqrt(3)) * math.exp(-math.sqrt(3)), rel=1e-10)
    cfg = GpConfig(covariance="matern52")
    expect = (1 + math.sqrt(5) + 5.0 / 3.0) * math.exp(-math.sqrt(5))
    assert gp_covariance(cfg, 1.0, psi=1.0) == pytest.approx(expect, rel=1e-10)


def test_covariance_validation():
    with pytest.raises(ValueError):
        GpConfig(covariance="exponential")
    with pytest.raises(ValueError):
        GpConfig(a_psi=1.0)
    with pytest.raises(ValueError):
        gp_covariance(GpConfig(), -0.1)
    with pytest.raises(ValueError):
        gp_covariance(GpConfig(), 0.5, psi=0.0)


def test_marginal_loglik_matches_dense_oracle(rng):
    n = 20
    x = rng.uniform(0, 1, n)
    y = rng.normal(size=n)
    cfg = GpConfig(covariance="matern32", sigma=0.3)
    dist = np.abs(x[:, None] - x[None, :])
    psi = 0.4
    got = gp_marginal_loglik(y, dist, cfg, psi)
    C = gp_covariance(cfg, dist, psi) + (cfg.sigma**2 + cfg.jitter) * np.eye(n)
    sign, logdet = np.linalg.slogdet(C)
    ref = -0.5 * float(y @ np.linalg.solve(C, y)) - 0.5 * logdet \
        - 0.5 * n * math.log(2 * math.pi)
    assert sign > 0
    assert got == pytest.approx(ref, abs=1e-8)


def test_gp_fit_interpolates_with_tiny_noise():
    x = np.array([0.3, 0.7])
    data = Dataset(x[:, None], np.array([1.0, -2.0]))
    cfg = GpConfig(sigma=1e-4, burnin=20, samples=30, seed=1)
    fit = rescaled_gp_fit(data, cfg, np.array([0.3, 0.5, 0.7]))
    assert fit.mean[0] == pytest.approx(1.0, abs=1e-2)
    assert fit.mean[2] == pytest.approx(-2.0, abs=1e-2)


def test_gp_fit_records_costs():
    data = sine_data(40, seed=21)
    cfg = GpConfig(burnin=30, samples=30, seed=2)
    fit = rescaled_gp_fit(data, cfg, np.linspace(0, 1, 25))
    assert isinstance(fit, GpFit)
    assert fit.psi_draws.shape == (30,) and np.all(fit.psi_draws > 0)
    assert 0.0 <= fit.accept_rate <= 1.0
    assert fit.n_factorizations >= 1
    assert fit.runtime_s > 0
    assert np.all(fit.lower <= fit.upper)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, math.nan])
def test_gp_fit_rejects_bad_level(level):
    cfg = GpConfig(burnin=2, samples=2, seed=0)
    with pytest.raises(ValueError, match="level must be in"):
        rescaled_gp_fit(sine_data(10, seed=1), cfg, np.linspace(0, 1, 5),
                        level=level)


def test_gp_fit_deterministic():
    data = sine_data(30, seed=22)
    cfg = GpConfig(burnin=20, samples=20, seed=5)
    a = rescaled_gp_fit(data, cfg, np.linspace(0, 1, 11))
    b = rescaled_gp_fit(data, cfg, np.linspace(0, 1, 11))
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.psi_draws, b.psi_draws)
