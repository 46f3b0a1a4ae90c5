import math

import numpy as np
import pytest
from scipy import stats

from kmpoly import Dataset, McmcConfig, PriorConfig, bvm_diagnostic, run_plm_chain
from kmpoly.harness import PLM_BETA0, ScenarioSpec
from kmpoly.plm import beta_conditional, gibbs_beta


def _plm_data(n=60, q=2, seed=0, sigma=1.0, beta=None):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 1))
    z = rng.uniform(-1, 1, size=(n, q))
    beta = np.zeros(q) if beta is None else np.asarray(beta)
    eta = np.sin(2 * math.pi * x.ravel())
    y = z @ beta + eta + sigma * rng.standard_normal(n)
    return Dataset(x, y, z=z), eta


def test_beta_conditional_ones_design():
    # q=1, Z = ones, tau = sigma = 1: posterior mean is sum(r) / (1 + n)
    n = 12
    rng = np.random.default_rng(1)
    y = rng.normal(size=n)
    data = Dataset(np.full((n, 1), 0.5), y, z=np.ones((n, 1)))
    eta = rng.normal(size=n)
    mean, low = beta_conditional(data, eta, tau_beta=1.0, sigma=1.0)
    r = y - eta
    assert mean[0] == pytest.approx(r.sum() / (1 + n), rel=1e-12)
    assert low[0, 0] == pytest.approx(math.sqrt(1 + n), rel=1e-12)


def test_beta_conditional_zero_pseudo_response():
    data, eta = _plm_data(seed=2)
    mean, _ = beta_conditional(data, data.y, tau_beta=10.0)
    np.testing.assert_allclose(mean, 0.0, atol=1e-12)


def test_gibbs_beta_matches_closed_form_normal():
    data, eta = _plm_data(n=40, q=1, seed=3)
    rng = np.random.default_rng(4)
    draws = np.array([gibbs_beta(data, eta, 2.0, rng)[0]
                      for _ in range(10000)])
    mean, low = beta_conditional(data, eta, tau_beta=2.0)
    sd = 1.0 / low[0, 0]
    ks = stats.kstest(draws, stats.norm(loc=mean[0], scale=sd).cdf)
    assert ks.statistic < 0.02


def test_run_plm_requires_covariates():
    data = Dataset(np.array([[0.5]]), np.array([1.0]))
    with pytest.raises(ValueError):
        run_plm_chain(McmcConfig(burnin=1, samples=1), PriorConfig(), 2, data)


def test_run_plm_deterministic_and_sigma_fixed():
    data, _ = _plm_data(n=50, seed=5)
    cfg = McmcConfig(burnin=30, samples=25, seed=7)
    a = run_plm_chain(cfg, PriorConfig(), 3, data)
    b = run_plm_chain(cfg, PriorConfig(), 3, data)
    np.testing.assert_array_equal(a.beta, b.beta)
    np.testing.assert_array_equal(a.loglik, b.loglik)
    assert all(d.sigma == 1.0 for d in a.draws)
    assert a.beta.shape == (25, 2)


def test_run_plm_estimates_sigma_when_asked():
    data, _ = _plm_data(n=80, seed=6, sigma=0.5)
    cfg = McmcConfig(burnin=100, samples=50, seed=8)
    draws = run_plm_chain(cfg, PriorConfig(), 3, data, estimate_sigma=True)
    assert len({d.sigma for d in draws.draws}) > 1


def test_bvm_zero_residuals_zero_centering():
    data, eta = _plm_data(n=30, q=2, seed=9, sigma=0.0)
    cfg = McmcConfig(burnin=10, samples=10, seed=1)
    draws = run_plm_chain(cfg, PriorConfig(), 2, data)
    diag = bvm_diagnostic(draws, data, beta0=np.zeros(2), eta0=eta)
    np.testing.assert_allclose(diag.delta_n, 0.0, atol=1e-10)


def test_bvm_centering_matches_loop_oracle():
    data, eta = _plm_data(n=45, q=3, seed=10)
    cfg = McmcConfig(burnin=5, samples=5, seed=2)
    draws = run_plm_chain(cfg, PriorConfig(), 2, data)
    beta0 = np.array([0.1, -0.2, 0.3])
    diag = bvm_diagnostic(draws, data, beta0=beta0, eta0=eta)
    eps = data.y - eta - data.z @ beta0
    acc = np.zeros(3)
    for i in range(data.n):
        acc += data.z[i] * eps[i]
    expect = diag.ezz_inv @ acc / math.sqrt(data.n)
    np.testing.assert_allclose(diag.delta_n, expect, atol=1e-12)
    np.testing.assert_allclose(diag.centering_literal,
                               expect / math.sqrt(data.n), atol=1e-12)


def test_bvm_uniform_design_second_moment():
    data, eta = _plm_data(n=25, q=4, seed=11)
    cfg = McmcConfig(burnin=5, samples=5, seed=3)
    draws = run_plm_chain(cfg, PriorConfig(), 2, data)
    diag = bvm_diagnostic(draws, data, beta0=np.zeros(4), eta0=eta,
                          ezz=np.eye(4) / 3.0)
    np.testing.assert_allclose(diag.ezz_inv, 3.0 * np.eye(4), atol=1e-12)


def test_bvm_scaled_covariance_in_band():
    # sample covariance of sqrt(n) (beta - beta0) should sit near 3 I
    spec = ScenarioSpec(truth="plm", n=200, noise_sd=1.0, base_seed=3)
    data = spec.simulate(3)
    cfg = McmcConfig(burnin=400, samples=400, seed=3, init="lsq")
    draws = run_plm_chain(cfg, PriorConfig(), 8, data)
    diag = bvm_diagnostic(draws, data, beta0=PLM_BETA0,
                          eta0=spec.truth_values(data.x.ravel()))
    d = np.diag(diag.post_cov)
    assert np.all(d > 0.5 * 3.0) and np.all(d < 2.0 * 3.0)
