import math

import numpy as np
import pytest
from scipy import stats

from kmpoly import (Dataset, McmcConfig, PriorConfig, basis_matrix, eval_f,
                    log_prior_density, loglik, run_chain, run_plm_chain,
                    sample_prior)
from kmpoly.sampler import ChainState, gibbs_xi, mh_h, mh_mu

from conftest import make_params, sine_data


def _state(params, data, prior):
    return ChainState(params, data, prior)


# ---------------------------------------------------------------- loglik

def test_loglik_zero_residual_unit_sigma():
    params = make_params(K=2, h=0.75, sigma=1.0)
    x = np.array([0.4])
    data = Dataset(x[:, None], eval_f(params, x))
    assert loglik(params, data) == pytest.approx(-0.5 * math.log(2 * math.pi))


def test_loglik_two_equal_residuals():
    params = make_params(K=2, h=0.75, sigma=0.7)
    x = np.array([0.3, 0.6])
    r = 0.25
    data = Dataset(x[:, None], eval_f(params, x) + r)
    expected = -math.log(2 * math.pi * 0.7**2) - r**2 / 0.7**2
    assert loglik(params, data) == pytest.approx(expected, rel=1e-12)


def test_loglik_matches_pointwise_oracle(rng):
    params = make_params(K=3, sigma=0.4, xi=rng.normal(size=(3, 3)))
    x = rng.uniform(0, 1, 25)
    y = rng.normal(size=25)
    data = Dataset(x[:, None], y)
    f = eval_f(params, x)
    naive = sum(stats.norm(loc=f[i], scale=0.4).logpdf(y[i]) for i in range(25))
    assert loglik(params, data) == pytest.approx(naive, abs=1e-10)


def test_loglik_rejects_degenerate_input():
    params = make_params(K=2, h=0.75, sigma=0.0)
    with pytest.raises(ValueError):
        loglik(params, Dataset(np.array([[0.5]]), np.array([0.0])))


# ---------------------------------------------------------------- caches

def test_state_psi_matches_basis_matrix(rng):
    prior = PriorConfig()
    data = sine_data(80, seed=1)
    params = sample_prior(prior, 4, rng)
    state = _state(params, data, prior)
    np.testing.assert_array_equal(state.psi, basis_matrix(params, data.x))


def test_caches_stay_consistent_through_moves(rng):
    prior = PriorConfig()
    data = sine_data(60, seed=2)
    state = _state(sample_prior(prior, 3, rng), data, prior)
    for _ in range(25):
        gibbs_xi(state, rng)
        mh_mu(state, rng, 0.3)
        mh_h(state, rng, 0.1)
    np.testing.assert_array_equal(state.psi, basis_matrix(state.params, data.x))
    np.testing.assert_allclose(
        state.resid, data.y - state.psi @ state.params.xi.ravel(), atol=1e-10)
    np.testing.assert_allclose(
        state.col_sq, np.einsum("ij,ij->j", state.psi, state.psi), rtol=1e-12)


# ---------------------------------------------------------------- gibbs_xi

def test_gibbs_xi_no_data_reduces_to_prior(rng):
    prior = PriorConfig(m=0, tau_xi=2.0, B=5.0)
    data = Dataset(np.empty((0, 1)), np.empty(0))
    params = make_params(K=1, h=1.5, m=0, sigma=1.0)
    state = _state(params, data, prior)
    draws = np.empty(5000)
    for t in range(5000):
        gibbs_xi(state, rng)
        draws[t] = state.params.xi[0, 0]
    a, b = -5.0 / 2.0, 5.0 / 2.0
    ks = stats.kstest(draws, stats.truncnorm(a, b, loc=0, scale=2.0).cdf)
    assert ks.statistic < 0.03


def test_gibbs_xi_flat_prior_centers_on_least_squares(rng):
    prior = PriorConfig(m=0, xi_dist="uniform", B=50.0)
    data = Dataset(np.array([[0.5]]), np.array([1.7]))
    params = make_params(K=1, h=1.5, m=0, sigma=0.3)
    state = _state(params, data, prior)
    draws = np.empty(4000)
    for t in range(4000):
        gibbs_xi(state, rng)
        draws[t] = state.params.xi[0, 0]
    # single basis value is 1 (partition of unity), so LS value is y itself
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - 1.7) < 4 * se


# ---------------------------------------------------------------- mh moves

def test_mh_zero_step_keeps_geometry(rng):
    prior = PriorConfig()
    data = sine_data(40, seed=3)
    state = _state(sample_prior(prior, 3, rng), data, prior)
    mu0, h0 = state.params.mu.copy(), state.params.h
    mh_mu(state, rng, 0.0)
    mh_h(state, rng, 0.0)
    np.testing.assert_array_equal(state.params.mu, mu0)
    assert state.params.h == h0


def test_mh_respects_bounds(rng):
    prior = PriorConfig()
    data = sine_data(40, seed=4)
    state = _state(sample_prior(prior, 3, rng), data, prior)
    for _ in range(300):
        mh_mu(state, rng, 2.5)     # huge steps exercise the reflection
        mh_h(state, rng, 1.5)
        assert np.max(np.abs(state.params.mu_tilde)) <= 1.0 + 1e-12
        kh = state.params.grid.K * state.params.h
        assert prior.h_lo - 1e-12 <= kh <= prior.h_hi + 1e-12


def test_acceptance_rates_in_window():
    prior = PriorConfig()
    data = sine_data(200, sigma=0.2, seed=5)
    cfg = McmcConfig(burnin=0, samples=1000, seed=6, adapt=False)
    draws = run_chain(cfg, prior, 6, data)
    assert 0.1 < draws.accept["mu"] < 0.9
    assert 0.1 < draws.accept["h"] < 0.9


# ---------------------------------------------------------------- run_chain

def test_chain_bit_exact_determinism():
    prior = PriorConfig()
    data = sine_data(50, seed=7)
    cfg = McmcConfig(burnin=50, samples=40, seed=11)
    a = run_chain(cfg, prior, 3, data)
    b = run_chain(cfg, prior, 3, data)
    assert len(a) == len(b) == 40
    np.testing.assert_array_equal(a.loglik, b.loglik)
    np.testing.assert_array_equal(a.logpost, b.logpost)
    for da, db in zip(a.draws, b.draws):
        np.testing.assert_array_equal(da.xi, db.xi)
        np.testing.assert_array_equal(da.mu, db.mu)
        assert da.h == db.h and da.sigma == db.sigma


def test_chain_geometry_frozen_with_zero_steps():
    prior = PriorConfig(step_mu=0.0, step_kh=0.0)
    data = sine_data(50, seed=8)
    draws = run_chain(McmcConfig(burnin=20, samples=30, seed=2), prior, 3, data)
    mus = {tuple(d.mu.ravel()) for d in draws.draws}
    hs = {d.h for d in draws.draws}
    assert len(mus) == 1 and len(hs) == 1


def test_posterior_beats_prior_predictive(rng):
    prior = PriorConfig()
    truth = sample_prior(prior, 4, np.random.default_rng(99))
    truth.sigma = 0.5
    x = rng.uniform(0, 1, 150)
    y = eval_f(truth, x) + 0.5 * rng.standard_normal(150)
    data = Dataset(x[:, None], y)
    cfg = McmcConfig(burnin=300, samples=200, seed=1, init="lsq")
    draws = run_chain(cfg, prior, 4, data)
    grid = np.linspace(0, 1, 200)
    f0 = eval_f(truth, grid)
    post_mse = float(np.mean((draws.curves(grid).mean(axis=0) - f0) ** 2))
    prior_curves = np.array([eval_f(sample_prior(prior, 4, rng), grid)
                             for _ in range(200)])
    prior_mse = float(np.mean((prior_curves.mean(axis=0) - f0) ** 2))
    assert post_mse < prior_mse


def test_sigma_recovery_synthetic():
    prior = PriorConfig()
    from kmpoly import ScenarioSpec
    data = ScenarioSpec(truth="volterra", n=1000, noise_sd=0.2).simulate(0)
    cfg = McmcConfig(burnin=400, samples=300, seed=0, init="lsq")
    draws = run_chain(cfg, prior, 10, data)
    assert 0.17 <= float(np.mean(draws.sigmas())) <= 0.23


def test_lsq_init_starts_near_data():
    prior = PriorConfig()
    data = sine_data(120, seed=9)
    base = McmcConfig(burnin=0, samples=1, seed=4)
    warm = McmcConfig(burnin=0, samples=1, seed=4, init="lsq")
    ll_cold = run_chain(base, prior, 4, data).loglik[0]
    ll_warm = run_chain(warm, prior, 4, data).loglik[0]
    assert ll_warm > ll_cold


def test_config_validation():
    with pytest.raises(ValueError):
        McmcConfig(samples=0)
    with pytest.raises(ValueError):
        McmcConfig(init="map")


# ---------------------------------------------------------------- score oracle

def _oracle_data(p, q, seed):
    rng = np.random.default_rng(seed)
    n = 80 if p == 1 else 60
    x = rng.uniform(0, 1, size=(n, p))
    z = rng.standard_normal((n, q)) if q else None
    y = np.sin(2 * math.pi * x[:, 0]) + 0.3 * rng.standard_normal(n)
    if q:
        y = y + z @ np.linspace(-1.0, 1.0, q)
    return Dataset(x, y, z=z)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("model", ["chain", "plm_sigma_fixed", "plm_sigma_estimated"])
def test_stored_scores_match_full_recomputation(p, model):
    # the sweep loop keeps the residual incrementally; every retained draw's
    # stored loglik and logpost must agree with a from-scratch evaluation
    prior = PriorConfig()
    cfg = McmcConfig(burnin=40, samples=12, thin=2, seed=4)
    K = 4 if p == 1 else 3
    if model == "chain":
        data = _oracle_data(p, 0, seed=p)
        draws = run_chain(cfg, prior, K, data)
    else:
        data = _oracle_data(p, 2, seed=10 + p)
        draws = run_plm_chain(cfg, prior, K, data,
                              estimate_sigma=model == "plm_sigma_estimated")
    assert len(draws) == 12
    for t, d in enumerate(draws.draws):
        if draws.beta is None:
            target, beta_lp = data, 0.0
        else:
            beta = draws.beta[t]
            target = Dataset(data.x, data.y - data.z @ beta)
            beta_lp = float(np.sum(stats.norm.logpdf(beta, scale=prior.tau_beta)))
        ll = loglik(d, target)
        assert draws.loglik[t] == pytest.approx(ll, rel=1e-9)
        expect = draws.loglik[t] + log_prior_density(prior, d) + beta_lp
        assert draws.logpost[t] == pytest.approx(expect, rel=1e-9)
