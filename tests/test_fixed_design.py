import numpy as np
import pytest
from scipy import special, stats

from kmpoly import (Dataset, basis_matrix, choose_Kn, conjugate_fit,
                    empirical_l2, eval_f, fixed_design_params, loglik,
                    pointwise_band)

from conftest import make_params, sine_data


def test_choose_Kn_frozen_value():
    # ceil((1000 / log 1000)^(1/3)) = ceil(5.246) = 6
    assert choose_Kn(1000, 1.0, 1) == 6


def test_choose_Kn_monotone_and_validated():
    ks = [choose_Kn(n, 1.0, 1) for n in (100, 1000, 10000, 100000)]
    assert all(a <= b for a, b in zip(ks, ks[1:]))
    with pytest.raises(ValueError):
        choose_Kn(1, 1.0, 1)
    with pytest.raises(ValueError):
        choose_Kn(100, 0.0, 1)


def test_skeleton_geometry():
    params = fixed_design_params(5, 1, 2)
    assert params.h == pytest.approx(2.0 / 5.0)
    np.testing.assert_array_equal(params.mu, params.grid.block_centers)
    assert np.all(params.xi == 0.0)


def test_interpolation_limit(rng):
    # y generated by the basis itself: n^-2 regularization is negligible
    skeleton = fixed_design_params(3, 1, 1)
    x = rng.uniform(0, 1, 6000)
    c = rng.normal(size=basis_matrix(skeleton, x).shape[1])
    y = basis_matrix(skeleton, x) @ c
    post = conjugate_fit(Dataset(x[:, None], y), K=3, m=1)
    assert np.max(np.abs(post.xi_mean - c)) / np.max(np.abs(c)) < 1e-6


def test_single_observation_scalar_ridge():
    # K=1, m=0: one basis function identically 1, so A = 1 + 1 and mean = y/2
    post = conjugate_fit(Dataset(np.array([[0.5]]), np.array([3.0])), K=1, m=0)
    assert post.xi_mean[0] == pytest.approx(3.0 / 2.0)


def test_posterior_mean_linear_in_y(rng):
    x = rng.uniform(0, 1, 120)
    y1 = rng.normal(size=120)
    y2 = rng.normal(size=120)
    m1 = conjugate_fit(Dataset(x[:, None], y1), K=3).xi_mean
    m2 = conjugate_fit(Dataset(x[:, None], y2), K=3).xi_mean
    m12 = conjugate_fit(Dataset(x[:, None], y1 + 2.0 * y2), K=3).xi_mean
    np.testing.assert_allclose(m12, m1 + 2.0 * m2, atol=1e-10)


def test_band_matches_sampled_quantiles(rng):
    data = sine_data(150, seed=4)
    post = conjugate_fit(data, K=4)
    grid = np.linspace(0, 1, 25)
    mean, lo, hi = post.pointwise_band(grid, 0.95)
    xi, _ = post.sample(40000, rng)
    curves = basis_matrix(post.skeleton, grid) @ xi.T
    np.testing.assert_allclose(mean, curves.mean(axis=1), atol=0.01)
    np.testing.assert_allclose(lo, np.quantile(curves, 0.025, axis=1), atol=0.02)
    np.testing.assert_allclose(hi, np.quantile(curves, 0.975, axis=1), atol=0.02)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -1.0, np.nan])
def test_band_rejects_bad_level(level):
    post = conjugate_fit(sine_data(60, seed=4), K=3)
    with pytest.raises(ValueError, match="level must be in"):
        post.pointwise_band(np.linspace(0, 1, 5), level)


def test_band_quantile_matches_scipy_stats():
    # bit for bit the Student-t quantile that the scipy.special call replaces
    dfs = [2.0 * conjugate_fit(sine_data(n, seed=n), K=2).ig_shape
           for n in (5, 6, 17, 50, 333, 1000, 5000)]
    for df in dfs:
        for level in (0.5, 0.9, 0.95, 0.999):
            q = 0.5 + level / 2.0
            assert special.stdtrit(df, q) == stats.t.ppf(q, df), (df, level)


def test_sigma2_summaries(rng):
    data = sine_data(200, sigma=0.3, seed=5)
    post = conjugate_fit(data)
    _, sig = post.sample(40000, rng)
    assert np.mean(sig**2) == pytest.approx(post.sigma2_mean(), rel=0.05)
    assert 0.2 < np.sqrt(post.sigma2_mean()) < 0.45


def test_to_posterior_draws_supports_generic_summaries(rng):
    data = sine_data(80, seed=6)
    post = conjugate_fit(data, K=3)
    draws = post.to_posterior_draws(50, rng, data=data)
    band = pointwise_band(draws, np.linspace(0, 1, 30))
    assert band.mean.shape == (30,)
    # the batched scores match a per-draw log-likelihood
    want = [loglik(d, data) for d in draws.draws]
    np.testing.assert_allclose(draws.loglik, want, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(draws.logpost, draws.loglik)


@pytest.mark.parametrize("n_draws", [0, -1])
def test_to_posterior_draws_rejects_no_draws(rng, n_draws):
    post = conjugate_fit(sine_data(60, seed=4), K=3)
    with pytest.raises(ValueError, match=f"n_draws = {n_draws}"):
        post.to_posterior_draws(n_draws, rng)


def test_band_coverage_calibrated():
    # nominal-95% band on a smooth truth, grid-averaged over replicates
    grid = np.linspace(0, 1, 100)
    f0 = np.sin(2 * np.pi * grid)
    hits = []
    master = np.random.default_rng(17)
    for _ in range(200):
        x = master.uniform(0, 1, 400)
        y = np.sin(2 * np.pi * x) + 0.1 * master.standard_normal(400)
        post = conjugate_fit(Dataset(x[:, None], y))
        _, lo, hi = post.pointwise_band(grid, 0.95)
        hits.append(np.mean((lo <= f0) & (f0 <= hi)))
    assert 0.85 <= float(np.mean(hits)) <= 0.99


def test_prior_hyperparameter_validation():
    with pytest.raises(ValueError):
        conjugate_fit(sine_data(20), a_sigma=1.0)


def test_empirical_l2_basics(rng):
    design = rng.uniform(0, 1, 50)
    f = rng.normal(size=50)
    assert empirical_l2(f, f, design) == 0.0
    assert empirical_l2(f, f - 0.3, design) == pytest.approx(0.3)
    g = rng.normal(size=50)
    naive = np.sqrt(sum((f[i] - g[i]) ** 2 for i in range(50)) / 50)
    assert empirical_l2(f, g, design) == pytest.approx(naive, abs=1e-12)
    assert empirical_l2(np.sin, np.sin, design) == 0.0
    with pytest.raises(ValueError):
        empirical_l2(f, g, np.empty(0))
