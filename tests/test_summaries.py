import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from kmpoly import (DicReport, McmcConfig, PartitionGrid, PosteriorDraws,
                    PriorConfig, dic, dic_parts, l2_credible_set, pointwise_band,
                    predict, run_chain, select_K)
from kmpoly import summaries
from kmpoly.summaries import grid_l2_norms

from conftest import sine_data


def _const_draws(values, sigmas=None):
    """Chain whose draws are constant curves at the given values: K = 1,
    m = 0, Kh = 1.5 and the center in the middle of the block."""
    c = np.atleast_1d(np.asarray(values, dtype=float))
    T = c.shape[0]
    sigma = np.ones(T) if sigmas is None else np.asarray(sigmas, dtype=float)
    lls = np.zeros(T)
    return PosteriorDraws(PartitionGrid(1), 0, "bump", np.full(T, 1.5),
                          np.full((T, 1, 1), 0.5), c.reshape(T, 1, 1), sigma,
                          lls, lls.copy())


def _sorted_quantile(a, q):
    """Independent linear-interpolation quantile along axis 0."""
    s = np.sort(a)
    pos = q * (len(a) - 1)
    lo = int(np.floor(pos))
    hi = min(lo + 1, len(a) - 1)
    return s[lo] + (pos - lo) * (s[hi] - s[lo])


# ---------------------------------------------------------------- bands

def test_band_degenerate_chain_zero_width():
    draws = _const_draws([2.0] * 10)
    band = pointwise_band(draws, np.linspace(0, 1, 5))
    np.testing.assert_allclose(band.width(), 0.0, atol=1e-14)
    np.testing.assert_allclose(band.mean, 2.0)


def test_band_matches_sort_oracle(rng):
    values = rng.normal(size=1000)
    band = pointwise_band(_const_draws(values), np.array([0.5]), level=0.95)
    assert band.lower[0] == pytest.approx(_sorted_quantile(values, 0.025), abs=1e-12)
    assert band.upper[0] == pytest.approx(_sorted_quantile(values, 0.975), abs=1e-12)


def test_band_rejects_bad_level():
    with pytest.raises(ValueError):
        pointwise_band(_const_draws([1.0, 2.0]), np.array([0.5]), level=1.5)


def test_l2set_degenerate_chain():
    summ = l2_credible_set(_const_draws([1.5] * 5), np.linspace(0, 1, 7))
    assert summ.radius == 0.0
    np.testing.assert_allclose(summ.lower, 1.5, atol=1e-14)
    np.testing.assert_allclose(summ.upper, 1.5, atol=1e-14)


def test_l2set_envelope_contains_mean(rng):
    for _ in range(10):
        summ = l2_credible_set(_const_draws(rng.normal(size=40)),
                               np.linspace(0, 1, 9), level=0.5)
        assert np.all(summ.lower <= summ.mean + 1e-12)
        assert np.all(summ.mean <= summ.upper + 1e-12)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, np.nan])
def test_l2set_rejects_bad_level(level):
    with pytest.raises(ValueError, match="level"):
        l2_credible_set(_const_draws([1.0, 2.0, 3.0]), np.linspace(0, 1, 7),
                        level=level)


def test_l2_norms_weighted(rng):
    curves = rng.normal(size=(6, 4))
    center = rng.normal(size=4)
    w = np.array([1.0, 2.0, 3.0, 4.0])
    ref = np.sqrt(((curves - center) ** 2) @ (w / w.sum()))
    np.testing.assert_allclose(grid_l2_norms(curves, center, w), ref, atol=1e-12)


@pytest.mark.parametrize("weights", [np.ones(6), np.ones((7, 1)),
                                     [1.0, np.nan, 1, 1, 1, 1, 1],
                                     [1.0, np.inf, 1, 1, 1, 1, 1],
                                     [1.0, -0.5, 1, 1, 1, 1, 1], np.zeros(7)],
                         ids=["short", "2d", "nan", "inf", "negative", "zero-sum"])
def test_l2set_rejects_bad_weights(weights):
    with pytest.raises(ValueError, match="weights"):
        l2_credible_set(_const_draws([1.0, 2.0, 3.0]), np.linspace(0, 1, 7),
                        weights=weights)


def test_l2set_wider_than_pointwise_on_synthetic_run():
    prior = PriorConfig()
    data = sine_data(120, sigma=0.2, seed=10)
    draws = run_chain(McmcConfig(burnin=200, samples=200, seed=3), prior, 4, data)
    grid = np.linspace(0, 1, 100)
    pw = pointwise_band(draws, grid)
    l2 = l2_credible_set(draws, grid)
    assert float(np.mean(l2.width())) >= float(np.mean(pw.width())) - 1e-6


# ---------------------------------------------------------------- dic

def test_dic_degenerate_chain():
    draws = _const_draws([1.0] * 8)
    data = sine_data(20, seed=11)
    draws.loglik[:] = -3.0   # consistent with identical draws
    parts = dic_parts(draws, data)
    ll = parts["plugin_loglik"]
    assert parts["p_dic"] == pytest.approx(2.0 * (ll + 3.0), abs=1e-8)
    assert dic(draws, data) == pytest.approx(-2 * ll + 2 * parts["p_dic"], rel=1e-12)


def test_dic_duplicate_draw_invariance():
    data = sine_data(20, seed=12)
    base = _const_draws([1.0, 2.0, 1.0, 2.0])
    base.loglik[:] = np.array([-3.0, -4.0, -3.0, -4.0])
    doubled = _const_draws([1.0, 2.0] * 4)
    doubled.loglik[:] = np.array([-3.0, -4.0] * 4)
    assert dic(base, data) == pytest.approx(dic(doubled, data), rel=1e-12)


def test_select_K_single_grid_point():
    prior = PriorConfig()
    data = sine_data(50, seed=14)
    cfg = McmcConfig(burnin=30, samples=30, seed=9)
    report, draws = select_K(data, prior, cfg, K_min=3, K_max=3)
    assert report.selected_K == 3 and draws.K == 3
    assert len(report.rows) == 1


def test_select_K_rejects_bad_range():
    with pytest.raises(ValueError):
        select_K(sine_data(30), PriorConfig(), McmcConfig(), K_min=5, K_max=4)


def test_dic_report_consistency_check():
    rows = [{"K": 4, "dic": 10.0, "mean_deviance": 9.0, "p_dic": 1.0},
            {"K": 5, "dic": 12.0, "mean_deviance": 9.0, "p_dic": 2.0}]
    with pytest.raises(ValueError):
        DicReport(rows, selected_K=5)


# ---------------------------------------------------------------- predict

def test_predict_zero_sigma_equals_band(rng):
    values = rng.normal(size=400)
    draws = _const_draws(values, sigmas=np.zeros(400))
    x = np.array([0.3])
    mean, lo, hi = predict(draws, x, level=0.9)
    band = pointwise_band(draws, x, level=0.9)
    assert lo[0] == pytest.approx(band.lower[0]) and hi[0] == pytest.approx(band.upper[0])


def test_predict_standard_normal_interval():
    draws = _const_draws([0.0], sigmas=[1.0])
    _, lo, hi = predict(draws, np.array([0.5]), level=0.95)
    assert lo[0] == pytest.approx(-1.959964, abs=0.01)
    assert hi[0] == pytest.approx(1.959964, abs=0.01)


def test_predict_mixture_matches_mc_oracle():
    # two-component mixture of N(-1, 0.5^2) and N(2, 1.5^2)
    draws = _const_draws([-1.0, 2.0], sigmas=[0.5, 1.5])
    _, lo, hi = predict(draws, np.array([0.5]), level=0.95)
    r = np.random.default_rng(21)
    comp = r.integers(0, 2, size=1_000_000)
    mc = np.where(comp == 0, -1.0 + 0.5 * r.standard_normal(1_000_000),
                  2.0 + 1.5 * r.standard_normal(1_000_000))
    assert lo[0] == pytest.approx(np.quantile(mc, 0.025), abs=0.01)
    assert hi[0] == pytest.approx(np.quantile(mc, 0.975), abs=0.01)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2])
def test_predict_rejects_bad_level(level):
    with pytest.raises(ValueError, match="level must be in"):
        predict(_const_draws([1.0, 2.0]), np.array([0.5]), level=level)


def test_predict_rejects_empty_draws():
    empty = _const_draws([])
    with pytest.raises(ValueError, match="no draws"):
        predict(empty, np.array([0.5]))


def _mixture_cdf(y, means, sigmas):
    """Gaussian-mixture CDF at y; a zero-sigma component is a unit step."""
    y = np.asarray(y, dtype=float)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (y - means) / sigmas
    smooth = special.ndtr(z)
    step = np.where(y >= means, 1.0, 0.0)
    return np.mean(np.where(sigmas > 0, smooth, step), axis=-1)


def _assert_predict_inverts(components, level):
    means = np.array([float(c[0]) for c in components])
    sigmas = np.array([c[1] for c in components])
    if not np.any(sigmas > 0):
        sigmas[0] = 0.5    # all-zero sigma takes the empirical-quantile branch
    draws = _const_draws(means, sigmas)
    mean, lo, hi = predict(draws, np.array([0.5]), level)
    # the mixture predict inverts is over the curves, which reproduce the
    # constants only to rounding (kernel value times constant over kernel
    # value can be one ulp off), and a zero-sigma jump sits at the curve
    means = draws.curves(np.array([0.5]))[:, 0]
    alpha = (1.0 - level) / 2.0
    tol = 1e-10 * max(1.0, float(sigmas.max()))
    slack = 1e-12          # rounding of the averaged CDF
    for q, target in ((lo[0], alpha), (hi[0], 1.0 - alpha)):
        # F(q - tol) <= target <= F(q + tol): F equals the target within
        # tol where it is continuous, and q is the jump where it is not
        assert _mixture_cdf(q - tol, means, sigmas) <= target + slack
        assert _mixture_cdf(q + tol, means, sigmas) >= target - slack
    # each end lies on the outer side of its quantile
    assert _mixture_cdf(lo[0], means, sigmas) <= alpha + slack
    assert _mixture_cdf(hi[0], means, sigmas) >= 1.0 - alpha - slack
    # the interval contains the predictive mean exactly when the mixture
    # puts at least alpha of its mass on either side of it
    f_mean = _mixture_cdf(mean[0], means, sigmas)
    if alpha + 1e-9 < f_mean < 1.0 - alpha - 1e-9:
        assert lo[0] <= mean[0] <= hi[0]


@given(st.lists(st.tuples(st.floats(-5.0, 5.0),
                          st.one_of(st.just(0.0), st.floats(1e-3, 3.0))),
                min_size=1, max_size=20),
       st.floats(0.5, 0.99))
# the mean lies between two jumps less than tol apart; the midpoint of a
# final bracket around the upper jump can fall 2.9e-11 below it, its right
# end not
@example([(-3.5105205960698944e-237, 0.0), (-1.1262945745046494e-251, 0.0),
          (0.0, 1.0)], 0.5)
# a zero-sigma draw exactly at an evaluated point is a whole step of the
# CDF, not half of one: F(-1) = 1/3 > alpha, so -1 is no lower end
@example([(-3.0, 0.5), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0),
          (-1.0, 0.0)], 0.5)
@settings(max_examples=150, deadline=None)
def test_predict_inverts_the_mixture_cdf(components, level):
    _assert_predict_inverts(components, level)


# integer means and mostly zero sigmas: the steps of the CDF tie with each
# other, with the normal components' centers and with the evaluated points
@given(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from([0.0, 0.0, 0.5, 1.0])),
                min_size=1, max_size=20),
       st.sampled_from([0.5, 0.6, 0.8, 0.9, 0.95]))
@settings(max_examples=400, deadline=None)
def test_predict_inverts_a_mixture_of_tied_steps(components, level):
    _assert_predict_inverts(components, level)


class _CountingSpecial:
    """``scipy.special`` with its ``ndtr`` calls counted."""

    def __init__(self):
        self.ndtr_calls = 0

    def ndtr(self, z):
        self.ndtr_calls += 1
        return special.ndtr(z)

    def __getattr__(self, name):
        return getattr(special, name)


def _count_predict_evaluations(monkeypatch, values, sigmas):
    """predict's ends at len(values[0]) points and its CDF evaluations."""
    draws = _const_draws(values[:, 0], sigmas)
    monkeypatch.setattr(draws, "curves", lambda grid: values[:, :len(grid)])
    counter = _CountingSpecial()
    monkeypatch.setattr(summaries, "special", counter)
    out = predict(draws, np.linspace(0.05, 0.95, values.shape[1]))
    return out, counter.ndtr_calls


def test_predict_newton_takes_few_evaluations_on_a_smooth_mixture(rng, monkeypatch):
    # shaped like a 1000-draw posterior predictive at 50 points: curves
    # spread by about 0.03 around a smooth truth, sigma about 0.3
    x = np.linspace(0.05, 0.95, 50)
    values = np.sin(2.0 * np.pi * x) + x + 0.03 * rng.standard_normal((1000, 50))
    sigmas = rng.uniform(0.27, 0.34, 1000)
    (mean, lo, hi), calls = _count_predict_evaluations(monkeypatch, values, sigmas)
    batches = -(-50 // max(1, summaries.BATCH_ELEMENTS // (2 * 1000)))
    # bisection from the 8-sigma bracket to 1e-10 takes 36 per batch
    assert calls <= 8 * batches
    assert np.all(lo < mean) and np.all(mean < hi)


def test_predict_newton_keeps_the_cap_on_a_mixture_of_steps(rng, monkeypatch):
    values = rng.normal(size=(1000, 50))
    sigmas = np.zeros(1000)
    sigmas[0] = 0.3                              # one smooth component
    (mean, lo, hi), calls = _count_predict_evaluations(monkeypatch, values, sigmas)
    step = max(1, summaries.BATCH_ELEMENTS // (2 * 1000))
    tol = 1e-10
    cap = 0
    for a in range(0, 50, step):
        width = np.ptp(values[:, a:a + step], axis=0).max() + 16.0 * 0.3
        cap += 2 * int(np.ceil(np.log2(width / tol)))
    assert calls <= cap
    alpha = 0.025          # 25 of the 1000 steps: the ends sit on jumps
    slack = 1e-12          # rounding of the averaged CDF
    for g in range(50):
        means = values[:, g]
        assert _mixture_cdf(lo[g], means, sigmas) <= alpha + slack
        assert _mixture_cdf(lo[g] + tol, means, sigmas) >= alpha - slack
        assert _mixture_cdf(hi[g], means, sigmas) >= 1.0 - alpha - slack
        assert _mixture_cdf(hi[g] - tol, means, sigmas) <= 1.0 - alpha + slack


@pytest.mark.parametrize("mean, level", [(-0.0012727649876072796, 0.9999999994068001),
                                         (0.0, 1.0 - 1e-12), (0.7, 1.0 - 1e-9)])
def test_predict_brackets_meet_tol_at_extreme_levels(mean, level):
    # near 1 - alpha the computed CDF of one N(mean, 0.25) draw is a
    # staircase of ulps, flat over far more than tol, where Newton steps
    # barely move; the iteration must still close every bracket to tol
    draws = _const_draws([mean], sigmas=[0.5])
    _, lo, hi = predict(draws, np.array([0.5]), level)
    f = draws.curves(np.array([0.5]))[0, 0]
    cdf = lambda y: special.ndtr((y - f) / 0.5)
    alpha, tol = (1.0 - level) / 2.0, 1e-10
    assert cdf(lo[0]) < alpha <= cdf(lo[0] + tol)
    assert cdf(hi[0] - tol) < 1.0 - alpha <= cdf(hi[0])


def test_predict_point_batches_agree(rng, monkeypatch):
    values = rng.normal(size=(40, 7))
    draws = _const_draws(values[:, 0], sigmas=rng.uniform(0.0, 0.5, 40))
    # curves of constant draws do not depend on x, so vary them by hand
    monkeypatch.setattr(draws, "curves", lambda grid: values[:, :len(grid)])
    whole = predict(draws, np.linspace(0.1, 0.9, 7))
    monkeypatch.setattr(summaries, "BATCH_ELEMENTS", 2 * 40 * 3)   # 3 points a batch
    batched = predict(draws, np.linspace(0.1, 0.9, 7))
    # every end lies within half the 1e-10 tolerance of the same quantile
    for a, b in zip(whole, batched):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)
    for g in range(7):
        monkeypatch.setattr(draws, "curves", lambda grid, g=g: values[:, g:g + 1])
        single = predict(draws, np.array([0.5]))
        for a, b in zip(whole, single):
            assert a[g] == pytest.approx(b[0], rel=0, abs=1e-10)
