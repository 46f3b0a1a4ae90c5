import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from kmpoly._stats import (invgamma_cdf, invgamma_logpdf, reflect,
                           trunc_invgamma_sample, truncnorm_ppf)


def test_reflect_identity_inside():
    assert reflect(0.3, -1.0, 1.0) == pytest.approx(0.3)


def test_reflect_folds_at_boundary():
    assert reflect(1.5, -1.0, 1.0) == pytest.approx(0.5)
    assert reflect(-1.2, -1.0, 1.0) == pytest.approx(-0.8)
    # two reflections
    assert reflect(3.1, -1.0, 1.0) == pytest.approx(-0.9)


@given(st.floats(-1e6, 1e6), st.floats(-5, 0), st.floats(0.1, 5))
@settings(max_examples=200)
def test_reflect_always_in_bounds(x, lo, width):
    hi = lo + width
    y = float(reflect(x, lo, hi))
    assert lo - 1e-9 <= y <= hi + 1e-9


def _reflect_array(x, lo, hi):
    """The array formula reflect replaced, kept as its reference."""
    width = hi - lo
    y = np.mod(np.asarray(x, dtype=float) - lo, 2.0 * width)
    y = np.where(y > width, 2.0 * width - y, y)
    return lo + y


@given(st.floats(-5, 0), st.floats(0.1, 5), st.data())
@settings(max_examples=300)
def test_reflect_matches_array_formula(lo, width, data):
    hi = lo + width
    x = data.draw(st.one_of(
        st.sampled_from([lo, hi, -lo, -hi, 0.0, -0.0]),
        st.floats(lo, hi),
        st.floats(-1e6, 1e6),
        st.integers(-1000, 1000).map(lambda k: lo + k * width),
        st.integers(-1000, 1000).map(lambda k: hi + k * width)))
    want = float(_reflect_array(x, lo, hi)).hex()
    assert reflect(x, lo, hi).hex() == want
    assert float(reflect(np.array([x, 0.5 * (lo + hi)]), lo, hi)[0]).hex() == want


def test_truncnorm_sample_matches_scipy():
    rng = np.random.default_rng(7)
    mean, sd, lo, hi = 0.4, 1.3, -1.0, 2.0
    draws = np.array([truncnorm_ppf(u, mean, sd, lo, hi)
                      for u in rng.random(5000)])
    assert np.all((draws >= lo) & (draws <= hi))
    a, b = (lo - mean) / sd, (hi - mean) / sd
    ks = stats.kstest(draws, stats.truncnorm(a, b, loc=mean, scale=sd).cdf)
    assert ks.statistic < 0.025


def test_truncnorm_sample_far_tail_box():
    rng = np.random.default_rng(3)
    draws = [truncnorm_ppf(u, 0.0, 1.0, 8.0, 9.0) for u in rng.random(200)]
    assert np.all(np.isfinite(draws))
    assert np.all((np.asarray(draws) >= 8.0) & (np.asarray(draws) <= 9.0))
    draws = [truncnorm_ppf(u, 0.0, 1.0, -9.0, -8.0) for u in rng.random(200)]
    assert np.all((np.asarray(draws) >= -9.0) & (np.asarray(draws) <= -8.0))


def test_truncnorm_ppf_stays_in_the_box_of_a_very_wide_normal():
    # a conditional gibbs_xi met on a coefficient whose kernel values were
    # nearly zero: mean + sd z cancels to 64.0 unless clipped to [-50, 50]
    x = truncnorm_ppf(0.24007964606358656, -3.886048187481202e+17,
                      2.7859537444365894e+17, -50.0, 50.0)
    assert -50.0 <= x <= 50.0
    rng = np.random.default_rng(5)
    for mean, sd in [(-3.9e17, 2.8e17), (4e18, 3e18), (1e17, 1e16)]:
        draws = [truncnorm_ppf(u, mean, sd, -50.0, 50.0) for u in rng.random(500)]
        assert np.all(np.abs(draws) <= 50.0)


def test_invgamma_cdf_matches_scipy():
    xs = np.array([1e-3, 0.1, 1.0, 7.0])
    for shape, scale in [(1.0, 1.0), (3.5, 0.4)]:
        np.testing.assert_allclose(
            [invgamma_cdf(x, shape, scale) for x in xs],
            stats.invgamma(shape, scale=scale).cdf(xs), rtol=1e-10)
    assert invgamma_cdf(0.0, 2.0, 1.0) == 0.0


def _invgamma_cdf_array(x, shape, scale):
    # the array form the scalar invgamma_cdf replaced, kept as its reference
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, special.gammaincc(shape, scale / np.maximum(x, 1e-300)), 0.0)


_EDGE_X = [-np.inf, -1.0, -0.0, 0.0, 5e-324, 1e-310, 1e-300, 3e-300, 1e-12, 0.04,
           0.3, 1.0, 2.5, 1e6, 1e300, 1.7976931348623157e308, np.inf, np.nan]


def test_invgamma_cdf_scalar_keeps_the_array_forms_bits():
    # x <= 0, subnormal x (where the 1e-300 guard binds), huge x and a
    # scale / x that overflows
    with np.errstate(over="ignore"):
        for shape, scale in [(1.0, 1.0), (2.5, 0.04), (0.5, 1e-300), (1e3, 1e10)]:
            for x in _EDGE_X:
                new = invgamma_cdf(x, shape, scale)
                assert type(new) is float
                old = _invgamma_cdf_array(x, shape, scale)
                assert np.float64(new).tobytes() == old.tobytes(), (x, shape, scale)


def _trunc_invgamma_sample_array(rng, shape, scale, lo, hi):
    # trunc_invgamma_sample on the array form of the CDF
    flo = float(_invgamma_cdf_array(lo, shape, scale))
    fhi = float(_invgamma_cdf_array(hi, shape, scale))
    if fhi - flo <= 0.0:
        return float(lo) if flo >= 1.0 else float(hi)
    u = flo + rng.random() * (fhi - flo)
    u = min(max(u, 1e-300), 1 - 1e-16)
    return float(min(max(scale / special.gammainccinv(shape, u), lo), hi))


def test_trunc_invgamma_sample_keeps_the_array_forms_draws():
    # boxes at zero, around a subnormal, in each tail and far beyond the mass
    boxes = [(0.0, 1.0), (1e-310, 1e-3), (0.01, 0.09), (0.2, 3.0), (4.0, 1e300),
             (5.0, 6.0), (1e-300, 1e-299)]
    for shape, scale in [(1.0, 1.0), (2.5, 0.04), (200.0, 1.0)]:
        for lo, hi in boxes:
            a, b = np.random.default_rng(3), np.random.default_rng(3)
            for _ in range(50):
                new = trunc_invgamma_sample(a, shape, scale, lo, hi)
                old = _trunc_invgamma_sample_array(b, shape, scale, lo, hi)
                assert np.float64(new).tobytes() == np.float64(old).tobytes()
            assert a.bit_generator.state == b.bit_generator.state


def test_invgamma_logpdf_matches_scipy():
    for shape, scale in [(1.0, 1.0), (5.0, 2.5)]:
        for x in [0.05, 0.8, 4.0]:
            assert invgamma_logpdf(x, shape, scale) == pytest.approx(
                stats.invgamma(shape, scale=scale).logpdf(x), rel=1e-10)
    assert invgamma_logpdf(-1.0, 1.0, 1.0) == -np.inf


def test_trunc_invgamma_sample_distribution():
    rng = np.random.default_rng(11)
    shape, scale, lo, hi = 2.0, 1.5, 0.2, 3.0
    draws = np.array([trunc_invgamma_sample(rng, shape, scale, lo, hi)
                      for _ in range(5000)])
    assert np.all((draws >= lo) & (draws <= hi))
    base = stats.invgamma(shape, scale=scale)
    flo, fhi = base.cdf(lo), base.cdf(hi)
    ks = stats.kstest(draws, lambda x: (base.cdf(x) - flo) / (fhi - flo))
    assert ks.statistic < 0.025


def test_trunc_invgamma_degenerate_box_returns_endpoint():
    rng = np.random.default_rng(0)
    # all mass far below the box
    val = trunc_invgamma_sample(rng, 200.0, 1.0, 5.0, 6.0)
    assert val in (5.0, 6.0)
