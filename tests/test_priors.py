import math

import numpy as np
import pytest
from scipy import stats

from kmpoly import PriorConfig, log_prior_density, prior_K_tail, sample_prior

from conftest import make_params


def test_defaults_match_experiment_settings():
    cfg = PriorConfig()
    assert (cfg.h_lo, cfg.h_hi) == (1.2, 2.0)
    assert cfg.B == 50.0 and cfg.m == 2
    assert cfg.tau_xi == 10.0 and cfg.xi_dist == "truncnorm"
    assert (cfg.K_min, cfg.K_max) == (6, 15)


def test_config_validation():
    with pytest.raises(ValueError):
        PriorConfig(h_lo=0.9)       # needs Kh > 1
    with pytest.raises(ValueError):
        PriorConfig(h_lo=2.0, h_hi=1.2)
    with pytest.raises(ValueError, match="h_hi < inf"):
        PriorConfig(h_hi=math.inf)      # the prior draws Kh uniformly up to h_hi
    with pytest.raises(ValueError):
        PriorConfig(B=-1.0)
    with pytest.raises(ValueError):
        PriorConfig(pi_K="zipf")
    with pytest.raises(ValueError):
        PriorConfig(K_min=9, K_max=6)
    nan = float("nan")
    bad = [("B", nan), ("tau_xi", nan), ("tau_beta", 0.0), ("lam", 0.0),
           ("lam", nan), ("sigma_shape", -1.0), ("sigma_scale", 0.0),
           ("rho", 1.5), ("rho", 0.0), ("rho", nan), ("step_mu", -0.1),
           ("step_mu", math.inf), ("step_kh", nan)]
    for name, value in bad:
        with pytest.raises(ValueError, match=rf"need .*{name}.*, got {name} = "):
            PriorConfig(**{name: value})
    # the config file the CLI reads goes through the same checks
    with pytest.raises(ValueError, match="got B = nan"):
        PriorConfig.from_json('{"B": NaN}')
    # the conjugate check runs with an unbounded coefficient box, and zero
    # steps freeze the geometry
    assert PriorConfig(B=math.inf, rho=1.0, step_mu=0.0, step_kh=0.0).B == math.inf


def test_json_roundtrip(tmp_path):
    cfg = PriorConfig(B=12.0, tau_xi=3.0, pi_K="poisson", lam=4.0)
    path = tmp_path / "prior.json"
    cfg.to_json(path)
    assert PriorConfig.from_json(str(path)) == cfg
    assert PriorConfig.from_json(cfg.to_json()) == cfg


def test_json_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        PriorConfig.from_json('{"bandwidth": 2.0}')


def test_sample_prior_respects_support(rng):
    cfg = PriorConfig()
    for _ in range(50):
        params = sample_prior(cfg, 4, rng)
        params.validate(B=cfg.B, h_lo=cfg.h_lo, h_hi=cfg.h_hi,
                        sigma_lo=cfg.sigma_lo, sigma_hi=cfg.sigma_hi)
        assert np.max(np.abs(params.xi)) <= cfg.B


def test_sample_prior_center_symmetry(rng):
    cfg = PriorConfig()
    mt = np.concatenate([sample_prior(cfg, 4, rng).mu_tilde.ravel()
                         for _ in range(2500)])
    se = mt.std() / math.sqrt(mt.size)
    assert abs(mt.mean()) < 3 * se + 1e-3


def test_sample_prior_kh_uniform(rng):
    cfg = PriorConfig(m=0)
    kh = np.array([sample_prior(cfg, 1, rng).h for _ in range(10000)])
    ks = stats.kstest(kh, stats.uniform(loc=1.2, scale=0.8).cdf)
    assert ks.statistic < 0.02


def test_log_density_outside_support():
    cfg = PriorConfig()
    params = make_params(K=2, h=0.75)
    params.xi[0, 0] = cfg.B + 1.0
    assert log_prior_density(cfg, params) == -np.inf
    bad_h = make_params(K=2, h=1.5)   # Kh = 3 > h_hi
    assert log_prior_density(cfg, bad_h) == -np.inf


def test_log_density_flat_under_uniform_xi(rng):
    cfg = PriorConfig(xi_dist="uniform")
    a = make_params(K=2, h=0.75, mu_tilde=rng.uniform(-1, 1, (2, 1)),
                    xi=rng.uniform(-5, 5, (2, 3)))
    b = make_params(K=2, h=0.75, mu_tilde=rng.uniform(-1, 1, (2, 1)),
                    xi=rng.uniform(-5, 5, (2, 3)))
    assert log_prior_density(cfg, a) == pytest.approx(log_prior_density(cfg, b),
                                                      rel=1e-12)


def test_log_density_gaussian_kernel_ratio():
    # single coefficient moved 0 -> 10 with sd 10: difference 10^2 / (2 * 100)
    cfg = PriorConfig(m=0, tau_xi=10.0)
    at0 = make_params(K=2, h=0.75, m=0)
    at10 = make_params(K=2, h=0.75, m=0)
    at10.xi[0, 0] = 10.0
    diff = log_prior_density(cfg, at0) - log_prior_density(cfg, at10)
    assert diff == pytest.approx(0.5, rel=1e-10)


def test_geometric_tail():
    cfg = PriorConfig(pi_K="geometric", rho=0.5)
    assert prior_K_tail(cfg, 1) == 1.0
    assert prior_K_tail(cfg, 3) == pytest.approx(0.25)


def test_poisson_tail_matches_brute_force():
    cfg = PriorConfig(pi_K="poisson", lam=5.0)
    ks = np.arange(1, 200)
    pmf = stats.poisson.pmf(ks, 5.0)
    pmf = pmf / pmf.sum()
    for x in [1, 2, 5, 11]:
        brute = float(pmf[ks >= x].sum())
        assert prior_K_tail(cfg, x) == pytest.approx(brute, abs=1e-12)
    # bit for bit the scipy.stats tail that the scipy.special call replaces
    for lam in (0.5, 5.0, 30.0):
        cfg = PriorConfig(pi_K="poisson", lam=lam)
        for x in range(2, 41):
            want = stats.poisson.sf(x - 1, lam) / stats.poisson.sf(0, lam)
            assert prior_K_tail(cfg, x) == want, (lam, x)


def test_tail_rejects_bad_argument():
    with pytest.raises(ValueError):
        prior_K_tail(PriorConfig(), 0)
