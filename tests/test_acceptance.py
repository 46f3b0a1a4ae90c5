"""End-to-end acceptance checks, one per headline claim of the library.

Each test prints a single ``ACCEPT-NN PASS/FAIL`` line with the measured
quantities before asserting.  Default runs use reduced (but still
multi-minute) experiment tiers; set ``KMP_ACCEPT_FULL=1`` to run the
full-size tiers as well.
"""

import functools
import itertools
import math
import os

import numpy as np
import pytest

from kmpoly import (Dataset, KmpParams, McmcConfig, PartitionGrid,
                    PriorConfig, ScenarioSpec, basis_matrix, conjugate_fit,
                    eval_f, mixture_weights, run_benchmark, run_chain,
                    run_coverage, sample_prior, taylor_project)
from kmpoly._pool import _map
from kmpoly.fixed_design import choose_Kn, fixed_design_params
from kmpoly.harness import PLM_BETA0
from kmpoly.plm import run_plm_chain
from kmpoly.sampler import ChainState, gibbs_sigma, gibbs_xi
from kmpoly.sieve import SieveConfig, fit_sieve_mle, solve_xi_box
from kmpoly.summaries import pointwise_band, select_K

pytestmark = pytest.mark.acceptance

FULL = os.environ.get("KMP_ACCEPT_FULL") == "1"

_BENCHMARKS = {}


def _report(tag, ok, detail):
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def _benchmark(n, grid_size, K, burnin, samples):
    key = (n, grid_size, K, burnin, samples)
    if key not in _BENCHMARKS:
        spec = ScenarioSpec(truth="volterra", n=n, noise_sd=0.1, base_seed=0,
                            grid_size=grid_size, K=K, burnin=burnin,
                            samples=samples)
        _BENCHMARKS[key] = run_benchmark(spec)["results"]
    return _BENCHMARKS[key]


# ---------------------------------------------------------------- 01: accuracy


def test_01_benchmark_accuracy_vs_gp_baselines():
    tiers = [("reduced", _benchmark(300, 300, 8, 1000, 1000),
              {"kmp": 2e-3, "gp_squared_exponential": 1e-2,
               "gp_matern32": 6e-3, "gp_matern52": 6e-3})]
    if FULL:
        tiers.append(("full", _benchmark(1000, 1000, 10, 1000, 1000),
                      {"kmp": 1e-3, "gp_squared_exponential": 5e-3,
                       "gp_matern32": 3e-3, "gp_matern52": 3e-3}))
    ok, parts = True, []
    for name, results, bounds in tiers:
        for method, bound in bounds.items():
            mse = results[method]["mse"]
            ok = ok and mse <= bound
            parts.append(f"{name}/{method} mse={mse:.2e} (<= {bound:g})")
    _report("ACCEPT-01", ok, "; ".join(parts))


# ---------------------------------------------------------------- 02: runtime


def test_02_benchmark_runtime_vs_gp_baselines():
    results = (_benchmark(1000, 1000, 10, 1000, 1000) if FULL
               else _benchmark(1000, 1000, 10, 600, 600))
    t_kmp = results["kmp"]["runtime_s"]
    ok, parts = True, [f"kmp {t_kmp:.2f}s"]
    for method, res in results.items():
        if method == "kmp":
            continue
        ratio = t_kmp / res["runtime_s"]
        ok = ok and ratio <= 0.1
        parts.append(f"vs {method}: {res['runtime_s']:.1f}s ratio={ratio:.3f}")
    _report("ACCEPT-02", ok, "; ".join(parts) + " (need <= 0.1 each)")


# ---------------------------------------------------------------- 03: plm


def test_03_plm_interval_coverage_and_bvm_scale():
    spec = ScenarioSpec(truth="plm", n=500, noise_sd=1.0, base_seed=301)
    data = spec.simulate(spec.base_seed)
    cfg = McmcConfig(burnin=1000, samples=1000, seed=spec.base_seed,
                     init="lsq")
    draws = run_plm_chain(cfg, PriorConfig(), 10, data)
    lo = np.quantile(draws.beta, 0.025, axis=0)
    hi = np.quantile(draws.beta, 0.975, axis=0)
    covered = int(np.sum((lo <= PLM_BETA0) & (PLM_BETA0 <= hi)))
    # with E[z z^T] = I/3 the efficient frequentist sd is sqrt(3/n)
    target = math.sqrt(3.0 / spec.n)
    ratio = draws.beta.std(axis=0, ddof=1) / target
    ok = covered >= 7 and np.all((0.6 <= ratio) & (ratio <= 1.6))
    _report("ACCEPT-03", ok,
            f"covered {covered}/8 (need >= 7); sd/target in "
            f"[{ratio.min():.3f}, {ratio.max():.3f}] (need within [0.6, 1.6])")


# ---------------------------------------------------------------- 04: coverage


def test_04_coverage_dips_at_rough_feature():
    replicates = 100 if FULL else 20
    spec = ScenarioSpec(truth="volterra", n=1000, noise_sd=0.2,
                        replicates=replicates, base_seed=0, grid_size=500,
                        K=10, burnin=500, samples=500)
    rep = run_coverage(spec, estimators=("kmp_pointwise", "kmp_l2set"))
    pw_bump = rep.windows["kmp_pointwise"]["bump"]
    pw_flat = rep.windows["kmp_pointwise"]["flat"]
    l2_bump = rep.windows["kmp_l2set"]["bump"]
    margin = 0.05 if FULL else 0.0
    ok = (pw_flat - pw_bump > margin) and (l2_bump >= pw_bump)
    _report("ACCEPT-04", ok,
            f"R={replicates}: pointwise bump={pw_bump:.3f} flat={pw_flat:.3f} "
            f"(need flat-bump > {margin}); l2-set bump={l2_bump:.3f} "
            f"(need >= pointwise bump)")


# ---------------------------------------------------------------- 05: rate


def _taylor_sup_error(K, m=2):
    grid = PartitionGrid(K)

    def derivs(c, s):
        k = s[0]
        return (2 * math.pi) ** k * math.sin(2 * math.pi * c[0] + k * math.pi / 2)

    xi = taylor_project(None, grid, m, derivs=derivs)
    params = KmpParams(grid, 1.5 / K, grid.block_centers.copy(), xi, 1.0, m=m)
    xs = np.linspace(0.0, 1.0, 2048)
    return float(np.max(np.abs(eval_f(params, xs) - np.sin(2 * math.pi * xs))))


def test_05_taylor_projection_rate_in_K():
    ok, parts = True, []
    for K in (8, 16, 32):
        ratio = _taylor_sup_error(2 * K) / _taylor_sup_error(K)
        ok = ok and ratio <= 0.3
        parts.append(f"K={K}->{2*K}: ratio={ratio:.3f}")
    _report("ACCEPT-05", ok, "; ".join(parts) + " (need <= 0.3 each)")


# ---------------------------------------------------------------- 06: conjugate


def test_06_conjugate_posterior_matches_mcmc():
    n, K, m = 100, 5, 1
    x = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    rng = np.random.default_rng(606)
    y = np.sin(2 * math.pi * x) + 0.3 * rng.standard_normal(n)
    data = Dataset(x[:, None], y)
    post = conjugate_fit(data, K=K, m=m, a_sigma=2.0, b_sigma=2.0)
    grid = np.linspace(0.0, 1.0, 200)
    cmean, _, _ = post.pointwise_band(grid, 0.95)

    prior = PriorConfig(xi_scale_by_sigma=True, tau_xi=float(n), B=np.inf,
                        m=m, sigma_shape=2.0, sigma_scale=2.0)
    cfg = McmcConfig(burnin=500, samples=8000, seed=607, sample_mu=False,
                     sample_h=False)
    draws = run_chain(cfg, prior, K, data,
                      init_params=fixed_design_params(K, 1, m, 0.3))
    curves = draws.curves(grid)
    nb = 40
    batches = curves[: (len(curves) // nb) * nb].reshape(
        nb, -1, grid.shape[0]).mean(axis=1)
    se = batches.std(axis=0, ddof=1) / math.sqrt(nb)
    z = float(np.max(np.abs(curves.mean(axis=0) - cmean) / se))
    _report("ACCEPT-06", z <= 3.0,
            f"max |mcmc mean - conjugate mean| / mc-se = {z:.2f} "
            f"over a 200-point grid (need <= 3)")


# ---------------------------------------------------------------- 07: kernels


def _tv_from_cdf(draws, tgrid, cdf, nbins=25):
    edges = np.interp(np.linspace(0.0, 1.0, nbins + 1), cdf, tgrid)
    counts, _ = np.histogram(draws, bins=edges)
    return 0.5 * float(np.sum(np.abs(counts / draws.shape[0] - 1.0 / nbins)))


def test_07_gibbs_steps_match_quadrature_oracles():
    rng = np.random.default_rng(707)
    prior = PriorConfig(m=0, B=3.0, tau_xi=1.5)
    x = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    y = np.array([0.4, -0.2, 0.7, 0.1, -0.5])
    data = Dataset(x[:, None], y)
    params = sample_prior(prior, 1, np.random.default_rng(1))
    params.sigma = 0.5
    state = ChainState(params, data, prior)

    # coefficient step: density prop. to likelihood x prior on [-B, B]
    psi = state.basis().ravel()
    tg = np.linspace(-prior.B, prior.B, 4001)
    resid = y[None, :] - np.outer(tg, psi)
    logd = (-0.5 * np.sum(resid**2, axis=1) / params.sigma**2
            - 0.5 * tg**2 / prior.tau_xi**2)
    dens = np.exp(logd - logd.max())
    cdf = np.concatenate(
        [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(tg))])
    cdf /= cdf[-1]
    ndraw = 100_000
    xi_draws = np.empty(ndraw)
    for i in range(ndraw):
        gibbs_xi(state, rng)
        xi_draws[i] = state.params.xi[0, 0]
    tv_xi = _tv_from_cdf(xi_draws, tg, cdf)

    # noise-variance step at a frozen residual vector
    frozen = state.resid.copy()
    shape = prior.sigma_shape + 0.5 * data.n
    scale = prior.sigma_scale + 0.5 * float(frozen @ frozen)
    s2g = np.exp(np.linspace(math.log(prior.sigma_lo**2), math.log(50.0),
                             20001))
    logd = -(shape + 1.0) * np.log(s2g) - scale / s2g
    dens = np.exp(logd - logd.max())
    cdf2 = np.concatenate(
        [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(s2g))])
    cdf2 /= cdf2[-1]
    s2_draws = np.empty(ndraw)
    for i in range(ndraw):
        state.resid = frozen
        gibbs_sigma(state, rng)
        s2_draws[i] = state.params.sigma**2
    tv_s2 = _tv_from_cdf(s2_draws, s2g, cdf2)

    ok = tv_xi <= 0.02 and tv_s2 <= 0.02
    _report("ACCEPT-07", ok,
            f"TV(coefficient step)={tv_xi:.4f}, TV(variance step)={tv_s2:.4f} "
            f"vs quadrature oracles (need <= 0.02 each)")


# ---------------------------------------------------------------- 08: contraction


def _l2_errors(case, grid, f0g):
    n, seed = case
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = np.sin(2 * math.pi * x) + 0.3 * rng.standard_normal(n)
    data = Dataset(x[:, None], y)
    K = choose_Kn(n, 1.0, 1)
    draws = run_chain(McmcConfig(burnin=300, samples=200, seed=seed,
                                 init="lsq"), PriorConfig(), K, data)
    pm = draws.curves(grid).mean(axis=0)
    fit = fit_sieve_mle(
        data, SieveConfig(K=K, multistart=2, mu_grid=11, max_outer=8),
        np.random.default_rng(seed))
    return (float(np.mean((pm - f0g) ** 2)),
            float(np.mean((eval_f(fit.params, grid) - f0g) ** 2)))


def test_08_squared_error_contracts_with_n():
    grid = np.linspace(0.0, 1.0, 400)
    f0g = np.sin(2 * math.pi * grid)
    seeds = range(7000, 7020)
    # the 40 fits are independent, so they run on the library's process pool
    fits = _map(functools.partial(_l2_errors, grid=grid, f0g=f0g),
                [(n, s) for n in (250, 4000) for s in seeds])
    small, big = np.array(fits[:20]), np.array(fits[20:])
    ratio = np.median(big, axis=0) / np.median(small, axis=0)
    ok = bool(np.all(ratio <= 0.5))
    _report("ACCEPT-08", ok,
            f"median squared-L2 ratio n=4000/n=250 over 20 seeds: "
            f"posterior mean {ratio[0]:.3f}, sieve mle {ratio[1]:.3f} "
            f"(need <= 0.5 each)")


# ---------------------------------------------------------------- 09: sieve


def test_09_sieve_beats_dense_lattice_oracle():
    rng = np.random.default_rng(909)
    n = 30
    x = rng.uniform(0.0, 1.0, n)
    y = np.sin(2 * math.pi * x) + 0.3 * rng.standard_normal(n)
    data = Dataset(x[:, None], y)
    cfg = SieveConfig(K=2, m=0, B=50.0, multistart=8, mu_grid=21)
    fit = fit_sieve_mle(data, cfg, np.random.default_rng(3))

    grid = PartitionGrid(2, 1)
    lat = np.linspace(-1.0, 1.0, 21)
    khs = np.linspace(cfg.h_lo, cfg.h_hi, 21)
    best = np.inf
    for m1, m2, kh in itertools.product(lat, lat, khs):
        mu = grid.block_centers + np.array([[m1], [m2]]) / 4.0
        params = KmpParams(grid, kh / 2.0, mu, np.zeros((2, 1)), 1.0, 0,
                           "bump")
        psi = basis_matrix(params, data.x)
        xi = solve_xi_box(y, psi, cfg.B)
        r = y - psi @ xi
        best = min(best, float(r @ r))
    ok = fit.objective <= best + 1e-6
    _report("ACCEPT-09", ok,
            f"sieve objective {fit.objective:.6f} vs 21^3-lattice oracle "
            f"{best:.6f} (need <= oracle + 1e-6)")


# ---------------------------------------------------------------- 10: invariants


def test_10_invariants_and_model_order_selection():
    parts, ok = [], True

    # partition of unity and coefficient linearity
    rng = np.random.default_rng(10)
    params = sample_prior(PriorConfig(), 6, rng)
    xs = rng.uniform(0.0, 1.0, 300)
    w = mixture_weights(params, xs[:, None])
    unity = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
    ok = ok and unity <= 1e-12
    parts.append(f"partition-of-unity dev {unity:.1e} (<= 1e-12)")

    a, b = params.copy(), params.copy()
    b.xi = rng.standard_normal(b.xi.shape)
    mix = params.copy()
    mix.xi = 0.3 * a.xi + 0.7 * b.xi
    lin = float(np.max(np.abs(eval_f(mix, xs)
                              - 0.3 * eval_f(a, xs) - 0.7 * eval_f(b, xs))))
    ok = ok and lin <= 1e-10
    parts.append(f"linearity dev {lin:.1e} (<= 1e-10)")

    # kernel support is exact: zero weight outside the scaled box, positive
    # weight strictly inside it (the last 1% of the radius is excluded from
    # the positivity check because the bump tail underflows to zero there)
    d = np.max(np.abs(xs[:, None, None] - params.mu[None, :, :]), axis=-1)
    support_ok = bool(np.all(w[d >= params.h] == 0.0)
                      and np.all(w[d <= 0.99 * params.h] > 0.0))
    ok = ok and support_ok
    parts.append(f"support exact {support_ok}")

    # bit-exact chain determinism, and band quantiles vs a sorting oracle
    data = Dataset(xs[:100, None], np.sin(2 * math.pi * xs[:100]))
    cfg = McmcConfig(burnin=50, samples=40, seed=77)
    d1 = run_chain(cfg, PriorConfig(), 3, data)
    d2 = run_chain(cfg, PriorConfig(), 3, data)
    det = all(np.array_equal(p.xi, q.xi) and p.h == q.h
              and np.array_equal(p.mu, q.mu) and p.sigma == q.sigma
              for p, q in zip(d1.draws, d2.draws))
    ok = ok and det
    parts.append(f"bit-exact determinism {det}")

    gq = np.linspace(0.0, 1.0, 37)
    band = pointwise_band(d1, gq, 0.9)
    curves = d1.curves(gq)
    qlo = np.quantile(curves, 0.05, axis=0)
    qhi = np.quantile(curves, 0.95, axis=0)
    quant = (np.allclose(band.lower, qlo, atol=1e-12)
             and np.allclose(band.upper, qhi, atol=1e-12))
    ok = ok and quant
    parts.append(f"band quantile oracle {quant}")

    # model-order recovery by DIC on a frequency-matched truth
    picks = []
    for seed in range(10):
        r = np.random.default_rng(1000 + seed)
        x = r.uniform(0.0, 1.0, 400)
        y = np.sin(8 * math.pi * x) + 0.5 * r.standard_normal(400)
        sel_cfg = McmcConfig(burnin=800, samples=800, seed=1000 + seed,
                             init="lsq")
        report, _ = select_K(Dataset(x[:, None], y), PriorConfig(), sel_cfg,
                             K_min=4, K_max=12)
        picks.append(report.selected_K)
    n_in = sum(6 <= k <= 10 for k in picks)
    ok = ok and n_in >= 7
    parts.append(f"DIC picks {picks}: {n_in}/10 in [6, 10] (need >= 7)")

    _report("ACCEPT-10", ok, "; ".join(parts))
