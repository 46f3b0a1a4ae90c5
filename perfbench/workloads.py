"""Workload inputs and correctness checks.

Every workload draws its data from the run seed with a closed-form truth,
so the program receives only generated inputs and the checks can compare
against the known answer.  All workloads use the bump kernel with m = 2
and a least-squares warm start.  Tolerances are statistical, never
bit-exact, except for the chain CSV round trip, which the file format
promises to be exact.

Sizes are chosen so that one pass of a workload takes a few seconds on a
2-core machine, which lets a run of the benchmark's length repeat it five
or more times and report medians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from kmpoly import plm, sampler, summaries
from kmpoly.dataset import Dataset
from kmpoly.priors import PriorConfig

NOISE_SD = 0.3
# the posterior-mean curve's MSE must stay below this share of the truth's
# variance over the grid, i.e. it explains at least 90% of the truth; over
# 45 seeds the coarsest fit, plm_surface (K=4 in 2-D), reached 0.050, and
# the 1-D workloads at most 0.022
MSE_SHARE = 0.10
# PLM beta intervals: posterior mean +- this many posterior sds; short
# chains put the largest of the eight |z| near 3 on some seeds
BETA_Z = 6.0
# select_k: low noise, so that the sin(8 pi x) truth (four periods) needs
# K >= 8 and the summaries run on draws of a similar size on every seed
SELECT_K_NOISE_SD = 0.1
SELECT_K_WINDOW = (8, 12)


@dataclass
class Case:
    """One workload's inputs, its fit, and what its outputs must satisfy."""

    data: Dataset
    truth: Callable            # true regression curve (eta for the PLM)
    grid: np.ndarray           # band grid, also where the MSE is taken
    xnew: np.ndarray           # points given to predict
    sweeps: int                # MCMC sweeps in one fit call
    fit: Callable              # () -> (draws, extra) from one public fit call
    check_fit: Callable        # (draws, extra) -> list of failures
    calls: dict                # metric -> summary calls in a pass
    fit_in_setup: bool = False  # summaries_1d: the chain is built in set-up

    def dic_data(self, draws):
        """Data whose response the draws' curves model."""
        if draws.beta is None:
            return self.data
        return Dataset(self.data.x, self.data.y - self.data.z @ draws.beta.mean(axis=0))


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _grid_1d(n):
    return np.linspace(0.0, 1.0, n)


def _no_check(draws, extra):
    return []


def _calls(band, chain_io, dic, predict):
    """Calls in a pass, so that each summary step takes about 0.5 s on one
    2.1 GHz core, and the CSV round trip, the noisiest, about 1 s where
    the pass has room for it."""
    return {"band_s": band, "chain_io_s": chain_io, "dic_s": dic, "predict_s": predict}


def _chain_case(seed, stream, n, K, truth, burnin, samples, npredict, calls,
                fit_in_setup=False):
    rng = _rng(seed, stream)
    x = rng.uniform(0.0, 1.0, size=(n, 1))
    y = truth(x[:, 0]) + NOISE_SD * rng.standard_normal(n)
    data = Dataset(x, y)
    cfg = sampler.McmcConfig(burnin=burnin, samples=samples, seed=seed, init="lsq")
    prior = PriorConfig()

    def fit():
        return sampler.run_chain(cfg, prior, K, data), None

    return Case(data, truth, _grid_1d(200), np.linspace(0.05, 0.95, npredict),
                burnin + samples, fit, _no_check, calls, fit_in_setup=fit_in_setup)


def chain_1d_large(seed):
    """p=1, n=4000, K=16: the sampler does almost all of the work."""
    return _chain_case(seed, 1, n=4000, K=16,
                       truth=lambda x: 2.5 * np.exp(-x) * np.sin(10.0 * math.pi * x),
                       burnin=200, samples=100, npredict=10,
                       calls=_calls(band=12, chain_io=64, dic=2, predict=4))


def summaries_1d(seed):
    """p=1, n=500, K=8: a 1000-draw chain built in set-up, summaries timed."""
    return _chain_case(seed, 2, n=500, K=8,
                       truth=lambda x: np.sin(2.0 * math.pi * x) + x,
                       burnin=200, samples=1000, npredict=50,
                       calls=_calls(band=2, chain_io=8, dic=2, predict=1),
                       fit_in_setup=True)


def select_k(seed):
    """p=1, n=400: select_K over K=4..12 with short chains."""
    rng = _rng(seed, 3)
    n = 400
    truth = lambda x: np.sin(8.0 * math.pi * x)
    x = rng.uniform(0.0, 1.0, size=(n, 1))
    y = truth(x[:, 0]) + SELECT_K_NOISE_SD * rng.standard_normal(n)
    data = Dataset(x, y)
    cfg = sampler.McmcConfig(burnin=100, samples=100, seed=seed, init="lsq")
    prior = PriorConfig()
    k_lo, k_hi = 4, 12

    def fit():
        report, draws = summaries.select_K(data, prior, cfg, k_lo, k_hi)
        return draws, report

    def check_fit(draws, report):
        out = []
        if report.meta["failures"]:
            out.append(f"select_K chains failed: {report.meta['failures']}")
        lo, hi = SELECT_K_WINDOW
        if not lo <= report.selected_K <= hi:
            out.append(f"select_K chose K={report.selected_K}, outside [{lo}, {hi}]")
        return out

    sweeps = (k_hi - k_lo + 1) * (cfg.burnin + cfg.samples)
    return Case(data, truth, _grid_1d(200), np.linspace(0.05, 0.95, 10),
                sweeps, fit, check_fit,
                _calls(band=12, chain_io=80, dic=16, predict=4))


def plm_surface(seed):
    """p=2, n=1000, K=4, q=8 linear covariates, sigma estimated."""
    rng = _rng(seed, 4)
    n, q, K = 1000, 8, 4
    beta = np.linspace(-1.0, 1.0, q)
    truth = lambda x: np.sin(2.0 * math.pi * x[:, 0]) * np.cos(math.pi * x[:, 1])
    x = rng.uniform(0.0, 1.0, size=(n, 2))
    z = rng.standard_normal((n, q))
    y = z @ beta + truth(x) + NOISE_SD * rng.standard_normal(n)
    data = Dataset(x, y, z=z)
    cfg = sampler.McmcConfig(burnin=150, samples=100, seed=seed, init="lsq")
    prior = PriorConfig()

    def fit():
        return plm.run_plm_chain(cfg, prior, K, data, estimate_sigma=True), None

    def check_fit(draws, extra):
        mean = draws.beta.mean(axis=0)
        sd = draws.beta.std(axis=0, ddof=1)
        miss = np.flatnonzero(np.abs(mean - beta) > BETA_Z * sd)
        if miss.size:
            return [f"beta interval misses the truth at indices {miss.tolist()}"]
        return []

    axis = (np.arange(12) + 0.5) / 12.0
    grid = np.array([(a, b) for a in axis for b in axis])
    xnew = np.column_stack([np.linspace(0.1, 0.9, 10), np.linspace(0.9, 0.1, 10)])
    return Case(data, truth, grid, xnew, cfg.burnin + cfg.samples, fit,
                check_fit, _calls(band=6, chain_io=32, dic=2, predict=4))


WORKLOADS = {
    "chain_1d_large": chain_1d_large,
    "summaries_1d": summaries_1d,
    "select_k": select_k,
    "plm_surface": plm_surface,
}


def check_bands(case, point, l2set):
    """Band ordering, and the posterior mean against the truth."""
    out = []
    for band in (point, l2set):
        if not (np.all(np.isfinite(band.lower)) and np.all(np.isfinite(band.upper))):
            out.append(f"{band.kind} band is not finite")
        elif not (np.all(band.lower <= band.mean) and np.all(band.mean <= band.upper)
                  and np.any(band.lower < band.upper)):
            out.append(f"{band.kind} band is out of order")
    truth = case.truth(case.grid)
    mse = float(np.mean((point.mean - truth) ** 2))
    if not mse <= MSE_SHARE * float(np.var(truth)):
        out.append(f"posterior-mean MSE {mse:.4g} above {MSE_SHARE} of the truth's variance")
    return out


def check_dic(parts):
    if parts["variant"] != "plugin" or not math.isfinite(parts["dic"]):
        return [f"DIC is not a finite plug-in value: {parts}"]
    if not parts["p_dic"] > 0:
        return [f"non-positive effective parameter count {parts['p_dic']}"]
    return []


def check_predict(mean, lo, hi):
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
            and np.all(lo < mean) and np.all(mean < hi)):
        return ["predictive interval does not contain the predictive mean"]
    return []


def check_round_trip(before, after):
    """Every stored number must come back bit for bit."""
    pairs = [
        (np.array([d.h for d in before.draws]), np.array([d.h for d in after.draws])),
        (np.array([d.mu for d in before.draws]), np.array([d.mu for d in after.draws])),
        (np.array([d.xi for d in before.draws]), np.array([d.xi for d in after.draws])),
        (before.sigmas(), after.sigmas()),
        (before.loglik, after.loglik),
        (before.logpost, after.logpost),
    ]
    if before.beta is not None:
        pairs.append((before.beta, after.beta))
    if after.K != before.K or any(a.shape != b.shape or not np.array_equal(a, b)
                                  for a, b in pairs):
        return ["chain CSV round trip is not bit-exact"]
    return []
