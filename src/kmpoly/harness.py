"""Simulation harness: ground truths, coverage replications, benchmarks.

Seeding convention: replicate r of a scenario with base seed s uses seed
s + r everywhere (data generation and samplers), so every replicate is
reproducible in isolation.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import _pool
from .baselines import GpConfig, rescaled_gp_fit
from .dataset import Dataset
from .fixed_design import conjugate_fit
from .priors import PriorConfig
from .sampler import McmcConfig, run_chain
from .summaries import l2_credible_set, pointwise_band, select_K

# Linear coefficients used by the partial-linear simulation scenario.
PLM_BETA0 = np.array([1.0338, 0.1346, 0.2854, 0.6675,
                      0.6732, 0.5293, -0.5073, -3.3942])


def truth_volterra(x, terms=1_000_000, chunk=4000):
    """Random-series regression truth evaluated by direct summation:

        f0(x) = sqrt(2) * sum_{s>=1} s^(-3/2) sin(s) cos((s - 1/2) pi x).

    The tail beyond S terms is bounded by sqrt(2) * sum_{s>S} s^(-3/2)
    <= 2 sqrt(2) / sqrt(S) (about 2.8e-3 at S = 1e6; the oscillating signs
    make the realized tail far smaller).  Summation is chunked to keep the
    intermediate (nx, chunk) arrays small.
    """
    x = np.asarray(x, dtype=float).ravel()
    if terms < 1:
        raise ValueError("need at least one series term")
    out = np.zeros(x.shape[0])
    for start in range(1, terms + 1, chunk):
        s = np.arange(start, min(start + chunk, terms + 1), dtype=float)
        coef = s**-1.5 * np.sin(s)
        out += np.cos(np.outer(x, (s - 0.5) * math.pi)) @ coef
    return math.sqrt(2.0) * out


def truth_plm_eta(x):
    """Nonparametric component of the partial-linear scenario:
    2.5 exp(-x) sin(10 pi x)."""
    x = np.asarray(x, dtype=float).ravel()
    return 2.5 * np.exp(-x) * np.sin(10.0 * math.pi * x)


@dataclass
class ScenarioSpec:
    """Declarative description of one simulation scenario."""

    truth: str = "volterra"          # "volterra" | "plm"
    n: int = 500
    noise_sd: float = 0.1
    replicates: int = 100
    base_seed: int = 0
    grid_size: int = 1000            # evaluation at equidistant design points
    truth_terms: int = 100_000       # series truncation for the volterra truth
    level: float = 0.95
    K: int | None = None             # fixed K; None -> DIC-select on replicate 0
    burnin: int = 1000
    samples: int = 1000
    init: str = "lsq"                # warm-started coefficients by default
    coverage_windows: dict = field(default_factory=lambda: {
        "bump": (0.30, 0.35), "flat": (0.50, 0.90)})

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0, 1)")

    def grid(self):
        return np.linspace(0.0, 1.0, self.grid_size)

    def truth_meta(self):
        """Provenance notes for the analytic truth (reported in outputs)."""
        if self.truth == "volterra":
            return {"truth_terms": self.truth_terms,
                    "series_tail_bound": 2.0 * math.sqrt(2.0 / self.truth_terms)}
        return {"eta0_amplitude": 2.5}

    def truth_values(self, x):
        if self.truth == "volterra":
            return truth_volterra(x, terms=self.truth_terms)
        if self.truth == "plm":
            return truth_plm_eta(x)
        raise ValueError(f"unknown truth {self.truth!r}")

    def simulate(self, seed) -> Dataset:
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, size=(self.n, 1))
        f0 = self.truth_values(x.ravel())
        y = f0 + self.noise_sd * rng.standard_normal(self.n)
        if self.truth == "plm":
            z = rng.uniform(-1.0, 1.0, size=(self.n, PLM_BETA0.shape[0]))
            y = y + z @ PLM_BETA0
            return Dataset(x, y, z=z)
        return Dataset(x, y)


@dataclass
class CoverageReport:
    """Replicated coverage/width study on a fixed evaluation grid."""

    grid: np.ndarray
    coverage: dict               # estimator -> per-grid-point coverage rate
    width: dict                  # estimator -> per-grid-point mean width
    windows: dict                # estimator -> {window: mean coverage}
    n_success: int
    n_replicates: int
    failures: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "grid": self.grid.tolist(),
            "coverage": {k: v.tolist() for k, v in self.coverage.items()},
            "width": {k: v.tolist() for k, v in self.width.items()},
            "windows": self.windows,
            "n_success": self.n_success,
            "n_replicates": self.n_replicates,
            "failures": self.failures,
            "meta": self.meta,
        }


def _window_mean(grid, values, lo, hi):
    mask = (grid >= lo) & (grid <= hi)
    if not np.any(mask):
        raise ValueError(f"window [{lo}, {hi}] contains no grid points")
    return float(np.mean(values[mask]))


def _replicate(spec: ScenarioSpec, prior: PriorConfig, estimators, grid, f0,
               K, r):
    """Replicate r of a coverage study: returns (K, outcome).

    The outcome maps each estimator to its containment indicator and band
    width on the grid, or is the error message if the replicate failed.
    With K None and a chain-based estimator, K is first selected by DIC on
    this replicate's data, and the selection is returned even if a later
    step fails.
    """
    seed = spec.base_seed + r
    try:
        data = spec.simulate(seed)
        bands = {}
        if {"kmp_pointwise", "kmp_l2set"} & set(estimators):
            cfg = McmcConfig(burnin=spec.burnin, samples=spec.samples,
                             seed=seed, init=spec.init)
            if K is None:
                report, draws = select_K(data, prior, cfg)
                K = report.selected_K
            else:
                draws = run_chain(cfg, prior, K, data)
            if "kmp_pointwise" in estimators:
                bands["kmp_pointwise"] = pointwise_band(draws, grid, spec.level)
            if "kmp_l2set" in estimators:
                bands["kmp_l2set"] = l2_credible_set(draws, grid, spec.level)
        if "conjugate" in estimators:
            post = conjugate_fit(data)
            _, lo, hi = post.pointwise_band(grid, spec.level)
            bands["conjugate"] = _Band(lo, hi)
    except (ValueError, FloatingPointError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        return K, f"{type(exc).__name__}: {exc}"
    return K, {e: ((b.lower <= f0) & (f0 <= b.upper), b.upper - b.lower)
               for e, b in bands.items()}


def run_coverage(spec: ScenarioSpec, prior: PriorConfig | None = None,
                 estimators=("kmp_pointwise", "kmp_l2set")) -> CoverageReport:
    """Coverage and width of credible bands over independent replicates.

    Per replicate and estimator, the per-grid-point containment indicator
    lower <= f0 <= upper is recorded; rates are averaged over successful
    replicates pointwise, then over each reporting window.  Replicates
    that raise are recorded and skipped; at least 90% must succeed.

    With ``spec.K`` None, K is selected by DIC on the first replicate that
    gets that far and reused afterwards.  The remaining replicates run on
    one worker process per available CPU (at most one per replicate; see
    ``kmpoly._pool``), recorded in ``meta["workers"]``, and are summed in
    replicate order, so the report is bit-identical to a serial loop.
    """
    prior = prior or PriorConfig()
    known = {"kmp_pointwise", "kmp_l2set", "conjugate"}
    unknown = set(estimators) - known
    if unknown:
        raise ValueError(f"unknown estimators: {sorted(unknown)}")
    grid = spec.grid()
    f0 = spec.truth_values(grid)
    needs_chain = bool({"kmp_pointwise", "kmp_l2set"} & set(estimators))

    replicate = functools.partial(_replicate, spec, prior, estimators, grid, f0)
    selected_K = spec.K
    outcomes = []
    while needs_chain and selected_K is None and len(outcomes) < spec.replicates:
        selected_K, outcome = replicate(None, len(outcomes))
        outcomes.append(outcome)
    rest = range(len(outcomes), spec.replicates)
    n_workers = _pool.workers(len(rest))
    outcomes += [out for _, out in
                 _pool._map(functools.partial(replicate, selected_K), rest,
                            n_workers)]

    hits = {e: np.zeros(grid.shape[0]) for e in estimators}
    widths = {e: np.zeros(grid.shape[0]) for e in estimators}
    failures = {}
    n_success = 0
    for r, outcome in enumerate(outcomes):
        if isinstance(outcome, str):
            failures[r] = outcome
            continue
        for e in estimators:
            hits[e] += outcome[e][0]
            widths[e] += outcome[e][1]
        n_success += 1
    if n_success < math.ceil(0.9 * spec.replicates):
        raise RuntimeError(
            f"only {n_success}/{spec.replicates} replicates succeeded: "
            f"{failures}")
    coverage = {e: hits[e] / n_success for e in estimators}
    width = {e: widths[e] / n_success for e in estimators}
    windows = {
        e: {name: _window_mean(grid, coverage[e], lo, hi)
            for name, (lo, hi) in spec.coverage_windows.items()}
        for e in estimators
    }
    return CoverageReport(
        grid=grid, coverage=coverage, width=width, windows=windows,
        n_success=n_success, n_replicates=spec.replicates, failures=failures,
        meta={"scenario": asdict(spec), "selected_K": selected_K,
              "workers": n_workers,
              **spec.truth_meta(),
              "aggregation": "pointwise rates averaged over replicates, "
                             "then averaged within each window"},
    )


@dataclass
class _Band:
    lower: np.ndarray
    upper: np.ndarray


def run_benchmark(spec: ScenarioSpec, prior: PriorConfig | None = None,
                  gp_covariances=("squared_exponential", "matern32",
                                  "matern52"),
                  gp_step=0.3) -> dict:
    """One-dataset accuracy/runtime comparison at equal iteration budgets.

    Returns a JSON-shaped dict with, per method, the grid mean squared
    error against the truth and the wall-clock seconds of the full fit.
    """
    prior = prior or PriorConfig()
    grid = spec.grid()
    f0 = spec.truth_values(grid)
    data = spec.simulate(spec.base_seed)
    results = {}

    t0 = time.perf_counter()
    cfg = McmcConfig(burnin=spec.burnin, samples=spec.samples,
                     seed=spec.base_seed, init=spec.init)
    if spec.K is None:
        report, draws = select_K(data, prior, cfg)
        K = report.selected_K
    else:
        K = spec.K
        draws = run_chain(cfg, prior, K, data)
    mean_curve = draws.curves(grid).mean(axis=0)
    results["kmp"] = {
        "mse": float(np.mean((mean_curve - f0) ** 2)),
        "runtime_s": time.perf_counter() - t0,
        "K": K,
    }
    if spec.K is None:
        results["kmp"]["workers"] = report.meta["workers"]
    for cov in gp_covariances:
        gcfg = GpConfig(covariance=cov, sigma=spec.noise_sd,
                        burnin=spec.burnin, samples=spec.samples,
                        seed=spec.base_seed, step=gp_step)
        fit = rescaled_gp_fit(data, gcfg, grid, level=spec.level)
        results[f"gp_{cov}"] = {
            "mse": float(np.mean((fit.mean - f0) ** 2)),
            "runtime_s": fit.runtime_s,
            "accept_rate": fit.accept_rate,
            "n_factorizations": fit.n_factorizations,
        }
    return {
        "scenario": asdict(spec),
        "truth_meta": spec.truth_meta(),
        "iteration_budget": {"burnin": spec.burnin, "samples": spec.samples},
        "results": results,
    }
