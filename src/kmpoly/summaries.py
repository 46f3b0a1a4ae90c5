"""Posterior summaries: pointwise bands, L2-credible sets, DIC and prediction.

All summaries are pure functions of an immutable draw set.  The L2 norm of
a curve is approximated by its root mean square over the evaluation grid,
which matches the L2(P_x) norm for a uniform design; supply ``weights``
for a known non-uniform design density.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .io_utils import atomic_write, write_json
from .priors import PriorConfig
from .sampler import McmcConfig, PosteriorDraws, _loglik_resid, run_chain


@dataclass
class CredibleSummary:
    """Evaluation grid with posterior mean and band envelopes."""

    grid: np.ndarray
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    kind: str                  # "pointwise" or "l2set"
    radius: float | None = None   # gamma_n for the l2set kind

    def __post_init__(self):
        if not np.all(self.lower <= self.mean + 1e-12):
            raise ValueError("lower envelope exceeds the mean")
        if not np.all(self.mean <= self.upper + 1e-12):
            raise ValueError("mean exceeds the upper envelope")

    def width(self):
        return self.upper - self.lower

    def to_csv(self, path, json_path=None):
        g = np.atleast_2d(np.asarray(self.grid, dtype=float))
        if g.shape[0] == 1:
            g = g.T
        cols = [f"x{j+1}" for j in range(g.shape[1])] + ["mean", "lower", "upper"]
        lines = [",".join(cols)]
        for i in range(g.shape[0]):
            cells = [repr(float(v)) for v in g[i]]
            cells += [repr(float(self.mean[i])), repr(float(self.lower[i])),
                      repr(float(self.upper[i]))]
            lines.append(",".join(cells))
        atomic_write(path, "\n".join(lines) + "\n")
        if json_path is not None:
            write_json(json_path, {"level": self.level, "kind": self.kind,
                                   "radius": self.radius})


def pointwise_band(draws: PosteriorDraws, grid, level=0.95) -> CredibleSummary:
    """Per-point posterior mean and central empirical quantile band."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if len(draws) == 0:
        raise ValueError("no draws")
    curves = draws.curves(grid)
    mean = curves.mean(axis=0)
    lo = np.quantile(curves, (1.0 - level) / 2.0, axis=0)
    hi = np.quantile(curves, (1.0 + level) / 2.0, axis=0)
    return CredibleSummary(np.asarray(grid), mean, lo, hi, level, "pointwise")


def grid_l2_norms(curves, center, weights=None):
    """Grid-approximated L2(P_x) distances of each curve from ``center``."""
    diff = curves - center[None, :]
    if weights is None:
        return np.sqrt(np.mean(diff**2, axis=1))
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    return np.sqrt(diff**2 @ w)


def l2_credible_set(draws: PosteriorDraws, grid, level=0.95,
                    weights=None) -> CredibleSummary:
    """Envelope band of the draws within the level-quantile L2 radius of the
    posterior mean curve.

    The credible set contains the posterior mean curve by construction
    (its distance from itself is zero), so the mean participates in the
    envelope alongside the retained draws.
    """
    if len(draws) < 2:
        raise ValueError("need at least 2 draws for an L2-credible set")
    curves = draws.curves(grid)
    fhat = curves.mean(axis=0)
    norms = grid_l2_norms(curves, fhat, weights)
    radius = float(np.quantile(norms, level))
    keep = norms <= radius
    kept = curves[keep]
    lo = np.minimum(kept.min(axis=0), fhat)
    hi = np.maximum(kept.max(axis=0), fhat)
    return CredibleSummary(np.asarray(grid), fhat, lo, hi, level, "l2set",
                           radius=radius)


def _mean_params(draws: PosteriorDraws):
    """Plug-in parameter: posterior means of xi, mu-tilde, Kh and sigma.

    Averaging mu-tilde (not mu) and Kh keeps the plug-in feasible.
    """
    first = draws.draws[0]
    K = first.grid.K
    xi = np.mean([d.xi for d in draws.draws], axis=0)
    mt = np.mean([d.mu_tilde for d in draws.draws], axis=0)
    kh = float(np.mean([K * d.h for d in draws.draws]))
    sigma = float(np.mean([d.sigma for d in draws.draws]))
    mu = first.grid.block_centers + mt / (2.0 * K)
    from .core import KmpParams

    return KmpParams(first.grid, kh / K, mu, xi, sigma, first.m, first.kernel)


def dic(draws: PosteriorDraws, data) -> float:
    """Deviance information criterion, plug-in variant:
    DIC = -2 l(theta_bar) + 2 p_DIC with p_DIC = 2 [l(theta_bar) - mean l].

    The plug-in is taken in curve space -- the posterior-mean regression
    curve at the observed design points with the posterior-mean sigma --
    rather than at the posterior-mean parameter.  Block centers have a
    multimodal posterior (blocks are exchangeable in how they cover a
    feature), so an averaged center vector can be a meaningless parameter,
    while the mean curve is always well defined and, by convexity, fits at
    least as well as a typical draw.  Falls back to the variance-based
    effective-parameter count if the plug-in log-likelihood is not finite.
    """
    return dic_parts(draws, data)["dic"]


def dic_parts(draws: PosteriorDraws, data) -> dict:
    mean_ll = float(np.mean(draws.loglik))
    fhat = draws.curves(data.x).mean(axis=0)
    sigma_bar = float(np.mean(draws.sigmas()))
    with np.errstate(all="ignore"):
        ll_bar = float(_loglik_resid(data.y - fhat, sigma_bar))
    if np.isfinite(ll_bar):
        p_dic = 2.0 * (ll_bar - mean_ll)
        variant = "plugin"
    else:
        # variance-based fallback, flagged via the variant field
        p_dic = 2.0 * float(np.var(draws.loglik))
        ll_bar = mean_ll + p_dic / 2.0
        variant = "variance-fallback"
    return {
        "dic": -2.0 * ll_bar + 2.0 * p_dic,
        "mean_deviance": -2.0 * mean_ll,
        "p_dic": p_dic,
        "plugin_loglik": ll_bar,
        "variant": variant,
    }


@dataclass
class DicReport:
    """Per-K DIC table; the selected K attains the minimum."""

    rows: list
    selected_K: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        best = min(self.rows, key=lambda r: r["dic"])
        if best["K"] != self.selected_K:
            raise ValueError("selected K does not minimize DIC")

    def to_csv(self, path, json_path=None):
        cols = ["K", "dic", "mean_deviance", "p_dic"]
        lines = [",".join(cols)]
        for r in self.rows:
            lines.append(",".join(repr(float(r[c])) if c != "K" else str(r[c])
                                  for c in cols))
        atomic_write(path, "\n".join(lines) + "\n")
        if json_path is not None:
            write_json(json_path, {"selected_K": self.selected_K, **self.meta})


def select_K(data, prior: PriorConfig, cfg: McmcConfig, K_min=None, K_max=None):
    """One chain per K on a grid; returns (DicReport, draws at the best K).

    Deterministic given the base seed: the chain at K runs with seed
    ``cfg.seed + K``.
    """
    K_min = prior.K_min if K_min is None else K_min
    K_max = prior.K_max if K_max is None else K_max
    if K_min > K_max:
        raise ValueError("need K_min <= K_max")
    rows = []
    by_k = {}
    failures = {}
    for K in range(K_min, K_max + 1):
        try:
            draws = run_chain(dataclasses.replace(cfg, seed=cfg.seed + K),
                              prior, K, data)
        except (ValueError, FloatingPointError) as exc:
            failures[K] = str(exc)
            continue
        parts = dic_parts(draws, data)
        rows.append({"K": K, "dic": parts["dic"],
                     "mean_deviance": parts["mean_deviance"],
                     "p_dic": parts["p_dic"], "variant": parts["variant"]})
        by_k[K] = draws
    if not rows:
        raise RuntimeError(f"every chain failed: {failures}")
    best = min(rows, key=lambda r: r["dic"])["K"]
    report = DicReport(rows, best, meta={
        "dic_variant": "curve-space plugin, p_dic = 2*(plugin - mean loglik)",
        "base_seed": cfg.seed, "failures": failures,
    })
    return report, by_k[best]


def predict(draws: PosteriorDraws, xnew, level=0.95):
    """Posterior predictive mean and central interval at new points.

    The predictive law at a point is the Gaussian mixture over draws
    y* = f_t(x*) + N(0, sigma_t^2); interval endpoints come from inverting
    the mixture CDF on a fine response grid.  Returns (mean, lower, upper).
    """
    f = draws.curves(xnew)                       # (T, G)
    sig = draws.sigmas()
    mean = f.mean(axis=0)
    alpha = (1.0 - level) / 2.0
    if np.max(sig) < 1e-12:
        lo = np.quantile(f, alpha, axis=0)
        hi = np.quantile(f, 1.0 - alpha, axis=0)
        return mean, lo, hi
    lo = np.empty_like(mean)
    hi = np.empty_like(mean)
    for g in range(f.shape[1]):
        fg = f[:, g]
        span_lo = float(np.min(fg) - 8.0 * np.max(sig))
        span_hi = float(np.max(fg) + 8.0 * np.max(sig))
        ys = np.linspace(span_lo, span_hi, 4001)
        z = (ys[None, :] - fg[:, None]) / np.maximum(sig, 1e-300)[:, None]
        cdf = special.ndtr(z).mean(axis=0)
        lo[g] = float(np.interp(alpha, cdf, ys))
        hi[g] = float(np.interp(1.0 - alpha, cdf, ys))
    return mean, lo, hi
