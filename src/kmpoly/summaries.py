"""Posterior summaries: pointwise bands, L2-credible sets, DIC and prediction.

All summaries are pure functions of an immutable draw set.  The L2 norm of
a curve is approximated by its root mean square over the evaluation grid,
which matches the L2(P_x) norm for a uniform design; supply ``weights``
for a known non-uniform design density.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import _pool
from .core import BATCH_ELEMENTS
from .io_utils import atomic_write, write_json
from .priors import PriorConfig
from .sampler import McmcConfig, PosteriorDraws, _loglik_resid, run_chain

_SQRT_2PI = math.sqrt(2.0 * math.pi)


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
    lo, hi = np.quantile(curves, [(1.0 - level) / 2.0, (1.0 + level) / 2.0], axis=0)
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
    envelope alongside the retained draws.  ``weights``, if given, holds one
    finite nonnegative value per grid point, with a positive sum.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if len(draws) < 2:
        raise ValueError("need at least 2 draws for an L2-credible set")
    curves = draws.curves(grid)
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != curves.shape[1:]:
            raise ValueError(f"weights must have shape {curves.shape[1:]}, "
                             f"one per grid point, not {w.shape}")
        if not (np.all(np.isfinite(w)) and np.all(w >= 0.0) and w.sum() > 0.0):
            raise ValueError("weights must be finite and nonnegative "
                             "with a positive sum")
    fhat = curves.mean(axis=0)
    norms = grid_l2_norms(curves, fhat, weights)
    radius = float(np.quantile(norms, level))
    keep = norms <= radius
    kept = curves[keep]
    lo = np.minimum(kept.min(axis=0), fhat)
    hi = np.maximum(kept.max(axis=0), fhat)
    return CredibleSummary(np.asarray(grid), fhat, lo, hi, level, "l2set",
                           radius=radius)


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
    sigma_bar = float(np.mean(draws.sigma))
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


def _fit_one_K(data, prior: PriorConfig, cfg: McmcConfig, K):
    """The chain at K, seeded ``cfg.seed + K``, and its DIC row; or, if the
    chain fails, the message of its error in place of both."""
    try:
        draws = run_chain(dataclasses.replace(cfg, seed=cfg.seed + K),
                          prior, K, data)
    except (ValueError, FloatingPointError) as exc:
        return str(exc)
    parts = dic_parts(draws, data)
    return draws, {"K": K, "dic": parts["dic"],
                   "mean_deviance": parts["mean_deviance"],
                   "p_dic": parts["p_dic"], "variant": parts["variant"]}


def select_K(data, prior: PriorConfig, cfg: McmcConfig, K_min=None, K_max=None):
    """One chain per K on a grid; returns (DicReport, draws at the best K).

    Deterministic given the base seed: the chain at K runs with seed
    ``cfg.seed + K``.  The chains run, largest K first, on one worker
    process per available CPU (at most one per K; see ``kmpoly._pool``),
    and the report, whose ``meta["workers"]`` records that count, is
    bit-identical to running them one after another.
    """
    K_min = prior.K_min if K_min is None else K_min
    K_max = prior.K_max if K_max is None else K_max
    if K_min > K_max:
        raise ValueError("need K_min <= K_max")
    ks = range(K_min, K_max + 1)
    n_workers = _pool.workers(len(ks))
    # a chain costs more the larger its K: starting those first leaves
    # the light ones to fill in at the end
    fits = _pool._map(functools.partial(_fit_one_K, data, prior, cfg),
                      ks[::-1], n_workers)[::-1]
    rows = []
    by_k = {}
    failures = {}
    for K, fit in zip(ks, fits):
        if isinstance(fit, str):
            failures[K] = fit
            continue
        by_k[K], row = fit
        rows.append(row)
    if not rows:
        raise RuntimeError(f"every chain failed: {failures}")
    best = min(rows, key=lambda r: r["dic"])["K"]
    report = DicReport(rows, best, meta={
        "dic_variant": "curve-space plugin, p_dic = 2*(plugin - mean loglik)",
        "base_seed": cfg.seed, "failures": failures,
        "workers": n_workers,
    })
    return report, by_k[best]


def predict(draws: PosteriorDraws, xnew, level=0.95):
    """Posterior predictive mean and central interval at new points.

    The predictive law at a point is the Gaussian mixture over draws
    y* = f_t(x*) + N(0, sigma_t^2), whose CDF F counts a draw with
    sigma_t = 0 as the right-continuous step 1{f_t <= y}.  Both interval
    endpoints at every point are found together by safeguarded Newton
    iteration on F (``rtsafe``, Numerical Recipes 9.4) inside the bracket
    [min_t f_t - 8 max sigma, max_t f_t + 8 max sigma], started from the
    mixture's normal approximation.  Each evaluation of F moves one end of
    its bracket; the next point is the Newton point, pushed a quarter of
    the tolerance further so that the bracket closes from both sides, or
    the bracket's midpoint if that point is not finite, lies outside the
    bracket or is further from the current point than half the previous
    bracket's width.  The iteration stops once every bracket is narrower
    than 1e-10 * max(1, max sigma) (or than the float spacing of its
    ends).  It runs at most twice the bisection count for that tolerance,
    and bisects once the iterations left only suffice for bisection, so
    every bracket meets it.  The lower endpoint is the final bracket's left
    end and the upper its right end, so the interval holds the exact
    quantile interval, jumps of F included, and is wider by less than the
    tolerance at each end.  If every sigma is below 1e-12 the endpoints are
    empirical quantiles of the curves.  Returns (mean, lower, upper).
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if len(draws) == 0:
        raise ValueError("no draws")
    f = draws.curves(xnew)                       # (T, G)
    sig = draws.sigma
    mean = f.mean(axis=0)
    alpha = (1.0 - level) / 2.0
    if np.max(sig) < 1e-12:
        lo = np.quantile(f, alpha, axis=0)
        hi = np.quantile(f, 1.0 - alpha, axis=0)
        return mean, lo, hi
    T, G = f.shape
    sig_max = float(np.max(sig))
    tol = 1e-10 * max(1.0, sig_max)
    smooth = sig > 0
    scale = sig[smooth][:, None, None]
    target = np.array([[alpha], [1.0 - alpha]])  # (2, 1): lower, upper
    # normal approximation to the mixture's quantiles, the starting points
    spread = special.ndtri(1.0 - alpha) * np.array([[-1.0], [1.0]])
    sd = np.sqrt(f.var(axis=0) + np.mean(sig**2))
    ends = np.empty((2, G))
    step = max(1, BATCH_ELEMENTS // (2 * T))
    for a in range(0, G, step):
        fc = f[:, None, a:a + step]              # (T, 1, g)
        fs, fz = fc[smooth], fc[~smooth]
        left = np.repeat(fc.min(axis=0) - 8.0 * sig_max, 2, axis=0)
        right = np.repeat(fc.max(axis=0) + 8.0 * sig_max, 2, axis=0)
        # the CDF is below target at left and reaches it at right
        cap = 2 * max(0, math.ceil(math.log2(float(np.max(right - left)) / tol)))
        x = np.clip(mean[a:a + step] + spread * sd[a:a + step], left, right)
        with np.errstate(all="ignore"):          # tails: inf z, zero density
            for it in range(cap):
                z = (x - fs) / scale
                cdf = (special.ndtr(z).sum(axis=0) + (fz <= x).sum(axis=0)) / T
                dens = (np.exp(-0.5 * z * z) / scale).sum(axis=0) / (T * _SQRT_2PI)
                below = cdf < target
                old_width = right - left
                left = np.where(below, x, left)
                right = np.where(below, right, x)
                width = right - left
                spacing = np.spacing(np.maximum(np.abs(left), np.abs(right)))
                if np.all((width <= tol) | (width <= spacing)):
                    break
                # overshoot by tol / 4 so that the bracket closes from both sides
                newton = x - (cdf - target) / dens + np.where(below, tol, -tol) / 4.0
                # a Newton point that fails to shrink the bracket must leave
                # enough iterations to bisect it below tol
                budget = cap - it - 2 >= np.log2(width / tol)
                take = (np.isfinite(newton) & (left < newton) & (newton < right)
                        & (np.abs(newton - x) <= 0.5 * old_width) & budget)
                x = np.where(take, newton, 0.5 * (left + right))
        ends[0, a:a + step] = left[0]
        ends[1, a:a + step] = right[1]
    return mean, ends[0], ends[1]
