"""In-repo comparators: Nadaraya-Watson, local polynomial regression, and
rescaled Gaussian-process MCMC with a hyperprior on the range parameter.

The GP chain deliberately pays the classical cost: every accepted move of
the range parameter refactorizes the n-by-n covariance matrix.  Runtime
and factorization counts are recorded so the cost gap against the kernel
mixture sampler is measurable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .core import KernelSpec

GP_COVARIANCES = ("squared_exponential", "matern32", "matern52")


@dataclass
class LocalFitConfig:
    degree: int = 0            # 0 reproduces Nadaraya-Watson exactly
    kernel: str = "bump"
    bandwidth: float | None = None   # None -> leave-one-out CV on a log grid
    cv_points: int = 20
    cv_lo: float = 0.01
    cv_hi: float = 0.5

    def __post_init__(self):
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")


def _kernel_weights(spec: KernelSpec, x, x0):
    return spec.profile(np.abs(x - x0) / spec.h)


def nw_estimate(data, cfg: LocalFitConfig, xgrid):
    """Nadaraya-Watson local average on a grid.

    Grid points with an empty kernel neighborhood get NaN (flagged missing).
    """
    h = cfg.bandwidth if cfg.bandwidth is not None else cv_bandwidth(data, cfg)
    spec = KernelSpec(cfg.kernel, h)
    x = data.x.ravel()
    xgrid = np.asarray(xgrid, dtype=float).ravel()
    out = np.empty(xgrid.shape[0])
    for g, x0 in enumerate(xgrid):
        w = _kernel_weights(spec, x, x0)
        total = w.sum()
        out[g] = np.nan if total == 0.0 else float(w @ data.y) / total
    return out


def local_poly_estimate(data, cfg: LocalFitConfig, xgrid):
    """Local polynomial regression of the configured degree on a grid."""
    h = cfg.bandwidth if cfg.bandwidth is not None else cv_bandwidth(data, cfg)
    spec = KernelSpec(cfg.kernel, h)
    x = data.x.ravel()
    xgrid = np.asarray(xgrid, dtype=float).ravel()
    out = np.empty(xgrid.shape[0])
    for g, x0 in enumerate(xgrid):
        out[g] = _local_poly_point(spec, x, data.y, x0, cfg.degree)
    return out


def _local_poly_point(spec, x, y, x0, degree, omit=None):
    w = _kernel_weights(spec, x, x0)
    if omit is not None:
        w = w.copy()
        w[omit] = 0.0
    keep = w > 0
    if not np.any(keep):
        return np.nan
    xs, ys, ws = x[keep], y[keep], w[keep]
    if degree == 0:
        return float(ws @ ys / ws.sum())
    d = xs - x0
    V = np.vander(d, degree + 1, increasing=True)
    sw = np.sqrt(ws)
    A = V * sw[:, None]
    b = ys * sw
    gram = A.T @ A
    try:
        coef = np.linalg.solve(gram, A.T @ b)
    except np.linalg.LinAlgError:
        # singular local system: tiny ridge fallback
        coef = np.linalg.solve(gram + 1e-10 * np.eye(gram.shape[0]), A.T @ b)
    return float(coef[0])


def cv_bandwidth(data, cfg: LocalFitConfig):
    """Leave-one-out CV over a log-spaced bandwidth grid."""
    x = data.x.ravel()
    grid = np.exp(np.linspace(math.log(cfg.cv_lo), math.log(cfg.cv_hi),
                              cfg.cv_points))
    best_h, best_err = grid[-1], np.inf
    for h in grid:
        spec = KernelSpec(cfg.kernel, h)
        err = 0.0
        count = 0
        for i in range(data.n):
            pred = _local_poly_point(spec, x, data.y, x[i], cfg.degree, omit=i)
            if np.isfinite(pred):
                err += (pred - data.y[i]) ** 2
                count += 1
        if count == 0:
            continue
        err /= count
        if err < best_err:
            best_h, best_err = h, err
    return float(best_h)


@dataclass
class GpConfig:
    covariance: str = "squared_exponential"
    a_psi: float = 2.0
    b_psi: float = 2.0
    sigma: float = 0.1         # noise sd, known per experiment
    burnin: int = 1000
    samples: int = 1000
    seed: int = 0
    jitter: float = 1e-8
    step: float = 0.3          # random-walk step on log psi
    psi_init: float = 0.3

    def __post_init__(self):
        if self.covariance not in GP_COVARIANCES:
            raise ValueError(f"unknown covariance {self.covariance!r}")
        if self.a_psi < 2 or self.b_psi < 2:
            raise ValueError("need a_psi, b_psi >= 2")


def gp_covariance(cfg: GpConfig, d, psi=1.0):
    """Covariance value at distance d for the configured family."""
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    return _cov_value(cfg.covariance, d, psi)


def _cov_value(family, d, psi):
    if psi <= 0:
        raise ValueError("range parameter must be positive")
    if family == "squared_exponential":
        return np.exp(-(d**2) / psi**2)
    if family == "matern32":
        u = math.sqrt(3.0) * d / psi
        return (1.0 + u) * np.exp(-u)
    u = math.sqrt(5.0) * d / psi
    return (1.0 + u + 5.0 * d**2 / (3.0 * psi**2)) * np.exp(-u)


def gp_marginal_loglik(y, dist, cfg: GpConfig, psi, sigma=None):
    """Marginal Gaussian log-likelihood of y under K_psi + sigma^2 I."""
    sigma = cfg.sigma if sigma is None else sigma
    n = y.shape[0]
    C = _cov_value(cfg.covariance, dist, psi)
    C = C + (sigma**2 + cfg.jitter) * np.eye(n)
    return _chol_loglik(y, cholesky(C, lower=True))


def _chol_loglik(y, low):
    """Gaussian log-likelihood of y given the Cholesky factor of its covariance."""
    alpha = solve_triangular(low, y, lower=True)
    return float(-0.5 * float(alpha @ alpha) - np.sum(np.log(np.diag(low)))
                 - 0.5 * y.shape[0] * math.log(2 * math.pi))


@dataclass
class GpFit:
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    psi_draws: np.ndarray
    accept_rate: float
    runtime_s: float
    n_factorizations: int
    meta: dict = field(default_factory=dict)


def rescaled_gp_fit(data, cfg: GpConfig, xgrid, level=0.95) -> GpFit:
    """Metropolis random walk on log psi against the marginal likelihood.

    Per retained draw the GP conditional mean/variance on the grid is
    computed (cached across repeats of the same psi); bands are empirical
    quantiles over one sampled curve per draw.  Wall-clock time and the
    number of n-by-n factorizations are recorded.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    x = data.x.ravel()
    y = data.y
    n = data.n
    g = np.asarray(xgrid, dtype=float).ravel()
    dist_xx = np.abs(x[:, None] - x[None, :])
    dist_gx = np.abs(g[:, None] - x[None, :])
    n_fact = 0

    def factorize(psi):
        nonlocal n_fact
        C = _cov_value(cfg.covariance, dist_xx, psi)
        C = C + (cfg.sigma**2 + cfg.jitter) * np.eye(n)
        jitter = cfg.jitter
        for _ in range(6):
            try:
                low = cholesky(C + (jitter - cfg.jitter) * np.eye(n), lower=True)
                n_fact += 1
                return low
            except np.linalg.LinAlgError:
                jitter *= 100.0
        raise np.linalg.LinAlgError("covariance factorization failed at max jitter")

    def log_target(psi, low):
        log_prior = -(cfg.a_psi + 1.0) * math.log(psi) - cfg.b_psi / psi
        return _chol_loglik(y, low) + log_prior

    theta = math.log(cfg.psi_init)
    low = factorize(math.exp(theta))
    # + theta: Jacobian of the log transform
    cur = log_target(math.exp(theta), low) + theta
    accepted = 0
    psis = []
    curves = np.empty((cfg.samples, g.shape[0]))
    means = np.empty((cfg.samples, g.shape[0]))
    cached_psi = None
    cached_pred = None
    for it in range(cfg.burnin + cfg.samples):
        prop = theta + cfg.step * rng.normal()
        psi_prop = math.exp(prop)
        try:
            low_prop = factorize(psi_prop)
            cand = log_target(psi_prop, low_prop) + prop
        except np.linalg.LinAlgError:
            cand = -np.inf
        if math.log(rng.uniform()) < cand - cur:
            theta, cur, low = prop, cand, low_prop
            accepted += 1
        if it >= cfg.burnin:
            t = it - cfg.burnin
            psi = math.exp(theta)
            psis.append(psi)
            if cached_psi != psi:
                kgx = _cov_value(cfg.covariance, dist_gx, psi)
                half = solve_triangular(low, kgx.T, lower=True)  # (n, G)
                mean = half.T @ solve_triangular(low, y, lower=True)
                var = np.maximum(1.0 - np.einsum("ij,ij->j", half, half), 0.0)
                cached_psi, cached_pred = psi, (mean, np.sqrt(var))
            mean, sd = cached_pred
            means[t] = mean
            curves[t] = mean + sd * rng.standard_normal(g.shape[0])
    alpha_q = (1.0 - level) / 2.0
    fit = GpFit(
        mean=means.mean(axis=0),
        lower=np.quantile(curves, alpha_q, axis=0),
        upper=np.quantile(curves, 1.0 - alpha_q, axis=0),
        psi_draws=np.array(psis),
        accept_rate=accepted / (cfg.burnin + cfg.samples),
        runtime_s=time.perf_counter() - t0,
        n_factorizations=n_fact,
        meta={"covariance": cfg.covariance, "sigma": cfg.sigma},
    )
    return fit
