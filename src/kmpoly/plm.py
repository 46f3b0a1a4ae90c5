"""Partial linear model y = z' beta + eta(x) + e with a KMP prior on eta.

The linear coefficients get an exact conjugate Gaussian update; the
nonparametric component is sampled by the standard sweep against the
current residuals.  In the theory-faithful mode the noise scale is fixed
at one; a practical mode resamples it (needed for real data).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .priors import PriorConfig
from .sampler import (McmcConfig, PosteriorDraws, _in_x_order, _initial_state,
                      _run_sweeps)
# not called here, but perfbench/spans.py wraps the sweep steps under these
# names in this module as well
from .sampler import gibbs_sigma, gibbs_xi, mh_h, mh_mu  # noqa: F401


@dataclass
class _ResidData:
    """x plus a mutable pseudo-response for the eta sub-sampler."""

    x: np.ndarray
    y: np.ndarray

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def p(self):
        return self.x.shape[1]


def beta_conditional(data, eta_curve, tau_beta, sigma=1.0):
    """Closed-form conditional of beta: returns (mean, chol_precision)."""
    if data.z is None:
        raise ValueError("dataset has no linear covariates")
    Z = data.z
    q = Z.shape[1]
    prec = np.eye(q) / tau_beta**2 + (Z.T @ Z) / sigma**2
    low, _ = cho_factor(prec, lower=True)
    low = np.tril(low)
    mean = cho_solve((low, True), Z.T @ (data.y - eta_curve) / sigma**2)
    return mean, low


def gibbs_beta(data, eta_curve, tau_beta, rng, sigma=1.0):
    """Exact conjugate Gaussian draw of beta given everything else."""
    mean, low = beta_conditional(data, eta_curve, tau_beta, sigma)
    z = rng.standard_normal(mean.shape[0])
    return mean + solve_triangular(low.T, z, lower=False)


def run_plm_chain(cfg: McmcConfig, prior: PriorConfig, K: int, data,
                  estimate_sigma=False) -> PosteriorDraws:
    """Joint chain over (beta, eta); deterministic given the seed.

    Each sweep of the shared sampler loop first draws beta from its exact
    conditional, then runs the standard eta steps against the residuals
    y - Z beta.  With ``estimate_sigma`` false, sigma stays fixed at one.
    PLM chains never adapt their step sizes: ``cfg.adapt`` is ignored.
    Like :func:`run_chain`, it takes the rows in x order.
    """
    if data.z is None:
        raise ValueError("partial linear model needs z covariates")
    data = _in_x_order(data)
    rng = np.random.default_rng(cfg.seed)
    tau = prior.tau_beta
    # the prior's normalizing constant is the same for every draw
    log_norm = -0.5 * data.z.shape[1] * math.log(2 * math.pi * tau**2)
    sub = _ResidData(data.x, data.y.copy())
    state = _initial_state(cfg, prior, K, sub, rng)
    if not estimate_sigma:
        state.params.sigma = 1.0

    def beta_block(state, rng):
        eta_vals = sub.y - state.resid
        beta = gibbs_beta(data, eta_vals, tau, rng, state.params.sigma)
        sub.y = data.y - data.z @ beta
        state.resid = sub.y - eta_vals
        return beta, (-0.5 * float(beta @ beta) / tau**2, log_norm)

    cfg = dataclasses.replace(cfg, adapt=False,
                              sample_sigma=cfg.sample_sigma and estimate_sigma)
    draws = _run_sweeps(cfg, prior, state, rng, pre_step=beta_block)
    draws.meta = {"model": "plm", "sigma_fixed": not estimate_sigma}
    return draws


@dataclass
class BvmDiagnostic:
    """Posterior-vs-asymptotic-normal comparison for sqrt(n)(beta - beta0)."""

    delta_n: np.ndarray          # sqrt(n)-scale centering statistic
    centering_literal: np.ndarray  # the 1/n-prefactor variant, for reference
    ezz: np.ndarray
    ezz_inv: np.ndarray
    post_mean: np.ndarray
    post_cov: np.ndarray
    mean_discrepancy: float
    cov_discrepancy: float


def bvm_diagnostic(draws: PosteriorDraws, data, beta0, eta0,
                   ezz=None) -> BvmDiagnostic:
    """Compare the scaled beta posterior with its asymptotic normal limit.

    ``eta0`` is the true nonparametric component (callable on x or value
    array); ``ezz`` defaults to the empirical second-moment matrix Z'Z/n.
    The centering statistic uses the conventional n^(-1/2) scaling; the
    literal 1/n-prefactor variant is recorded alongside.
    """
    if draws.beta is None:
        raise ValueError("draws carry no beta samples")
    Z = data.z
    n = data.n
    beta0 = np.asarray(beta0, dtype=float).ravel()
    eta_vals = eta0(data.x) if callable(eta0) else np.asarray(eta0, dtype=float)
    eta_vals = np.asarray(eta_vals, dtype=float).ravel()
    if ezz is None:
        ezz = (Z.T @ Z) / n
    ezz = np.asarray(ezz, dtype=float)
    w = np.linalg.eigvalsh(ezz)
    if np.min(w) <= 0:
        raise np.linalg.LinAlgError("Ezz' is not positive definite")
    ezz_inv = np.linalg.inv(ezz)
    eps = data.y - eta_vals - Z @ beta0
    delta = ezz_inv @ (Z.T @ eps) / math.sqrt(n)
    scaled = math.sqrt(n) * (draws.beta - beta0[None, :])
    post_mean = scaled.mean(axis=0)
    post_cov = np.cov(scaled, rowvar=False)
    return BvmDiagnostic(
        delta_n=delta,
        centering_literal=delta / math.sqrt(n),
        ezz=ezz,
        ezz_inv=ezz_inv,
        post_mean=post_mean,
        post_cov=post_cov,
        mean_discrepancy=float(np.linalg.norm(post_mean - delta)),
        cov_discrepancy=float(np.linalg.norm(post_cov - ezz_inv)),
    )
