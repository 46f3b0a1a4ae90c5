"""Simplified conjugate model: K, h and the centers are fixed, so the
posterior is normal-inverse-gamma in closed form.

K is set by the rule ceil((n / log n)^(1/(2 alpha + p))), h = 2 / K, and the
centers sit at the block midpoints.  Coefficients carry a weakly
informative N(0, n^2 sigma^2) prior and sigma^2 an inverse-gamma prior with
density proportional to (s2)^(-a/2 - 1) exp(-b / (2 s2)).

Integrating the coefficients analytically gives the sigma^2 marginal
IG(shape a/2 + n/2, scale [b + y' (I + n^2 Psi Psi')^{-1} y] / 2) in the
standard (shape, scale) convention, and xi | sigma^2, y is normal with
precision sigma^{-2} (Psi' Psi + n^{-2} I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .core import (KmpParams, MultiIndexSet, PartitionGrid, _eval_curves,
                   basis_matrix)
from .sampler import PosteriorDraws


def choose_Kn(n: int, alpha: float, p: int) -> int:
    """ceil((n / log n)^(1 / (2 alpha + p)))."""
    if n < 2:
        raise ValueError("need n >= 2")
    if alpha <= 0 or p < 1:
        raise ValueError("need alpha > 0 and p >= 1")
    return int(math.ceil((n / math.log(n)) ** (1.0 / (2.0 * alpha + p))))


def fixed_design_params(K: int, p: int, m: int, sigma: float = 1.0,
                        kernel: str = "bump") -> KmpParams:
    """Parameter skeleton with centers pinned at block midpoints, h = 2/K."""
    grid = PartitionGrid(K, p)
    n_s = len(MultiIndexSet(p, m))
    return KmpParams(grid, 2.0 / K, grid.block_centers.copy(),
                     np.zeros((grid.n_blocks, n_s)), sigma, m=m, kernel=kernel)


@dataclass
class ConjugatePosterior:
    """Closed-form posterior: coefficient mean, precision factor, and the
    updated inverse-gamma parameters for sigma^2."""

    skeleton: KmpParams            # fixed geometry; xi ignored
    xi_mean: np.ndarray
    chol_precision: np.ndarray     # lower Cholesky factor of Psi'Psi + n^-2 I
    ig_shape: float
    ig_scale: float
    n: int

    def curve_basis(self, xgrid):
        return basis_matrix(self.skeleton, xgrid)

    def mean_curve(self, xgrid):
        return self.curve_basis(xgrid) @ self.xi_mean

    def sigma2_mean(self):
        if self.ig_shape <= 1:
            raise ValueError("sigma^2 posterior mean undefined for shape <= 1")
        return self.ig_scale / (self.ig_shape - 1.0)

    def pointwise_band(self, xgrid, level=0.95):
        """Closed-form pointwise band for f; the f(x) marginals are
        location-scale Student-t with 2 * ig_shape degrees of freedom."""
        if not 0.0 < level < 1.0:
            raise ValueError("level must be in (0, 1)")
        psi = self.curve_basis(xgrid)
        mean = psi @ self.xi_mean
        # var(f(x) | sigma^2) = sigma^2 psi' A^{-1} psi
        half = solve_triangular(self.chol_precision, psi.T, lower=True)
        quad = np.einsum("ij,ij->j", half, half)
        df = 2.0 * self.ig_shape
        scale = np.sqrt(quad * self.ig_scale / self.ig_shape)
        tq = special.stdtrit(df, 0.5 + level / 2.0)
        return mean, mean - tq * scale, mean + tq * scale

    def sample(self, n_draws, rng):
        """Joint draws of (xi, sigma); returns (xi (T, ncoef), sigma (T,))."""
        ncoef = self.xi_mean.shape[0]
        # 1 / sigma^2 ~ Gamma(shape, rate=scale)
        sigma2 = self.ig_scale / rng.gamma(self.ig_shape, size=n_draws)
        z = rng.standard_normal((n_draws, ncoef))
        spread = solve_triangular(self.chol_precision.T, z.T, lower=False).T
        xi = self.xi_mean[None, :] + np.sqrt(sigma2)[:, None] * spread
        return xi, np.sqrt(sigma2)

    def to_posterior_draws(self, n_draws, rng, data=None):
        """Materialize draws as a PosteriorDraws so the generic posterior
        summaries (L2-credible sets, bands, DIC) apply unchanged.  Without
        data the log scores are NaN."""
        if n_draws < 1:
            raise ValueError(f"need n_draws >= 1, got n_draws = {n_draws}")
        xi, sig = self.sample(n_draws, rng)
        sk = self.skeleton
        h = np.full(n_draws, sk.h)
        mu = np.broadcast_to(sk.mu, (n_draws, *sk.mu.shape))
        xi = xi.reshape(n_draws, *sk.xi.shape)
        lls = np.full(n_draws, np.nan)
        if data is not None:
            r = data.y - _eval_curves(sk.grid, sk.m, sk.kernel, h, mu, xi, data.x)
            lls = (-0.5 * data.n * np.log(2 * np.pi * sig**2)
                   - 0.5 * np.einsum("tn,tn->t", r, r) / sig**2)
        return PosteriorDraws(sk.grid, sk.m, sk.kernel, h, mu, xi, sig, lls,
                              lls.copy(), meta={"source": "conjugate-fixed-design"})


def conjugate_fit(data, alpha=1.0, m=2, a_sigma=2.0, b_sigma=2.0,
                  K=None, kernel="bump") -> ConjugatePosterior:
    """Exact normal-inverse-gamma posterior for the fixed-design model."""
    if a_sigma < 2 or b_sigma < 2:
        raise ValueError("need a_sigma, b_sigma >= 2")
    n = data.n
    Kn = K if K is not None else choose_Kn(n, alpha, data.p)
    skeleton = fixed_design_params(Kn, data.p, m, kernel=kernel)
    psi = basis_matrix(skeleton, data.x)
    ncoef = psi.shape[1]
    A = psi.T @ psi + np.eye(ncoef) / n**2
    low, _ = cho_factor(A, lower=True)
    low = np.tril(low)
    psi_t_y = psi.T @ data.y
    xi_mean = cho_solve((low, True), psi_t_y)
    quad = float(data.y @ data.y) - float(psi_t_y @ xi_mean)
    quad = max(quad, 0.0)
    return ConjugatePosterior(
        skeleton=skeleton,
        xi_mean=xi_mean,
        chol_precision=low,
        ig_shape=a_sigma / 2.0 + n / 2.0,
        ig_scale=(b_sigma + quad) / 2.0,
        n=n,
    )


def empirical_l2(f, f0, design) -> float:
    """Root-mean-square discrepancy over the design points.

    f and f0 may be callables on the design or precomputed value arrays.
    """
    design = np.asarray(design)
    if design.size == 0:
        raise ValueError("empty design")
    fv = f(design) if callable(f) else np.asarray(f, dtype=float)
    gv = f0(design) if callable(f0) else np.asarray(f0, dtype=float)
    d = np.asarray(fv, dtype=float).ravel() - np.asarray(gv, dtype=float).ravel()
    return float(np.sqrt(np.mean(d**2)))
