"""Hierarchical prior over (K, h, mu, xi, sigma) and the linear coefficients.

Densities, samplers and JSON round-tripping for the prior configuration.
All samplers take a caller-supplied ``numpy.random.Generator``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from ._stats import invgamma_logpdf, trunc_invgamma_sample, truncnorm_ppf
from .core import KmpParams, MultiIndexSet, PartitionGrid


@dataclass
class PriorConfig:
    """Every hyperparameter of the hierarchical prior, with defaults that
    mirror the synthetic nonparametric-regression experiment settings.

    ``sigma_shape``/``sigma_scale`` parameterize an inverse-gamma prior on
    sigma^2 with density proportional to
    ``(s2)^(-shape-1) * exp(-scale/s2)``, truncated to
    [sigma_lo^2, sigma_hi^2].  The default (1, 1) gives
    ``(s2)^(-2) exp(-1/s2)``.

    ``xi_scale_by_sigma`` makes the coefficient prior sd equal to
    ``tau_xi * sigma`` instead of ``tau_xi``; the conjugate fixed-design
    model uses this coupling with ``tau_xi = n`` and ``B = inf``.
    """

    B: float = 50.0
    m: int = 2
    h_lo: float = 1.2          # bounds on K*h, must satisfy 1 < h_lo < h_hi
    h_hi: float = 2.0
    sigma_lo: float = 1e-3
    sigma_hi: float = 10.0
    pi_K: str = "geometric"    # or "poisson"
    rho: float = 0.5           # geometric success probability
    lam: float = 5.0           # poisson mean
    mu_dist: str = "uniform"   # density of mu-tilde on [-1, 1]^p
    xi_dist: str = "truncnorm"  # or "uniform" on [-B, B]
    tau_xi: float = 10.0
    xi_scale_by_sigma: bool = False
    sigma_shape: float = 1.0
    sigma_scale: float = 1.0
    tau_beta: float = 10.0     # sd of the Gaussian prior on each beta_j
    step_mu: float = 0.1
    step_kh: float = 0.04
    K_min: int = 6
    K_max: int = 15
    kernel: str = "bump"

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Raise ValueError naming the first field out of range; every check
        fails on NaN."""
        if not (1.0 < self.h_lo < self.h_hi < math.inf):
            raise ValueError("need 1 < h_lo < h_hi < inf")
        if not (0.0 < self.sigma_lo < self.sigma_hi):
            raise ValueError("need 0 < sigma_lo < sigma_hi")
        for name in ("B", "tau_xi", "tau_beta", "lam", "sigma_shape", "sigma_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"need {name} > 0, got {name} = {getattr(self, name)}")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"need 0 < rho <= 1, got rho = {self.rho}")
        for name in ("step_mu", "step_kh"):
            step = getattr(self, name)
            if not (step >= 0 and math.isfinite(step)):
                raise ValueError(f"need a finite {name} >= 0, got {name} = {step}")
        if self.m < 0:
            raise ValueError("polynomial degree must be nonnegative")
        if self.pi_K not in ("geometric", "poisson"):
            raise ValueError(f"unknown pi_K family {self.pi_K!r}")
        if self.mu_dist != "uniform":
            raise ValueError("only the uniform center density is supported")
        if self.xi_dist not in ("truncnorm", "uniform"):
            raise ValueError(f"unknown xi density {self.xi_dist!r}")
        if not self.K_min <= self.K_max:
            raise ValueError("need K_min <= K_max")

    def _xi_sd(self, sigma):
        return self.tau_xi * sigma if self.xi_scale_by_sigma else self.tau_xi

    def to_json(self, path=None):
        payload = json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        return payload

    @classmethod
    def from_json(cls, source):
        """Build from a JSON string or file path; absent fields keep defaults."""
        text = source
        if not source.lstrip().startswith("{"):
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        data = json.loads(text)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown prior config fields: {sorted(unknown)}")
        return cls(**data)


def sample_prior(cfg: PriorConfig, K: int, rng, p: int = 1) -> KmpParams:
    """Draw one full parameter configuration at fixed K from the prior."""
    if K < 1:
        raise ValueError("K must be a positive integer")
    grid = PartitionGrid(K, p)
    nb = grid.n_blocks
    n_s = len(MultiIndexSet(p, cfg.m))
    mu_tilde = rng.uniform(-1.0, 1.0, size=(nb, p))
    mu = grid.block_centers + mu_tilde / (2.0 * K)
    kh = rng.uniform(cfg.h_lo, cfg.h_hi)
    sigma2 = trunc_invgamma_sample(rng, cfg.sigma_shape, cfg.sigma_scale,
                                   cfg.sigma_lo**2, cfg.sigma_hi**2)
    sigma = math.sqrt(sigma2)
    sd = cfg._xi_sd(sigma)
    if cfg.xi_dist == "uniform":
        xi = rng.uniform(-cfg.B, cfg.B, size=(nb, n_s))
    else:
        xi = np.array([truncnorm_ppf(u, 0.0, sd, -cfg.B, cfg.B)
                       for u in rng.random(nb * n_s).tolist()]).reshape(nb, n_s)
    return KmpParams(grid, kh / K, mu, xi, sigma, m=cfg.m, kernel=cfg.kernel)


def log_prior_density(cfg: PriorConfig, params: KmpParams) -> float:
    """Joint log prior density at fixed K, up to the pi_K factor.

    Returns -inf outside the support.  Truncation constants are kept so
    that ratios across different sigma values remain exact when the
    coefficient prior is scaled by sigma.
    """
    K = params.grid.K
    kh = K * params.h
    if not (cfg.h_lo <= kh <= cfg.h_hi):
        return -np.inf
    if not params.grid.contains(params.mu):
        return -np.inf
    mt = params.mu_tilde
    if np.max(np.abs(mt)) > 1.0 + 1e-12:
        return -np.inf
    if not (cfg.sigma_lo <= params.sigma <= cfg.sigma_hi):
        return -np.inf
    if np.max(np.abs(params.xi)) > cfg.B:
        return -np.inf

    total = -math.log(cfg.h_hi - cfg.h_lo)          # Kh ~ uniform
    total += mt.size * math.log(0.5)                # mu-tilde ~ uniform[-1,1]^p
    s2 = params.sigma**2
    total += invgamma_logpdf(s2, cfg.sigma_shape, cfg.sigma_scale)
    total += math.log(2.0 * params.sigma)           # Jacobian sigma^2 -> sigma
    if cfg.xi_dist == "uniform":
        total += params.xi.size * math.log(0.5 / cfg.B)
    else:
        # shared-parameter truncated normals: sum the quadratic term once
        sd = cfg._xi_sd(params.sigma)
        z = params.xi.ravel() / sd
        mass = float(special.ndtr(cfg.B / sd) - special.ndtr(-cfg.B / sd))
        total += -0.5 * float(z @ z) - params.xi.size * (
            0.5 * math.log(2.0 * math.pi) + math.log(sd) + math.log(mass))
    return float(total)


def prior_K_tail(cfg: PriorConfig, x: int) -> float:
    """Exact tail probability P(K >= x) of the configured K prior."""
    if x < 1:
        raise ValueError("x must be >= 1")
    if x == 1:
        return 1.0
    if cfg.pi_K == "geometric":
        # support {1, 2, ...}; P(K = k) = rho (1 - rho)^(k-1)
        return float((1.0 - cfg.rho) ** (x - 1))
    # Poisson(lam) restricted to K >= 1, renormalized
    upper = special.pdtrc(x - 1, cfg.lam)
    mass_ge1 = special.pdtrc(0, cfg.lam)
    return float(upper / mass_ge1)
