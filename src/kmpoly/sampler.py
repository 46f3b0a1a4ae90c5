"""Metropolis-within-Gibbs sampler for y_i = f(x_i) + e_i at fixed K.

One sweep updates, in fixed order: every coefficient xi (exact truncated
normal conditionals), each kernel center mu_k (reflected random-walk
Metropolis), the bandwidth Kh (same), and sigma (exact truncated
inverse-gamma conditional).  The kernel values phi are cached and
re-evaluated only at radii that a center or bandwidth move changes; the basis
matrix is rebuilt from them, through core.normalize_weights, only when mu or
h moves.  So a coefficient sweep costs O(n) per coordinate and no n-by-n
factorization appears anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import chainio
from ._stats import reflect, trunc_invgamma_sample, truncnorm_sample
from .core import (KmpParams, PartitionGrid, _check_points, _eval_curves,
                   eval_f, monomial_tensor, normalize_weights)
from .priors import PriorConfig, log_prior_density, sample_prior


@dataclass
class McmcConfig:
    burnin: int = 1000
    samples: int = 1000
    thin: int = 1
    seed: int = 0
    init: str = "prior"        # "prior" or "lsq" (box-constrained LS warm start)
    sample_mu: bool = True
    sample_h: bool = True
    sample_sigma: bool = True
    adapt: bool = True         # step-size adaptation during burn-in only

    def __post_init__(self):
        if self.burnin < 0 or self.samples < 1 or self.thin < 1:
            raise ValueError("need burnin >= 0, samples >= 1, thin >= 1")
        if self.init not in ("prior", "lsq"):
            raise ValueError(f"unknown init mode {self.init!r}")


def loglik(params: KmpParams, data) -> float:
    """Gaussian log-likelihood up to the design-density constant."""
    if params.sigma <= 0:
        raise ValueError("sigma must be positive")
    if data.n == 0:
        raise ValueError("empty dataset")
    r = data.y - eval_f(params, data.x)
    return _loglik_resid(r, params.sigma)


def _loglik_resid(r, sigma):
    n = r.shape[0]
    return float(-0.5 * n * math.log(2 * math.pi * sigma**2)
                 - 0.5 * float(r @ r) / sigma**2)


class ChainState:
    """Mutable sampler state: parameters plus basis/residual caches.

    Geometry moves only touch the sup-norm distances and kernel values
    (dist, phi: one column per center move) and renormalize phi into the
    basis psi and its squared column norms col_sq; the centered-monomial
    tensor is fixed by the design and precomputed once.  Nothing here ever
    factorizes an n-by-n matrix.
    """

    def __init__(self, params: KmpParams, data, prior: PriorConfig):
        self.params = params
        self.data = data
        self.prior = prior
        self.xi_fallbacks = 0
        self._x = _check_points(data.x, params.grid.p)
        self.mono = monomial_tensor(params.grid, params.m, self._x)
        self.refresh()

    def _dist_to(self, mu):
        """Sup-norm distances from every design point to every center."""
        return np.max(np.abs(self._x[:, None, :] - mu[None, :, :]), axis=-1)

    def set_basis(self):
        """Rebuild psi and its squared column norms from the cached phi."""
        w = normalize_weights(self.phi)
        n, nb, n_s = self.mono.shape
        self.psi = (w[:, :, None] * self.mono).reshape(n, nb * n_s)
        self.col_sq = np.einsum("ij,ij->j", self.psi, self.psi)

    def refresh(self):
        """Recompute every cache from the current parameters."""
        self.dist = self._dist_to(self.params.mu)
        self.phi = self.params.spec.profile(self.dist / self.params.h)
        self.set_basis()
        self.resid = self.data.y - self.psi @ self.params.xi.ravel()

    def loglik(self) -> float:
        return _loglik_resid(self.resid, self.params.sigma)


def gibbs_xi(state: ChainState, rng) -> ChainState:
    """One fixed-order sweep of exact coefficient conditionals.

    With a (possibly truncated) normal coefficient prior and Gaussian
    likelihood, each conditional is normal truncated to [-B, B].
    """
    cfg = state.prior
    sigma2 = state.params.sigma**2
    prior_sd = cfg._xi_sd(state.params.sigma)
    flat = state.params.xi.reshape(-1)
    psi, resid = state.psi, state.resid
    flat_prior = cfg.xi_dist == "uniform"
    for j in range(flat.shape[0]):
        col = psi[:, j]
        d = state.col_sq[j]
        old = flat[j]
        g = float(col @ resid) + d * old       # inner product with xi_j removed
        prec = d / sigma2 + (0.0 if flat_prior else 1.0 / prior_sd**2)
        if not (prec > 0 and np.isfinite(prec)):
            # degenerate conditional: fall back to a prior draw
            state.xi_fallbacks += 1
            new = (rng.uniform(-cfg.B, cfg.B) if flat_prior
                   else truncnorm_sample(rng, 0.0, prior_sd, -cfg.B, cfg.B))
        else:
            mean = (g / sigma2) / prec
            new = truncnorm_sample(rng, mean, 1.0 / math.sqrt(prec), -cfg.B, cfg.B)
        if new != old:
            resid -= col * (new - old)
            flat[j] = new
    return state


def mh_mu(state: ChainState, rng, step: float):
    """Per-block reflected Gaussian random walk on mu-tilde in [-1, 1]^p.

    Returns (state, n_accepted); centers never leave their block closures.

    The scan maintains the raw kernel sums S(x) = sum_l phi_h(x - mu_l) and
    the weighted polynomial sums numer(x), so each proposal costs O(n); the
    fit numer / S uses the weights of :func:`normalize_weights`, whose
    Kh > 1 invariant keeps S positive.
    """
    grid = state.params.grid
    params = state.params
    spec = params.spec
    x = state._x
    y = state.data.y
    sigma = params.sigma
    K = grid.K
    centers = grid.block_centers
    accepted = 0

    phi = state.phi                                      # raw kernel values
    poly = np.einsum("nks,ks->nk", state.mono, params.xi)
    S = phi.sum(axis=1)                                  # > 0: set_basis checked it
    numer = np.einsum("nk,nk->n", phi, poly)
    cur_ll = state.loglik()
    resid = state.resid
    x1 = x[:, 0] if grid.p == 1 else None
    for k in range(grid.n_blocks):
        if x1 is not None:
            # scalar fast path: one center coordinate, no tiny-array churn
            mt_k = 2.0 * K * (params.mu[k, 0] - centers[k, 0])
            prop = float(reflect(mt_k + step * rng.normal(), -1.0, 1.0))
            new_mu_k = np.array([centers[k, 0] + prop / (2.0 * K)])
            col = np.abs(x1 - new_mu_k[0])
        else:
            mt_k = 2.0 * K * (params.mu[k] - centers[k])
            prop = reflect(mt_k + step * rng.normal(size=grid.p), -1.0, 1.0)
            new_mu_k = centers[k] + prop / (2.0 * K)
            col = np.max(np.abs(x - new_mu_k[None, :]), axis=-1)
        phi_new = spec.profile(col / params.h)
        S_new = S - phi[:, k] + phi_new
        numer_new = numer + (phi_new - phi[:, k]) * poly[:, k]
        with np.errstate(divide="raise", invalid="raise"):
            # Kh > 1 keeps every S_new positive; a zero division here
            # means that invariant was violated
            r = y - numer_new / S_new
        new_ll = _loglik_resid(r, sigma)
        if math.log(rng.uniform()) < new_ll - cur_ll:
            phi[:, k] = phi_new
            S = S_new
            numer = numer_new
            state.dist[:, k] = col
            params.mu[k] = new_mu_k
            cur_ll = new_ll
            resid = r
            accepted += 1
    if accepted:
        state.set_basis()
        state.resid = resid
    return state, accepted


def mh_h(state: ChainState, rng, step: float):
    """Reflected random walk on Kh in [h_lo, h_hi]; returns (state, accepted).

    The proposal log-likelihood is evaluated through the raw kernel sums
    (see mh_mu); the basis cache is rebuilt only when the move is accepted.
    The uniform bandwidth density cancels from the Metropolis ratio.
    """
    cfg = state.prior
    params = state.params
    K = params.grid.K
    kh = K * params.h + step * rng.normal()
    kh = float(reflect(kh, cfg.h_lo, cfg.h_hi))
    h_new = kh / K
    phi_new = params.spec.profile(state.dist / h_new)
    S = phi_new.sum(axis=1)
    if not np.all(S > 0.0):
        raise FloatingPointError("empty kernel neighborhood; is Kh > 1?")
    poly = np.einsum("nks,ks->nk", state.mono, params.xi)
    resid = state.data.y - np.einsum("nk,nk->n", phi_new, poly) / S
    delta = _loglik_resid(resid, params.sigma) - state.loglik()
    if math.log(rng.uniform()) < delta:
        params.h = h_new
        state.phi = phi_new
        state.set_basis()
        state.resid = resid
        return state, 1
    return state, 0


def gibbs_sigma(state: ChainState, rng) -> ChainState:
    """Exact truncated inverse-gamma conditional for sigma^2."""
    cfg = state.prior
    n = state.data.n
    shape = cfg.sigma_shape + 0.5 * n
    scale = cfg.sigma_scale + 0.5 * float(state.resid @ state.resid)
    if cfg.xi_scale_by_sigma:
        # coefficient prior N(0, tau^2 sigma^2) contributes to the conditional
        xi = state.params.xi
        shape += 0.5 * xi.size
        scale += 0.5 * float(np.sum(xi**2)) / cfg.tau_xi**2
    s2 = trunc_invgamma_sample(rng, shape, scale, cfg.sigma_lo**2, cfg.sigma_hi**2)
    state.params.sigma = math.sqrt(s2)
    return state


@dataclass
class PosteriorDraws:
    """Ordered post-burn-in chain at fixed K, stored as columns: draw t is row
    t of h (T,), mu (T, K^p, p), xi (T, K^p, n_s), sigma, loglik, logpost
    (T,) and, for the partial linear model, beta (T, q); grid, m and kernel
    are shared.  ``draws`` gives read-only KmpParams views of the rows."""

    grid: PartitionGrid
    m: int
    kernel: str
    h: np.ndarray
    mu: np.ndarray
    xi: np.ndarray
    sigma: np.ndarray
    loglik: np.ndarray
    logpost: np.ndarray
    accept: dict = field(default_factory=dict)
    beta: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def K(self):
        return self.grid.K

    def __len__(self):
        return self.h.shape[0]

    def sigmas(self):
        return self.sigma

    @functools.cached_property
    def draws(self):
        """KmpParams views of the rows (mu, xi read-only), built on first use."""
        mu, xi = self.mu.view(), self.xi.view()
        mu.flags.writeable = xi.flags.writeable = False
        return [KmpParams(self.grid, float(h), mu[t], xi[t], float(s),
                          self.m, self.kernel)
                for t, (h, s) in enumerate(zip(self.h, self.sigma))]

    def curves(self, grid):
        """Regression curves of every draw on an evaluation grid, (T, G)."""
        if not len(self):
            raise ValueError("no draws")
        return _eval_curves(self.grid, self.m, self.kernel, self.h, self.mu,
                            self.xi, grid)

    def to_csv(self, csv_path, json_path=None):
        chainio.save_draws(self, csv_path, json_path)

    @staticmethod
    def from_csv(csv_path, json_path=None):
        return chainio.load_draws(csv_path, json_path)


def _initial_state(cfg: McmcConfig, prior: PriorConfig, K: int, data, rng):
    params = sample_prior(prior, K, rng, p=data.p)
    state = ChainState(params, data, prior)
    if cfg.init == "lsq":
        from .sieve import solve_xi_box

        # warm start only: a loose box-constrained solve is plenty
        xi = solve_xi_box(data.y, state.psi, prior.B, tol=1e-6, max_sweeps=50)
        state.params.xi[:] = xi.reshape(state.params.xi.shape)
        state.resid = data.y - state.psi @ xi
    return state


def run_chain(cfg: McmcConfig, prior: PriorConfig, K: int, data,
              init_params: KmpParams | None = None) -> PosteriorDraws:
    """Run the full Metropolis-within-Gibbs chain; deterministic given seed."""
    rng = np.random.default_rng(cfg.seed)
    if init_params is not None:
        state = ChainState(init_params.copy(), data, prior)
    else:
        state = _initial_state(cfg, prior, K, data, rng)
    return _run_sweeps(cfg, prior, state, rng)


def _run_sweeps(cfg: McmcConfig, prior: PriorConfig, state: ChainState, rng,
                pre_step=None) -> PosteriorDraws:
    """The sweep loop shared by every chain: steps, adaptation, snapshots.

    ``pre_step(state, rng)``, if given, runs at the top of every sweep and
    returns ``(extra, log_prior_terms)``: ``extra`` is recorded with each
    retained draw (as ``PosteriorDraws.beta``) and the terms are added, in
    order, to its log-posterior.
    """
    step_mu, step_kh = prior.step_mu, prior.step_kh
    total = cfg.burnin + cfg.samples * cfg.thin
    params, T = state.params, cfg.samples
    h, sigma, lls, lps = (np.empty(T) for _ in range(4))
    mu = np.empty((T, *params.mu.shape))
    xi = np.empty((T, *params.xi.shape))
    extras = []
    mu_prop = mu_acc = h_prop = h_acc = 0
    win_mu = [0, 0]
    win_h = [0, 0]
    extra, extra_lp = None, ()
    for it in range(total):
        in_burnin = it < cfg.burnin
        if pre_step is not None:
            extra, extra_lp = pre_step(state, rng)
        gibbs_xi(state, rng)
        if cfg.sample_mu and step_mu > 0:
            _, acc = mh_mu(state, rng, step_mu)
            nb = state.params.grid.n_blocks
            mu_prop += nb
            mu_acc += acc
            win_mu[0] += nb
            win_mu[1] += acc
        if cfg.sample_h and step_kh > 0:
            _, acc = mh_h(state, rng, step_kh)
            h_prop += 1
            h_acc += acc
            win_h[0] += 1
            win_h[1] += acc
        if cfg.sample_sigma:
            gibbs_sigma(state, rng)
        if cfg.adapt and in_burnin and (it + 1) % 100 == 0:
            # diminishing adaptation, burn-in only: nudge steps toward the
            # 0.2-0.6 acceptance window
            if win_mu[0]:
                rate = win_mu[1] / win_mu[0]
                step_mu *= 0.7 if rate < 0.2 else (1.3 if rate > 0.6 else 1.0)
                win_mu = [0, 0]
            if win_h[0]:
                rate = win_h[1] / win_h[0]
                step_kh *= 0.7 if rate < 0.2 else (1.3 if rate > 0.6 else 1.0)
                step_kh = min(step_kh, prior.h_hi - prior.h_lo)
                win_h = [0, 0]
        if not in_burnin and (it - cfg.burnin + 1) % cfg.thin == 0:
            t = (it - cfg.burnin) // cfg.thin
            params = state.params
            ll = state.loglik()
            lp = ll + log_prior_density(prior, params)
            for term in extra_lp:
                lp += term
            if not np.isfinite(lp):
                raise FloatingPointError(
                    f"non-finite log-posterior at iteration {it}: loglik={ll}")
            h[t], mu[t], xi[t], sigma[t] = params.h, params.mu, params.xi, params.sigma
            lls[t], lps[t] = ll, lp
            extras.append(extra)
    accept = {
        "mu": mu_acc / mu_prop if mu_prop else None,
        "h": h_acc / h_prop if h_prop else None,
        "xi_fallbacks": state.xi_fallbacks,
        "final_step_mu": step_mu,
        "final_step_kh": step_kh,
    }
    return PosteriorDraws(params.grid, params.m, params.kernel, h, mu, xi, sigma,
                          lls, lps, accept, np.array(extras) if pre_step else None)
