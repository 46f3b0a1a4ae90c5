"""Metropolis-within-Gibbs sampler for y_i = f(x_i) + e_i at fixed K.

One sweep updates, in fixed order: every coefficient xi (exact truncated
normal conditionals), each kernel center mu_k (reflected random-walk
Metropolis), the bandwidth Kh (same), and sigma (exact truncated
inverse-gamma conditional).  Kernels have compact support, so the state
lists once the (point, block) pairs where a kernel can be nonzero and keeps
its distances, kernel values and monomials on those pairs only, with the
kernel row sums and the residuals per point (see :class:`ChainState`).  A
coefficient or center step then costs O(pairs of its block) and a bandwidth
step O(pairs), about O(n Kh) each rather than O(n K^p); no dense basis
matrix is kept and no n-by-n factorization appears anywhere.

No random number a step draws depends on the state, so each step takes its
draws up front, in the order a per-block, per-coordinate loop would take
them: ``gibbs_xi`` one uniform per coefficient, ``mh_mu`` a normal and an
accept uniform per block.  The generator stream, and so every draw, is the
same as that loop's, while the kernel work of a step runs in one batch.

The likelihood is a sum over rows, so chains take the design in x order
(:func:`_in_x_order`): in 1-D a kernel's support is then a run of rows,
which a block step reads and writes through a slice, not an index array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import chainio
from ._stats import reflect, trunc_invgamma_sample, truncnorm_ppf
from .core import (KmpParams, PartitionGrid, _check_points, _eval_curves,
                   eval_f, monomial_tensor, normalize_weights, sup_dist,
                   support_pairs)
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


def _in_x_order(data):
    """``data`` with its rows in stable order of the first coordinate: x, y
    and z (if any) move together and every other field is kept."""
    order = np.argsort(data.x[:, 0], kind="stable")
    z = None if data.z is None else data.z[order]
    return replace(data, x=data.x[order], y=data.y[order], z=z)


def _as_run(rows):
    """Sorted distinct row indices as a slice if they are one run of
    consecutive rows, otherwise as they are."""
    if rows.size and rows[-1] - rows[0] == rows.size - 1:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def _loglik_resid(r, sigma):
    n = r.shape[0]
    return float(-0.5 * n * math.log(2 * math.pi * sigma**2)
                 - 0.5 * float(r @ r) / sigma**2)


class ChainState:
    """Mutable sampler state: parameters plus caches on the kernel support.

    A kernel is zero beyond sup-distance h <= h_hi / K of its center, and a
    center stays in the closure of its block, so design point i can lie in
    kernel k's support only if it is within (1/2 + h_hi) / K of block k's
    fixed center.  The constructor lists those (point, block) pairs once,
    sorted by block (block k owns pairs ``offsets[k]:offsets[k + 1]``,
    ``counts[k]`` of them, at design rows ``rows`` and blocks ``blk``; a
    per-block array reaches the pairs by ``np.repeat`` with ``counts``),
    and every cache lives on them: the sup-distances to the centers (dist),
    the kernel values (phi), the centered monomials (mono, (n_s, pairs),
    fixed by the design) and the block polynomials there (poly,
    xi_k . mono on block k's pairs).  Per design point it keeps the kernel
    row sum S and the residual resid.  A center move touches only its
    block's pairs, and nothing here ever factorizes an n-by-n matrix.

    ``block_rows[k]`` indexes block k's design rows in the per-point arrays:
    a slice if they are one run, as every nonempty block of a 1-D design
    in x order is, else the index array ``rows[offsets[k]:offsets[k + 1]]``.
    Row order changes no term of the likelihood, only floating-point sums.
    """

    def __init__(self, params: KmpParams, data, prior: PriorConfig):
        self.params = params
        self.data = data
        self.prior = prior
        self.xi_fallbacks = 0
        grid = params.grid
        self._x = _check_points(data.x, grid.p)
        # Kh never exceeds h_hi or its start (mh_h reflects into
        # [h_lo, h_hi]), and a center stays in its block's closure
        kh = max(prior.h_hi, grid.K * params.h)
        self.blk, self.rows = support_pairs(grid, self._x, (0.5 + kh) / grid.K)
        off = self.offsets = np.searchsorted(
            self.blk, np.arange(grid.n_blocks + 1)).tolist()
        self.counts = np.diff(off)
        self.block_rows = [_as_run(self.rows[off[k]:off[k + 1]])
                           for k in range(grid.n_blocks)]
        self._xp = self._x[self.rows]
        mono = monomial_tensor(grid, params.m, self._x)[self.rows, self.blk]
        self.mono = np.ascontiguousarray(mono.T)            # (n_s, pairs)
        self.refresh()

    def _row_sums(self, phi):
        """Per-point sums of values on the pairs."""
        return np.bincount(self.rows, weights=phi, minlength=self.data.n)

    def _poly(self):
        """Block polynomials on the pairs at the current xi, one product per
        block, as :func:`gibbs_xi` updates them."""
        off, xi = self.offsets, self.params.xi
        return np.concatenate([xi[k] @ self.mono[:, off[k]:off[k + 1]]
                               for k in range(xi.shape[0])])

    def _fit(self, phi, S):
        """Fitted values sum_k w_k(x) P_k(x - mu*_k) from kernel values and
        their row sums, with the weights of :func:`normalize_weights`."""
        return self._row_sums(normalize_weights(phi, S[self.rows]) * self.poly)

    def at_bandwidth(self, h):
        """Kernel values on the pairs, their row sums and the residuals
        (phi, S, resid) at bandwidth h, the rest kept; nothing cached changes."""
        phi = self.params.spec.profile(self.dist / h)
        S = self._row_sums(phi)
        return phi, S, self.data.y - self._fit(phi, S)

    def refresh(self):
        """Recompute every cache from the current parameters."""
        self.dist = sup_dist(self._xp,
                             np.repeat(self.params.mu, self.counts, axis=0))
        self.poly = self._poly()
        self.phi, self.S, self.resid = self.at_bandwidth(self.params.h)

    def basis(self, phi=None):
        """Dense basis matrix (n, K^p * n_s) from kernel values on the pairs
        (the cached ones by default), bit-identical to :func:`basis_matrix`
        at the geometry they come from; not kept."""
        mono = monomial_tensor(self.params.grid, self.params.m, self._x)
        n, nb, n_s = mono.shape
        w = np.zeros((n, nb))
        w[self.rows, self.blk] = self.phi if phi is None else phi
        return (normalize_weights(w)[:, :, None] * mono).reshape(n, nb * n_s)

    def loglik(self) -> float:
        return _loglik_resid(self.resid, self.params.sigma)


def gibbs_xi(state: ChainState, rng) -> ChainState:
    """One fixed-order sweep of exact coefficient conditionals.

    With a (possibly truncated) normal coefficient prior and Gaussian
    likelihood, each conditional is normal truncated to [-B, B].  Block k's
    basis columns are nonzero only on its pairs, so its coordinates work on
    the residuals of those rows alone.  Each coordinate takes one uniform,
    drawn for the whole sweep at once, as its inverse-CDF argument.
    """
    cfg = state.prior
    sigma2 = state.params.sigma**2
    prior_sd = cfg._xi_sd(state.params.sigma)
    flat_prior = cfg.xi_dist == "uniform"
    prior_prec = 0.0 if flat_prior else 1.0 / prior_sd**2
    xi = state.params.xi
    # basis columns on the pairs, each contiguous: (n_s, pairs)
    cols = state.mono * normalize_weights(state.phi, state.S[state.rows])
    resid, off = state.resid, state.offsets
    u = iter(rng.random(xi.size).tolist())
    for k in range(xi.shape[0]):
        a, b = off[k], off[k + 1]
        rows = state.block_rows[k]
        r = resid[rows]
        xi_k = xi[k]
        for j, col in enumerate(cols[:, a:b]):
            d = float(col @ col)
            old = float(xi_k[j])
            g = float(col @ r) + d * old       # inner product with xi_kj removed
            prec = d / sigma2 + prior_prec
            if not (prec > 0 and math.isfinite(prec)):
                # degenerate conditional: fall back to a prior draw
                state.xi_fallbacks += 1
                # -B + 2B u is what rng.uniform(-B, B) returns for this u
                new = (-cfg.B + (cfg.B - -cfg.B) * next(u) if flat_prior
                       else truncnorm_ppf(next(u), 0.0, prior_sd, -cfg.B, cfg.B))
            else:
                mean = (g / sigma2) / prec
                new = truncnorm_ppf(next(u), mean, 1.0 / math.sqrt(prec),
                                    -cfg.B, cfg.B)
            if new != old:
                r -= col * (new - old)
                xi_k[j] = new
        resid[rows] = r
        state.poly[a:b] = xi_k @ state.mono[:, a:b]
    return state


def mh_mu(state: ChainState, rng, step: float):
    """Per-block reflected Gaussian random walk on mu-tilde in [-1, 1]^p.

    Returns (state, n_accepted); centers never leave their block closures.

    The draws come first, in the order of a per-block loop: block k's p
    normals, then its accept uniform.  No proposal depends on another
    block's outcome, so all K^p are formed, and their kernels evaluated on
    every pair, in one batch.  A move of center k changes kernel values only
    on block k's pairs, so the accept step, in block order, updates the row
    sums S, the fit and the log-likelihood on those rows: with fit =
    y - resid and dphi the kernel change, the new fit is
    fit + dphi (P_k - fit) / S_new, where S_new = S + dphi stays positive
    under the Kh > 1 invariant of :func:`normalize_weights`.
    """
    params = state.params
    grid = params.grid
    K, p, nb = grid.K, grid.p, grid.n_blocks
    z = np.empty((nb, p))
    log_u = []
    for k in range(nb):
        z[k] = rng.normal(size=p)
        log_u.append(math.log(rng.random()))
    centers = grid.block_centers
    prop = reflect(2.0 * K * (params.mu - centers) + step * z, -1.0, 1.0)
    new_mu = centers + prop / (2.0 * K)
    dist = sup_dist(state._xp, np.repeat(new_mu, state.counts, axis=0))
    phi_new = params.spec.profile(dist / params.h)
    dphi = phi_new - state.phi
    y, S, resid, poly = state.data.y, state.S, state.resid, state.poly
    half_prec = 0.5 / params.sigma**2
    off = state.offsets
    accept = np.zeros(nb, dtype=bool)
    # Kh > 1 keeps every S_new positive; a zero division below means that
    # invariant was violated
    with np.errstate(divide="raise", invalid="raise"):
        for k in range(nb):
            a, b = off[k], off[k + 1]
            rows = state.block_rows[k]
            d = dphi[a:b]
            S_new = S[rows] + d
            r = resid[rows]
            r_new = r - d * (poly[a:b] - (y[rows] - r)) / S_new
            if log_u[k] < half_prec * (float(r @ r) - float(r_new @ r_new)):
                S[rows] = S_new
                resid[rows] = r_new
                accept[k] = True
    on = np.repeat(accept, state.counts)
    np.copyto(state.phi, phi_new, where=on)
    np.copyto(state.dist, dist, where=on)
    np.copyto(params.mu, new_mu, where=accept[:, None])
    return state, int(accept.sum())


def mh_h(state: ChainState, rng, step: float):
    """Reflected random walk on Kh in [h_lo, h_hi]; returns (state, accepted).

    The proposal re-evaluates the kernel on every pair and forms the row
    sums and the fit by per-point sums.  The uniform bandwidth density
    cancels from the Metropolis ratio.
    """
    cfg = state.prior
    params = state.params
    K = params.grid.K
    h_new = float(reflect(K * params.h + step * rng.normal(), cfg.h_lo, cfg.h_hi)) / K
    phi, S, resid = state.at_bandwidth(h_new)
    delta = _loglik_resid(resid, params.sigma) - state.loglik()
    if math.log(rng.random()) < delta:
        params.h = h_new
        state.phi, state.S, state.resid = phi, S, resid
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
        psi = state.basis()
        xi = solve_xi_box(data.y, psi, prior.B, tol=1e-6, max_sweeps=50)
        state.params.xi[:] = xi.reshape(state.params.xi.shape)
        state.resid = data.y - psi @ xi
        state.poly = state._poly()
    return state


def run_chain(cfg: McmcConfig, prior: PriorConfig, K: int, data,
              init_params: KmpParams | None = None) -> PosteriorDraws:
    """Run the full Metropolis-within-Gibbs chain; deterministic given seed.

    ``init_params``, if given, must have the chain's K, the data's p and the
    prior's m and kernel, and lie inside the prior's bounds (B, h_lo, h_hi,
    sigma_lo, sigma_hi); a violation raises ValueError naming it.  The chain
    takes the rows in x order, so the caller's order moves the draws only
    by rounding.
    """
    data = _in_x_order(data)
    rng = np.random.default_rng(cfg.seed)
    if init_params is not None:
        for name, have, want in (("K", init_params.grid.K, K),
                                 ("p", init_params.grid.p, data.p),
                                 ("m", init_params.m, prior.m),
                                 ("kernel", init_params.kernel, prior.kernel)):
            if have != want:
                raise ValueError(f"init_params has {name} = {have!r} where the "
                                 f"chain has {name} = {want!r}")
        init_params.validate(prior.B, prior.h_lo, prior.h_hi, prior.sigma_lo,
                             prior.sigma_hi)
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
