"""Frequentist sieve maximum likelihood: box-constrained least squares over
the kernel-mixture-of-polynomials class by block coordinate descent.

With the noise scale fixed, maximizing the Gaussian log-likelihood equals
minimizing the residual sum of squares, so the inner coefficient problem is
a convex box-constrained least-squares solve; the kernel centers and the
bandwidth are low-dimensional and handled by grid/golden-section searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .core import KmpParams, MultiIndexSet, PartitionGrid, basis_matrix
from .fixed_design import choose_Kn

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def solve_xi_box(y, psi, B, tol=1e-10, max_sweeps=200):
    """Minimize ||y - psi xi||^2 subject to ||xi||_inf <= B.

    The unconstrained least-squares solution is computed first and returned
    when it already satisfies the box.  Otherwise an active-set bounded
    least-squares solve is polished by projected coordinate descent with
    exact coordinate minimizers until the KKT residual of every coordinate
    is below tol times the problem scale.
    """
    y = np.asarray(y, dtype=float)
    psi = np.asarray(psi, dtype=float)
    ncoef = psi.shape[1]
    xi = np.zeros(ncoef)
    if B == 0:
        return xi
    ls, *_ = np.linalg.lstsq(psi, y, rcond=None)
    if np.max(np.abs(ls)) <= B:
        return ls
    d = np.einsum("ij,ij->j", psi, psi)
    live = d > 0.0
    if np.all(live):
        res = optimize.lsq_linear(psi, y, bounds=(-B, B), method="bvls")
        xi = np.clip(res.x, -B, B)
    else:
        xi = np.clip(ls, -B, B)
        xi[~live] = 0.0
    r = y - psi @ xi
    scale = max(float(y @ y), 1.0)
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(ncoef):
            if d[j] == 0.0:
                continue
            old = xi[j]
            new = (float(psi[:, j] @ r) + d[j] * old) / d[j]
            new = min(max(new, -B), B)
            if new != old:
                r -= psi[:, j] * (new - old)
                xi[j] = new
                delta = max(delta, abs(new - old))
        if delta == 0.0 or _kkt_residual(psi, r, xi, B, d) <= tol * scale:
            break
    return xi


def _kkt_residual(psi, r, xi, B, d):
    g = -(psi.T @ r)  # half-gradient of the squared loss
    res = 0.0
    for j in range(xi.shape[0]):
        if d[j] == 0.0:
            continue
        if xi[j] >= B - 1e-14:
            res = max(res, max(0.0, -g[j]) if g[j] < 0 else 0.0)
        elif xi[j] <= -B + 1e-14:
            res = max(res, max(0.0, g[j]))
        else:
            res = max(res, abs(g[j]))
    return res


@dataclass
class SieveConfig:
    K: int | None = None       # explicit K, or None to use the n-based rule
    alpha: float = 1.0         # declared smoothness for the K rule
    B: float = 50.0
    m: int = 2
    h_lo: float = 1.2
    h_hi: float = 2.0
    kernel: str = "bump"
    multistart: int = 5
    tol: float = 1e-8
    max_outer: int = 50
    mu_grid: int = 21          # candidates per center coordinate per pass
    sigma0: float | None = None     # fixed noise scale; None -> residual sd

    def __post_init__(self):
        if self.tol <= 0 or self.multistart < 1:
            raise ValueError("need tol > 0 and multistart >= 1")
        if not (1.0 < self.h_lo < self.h_hi):
            raise ValueError("need 1 < h_lo < h_hi")
        if self.mu_grid < 2:
            raise ValueError("need mu_grid >= 2")


@dataclass
class SieveFit:
    params: KmpParams
    objective: float           # residual sum of squares
    converged: bool
    n_outer: int
    start_objectives: list = field(default_factory=list)


def _fit_xi(params, data, B):
    """Set params.xi to the box-constrained least-squares fit; return its RSS."""
    psi = basis_matrix(params, data.x)
    xi = solve_xi_box(data.y, psi, B)
    params.xi[:] = xi.reshape(params.xi.shape)
    r = data.y - psi @ xi
    return float(r @ r)


def _rss_at(params, mu, h, data, cfg, refit):
    """(RSS, xi) with the geometry moved to (mu, h), refitting xi if ``refit``."""
    trial = KmpParams(params.grid, h, np.array(mu), params.xi.copy(),
                      params.sigma, params.m, params.kernel)
    if refit:
        return _fit_xi(trial, data, cfg.B), trial.xi
    r = data.y - basis_matrix(trial, data.x) @ trial.xi.ravel()
    return float(r @ r), trial.xi


def fit_sieve_mle(data, cfg: SieveConfig, rng) -> SieveFit:
    """Best-of-multistart block coordinate descent over (xi, mu, Kh).

    Every iterate is feasible (centers in closed blocks, |xi| <= B,
    Kh in [h_lo, h_hi]) and the objective never increases across updates
    because each candidate set contains the current point.
    """
    p = data.p
    K = cfg.K if cfg.K is not None else choose_Kn(data.n, cfg.alpha, p)
    grid = PartitionGrid(K, p)
    n_s = len(MultiIndexSet(p, cfg.m))
    refit = grid.n_blocks * n_s <= 12     # re-solve xi per candidate when cheap

    best = None
    start_objs = []
    for start in range(cfg.multistart):
        if start == 0:
            # deterministic start at the center of the feasible box
            mu_tilde = np.zeros((grid.n_blocks, p))
            kh = 0.5 * (cfg.h_lo + cfg.h_hi)
        else:
            mu_tilde = rng.uniform(-1.0, 1.0, size=(grid.n_blocks, p))
            kh = rng.uniform(cfg.h_lo, cfg.h_hi)
        mu = grid.block_centers + mu_tilde / (2.0 * K)
        params = KmpParams(grid, kh / K, mu, np.zeros((grid.n_blocks, n_s)),
                           1.0, m=cfg.m, kernel=cfg.kernel)
        fit = _descend(data, params, cfg, refit)
        start_objs.append(fit.objective)
        if best is None or fit.objective < best.objective:
            best = fit
    best.start_objectives = start_objs
    if cfg.sigma0 is not None:
        best.params.sigma = cfg.sigma0
    else:
        best.params.sigma = math.sqrt(max(best.objective / data.n, 1e-30))
    return best


def _descend(data, params, cfg, refit):
    obj = _fit_xi(params, data, cfg.B)
    converged = False
    it = 0
    for it in range(1, cfg.max_outer + 1):
        prev = obj
        obj = _mu_sweep(data, params, obj, cfg, refit)
        obj = _kh_search(data, params, obj, cfg, refit)
        new_obj = _fit_xi(params, data, cfg.B)
        assert new_obj <= obj + 1e-9 * (1 + obj), "objective increased"
        obj = min(obj, new_obj)
        if prev - obj <= cfg.tol * (1.0 + prev):
            converged = True
            break
    return SieveFit(params, obj, converged, it)


def _mu_sweep(data, params, obj, cfg, refit):
    grid = params.grid
    K = grid.K
    coarse = np.linspace(-1.0, 1.0, cfg.mu_grid)
    spacing = coarse[1] - coarse[0]
    for k in range(grid.n_blocks):
        for j in range(grid.p):
            cur = float(params.mu_tilde[k, j])

            def mu_with(v):
                mt = params.mu_tilde
                mt[k, j] = v
                return grid.block_centers + mt / (2.0 * K)

            best_v, best_obj, best_xi = cur, obj, None
            for v in [*coarse, None]:
                if v is None:  # refine around the coarse winner
                    vals = np.clip(
                        best_v + spacing * np.array([-0.5, -0.25, 0.25, 0.5]),
                        -1.0, 1.0)
                else:
                    vals = [v]
                for vv in vals:
                    if vv == cur:
                        continue
                    trial_obj, trial_xi = _rss_at(params, mu_with(vv), params.h,
                                                  data, cfg, refit)
                    if trial_obj < best_obj:
                        best_v, best_obj, best_xi = float(vv), trial_obj, trial_xi
            if best_v != cur:
                params.mu[:] = mu_with(best_v)
                params.xi[:] = best_xi
                obj = best_obj
    return obj


def _kh_search(data, params, obj, cfg, refit):
    K = params.grid.K

    def f(kh):
        return _rss_at(params, params.mu, kh / K, data, cfg, refit)  # (RSS, xi)

    grid_vals = np.linspace(cfg.h_lo, cfg.h_hi, cfg.mu_grid)
    fits = [f(v) for v in grid_vals]
    i = int(np.argmin([rss for rss, _ in fits]))
    best_kh, (best_obj, best_xi) = float(grid_vals[i]), fits[i]
    lo = grid_vals[max(i - 1, 0)]
    hi = grid_vals[min(i + 1, len(grid_vals) - 1)]
    # golden-section refinement inside the bracketing interval
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(30):
        if fc[0] < fd[0]:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    for kh, (val, xi) in ((c, fc), (d, fd)):
        if val < best_obj:
            best_kh, best_obj, best_xi = float(kh), val, xi
    if best_obj < obj:
        params.h = best_kh / K
        params.xi[:] = best_xi
        return best_obj
    return obj

