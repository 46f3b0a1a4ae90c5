"""Frequentist sieve maximum likelihood: box-constrained least squares over
the kernel-mixture-of-polynomials class by block coordinate descent.

With the noise scale fixed, maximizing the Gaussian log-likelihood equals
minimizing the residual sum of squares, so the inner coefficient problem is
a convex box-constrained least-squares solve; the kernel centers and the
bandwidth are low-dimensional and handled by grid/golden-section searches.
Where the box binds, that solve runs on the QR factor of [basis | y], so
its active-set work does not grow with n (:func:`solve_xi_box`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import KmpParams, MultiIndexSet, PartitionGrid, sup_dist
from .fixed_design import choose_Kn
from .priors import PriorConfig
from .sampler import ChainState

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def solve_xi_box(y, psi, B, tol=1e-10, max_sweeps=200):
    """Minimize ||y - psi xi||^2 subject to ||xi||_inf <= B.

    The unconstrained least-squares solution is computed first and returned
    when it already satisfies the box.  Otherwise an active-set bounded
    least-squares solve is polished by projected coordinate descent with
    exact coordinate minimizers until the KKT residual of every coordinate
    is below tol times the problem scale (from the caller's y).  Both leave
    out psi's zero columns, whose coefficients stay 0: the loss does not
    depend on them.

    Both run on the triangular factor R = [A | b] of the QR decomposition
    of [psi | y] (without its zero columns), which has min(n, ncoef + 1)
    rows however large n is.  Q is orthogonal, so ||y - psi xi||^2 =
    ||b - A xi||^2 (where n > ncoef, A's last row is zero and b's last
    entry adds only a constant): the minimizer, the gradient
    psi'(y - psi xi) = A'(b - A xi) and with them the KKT test are those of
    the original problem.
    """
    if not B >= 0:
        raise ValueError(f"need B >= 0, got B = {B}")
    y = np.asarray(y, dtype=float)
    psi = np.asarray(psi, dtype=float)
    xi = np.zeros(psi.shape[1])
    if B == 0:
        return xi
    ls, *_ = np.linalg.lstsq(psi, y, rcond=None)
    if np.max(np.abs(ls)) <= B:
        return ls
    scale = max(float(y @ y), 1.0)
    live = np.einsum("ij,ij->j", psi, psi) > 0.0
    ra = np.linalg.qr(np.column_stack([psi[:, live], y]), mode="r")
    A, b = ra[:, :-1], ra[:, -1]
    d = np.einsum("ij,ij->j", A, A)
    x = np.clip(_bvls(A, b, B), -B, B)
    r = b - A @ x
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(x.shape[0]):
            if d[j] == 0.0:
                continue
            old = x[j]
            new = (float(A[:, j] @ r) + d[j] * old) / d[j]
            new = min(max(new, -B), B)
            if new != old:
                r -= A[:, j] * (new - old)
                x[j] = new
                delta = max(delta, abs(new - old))
        if delta == 0.0 or _kkt_residual(A, r, x, B, d) <= tol * scale:
            break
    xi[live] = x
    return xi


def _bvls(A, b, B):
    """Minimize ||A x - b|| subject to -B <= x <= B by bounded-variable least
    squares (Stark & Parker 1995, Computational Statistics 10:129-141).

    A port of scipy's BSD-licensed ``scipy/optimize/_lsq/bvls.py`` as
    ``lsq_linear(A, b, bounds=(-B, B), method="bvls")`` runs it (scipy
    1.17), matching it step for step and so bit for bit, without its verbose
    output and result bookkeeping.  The least-squares solution is returned
    if it lies in the box.  Else the initialization loop fixes at their
    bound the free variables whose least-squares value leaves the box until
    the rest is feasible; Loop A frees the bound variable that violates the
    KKT conditions most, and Loop B steps the free variables toward their
    least-squares value, fixing the first to reach a bound, until that value
    is feasible.  It stops when the KKT violation or the relative cost
    decrease is below tol = 1e-10 (lsq_linear's default), or after n passes
    of Loop A.
    """
    n, tol = A.shape[1], 1e-10
    x = np.linalg.lstsq(A, b, rcond=-1)[0]
    if np.all((x >= -B) & (x <= B)):
        return x
    on_bound = np.zeros(n)
    on_bound[x <= -B] = -1.0
    on_bound[x >= B] = 1.0
    x = np.clip(x, -B, B)
    free = np.flatnonzero(on_bound == 0)
    while free.size > 0:  # initialization loop
        z = np.linalg.lstsq(A[:, free], b - A.dot(x * (on_bound != 0)),
                            rcond=None)[0]
        lbv, ubv = z < -B, z > B
        v = lbv | ubv
        x[free[lbv]], on_bound[free[lbv]] = -B, -1.0
        x[free[ubv]], on_bound[free[ubv]] = B, 1.0
        x[free[~v]] = z[~v]
        if not v.any():
            break
        free = free[~v]
    r = A.dot(x) - b
    cost = 0.5 * np.dot(r, r)
    g = A.T.dot(r)
    for _ in range(n):  # Loop A
        if np.max(np.where(on_bound == 0, np.abs(g), g * on_bound)) < tol:
            break
        on_bound[np.argmax(g * on_bound)] = 0.0
        while True:  # Loop B
            free = np.flatnonzero(on_bound == 0)
            x_free = x[free]
            z = np.linalg.lstsq(A[:, free], b - A.dot(x * (on_bound != 0)),
                                rcond=None)[0]
            lbv, = np.nonzero(z < -B)
            ubv, = np.nonzero(z > B)
            v = np.hstack((lbv, ubv))
            if v.size == 0:
                x[free] = z
                break
            alphas = np.hstack((-B - x_free[lbv], B - x_free[ubv])) \
                / (z[v] - x_free[v])
            i = np.argmin(alphas)
            x_free *= 1 - alphas[i]
            x_free += alphas[i] * z
            x[free] = x_free
            on_bound[free[v[i]]] = -1.0 if i < lbv.size else 1.0
        r = A.dot(x) - b
        cost_new = 0.5 * np.dot(r, r)
        if cost - cost_new < tol * cost:
            break
        cost = cost_new
        g = A.T.dot(r)
    return x


def _kkt_residual(psi, r, xi, B, d):
    g = -(psi.T @ r)  # half-gradient of the squared loss
    # per coordinate: at the upper bound only a positive gradient (a descent
    # direction into the box) violates optimality, at the lower bound only
    # a negative one; interior coordinates need a zero gradient
    res = np.where(xi >= B - 1e-14, np.maximum(g, 0.0),
                   np.where(xi <= -B + 1e-14, np.maximum(-g, 0.0), np.abs(g)))
    return float(np.max(res[d != 0.0], initial=0.0))


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
        if not self.B >= 0:
            raise ValueError(f"need B >= 0, got B = {self.B}")


@dataclass
class SieveFit:
    params: KmpParams
    objective: float           # residual sum of squares
    converged: bool
    n_outer: int
    start_objectives: list = field(default_factory=list)


def _score(state, phi, B, refit=True, resid=None):
    """(RSS, xi) at kernel values phi on the state's pairs (its own if None):
    xi solved in the box if ``refit``, else the state's, with ``resid`` its
    residual if already formed."""
    y = state.data.y
    if refit:
        psi = state.basis(phi)
        xi = solve_xi_box(y, psi, B)
        r = y - psi @ xi
        return float(r @ r), xi.reshape(state.params.xi.shape)
    if resid is None:
        resid = y - state._fit(phi, state._row_sums(phi))
    return float(resid @ resid), state.params.xi


def _fit_xi(state, B):
    """Set xi to the box-constrained fit at the state's geometry; its RSS."""
    obj, state.params.xi[:] = _score(state, None, B)
    state.refresh()
    return obj


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
    best.params.sigma = (cfg.sigma0 if cfg.sigma0 is not None
                         else math.sqrt(max(best.objective / data.n, 1e-30)))
    return best


def _descend(data, params, cfg, refit):
    # ChainState reads only h_hi from its prior, to size the pair list
    state = ChainState(params, data, PriorConfig(h_lo=cfg.h_lo, h_hi=cfg.h_hi))
    obj = _fit_xi(state, cfg.B)
    for it in range(1, cfg.max_outer + 1):
        prev = obj
        obj = _mu_sweep(state, obj, cfg, refit)
        obj = _kh_search(state, obj, cfg, refit)
        if not refit:
            # with refit on, params.xi already is the solve at this geometry
            new_obj = _fit_xi(state, cfg.B)
            assert new_obj <= obj + 1e-9 * (1 + obj), "objective increased"
            obj = min(obj, new_obj)
        if prev - obj <= cfg.tol * (1.0 + prev):
            return SieveFit(params, obj, True, it)
    return SieveFit(params, obj, False, cfg.max_outer)


def _mu_sweep(state, obj, cfg, refit):
    params = state.params
    coarse = np.linspace(-1.0, 1.0, cfg.mu_grid)
    refine = (coarse[1] - coarse[0]) * np.array([-0.5, -0.25, 0.25, 0.5])
    for k in range(params.grid.n_blocks):
        for j in range(params.grid.p):
            cur = float(params.mu_tilde[k, j])
            best_v, best_obj, best = cur, obj, None
            for v in [*coarse, None]:
                # after the coarse grid (v None), refine around its winner
                vals = [v] if v is not None else np.clip(best_v + refine, -1.0, 1.0)
                for vv in vals:
                    if vv == cur:
                        continue
                    mu, phi = _with_center(state, k, j, vv)
                    trial_obj, trial_xi = _score(state, phi, cfg.B, refit)
                    if trial_obj < best_obj:
                        best_v, best_obj, best = float(vv), trial_obj, (mu, trial_xi)
            if best is not None:
                params.mu[:], params.xi[:] = best
                state.refresh()
                obj = best_obj
    return obj


def _with_center(state, k, j, v):
    """Centers with mu_tilde[k, j] = v, and the kernel values on the pairs
    there.  Only blocks whose center moved are re-evaluated: block k, and any
    other that the round trip through mu_tilde shifted by rounding."""
    params, off = state.params, state.offsets
    mt = params.mu_tilde
    mt[k, j] = v
    mu = params.grid.block_centers + mt / (2.0 * params.grid.K)
    phi = state.phi.copy()
    for i in np.flatnonzero(np.any(mu != params.mu, axis=1)):
        a, b = off[i], off[i + 1]
        phi[a:b] = params.spec.profile(sup_dist(state._xp[a:b], mu[i]) / params.h)
    return mu, phi


def _kh_search(state, obj, cfg, refit):
    params = state.params
    K = params.grid.K

    def f(kh):  # (RSS, xi)
        phi, _, resid = state.at_bandwidth(kh / K)
        return _score(state, phi, cfg.B, refit, resid)

    grid_vals = np.linspace(cfg.h_lo, cfg.h_hi, cfg.mu_grid)
    fits = [f(v) for v in grid_vals]
    i = int(np.argmin([rss for rss, _ in fits]))
    best_kh, (best_obj, best_xi) = float(grid_vals[i]), fits[i]
    # golden-section refinement inside the bracketing interval
    lo, hi = max(i - 1, 0), min(i + 1, len(grid_vals) - 1)
    a, b = float(grid_vals[lo]), float(grid_vals[hi])
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
        state.refresh()
        return best_obj
    return obj
