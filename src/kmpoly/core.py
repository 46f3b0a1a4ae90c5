"""Partition geometry, boxed kernels, mixture weights and the polynomial basis.

The regression function is a sum, over blocks of a hypercube partition of
(0, 1]^p, of kernel-mixture weights (kernel values over their row sum, see
:func:`normalize_weights`) multiplied by centered monomials.  All evaluation
routines here are pure and vectorized over the input points.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

KERNEL_FAMILIES = ("bump", "triangle", "epanechnikov")


def _check_points(x, p):
    """Coerce x to an (n, p) array of points inside (0, 1]^p.

    A coordinate exactly equal to 0 is accepted and assigned to the first
    block (closure convention); anything outside [0, 1] is a domain error.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if p == 1:
            x = x[:, None]
        else:
            x = x[None, :]
    if x.ndim != 2 or x.shape[1] != p:
        raise ValueError(f"expected points of dimension {p}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite design point")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("design point outside [0, 1]^p")
    return x


@dataclass(frozen=True)
class PartitionGrid:
    """K^p disjoint hypercube blocks tiling (0, 1]^p, one kernel center each.

    Blocks are ordered lexicographically in the multi-index
    (k_1, ..., k_p), each k_j in {1, ..., K}.
    """

    K: int
    p: int = 1

    def __post_init__(self):
        if self.K < 1 or self.p < 1:
            raise ValueError("K and p must be positive integers")

    @property
    def n_blocks(self):
        return self.K**self.p

    @functools.cached_property
    def block_centers(self):
        """Array (K^p, p) of fixed block centers (2k_j - 1) / (2K)."""
        axes = [np.arange(1, self.K + 1)] * self.p
        ks = np.array(list(itertools.product(*axes)), dtype=float)
        return (2.0 * ks - 1.0) / (2.0 * self.K)

    def block_index(self, x):
        """Map points to flat block indices (0-based, lexicographic order)."""
        x = _check_points(x, self.p)
        # ceil(K x) with 0 mapped into the first block
        kj = np.ceil(self.K * x).astype(int)
        kj = np.clip(kj, 1, self.K)
        flat = np.zeros(x.shape[0], dtype=int)
        for j in range(self.p):
            flat = flat * self.K + (kj[:, j] - 1)
        return flat

    @functools.cached_property
    def closure(self):
        """Read-only bounds (lo, hi), each (K^p, p), of the closed blocks,
        1e-12 wider."""
        half = 0.5 / self.K
        lo = self.block_centers - half - 1e-12
        hi = self.block_centers + half + 1e-12
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi

    def contains(self, mu):
        """Check that mu[l] lies in the closure of block l for every l."""
        mu = np.asarray(mu, dtype=float)
        lo, hi = self.closure
        return bool(np.all(mu >= lo) and np.all(mu <= hi))


# outside the support the exponent is -1e300, whose exp is 0; that
# underflow, and t * t overflowing for huge t, are expected (the decorator
# form of errstate costs a fraction of the with-statement's)
@np.errstate(under="ignore", over="ignore")
def _bump(t):
    """Bump profile exp(-1 / max(1 - t^2, 1e-300)), formed in place."""
    u = np.multiply(t, t, out=np.empty(t.shape))
    np.subtract(1.0, u, out=u)
    np.maximum(u, 1e-300, out=u)
    np.divide(-1.0, u, out=u)
    return np.exp(u, out=u)


@dataclass(frozen=True)
class KernelSpec:
    """A boxed kernel profile with bandwidth h, evaluated at sup-norm radius.

    The profile maps [0, 1) to (0, 1] and vanishes for radii >= 1; the
    multivariate kernel is profile(||v||_inf / h).
    """

    family: str = "bump"
    h: float = 1.0

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError("bandwidth must be a positive finite real")

    def profile(self, t):
        """Univariate profile at radii t >= 0 (inf included), zero for t >= 1."""
        t = np.asarray(t, dtype=float)
        if self.family == "bump":
            return _bump(t)
        inside = t < 1.0
        if self.family == "triangle":
            return np.where(inside, 1.0 - t, 0.0)
        return np.where(inside, 1.0 - t**2, 0.0)  # epanechnikov


def sup_dist(a, b=None):
    """Sup-norm distances max_j |a[..., j] - b[..., j]| between points
    stacked along broadcasting leading axes (norms of ``a`` if ``b`` is None).

    Equal to ``np.max(np.abs(a - b), axis=-1)``, but folded one coordinate
    at a time, without the (..., p) difference array or a strided reduce.
    """
    def coord(j):
        return a[..., j] if b is None else a[..., j] - b[..., j]

    r = np.abs(coord(0))
    for j in range(1, a.shape[-1]):
        np.maximum(r, np.abs(coord(j)), out=r)
    return r


def eval_kernel(spec: KernelSpec, v):
    """Evaluate the boxed kernel phi(||v||_inf / h) at one or many offsets v."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite kernel argument")
    if v.ndim <= 1:
        r = np.max(np.abs(np.atleast_1d(v)))
        return float(spec.profile(np.asarray(r / spec.h)))
    return spec.profile(sup_dist(v) / spec.h)


@dataclass(frozen=True)
class MultiIndexSet:
    """All multi-indices s in {0..m}^p with total degree |s| <= m.

    Ordered by total degree, then lexicographically; the zero index comes
    first.  Cardinality is binomial(p + m, m).
    """

    p: int
    m: int

    def __post_init__(self):
        if self.p < 1 or self.m < 0:
            raise ValueError("need p >= 1 and m >= 0")

    @functools.cached_property
    def indices(self):
        out = []
        for deg in range(self.m + 1):
            for s in itertools.product(range(deg + 1), repeat=self.p):
                if sum(s) == deg:
                    out.append(s)
        return sorted(out, key=lambda s: (sum(s), s))

    def __len__(self):
        return math.comb(self.p + self.m, self.m)

    @functools.cached_property
    def _powers(self):
        return np.array(self.indices, dtype=int)

    def powers(self):
        """Indices as an (n_s, p) integer array."""
        return self._powers


@functools.lru_cache(maxsize=None)
def _mindex_cached(p, m):
    return MultiIndexSet(p, m)


@dataclass
class KmpParams:
    """One draw of the model: partition, bandwidth, centers, coefficients, noise.

    Coefficients xi have shape (K^p, n_s) in the block-major order used by
    :func:`basis_matrix`.
    """

    grid: PartitionGrid
    h: float
    mu: np.ndarray
    xi: np.ndarray
    sigma: float
    m: int = 2
    kernel: str = "bump"

    def __post_init__(self):
        self.mu = np.atleast_2d(np.asarray(self.mu, dtype=float))
        if self.mu.shape != (self.grid.n_blocks, self.grid.p):
            raise ValueError("mu must have shape (K^p, p)")
        self.xi = np.asarray(self.xi, dtype=float)
        n_s = len(_mindex_cached(self.grid.p, self.m))
        if self.xi.shape != (self.grid.n_blocks, n_s):
            raise ValueError(f"xi must have shape (K^p, {n_s})")

    @property
    def spec(self):
        return KernelSpec(self.kernel, self.h)

    @property
    def mindex(self):
        return _mindex_cached(self.grid.p, self.m)

    @property
    def mu_tilde(self):
        """Centers in the local [-1, 1]^p block coordinates."""
        return 2.0 * self.grid.K * (self.mu - self.grid.block_centers)

    def copy(self):
        return KmpParams(self.grid, self.h, self.mu.copy(), self.xi.copy(),
                         self.sigma, self.m, self.kernel)

    def validate(self, B=np.inf, h_lo=1.0, h_hi=np.inf,
                 sigma_lo=0.0, sigma_hi=np.inf):
        """Raise ValueError naming the first constraint of the function class
        that this draw breaks: the T=1 case of :func:`draw_violations`."""
        cols = {"h": np.array([self.h]), "mu": self.mu[None],
                "xi": self.xi[None], "sigma": np.array([self.sigma])}
        for name, bad, reason in draw_violations(self.grid, *cols.values(), B,
                                                 h_lo, h_hi, sigma_lo, sigma_hi):
            if bad.any():
                i = tuple(np.argwhere(bad)[0])
                v = cols[name][i]
                raise ValueError(f"{name} = {v} {reason(v, i)}")


def draw_violations(grid: PartitionGrid, h, mu, xi, sigma, B=np.inf, h_lo=1.0,
                    h_hi=np.inf, sigma_lo=0.0, sigma_hi=np.inf):
    """Where T stacked draws leave the function class, one condition at a time.

    h and sigma are (T,), mu (T, K^p, p) and xi (T, K^p, n_s).  Returns a
    list of (column, mask, reason): the mask, shaped like the column, is
    True where a value breaks the condition, and ``reason(value, index)``
    words it.  The conditions, in order: finite values, Kh > 1,
    h_lo <= Kh <= h_hi, every center in its block's closure, |xi| <= B,
    sigma > 0 and sigma_lo <= sigma <= sigma_hi, the given bounds widened
    by 1e-12.
    """
    K, tol = grid.K, 1e-12
    kh = K * h
    lo, hi = grid.closure
    cols = {"h": h, "mu": mu, "xi": xi, "sigma": sigma}
    checks = [(name, ~np.isfinite(v), lambda v, i: "is not finite")
              for name, v in cols.items()]
    return checks + [
        ("h", ~(kh > 1.0), lambda v, i: f"gives Kh = {K * v} <= 1"),
        ("h", ~(kh >= h_lo - tol),
         lambda v, i: f"gives Kh = {K * v} below h_lo = {h_lo}"),
        ("h", ~(kh <= h_hi + tol),
         lambda v, i: f"gives Kh = {K * v} above h_hi = {h_hi}"),
        ("mu", ~((mu >= lo) & (mu <= hi)),
         lambda v, i: f"lies outside the closure of block {i[-2]}"),
        ("xi", ~(np.abs(xi) <= B + tol),
         lambda v, i: f"lies outside [-B, B] with B = {B}"),
        ("sigma", ~(sigma > 0.0), lambda v, i: "is not positive"),
        ("sigma", ~(sigma >= sigma_lo - tol),
         lambda v, i: f"is below sigma_lo = {sigma_lo}"),
        ("sigma", ~(sigma <= sigma_hi + tol),
         lambda v, i: f"is above sigma_hi = {sigma_hi}"),
    ]


def support_pairs(grid: PartitionGrid, x, reach):
    """The (point, block) pairs where a kernel of block k can be nonzero.

    A kernel that reaches at most ``reach`` (a scalar, or one per block)
    from its block's fixed center is zero at x_i unless
    ||x_i - mu*_k||_inf < reach; 1e-9 more covers centers on the
    1e-12-wide block closure and rounding in the distances.  Returns
    (blk, rows), sorted by block, then by row.
    """
    near = sup_dist(x[None], grid.block_centers[:, None])
    return np.nonzero(near < np.reshape(reach, (-1, 1)) + 1e-9)


def normalize_weights(phi, S=None):
    """Mixture weights w_l = phi_l / sum_k phi_k from kernel values phi, (..., K^p).

    ``S``, if given, holds the row sums already formed, broadcast against
    phi (the sampler passes one per kernel value it keeps).  Kh > 1 keeps
    every row sum positive: the nearest center is within sup-distance
    1/K < h of any point.  A zero row sum (Kh <= 1, or a bump value
    underflowing just inside its support) raises FloatingPointError.
    """
    if S is None:
        S = np.sum(phi, axis=-1, keepdims=True)
    if not np.all(S > 0.0):
        raise FloatingPointError("empty kernel neighborhood; is Kh > 1?")
    return phi / S


def mixture_weights(params: KmpParams, x):
    """Kernel mixture weights over the K^p blocks, shape (n, K^p).

    Each row is nonnegative and sums to one; entry l vanishes exactly when
    ||x - mu_l||_inf >= h.
    """
    x = _check_points(x, params.grid.p)
    diff = x[:, None, :] - params.mu[None, :, :]        # (n, K^p, p)
    return normalize_weights(eval_kernel(params.spec, diff))


def monomial_tensor(grid: PartitionGrid, m: int, x):
    """Centered monomials (x - mu*_k)^s for all blocks/indices, (n, K^p, n_s).

    Depends only on the fixed block centers, so samplers can precompute it
    once per dataset and reuse it across geometry moves.
    """
    x = _check_points(x, grid.p)
    mindex = _mindex_cached(grid.p, m)
    powers = mindex.powers()  # (n_s, p)
    diff = x[:, None, :] - grid.block_centers[None, :, :]  # (n, K^p, p)
    n, nb = diff.shape[:2]
    mono = np.ones((n, nb, powers.shape[0]))
    for i, s in enumerate(powers):
        for j in range(grid.p):
            if s[j]:
                mono[:, :, i] *= diff[:, :, j] ** s[j]
    return mono


def basis_matrix(params: KmpParams, x):
    """Design matrix of the full basis system, shape (n, K^p * n_s).

    Column k * n_s + i holds psi_{k, s_i}(x) = w_k(x) (x - mu*_k)^{s_i};
    this block-major layout matches ``params.xi.ravel()``.
    """
    grid = params.grid
    x = _check_points(x, grid.p)
    w = mixture_weights(params, x)
    mono = monomial_tensor(grid, params.m, x)
    n, nb, n_s = mono.shape
    return (w[:, :, None] * mono).reshape(n, nb * n_s)


def eval_basis(params: KmpParams, k, s, x):
    """Evaluate a single basis function psi_{k s} at points x.

    k is a flat 0-based block index; s a multi-index tuple from the model's
    MultiIndexSet.
    """
    idx = params.mindex.indices.index(tuple(s))
    n_s = len(params.mindex)
    return basis_matrix(params, x)[:, k * n_s + idx]


def eval_f(params: KmpParams, x):
    """Evaluate the kernel mixture of polynomials regression function."""
    return _eval_curves(params.grid, params.m, params.kernel,
                        np.array([params.h]), params.mu[None], params.xi[None], x)[0]


# largest (draw x window pair) batch of kernel radii _eval_curves builds at once
BATCH_ELEMENTS = 1 << 16


def _eval_curves(grid: PartitionGrid, m: int, kernel: str, h, mu, xi, x):
    """Regression curves of T draws at points x, shape (T, n).

    The draws share grid, m and kernel and are stacked as h (T,),
    mu (T, K^p, p) and xi (T, K^p, n_s).  Kernel k of draw t is zero beyond
    sup-distance h_t of mu_tk, so only the points within
    max_t (h_t + ||mu_tk - mu*_k||_inf) of block k's fixed center can feel
    it: they form block k's window (:func:`support_pairs`), padded to the
    widest window W by repeating point 0.  For a batch of draws, the kernel
    values and the block polynomials are formed on the windows only, laid
    out (K^p, W, draws) so that the draws of one window slot, which mostly
    share whether they lie inside the support, sit side by side.  The sparse
    n x (K^p W) matrix A holds 1.0 at (point, k W + slot) for each real
    window slot and nothing for padding, so A @ phi gives each point's
    kernel row sum S, and A @ (phi P) its numerator sum_k phi_k P_k, which
    :func:`normalize_weights` divides once per (draw, point).  A row of A
    lists its columns in block order, and scipy's CSR product starts each
    sum at 0.0 and adds the row's terms in column order, so every sum,
    signed zeros included, is the block-order sum from 0.0 that a bincount
    over the points forms.  A batch holds at most ``BATCH_ELEMENTS``
    (draw, window pair) radii, or one draw if a single draw exceeds it.
    """
    x = _check_points(x, grid.p)
    n, nb = x.shape[0], grid.n_blocks
    reach = np.max(h[:, None] + sup_dist(mu, grid.block_centers), axis=0)
    blk, rows = support_pairs(grid, x, reach)
    pos = np.arange(blk.size) - np.searchsorted(blk, blk)   # place in window
    W = np.bincount(blk, minlength=nb).max()
    idx = np.zeros((nb, W), dtype=int)                      # 0: padding
    idx[blk, pos] = rows
    xw = x[idx][:, :, None]
    mono = np.zeros((nb, len(_mindex_cached(grid.p, m)), W))
    mono[blk, :, pos] = monomial_tensor(grid, m, x)[rows, blk]
    # used as a (K^p, W, n_s) view: a one-draw batch's polynomials are a
    # BLAS gemv, whose rounding follows the matrix's memory order, and this
    # order rounds them as the (K^p, draws, W) product of the bincount
    # reference in tests/test_sampler.py does
    mono = mono.transpose(0, 2, 1)
    A = sparse.csr_array(
        (np.ones(blk.size), (blk * W + pos)[np.argsort(rows, kind="stable")],
         np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])),
        shape=(n, nb * W))
    mu, xi = mu.transpose(1, 0, 2)[:, None], xi.transpose(1, 2, 0)
    spec = KernelSpec(kernel, 1.0)
    T = h.shape[0]
    out = np.empty((T, n))
    step = max(1, BATCH_ELEMENTS // max(1, idx.size))
    for a in range(0, T, step):
        t = slice(a, a + step)
        tb = h[t].shape[0]
        phi = spec.profile(sup_dist(xw, mu[:, :, t]) / h[t])   # (K^p, W, tb)
        S = A @ phi.reshape(nb * W, tb)
        num = A @ (phi * (mono @ xi[:, :, t])).reshape(nb * W, tb)
        out[t] = normalize_weights(num, S).T
    return out


def _central_diff(f, x, s, step=1e-4):
    """Mixed central finite difference D^s f at a single point, order by order."""
    s = list(s)
    for j, order in enumerate(s):
        if order > 0:
            sj = s[:j] + [order - 1] + s[j + 1 :]
            hi = np.array(x, dtype=float)
            lo = np.array(x, dtype=float)
            hi[j] += step
            lo[j] -= step
            return (_central_diff(f, hi, sj, step) - _central_diff(f, lo, sj, step)) / (2 * step)
    return f(np.asarray(x, dtype=float))


def taylor_project(f0, grid: PartitionGrid, m: int, derivs=None, fd_step=1e-4):
    """Coefficients matching the local Taylor expansion of f0 at block centers.

    Sets xi_{k s} = D^s f0(mu*_k) / (s_1! ... s_p!).  ``derivs(point, s)``
    may supply analytic derivatives; otherwise central finite differences
    with step ``fd_step`` are used.  Intended for approximation-rate tests.
    """
    mindex = MultiIndexSet(grid.p, m)
    centers = grid.block_centers
    xi = np.zeros((grid.n_blocks, len(mindex)))
    if grid.p == 1:
        f0_point = lambda x: float(f0(float(x[0])))
    else:
        f0_point = lambda x: float(f0(x))
    for k in range(grid.n_blocks):
        c = centers[k]
        for i, s in enumerate(mindex.indices):
            if derivs is not None:
                d = derivs(c, s)
            else:
                d = _central_diff(f0_point, c, s, fd_step)
            xi[k, i] = d / math.prod(math.factorial(sj) for sj in s)
    return xi
