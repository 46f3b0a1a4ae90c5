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

    def closure(self):
        """Bounds (lo, hi), each (K^p, p), of the closed blocks, 1e-12 wider."""
        half = 0.5 / self.K
        return self.block_centers - half - 1e-12, self.block_centers + half + 1e-12

    def contains(self, mu):
        """Check that mu[l] lies in the closure of block l for every l."""
        mu = np.asarray(mu, dtype=float)
        lo, hi = self.closure()
        return bool(np.all(mu >= lo) and np.all(mu <= hi))


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
        """Univariate profile at radii t >= 0, zero for t >= 1."""
        t = np.asarray(t, dtype=float)
        inside = t < 1.0
        if self.family == "bump":
            # exponentiate only inside the support
            out = np.zeros(t.shape)
            out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
            return out
        if self.family == "triangle":
            return np.where(inside, 1.0 - t, 0.0)
        return np.where(inside, 1.0 - t**2, 0.0)  # epanechnikov


def eval_kernel(spec: KernelSpec, v):
    """Evaluate the boxed kernel phi(||v||_inf / h) at one or many offsets v."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite kernel argument")
    if v.ndim <= 1:
        r = np.max(np.abs(np.atleast_1d(v)))
        return float(spec.profile(np.asarray(r / spec.h)))
    r = np.max(np.abs(v), axis=-1)
    return spec.profile(r / spec.h)


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
        """Raise if any constraint of the function class is violated."""
        K = self.grid.K
        kh = K * self.h
        if not (h_lo - 1e-12 <= kh <= h_hi + 1e-12):
            raise ValueError(f"Kh = {kh} outside [{h_lo}, {h_hi}]")
        if kh <= 1.0:
            raise ValueError("need Kh > 1 for a positive weight denominator")
        if not self.grid.contains(self.mu):
            raise ValueError("some kernel center left its block")
        if np.max(np.abs(self.xi)) > B + 1e-12:
            raise ValueError("coefficient outside [-B, B]")
        if not (sigma_lo - 1e-12 <= self.sigma <= sigma_hi + 1e-12):
            raise ValueError("sigma outside its bounds")


def normalize_weights(phi):
    """Mixture weights w_l = phi_l / sum_k phi_k from kernel values phi, (..., K^p).

    Kh > 1 keeps every row sum positive: the nearest center is within
    sup-distance 1/K < h of any point.  A zero row sum (Kh <= 1, or a bump
    value underflowing just inside its support) raises FloatingPointError.
    """
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


# largest (draw x point x block) batch _eval_curves builds at once
BATCH_ELEMENTS = 1 << 16


def _eval_curves(grid: PartitionGrid, m: int, kernel: str, h, mu, xi, x):
    """Regression curves of T draws at points x, shape (T, n).

    The draws share grid, m and kernel and are stacked as h (T,),
    mu (T, K^p, p) and xi (T, K^p, n_s).  The monomial tensor is built once;
    draws are processed in batches of at most ``BATCH_ELEMENTS`` radii
    (fewer than one draw's worth only when a single draw exceeds it).
    """
    x = _check_points(x, grid.p)
    mono = monomial_tensor(grid, m, x)                   # (n, K^p, n_s)
    n, nb = mono.shape[:2]
    T = h.shape[0]
    spec = KernelSpec(kernel, 1.0)
    out = np.empty((T, n))
    step = max(1, BATCH_ELEMENTS // max(1, n * nb))
    for a in range(0, T, step):
        t = slice(a, a + step)
        diff = x[None, :, None, :] - mu[t, None, :, :]    # (t, n, K^p, p)
        r = np.max(np.abs(diff), axis=-1) / h[t, None, None]
        w = normalize_weights(spec.profile(r))
        # the optimal order, fixed to skip a path search per batch: the
        # monomials with xi over s first, then the weights over blocks
        out[t] = np.einsum("tnk,nks,tks->tn", w, mono, xi[t],
                           optimize=["einsum_path", (1, 2), (0, 1)])
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
