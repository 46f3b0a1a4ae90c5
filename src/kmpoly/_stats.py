"""Small shared numerics: truncated distributions and boundary reflection."""

from __future__ import annotations

import math

import numpy as np
from scipy import special


def reflect(x, lo, hi):
    """Fold x, a float or an array, into [lo, hi] by repeated reflection at
    the endpoints.

    Python's float ``%`` takes the sign of the divisor, as ``np.mod`` does,
    so a float and an array entry of the same value fold to the same bits.
    A fold past the midpoint, y > width, is 2 width - y exactly (Sterbenz),
    so taking the smaller of y and 2 width - y reflects only those.
    """
    width = hi - lo
    y = (x - lo) % (2.0 * width)
    return lo + np.minimum(y, 2.0 * width - y)


def truncnorm_ppf(u, mean, sd, lo, hi):
    """Quantile u in [0, 1) of N(mean, sd^2) truncated to [lo, hi]: a draw
    when u is uniform.

    Falls back to the upper/lower tail parameterization when the box sits
    far in a tail, and clips to the nearer endpoint if even that underflows.
    A box far out in a very wide normal (sd ~ 1e17, from a coefficient whose
    kernel values are nearly zero) leaves mean + sd z to cancellation, off
    by an ulp of the mean, so the result is clipped to the box as well.
    """
    if not sd > 0:
        raise ValueError("sd must be positive")
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    if a > 0:  # entire box in the upper tail: work with survival functions
        sa, sb = special.ndtr(-a), special.ndtr(-b)
        if sa - sb <= 0.0:
            return float(lo)
        z = -special.ndtri(sa - u * (sa - sb))
    elif b < 0:
        fa, fb = special.ndtr(a), special.ndtr(b)
        if fb - fa <= 0.0:
            return float(hi)
        z = special.ndtri(fa + u * (fb - fa))
    else:
        fa, fb = special.ndtr(a), special.ndtr(b)
        z = special.ndtri(fa + u * (fb - fa))
    x = mean + sd * min(max(z, a), b)
    return float(min(max(x, lo), hi))


def invgamma_cdf(x, shape, scale):
    """CDF at a float x of the inverse-gamma(shape, scale) distribution
    (density proportional to x^{-shape-1} exp(-scale/x))."""
    if not x > 0:
        return 0.0
    return float(special.gammaincc(shape, scale / max(x, 1e-300)))


def trunc_invgamma_sample(rng, shape, scale, lo, hi):
    """One draw from inverse-gamma(shape, scale) truncated to [lo, hi]."""
    flo = invgamma_cdf(lo, shape, scale)
    fhi = invgamma_cdf(hi, shape, scale)
    if fhi - flo <= 0.0:
        # all mass numerically outside the box: return the nearer endpoint
        return float(lo) if flo >= 1.0 else float(hi)
    u = flo + rng.random() * (fhi - flo)
    u = min(max(u, 1e-300), 1 - 1e-16)
    z = special.gammainccinv(shape, u)
    x = scale / z
    return float(min(max(x, lo), hi))


def invgamma_logpdf(x, shape, scale):
    """Unnormalized-free log density of inverse-gamma(shape, scale)."""
    if x <= 0:
        return -np.inf
    return shape * math.log(scale) - special.gammaln(shape) - (shape + 1) * math.log(x) - scale / x
