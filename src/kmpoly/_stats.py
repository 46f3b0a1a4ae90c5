"""Small shared numerics: truncated distributions and boundary reflection."""

from __future__ import annotations

import math

import numpy as np
from scipy import special


def reflect(x, lo, hi):
    """Fold a float x into [lo, hi] by repeated reflection at the endpoints.

    Python's float ``%`` takes the sign of the divisor, as ``np.mod`` does,
    so this matches the array formula bit for bit.
    """
    width = hi - lo
    y = (x - lo) % (2.0 * width)
    if y > width:
        y = 2.0 * width - y
    return lo + y


def truncnorm_sample(rng, mean, sd, lo, hi):
    """One draw from N(mean, sd^2) truncated to [lo, hi], via inverse CDF.

    Falls back to the upper/lower tail parameterization when the box sits
    far in a tail, and clips to the nearer endpoint if even that underflows.
    """
    if not sd > 0:
        raise ValueError("sd must be positive")
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    u = rng.uniform()
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
    return float(mean + sd * min(max(z, a), b))


def truncnorm_logpdf(x, mean, sd, lo, hi):
    """Log density of the truncated normal at x (-inf outside [lo, hi])."""
    if x < lo or x > hi:
        return -np.inf
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    mass = special.ndtr(b) - special.ndtr(a)
    z = (x - mean) / sd
    return -0.5 * z * z - 0.5 * math.log(2 * math.pi) - math.log(sd) - math.log(mass)


def invgamma_cdf(x, shape, scale):
    """CDF of the inverse-gamma(shape, scale) distribution (density
    proportional to x^{-shape-1} exp(-scale/x))."""
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, special.gammaincc(shape, scale / np.maximum(x, 1e-300)), 0.0)
    return out


def trunc_invgamma_sample(rng, shape, scale, lo, hi):
    """One draw from inverse-gamma(shape, scale) truncated to [lo, hi]."""
    flo = float(invgamma_cdf(lo, shape, scale))
    fhi = float(invgamma_cdf(hi, shape, scale))
    if fhi - flo <= 0.0:
        # all mass numerically outside the box: return the nearer endpoint
        return float(lo) if flo >= 1.0 else float(hi)
    u = flo + rng.uniform() * (fhi - flo)
    u = min(max(u, 1e-300), 1 - 1e-16)
    z = special.gammainccinv(shape, u)
    x = scale / z
    return float(min(max(x, lo), hi))


def invgamma_logpdf(x, shape, scale):
    """Unnormalized-free log density of inverse-gamma(shape, scale)."""
    if x <= 0:
        return -np.inf
    return shape * math.log(scale) - special.gammaln(shape) - (shape + 1) * math.log(x) - scale / x
