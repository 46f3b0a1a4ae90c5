"""Arithmetic behind the benchmark's reported numbers.

Pure functions only, so that ``test_stats.py`` can check each against a
case whose answer is known: self time of nested spans, the tail percentile
rule, and the bulk effective sample size of a chain.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

# candidate tail percentiles, highest last
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_value(samples):
    """Highest ladder percentile with at least ten samples beyond it.

    With fewer than 20 samples not even the median has ten beyond it, and
    the maximum is returned instead.
    """
    x = np.asarray(samples, dtype=float)
    n = x.shape[0]
    if n == 0:
        raise ValueError("no samples")
    usable = [p for p in TAIL_LADDER if n * (100.0 - p) >= 1000.0 - 1e-9]
    if not usable:
        return float(np.max(x))
    return float(np.percentile(x, usable[-1]))


def self_times(spans):
    """Self time of each span: its duration minus its direct children's.

    ``spans`` is a sequence of ``(start, end, parent)`` with ``parent`` the
    index of the enclosing span or -1.  Spans come from one thread's call
    stack, so children nest strictly inside their parent and never overlap.
    """
    out = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _autocov(x):
    """Biased autocovariance of each row of x at every lag, via FFT."""
    n = x.shape[-1]
    size = 1 << (2 * n - 1).bit_length()
    centered = x - x.mean(axis=-1, keepdims=True)
    spec = np.fft.rfft(centered, n=size, axis=-1)
    return np.fft.irfft(spec * np.conj(spec), n=size, axis=-1)[..., :n] / n


def bulk_ess(chain):
    """Bulk effective sample size of one chain (Vehtari et al. 2021).

    The chain is split in halves, rank-normalized to normal scores, and its
    autocorrelations are summed with Geyer's initial monotone sequence.
    """
    x = np.asarray(chain, dtype=float).ravel()
    half = x.shape[0] // 2
    if half < 4:
        raise ValueError("need at least 8 draws")
    x = x[:2 * half]
    if np.ptp(x) == 0.0:
        raise ValueError("constant chain has no effective sample size")
    ranks = np.empty_like(x)
    ranks[np.argsort(x, kind="stable")] = np.arange(1, x.shape[0] + 1)
    # average ranks over ties
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=ranks)
    ranks = (sums / counts)[inverse]
    z = special.ndtri((ranks - 0.375) / (x.shape[0] + 0.25))
    chains = z.reshape(2, half)
    m, n = chains.shape

    acov = _autocov(chains)
    within = acov[:, 0].mean() * n / (n - 1)
    var_plus = within * (n - 1) / n + chains.mean(axis=1).var(ddof=1)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sum consecutive pairs while their sum stays positive, and force
    # the pair sums to be non-increasing
    tau = -1.0
    prev_pair = math.inf
    t = 0
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        pair = min(pair, prev_pair)
        tau += 2.0 * pair
        prev_pair = pair
        t += 2
    total = m * n
    tau = max(tau, 1.0 / math.log10(total))
    return total / tau
