"""Fit the kernel-mixture-of-polynomials model to a noisy curve and print
posterior band summaries.

Walks through the default workflow: simulate data, pick the partition
resolution K by DIC, run the Metropolis-within-Gibbs chain, and compare the
pointwise band with the L2 credible set.

Run:  python3 demos/01_fit_and_bands.py
"""

import math

import numpy as np

from kmpoly import (Dataset, McmcConfig, PriorConfig, l2_credible_set,
                    pointwise_band, select_K)

rng = np.random.default_rng(0)
n = 400
x = rng.uniform(0.0, 1.0, n)
f0 = np.sin(4 * math.pi * x) * np.exp(-x)
y = f0 + 0.3 * rng.standard_normal(n)
data = Dataset(x[:, None], y)

prior = PriorConfig()                      # Kh in [1.2, 2], IG(1,1) noise
cfg = McmcConfig(burnin=500, samples=500, seed=0, init="lsq")

report, draws = select_K(data, prior, cfg, K_min=6, K_max=12)
print(f"DIC selected K = {report.selected_K}")
for row in report.rows:
    print(f"  K={row['K']:2d}  dic={row['dic']:9.2f}")

grid = np.linspace(0.0, 1.0, 201)
f0g = np.sin(4 * math.pi * grid) * np.exp(-grid)
band = pointwise_band(draws, grid, level=0.95)
l2set = l2_credible_set(draws, grid, level=0.95)

inside = np.mean((band.lower <= f0g) & (f0g <= band.upper))
print(f"\nposterior mean RMSE      : {np.sqrt(np.mean((band.mean - f0g)**2)):.4f}")
print(f"pointwise band coverage  : {inside:.3f} of grid points contain f0")
print(f"mean band width          : {np.mean(band.upper - band.lower):.3f}")
print(f"L2 credible set radius   : {l2set.radius:.4f}")
print(f"posterior sigma mean     : {draws.sigma.mean():.4f} (truth 0.3)")
print(f"acceptance rates         : mu={draws.accept['mu']:.2f} "
      f"h={draws.accept['h']:.2f}")
