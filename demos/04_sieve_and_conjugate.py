"""The two non-MCMC estimators: sieve maximum likelihood and the conjugate
fixed-design posterior.

Fits both to the same curve and compares grid errors and the closed-form
credible band of the conjugate variant.

Run:  python3 demos/04_sieve_and_conjugate.py
"""

import math

import numpy as np

from kmpoly import (Dataset, SieveConfig, choose_Kn, conjugate_fit, eval_f,
                    fit_sieve_mle)

rng = np.random.default_rng(4)
n = 600
x = rng.uniform(0.0, 1.0, n)
f0 = np.sin(2 * math.pi * x) + 0.5 * x
y = f0 + 0.2 * rng.standard_normal(n)
data = Dataset(x[:, None], y)

grid = np.linspace(0.0, 1.0, 301)
f0g = np.sin(2 * math.pi * grid) + 0.5 * grid

K = choose_Kn(n, alpha=1.0, p=1)
print(f"sieve rule: K = ceil((n/log n)^(1/(2*alpha+p))) = {K}")
fit = fit_sieve_mle(data, SieveConfig(K=K, multistart=3),
                    np.random.default_rng(0))
mse_sieve = float(np.mean((eval_f(fit.params, grid) - f0g) ** 2))
print(f"sieve MLE : rss={fit.objective:8.3f}  Kh={K * fit.params.h:.3f}  "
      f"grid mse={mse_sieve:.2e}  converged={fit.converged}")

post = conjugate_fit(data)           # equidistant-skeleton conjugate model
mean, lo, hi = post.pointwise_band(grid, level=0.95)
mse_conj = float(np.mean((mean - f0g) ** 2))
cover = float(np.mean((lo <= f0g) & (f0g <= hi)))
print(f"conjugate : K={post.skeleton.grid.K}  grid mse={mse_conj:.2e}  "
      f"band covers {cover:.3f} of grid points  "
      f"E[sigma^2|y]={post.sigma2_mean():.4f}")
