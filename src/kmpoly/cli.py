"""Command-line entry points.

Every command writes its outputs atomically into ``--out`` together with a
``manifest.json`` recording the command, configuration, seed and package
version.  Failures produce a machine-readable ``error.json`` and a nonzero
exit status.  Options can also be set through environment variables with
the ``KMP_`` prefix (e.g. ``KMP_FIT_SEED=3``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time
import traceback

import click
import numpy as np

from .baselines import GP_COVARIANCES
from .dataset import load_csv
from .fixed_design import conjugate_fit
from .harness import ScenarioSpec, run_benchmark, run_coverage
from .io_utils import atomic_write, run_manifest, write_json
from .priors import PriorConfig
from .sampler import McmcConfig, PosteriorDraws, run_chain
from .sieve import SieveConfig, fit_sieve_mle
from .summaries import (dic_parts, l2_credible_set, pointwise_band, predict,
                        select_K)


@click.group(context_settings={"auto_envvar_prefix": "KMP"})
def main():
    """Kernel mixture of polynomials: fitting, selection and experiments."""


def _fail(out, command, exc):
    payload = {
        "command": command,
        "error": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }
    if out:
        write_json(os.path.join(out, "error.json"), payload)
    click.echo(json.dumps({k: payload[k] for k in ("command", "error", "message")}),
               err=True)
    sys.exit(1)


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = kwargs.get("out")
        try:
            return fn(*args, **kwargs)
        except SystemExit:
            raise
        except Exception as exc:  # noqa: BLE001 - converted to exit status
            _fail(out, fn.__name__.replace("_", "-"), exc)

    return wrapper


def _load(data, x, y, z=None):
    schema = {"x": [c for c in x.split(",") if c], "y": y}
    if z:
        schema["z"] = [c for c in z.split(",") if c]
    return load_csv(data, schema)


def _prior(config):
    return PriorConfig.from_json(config) if config else PriorConfig()


def _grid(size):
    return np.linspace(0.0, 1.0, size)


def _write_curve(path, grid, mean, lower, upper):
    lines = ["x,mean,lower,upper"]
    for i in range(len(grid)):
        lines.append(",".join(repr(float(v))
                              for v in (grid[i], mean[i], lower[i], upper[i])))
    atomic_write(path, "\n".join(lines) + "\n")


def _finish(out, command, config, seed, started, outputs):
    write_json(os.path.join(out, "manifest.json"),
               run_manifest(command, config, seed, started, outputs))
    click.echo(json.dumps({"status": "ok", "out": out,
                           "outputs": sorted(outputs)}))


data_opt = click.option("--data", required=True,
                        type=click.Path(exists=True, dir_okay=False),
                        help="Input CSV with a header row.")
x_opt = click.option("--x", "x", default="x1", show_default=True,
                     help="Comma-separated design column names.")
y_opt = click.option("--y", "y", default="y", show_default=True,
                     help="Response column name.")
config_opt = click.option("--config", default=None,
                          type=click.Path(exists=True, dir_okay=False),
                          help="Prior configuration JSON.")
seed_opt = click.option("--seed", required=True, type=int,
                        help="Chain seed (mandatory: runs must be reproducible).")
out_opt = click.option("--out", required=True, type=click.Path(file_okay=False),
                       help="Output directory.")
grid_opt = click.option("--grid-size", default=200, show_default=True, type=int)
budget_opts = [
    click.option("--burnin", default=1000, show_default=True, type=int),
    click.option("--samples", default=1000, show_default=True, type=int),
]


def add_options(opts):
    def deco(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn

    return deco


@main.command()
@data_opt
@x_opt
@y_opt
@config_opt
@click.option("--k", "K", required=True, type=int, help="Number of partitions.")
@add_options(budget_opts)
@click.option("--level", default=0.95, show_default=True, type=float)
@grid_opt
@seed_opt
@out_opt
@guarded
def fit(data, x, y, config, K, burnin, samples, level, grid_size, seed, out):
    """Posterior sampling at fixed K; writes the chain and credible bands."""
    started = time.time()
    ds = _load(data, x, y)
    prior = _prior(config)
    cfg = McmcConfig(burnin=burnin, samples=samples, seed=seed)
    draws = run_chain(cfg, prior, K, ds)
    grid = _grid(grid_size)
    band = pointwise_band(draws, grid, level)
    l2 = l2_credible_set(draws, grid, level)
    draws.to_csv(os.path.join(out, "chain.csv"), os.path.join(out, "chain.json"))
    band.to_csv(os.path.join(out, "band_pointwise.csv"))
    l2.to_csv(os.path.join(out, "band_l2set.csv"))
    write_json(os.path.join(out, "summary.json"), {
        "K": K, "accept": draws.accept, "dic": dic_parts(draws, ds),
        "l2set_radius": l2.radius,
        "posterior_mean_sigma": float(np.mean(draws.sigma)),
    })
    _finish(out, "fit", json.loads(prior.to_json()), seed, started,
            ["chain.csv", "chain.json", "band_pointwise.csv",
             "band_l2set.csv", "summary.json"])


@main.command("fit-plm")
@data_opt
@x_opt
@y_opt
@click.option("--z", "z", required=True,
              help="Comma-separated linear covariate column names.")
@config_opt
@click.option("--k", "K", required=True, type=int)
@add_options(budget_opts)
@click.option("--estimate-sigma", is_flag=True,
              help="Resample the noise scale instead of fixing it at one.")
@grid_opt
@seed_opt
@out_opt
@guarded
def fit_plm(data, x, y, z, config, K, burnin, samples, estimate_sigma,
            grid_size, seed, out):
    """Partial linear model: conjugate beta draws plus the standard sweep."""
    from .plm import run_plm_chain

    started = time.time()
    ds = _load(data, x, y, z)
    prior = _prior(config)
    cfg = McmcConfig(burnin=burnin, samples=samples, seed=seed)
    draws = run_plm_chain(cfg, prior, K, ds, estimate_sigma=estimate_sigma)
    grid = _grid(grid_size)
    band = pointwise_band(draws, grid)
    draws.to_csv(os.path.join(out, "chain.csv"), os.path.join(out, "chain.json"))
    band.to_csv(os.path.join(out, "band_eta.csv"))
    beta = draws.beta
    write_json(os.path.join(out, "beta_summary.json"), {
        "names": ds.z_names,
        "mean": beta.mean(axis=0).tolist(),
        "sd": beta.std(axis=0, ddof=1).tolist(),
        "q025": np.quantile(beta, 0.025, axis=0).tolist(),
        "q975": np.quantile(beta, 0.975, axis=0).tolist(),
        "accept": draws.accept,
    })
    _finish(out, "fit-plm", json.loads(prior.to_json()), seed, started,
            ["chain.csv", "chain.json", "band_eta.csv", "beta_summary.json"])


@main.command("fit-fixed")
@data_opt
@x_opt
@y_opt
@click.option("--alpha", default=1.0, show_default=True, type=float,
              help="Declared smoothness for the K rule.")
@click.option("--m", "m", default=2, show_default=True, type=int)
@click.option("--a-sigma", default=2.0, show_default=True, type=float)
@click.option("--b-sigma", default=2.0, show_default=True, type=float)
@click.option("--k", "K", default=None, type=int,
              help="Explicit K; defaults to the (n / log n) rule.")
@click.option("--level", default=0.95, show_default=True, type=float)
@grid_opt
@out_opt
@guarded
def fit_fixed(data, x, y, alpha, m, a_sigma, b_sigma, K, level, grid_size, out):
    """Exact conjugate posterior of the fixed-design simplified model."""
    started = time.time()
    ds = _load(data, x, y)
    post = conjugate_fit(ds, alpha=alpha, m=m, a_sigma=a_sigma,
                         b_sigma=b_sigma, K=K)
    grid = _grid(grid_size)
    mean, lo, hi = post.pointwise_band(grid, level)
    _write_curve(os.path.join(out, "band.csv"), grid, mean, lo, hi)
    write_json(os.path.join(out, "posterior.json"), {
        "K": post.skeleton.grid.K,
        "ig_shape": post.ig_shape,
        "ig_scale": post.ig_scale,
        "sigma2_mean": post.sigma2_mean(),
        "xi_mean": post.xi_mean.tolist(),
    })
    config = {"alpha": alpha, "m": m, "a_sigma": a_sigma,
              "b_sigma": b_sigma, "K": K, "level": level}
    _finish(out, "fit-fixed", config, None, started,
            ["band.csv", "posterior.json"])


@main.command("sieve-mle")
@data_opt
@x_opt
@y_opt
@click.option("--k", "K", default=None, type=int)
@click.option("--alpha", default=1.0, show_default=True, type=float)
@click.option("--m", "m", default=2, show_default=True, type=int)
@click.option("--b", "B", default=50.0, show_default=True, type=float)
@click.option("--multistart", default=5, show_default=True, type=int)
@grid_opt
@seed_opt
@out_opt
@guarded
def sieve_mle(data, x, y, K, alpha, m, B, multistart, grid_size, seed, out):
    """Box-constrained least-squares fit over the sieve class."""
    from .core import eval_f

    started = time.time()
    ds = _load(data, x, y)
    cfg = SieveConfig(K=K, alpha=alpha, m=m, B=B, multistart=multistart)
    fit = fit_sieve_mle(ds, cfg, np.random.default_rng(seed))
    grid = _grid(grid_size)
    curve = eval_f(fit.params, grid)
    _write_curve(os.path.join(out, "estimate.csv"), grid, curve, curve, curve)
    write_json(os.path.join(out, "fit.json"), {
        "K": fit.params.grid.K,
        "objective_rss": fit.objective,
        "converged": fit.converged,
        "n_outer": fit.n_outer,
        "start_objectives": fit.start_objectives,
        "Kh": fit.params.grid.K * fit.params.h,
        "sigma": fit.params.sigma,
    })
    _finish(out, "sieve-mle", dataclasses.asdict(cfg), seed, started,
            ["estimate.csv", "fit.json"])


@main.command("select-k")
@data_opt
@x_opt
@y_opt
@config_opt
@click.option("--k-min", default=None, type=int)
@click.option("--k-max", default=None, type=int)
@add_options(budget_opts)
@seed_opt
@out_opt
@guarded
def select_k(data, x, y, config, k_min, k_max, burnin, samples, seed, out):
    """DIC model selection over a grid of K values."""
    started = time.time()
    ds = _load(data, x, y)
    prior = _prior(config)
    cfg = McmcConfig(burnin=burnin, samples=samples, seed=seed)
    report, draws = select_K(ds, prior, cfg, K_min=k_min, K_max=k_max)
    report.to_csv(os.path.join(out, "dic.csv"), os.path.join(out, "dic.json"))
    draws.to_csv(os.path.join(out, "chain.csv"), os.path.join(out, "chain.json"))
    _finish(out, "select-k", json.loads(prior.to_json()), seed, started,
            ["dic.csv", "dic.json", "chain.csv", "chain.json"])


scenario_opts = [
    click.option("--truth", default="volterra", show_default=True,
                 type=click.Choice(["volterra", "plm"])),
    click.option("--n", "n", default=500, show_default=True, type=int),
    click.option("--noise-sd", default=0.1, show_default=True, type=float),
    click.option("--k", "K", default=None, type=int,
                 help="Fixed K; defaults to DIC selection on the first run."),
    grid_opt,
]


@main.command()
@add_options(scenario_opts)
@click.option("--replicates", default=100, show_default=True, type=int)
@click.option("--estimators", default="kmp_pointwise,kmp_l2set",
              show_default=True)
@add_options(budget_opts)
@seed_opt
@out_opt
@guarded
def coverage(truth, n, noise_sd, K, grid_size, replicates, estimators,
             burnin, samples, seed, out):
    """Replicated coverage/width study of credible bands."""
    started = time.time()
    spec = ScenarioSpec(truth=truth, n=n, noise_sd=noise_sd,
                        replicates=replicates, base_seed=seed,
                        grid_size=grid_size, K=K, burnin=burnin,
                        samples=samples)
    report = run_coverage(spec, estimators=tuple(estimators.split(",")))
    write_json(os.path.join(out, "coverage.json"), report.to_json_dict())
    _finish(out, "coverage", dataclasses.asdict(spec), seed, started,
            ["coverage.json"])


@main.command()
@add_options(scenario_opts)
@click.option("--gp-covariances", default=",".join(GP_COVARIANCES),
              show_default=True)
@add_options(budget_opts)
@seed_opt
@out_opt
@guarded
def benchmark(truth, n, noise_sd, K, grid_size, gp_covariances, burnin,
              samples, seed, out):
    """Accuracy/runtime comparison against GP baselines, equal budgets."""
    started = time.time()
    spec = ScenarioSpec(truth=truth, n=n, noise_sd=noise_sd, base_seed=seed,
                        grid_size=grid_size, K=K, burnin=burnin,
                        samples=samples)
    result = run_benchmark(spec, gp_covariances=tuple(gp_covariances.split(",")))
    write_json(os.path.join(out, "benchmark.json"), result)
    _finish(out, "benchmark", dataclasses.asdict(spec), seed, started,
            ["benchmark.json"])


@main.command("predict")
@click.option("--chain", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Chain CSV written by fit/select-k.")
@click.option("--chain-json", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Chain header JSON (defaults to the CSV path with .json).")
@click.option("--points", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="CSV with an 'x1' column of prediction points.")
@grid_opt
@click.option("--level", default=0.95, show_default=True, type=float)
@out_opt
@guarded
def predict_cmd(chain, chain_json, points, grid_size, level, out):
    """Posterior predictive mean and interval at new design points."""
    started = time.time()
    if chain_json is None:
        chain_json = os.path.splitext(chain)[0] + ".json"
    draws = PosteriorDraws.from_csv(chain, chain_json)
    if points is not None:
        ds = _load(points, "x1", "x1")
        xnew = ds.x.ravel()
    else:
        xnew = _grid(grid_size)
    mean, lo, hi = predict(draws, xnew, level)
    _write_curve(os.path.join(out, "predictions.csv"), xnew, mean, lo, hi)
    _finish(out, "predict", {"level": level, "chain": chain}, None, started,
            ["predictions.csv"])


if __name__ == "__main__":
    main()
