"""The process pool behind select_K and run_coverage: results match the
serial loop bit for bit, one CPU starts no process, and pools never nest."""

import ctypes
import dataclasses
import os
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy

from kmpoly import PriorConfig, ScenarioSpec, _pool, harness, summaries
from kmpoly.sampler import McmcConfig
from kmpoly.summaries import dic_parts, select_K

from conftest import sine_data


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _pid(item):
    return os.getpid()


def _nested(item):
    return os.getpid(), _pool._map(_pid, range(3))


def _fail_at(monkeypatch, module, bad_seed):
    """Make ``module.run_chain`` raise for one seed; forked workers inherit it."""
    run_chain = module.run_chain

    def failing(cfg, *args):
        if cfg.seed == bad_seed:
            raise ValueError(f"forced failure at seed {bad_seed}")
        return run_chain(cfg, *args)

    monkeypatch.setattr(module, "run_chain", failing)


def _same_draws(a, b):
    return all(np.array_equal(getattr(a, c), getattr(b, c))
               for c in ("h", "mu", "xi", "sigma", "loglik", "logpost"))


def test_select_K_matches_per_K_chains(monkeypatch):
    _cpus(monkeypatch, 2)
    data = sine_data(60, seed=21, freq=2.0)
    prior = PriorConfig()
    cfg = McmcConfig(burnin=40, samples=30, seed=100, init="lsq")
    _fail_at(monkeypatch, summaries, cfg.seed + 4)
    report, best = select_K(data, prior, cfg, K_min=3, K_max=6)

    rows, chains = [], {}
    for K in (3, 5, 6):
        chains[K] = summaries.run_chain(
            dataclasses.replace(cfg, seed=cfg.seed + K), prior, K, data)
        parts = dic_parts(chains[K], data)
        rows.append({"K": K, **{c: parts[c] for c in
                                ("dic", "mean_deviance", "p_dic", "variant")}})
    assert report.rows == rows
    assert report.meta["failures"] == {4: "forced failure at seed 104"}
    assert report.meta["workers"] == 2
    assert report.selected_K == min(rows, key=lambda r: r["dic"])["K"]
    assert _same_draws(best, chains[report.selected_K])


@pytest.mark.parametrize("K", [4, None])
def test_run_coverage_matches_one_cpu(monkeypatch, K):
    spec = ScenarioSpec(truth="volterra", n=80, noise_sd=0.2, replicates=10,
                        base_seed=30, grid_size=50, truth_terms=2000, K=K,
                        burnin=30, samples=30)
    prior = PriorConfig(K_min=3, K_max=5)
    estimators = ("kmp_pointwise", "kmp_l2set", "conjugate")
    _fail_at(monkeypatch, harness, spec.base_seed + 3)
    reports = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        reports.append(harness.run_coverage(spec, prior, estimators))
    pool, serial = reports
    assert pool.meta["workers"] == 2 and serial.meta["workers"] == 1
    assert list(pool.failures) == [3]
    assert pool.failures == serial.failures
    assert pool.windows == serial.windows
    assert pool.meta["selected_K"] == serial.meta["selected_K"]
    for e in estimators:
        assert pool.coverage[e].tobytes() == serial.coverage[e].tobytes()
        assert pool.width[e].tobytes() == serial.width[e].tobytes()


def _openblas(name):
    """numpy's and scipy's OpenBLAS function ``scipy_openblas_<name>``, by
    the names their wheels give them."""
    fns = []
    for pkg, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        lib = next(libs.glob("*openblas*"), None)
        symbol = f"scipy_openblas_{name}{suffix}"
        fn = lib and getattr(ctypes.CDLL(str(lib)), symbol, None)
        if fn is None:
            pytest.skip(f"{pkg.__name__} ships no {symbol}")
        fns.append(fn)
    return fns


def _blas_threads(item=None):
    return [get() for get in _openblas("get_num_threads")]


def test_workers_run_one_blas_thread(monkeypatch):
    _cpus(monkeypatch, 2)
    setters, before = _openblas("set_num_threads"), _blas_threads()
    for set_threads in setters:
        set_threads(2)
    try:
        assert _pool._map(_blas_threads, range(2)) == [[1, 1], [1, 1]]
        assert _blas_threads() == [2, 2]              # the caller keeps its own
    finally:
        for set_threads, n in zip(setters, before):
            set_threads(n)
    assert _blas_threads() == before


def _no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(_pool.concurrent.futures, "ProcessPoolExecutor", no_pool)


def test_one_cpu_starts_no_process(monkeypatch):
    _cpus(monkeypatch, 1)
    _no_pool(monkeypatch)
    assert _pool.workers(5) == 1
    assert _pool._map(_pid, range(5)) == [os.getpid()] * 5


def test_other_threads_keep_the_map_in_process(monkeypatch):
    _cpus(monkeypatch, 2)
    _no_pool(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _pool.workers(5) == 1
        assert _pool._map(_pid, range(5)) == [os.getpid()] * 5
    finally:
        release.set()
        thread.join()
    assert _pool.workers(5) == 2


def test_pool_never_larger_than_items_or_cpus(monkeypatch):
    _cpus(monkeypatch, 2)
    assert [_pool.workers(n) for n in (0, 1, 2, 9)] == [1, 1, 2, 2]
    monkeypatch.delattr(os, "sched_getaffinity")   # no affinity: no fork
    assert _pool.workers(9) == 1


def test_nested_map_runs_in_worker(monkeypatch):
    _cpus(monkeypatch, 2)
    outer = _pool._map(_nested, range(2))
    for pid, inner in outer:
        assert pid != os.getpid()
        assert inner == [pid] * 3
