"""The benchmark's traced run wraps kmpoly functions by name; every name it
looks up must still exist where it looks, and a traced chain must report
one span per sweep step and the chain's own acceptance."""

from pathlib import Path

import numpy as np

import kmpoly

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    missing = [f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
               for name, sites, _ in spans.targets(kmpoly)
               for owner, attr in sites if attr not in owner.__dict__]
    assert not missing, f"trace sites that no longer resolve: {missing}"


def test_traced_chains_count_every_sweep_step(monkeypatch):
    # the benchmark's traced run: one span per sweep step, the proposal
    # counts its hooks add up and the acceptance they report must match
    # what the chain itself recorded
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    from conftest import sine_data

    rng = np.random.default_rng(4)
    x, z = rng.uniform(0.0, 1.0, (50, 2)), rng.standard_normal((50, 2))
    plm_data = kmpoly.Dataset(x, np.sin(6.0 * x[:, 0]) + z @ [1.0, -0.5]
                              + 0.3 * rng.standard_normal(50), z=z)
    cfg = kmpoly.McmcConfig(burnin=6, samples=4, thin=2, seed=3)
    sweeps = cfg.burnin + cfg.samples * cfg.thin
    chains = [
        (lambda: kmpoly.sampler.run_chain(cfg, kmpoly.PriorConfig(), 5,
                                          sine_data(40, seed=2)), 5),
        (lambda: kmpoly.plm.run_plm_chain(cfg, kmpoly.PriorConfig(), 3,
                                          plm_data, estimate_sigma=True), 3**2),
    ]
    for run, n_blocks in chains:
        recorder = spans.Recorder(kmpoly)
        recorder.install("pass")
        try:
            draws = run()
        finally:
            recorder.uninstall()
        recorder.traced_passes = 1
        names = [span[0] for span in recorder.spans]
        for step in ("gibbs_xi", "mh_mu", "mh_h", "gibbs_sigma"):
            assert names.count(f"sampler.{step}") == sweeps, step
        counts = recorder.counts["pass"]
        assert counts["mh_mu.proposed"] == sweeps * n_blocks
        assert counts["mh_h.proposed"] == sweeps
        metrics = recorder.layer_metrics()
        assert metrics["sampler.mh_mu.accept_ratio"][0] == draws.accept["mu"]
        assert metrics["sampler.mh_h.accept_ratio"][0] == draws.accept["h"]
        assert metrics["sampler.xi_fallbacks"][0] == draws.accept["xi_fallbacks"]
