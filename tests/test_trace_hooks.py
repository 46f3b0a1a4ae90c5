"""The benchmark's traced run wraps kmpoly functions by name; every name it
looks up must still exist where it looks."""

from pathlib import Path

import kmpoly

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    missing = [f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
               for name, sites, _ in spans.targets(kmpoly)
               for owner, attr in sites if attr not in owner.__dict__]
    assert not missing, f"trace sites that no longer resolve: {missing}"
