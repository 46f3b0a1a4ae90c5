import collections
import os
import subprocess
import sys
from pathlib import Path

import kmpoly
from kmpoly import sieve


def test_all_names_resolve_once():
    for name in kmpoly.__all__:
        assert hasattr(kmpoly, name), name
    dupes = [n for n, c in collections.Counter(kmpoly.__all__).items() if c > 1]
    assert dupes == []


def test_removed_names_are_gone():
    for name in ("PlmParams", "sieve_K"):
        assert name not in kmpoly.__all__
        assert not hasattr(kmpoly, name)
    assert not hasattr(sieve, "sieve_K")
    assert not hasattr(sieve, "mu_tilde_setter")
    assert "estimate_sigma" not in kmpoly.GpConfig.__dataclass_fields__
    assert "refit_in_search" not in kmpoly.SieveConfig.__dataclass_fields__
    # draws are stored as columns; `draws` is a derived view, not a field
    assert "draws" not in kmpoly.PosteriorDraws.__dataclass_fields__
    # one weight formula: kernel values over their row sum
    assert not hasattr(kmpoly.KernelSpec, "log_profile")


def test_import_loads_no_scipy_stats():
    # a fresh interpreter: this test session imports scipy.stats itself
    src = str(Path(kmpoly.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, kmpoly, kmpoly.cli\n"
            "for pkg in ('scipy.stats', 'scipy.optimize'):\n"
            "    print(pkg, sorted(m for m in sys.modules if m.startswith(pkg)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["scipy.stats []", "scipy.optimize []"]
