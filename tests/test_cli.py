import json
import math
import os

import numpy as np
import pytest
from click.testing import CliRunner

from kmpoly import Dataset, save_csv
from kmpoly.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def fixture_csv(tmp_path):
    rng = np.random.default_rng(30)
    x = rng.uniform(0, 1, 50)
    y = np.sin(2 * math.pi * x) + 0.2 * rng.standard_normal(50)
    path = tmp_path / "data.csv"
    save_csv(Dataset(x[:, None], y), path)
    return str(path)


@pytest.fixture
def plm_csv(tmp_path):
    rng = np.random.default_rng(31)
    x = rng.uniform(0, 1, 50)
    z = rng.uniform(-1, 1, (50, 2))
    y = z @ np.array([1.0, -0.5]) + np.sin(2 * math.pi * x)
    y = y + 0.3 * rng.standard_normal(50)
    path = tmp_path / "plm.csv"
    save_csv(Dataset(x[:, None], y, z=z), path)
    return str(path)


def _run(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.output.strip().splitlines()[-1])


def test_fit_emits_artifacts_and_is_deterministic(runner, fixture_csv, tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    args = ["fit", "--data", fixture_csv, "--k", "3", "--burnin", "30",
            "--samples", "25", "--grid-size", "40", "--seed", "9"]
    status = _run(runner, args + ["--out", str(out1)])
    assert status["status"] == "ok"
    for name in ("chain.csv", "chain.json", "band_pointwise.csv",
                 "band_l2set.csv", "summary.json", "manifest.json"):
        assert (out1 / name).exists()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 9 and manifest["command"] == "fit"
    _run(runner, args + ["--out", str(out2)])
    assert (out1 / "chain.csv").read_bytes() == (out2 / "chain.csv").read_bytes()


def test_fit_plm_reports_beta(runner, plm_csv, tmp_path):
    out = tmp_path / "plm_out"
    _run(runner, ["fit-plm", "--data", plm_csv, "--z", "z1,z2", "--k", "3",
                  "--burnin", "40", "--samples", "30", "--grid-size", "30",
                  "--seed", "2", "--out", str(out)])
    beta = json.loads((out / "beta_summary.json").read_text())
    assert beta["names"] == ["z1", "z2"]
    assert len(beta["mean"]) == 2
    assert all(l <= m <= u for l, m, u in
               zip(beta["q025"], beta["mean"], beta["q975"]))


def test_fit_fixed_and_predict_pipeline(runner, fixture_csv, tmp_path):
    out = tmp_path / "fixed"
    _run(runner, ["fit-fixed", "--data", fixture_csv, "--grid-size", "30",
                  "--out", str(out)])
    posterior = json.loads((out / "posterior.json").read_text())
    assert posterior["K"] >= 2 and posterior["sigma2_mean"] > 0
    band = (out / "band.csv").read_text().splitlines()
    assert band[0] == "x,mean,lower,upper" and len(band) == 31


def test_sieve_mle_command(runner, fixture_csv, tmp_path):
    out = tmp_path / "sieve"
    _run(runner, ["sieve-mle", "--data", fixture_csv, "--k", "2",
                  "--multistart", "2", "--grid-size", "20", "--seed", "4",
                  "--out", str(out)])
    fit = json.loads((out / "fit.json").read_text())
    assert fit["K"] == 2 and fit["objective_rss"] >= 0
    assert 1.2 <= fit["Kh"] <= 2.0


def test_fit_fixed_rejects_bad_level(runner, fixture_csv, tmp_path):
    out = tmp_path / "fixed"
    result = runner.invoke(main, ["fit-fixed", "--data", fixture_csv,
                                  "--level", "1.5", "--out", str(out)])
    assert result.exit_code != 0
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError"
    assert "level" in err["message"]
    assert not (out / "band.csv").exists()


def test_select_k_emits_table(runner, fixture_csv, tmp_path):
    out = tmp_path / "dic"
    _run(runner, ["select-k", "--data", fixture_csv, "--k-min", "6",
                  "--k-max", "8", "--burnin", "20", "--samples", "20",
                  "--seed", "3", "--out", str(out)])
    rows = (out / "dic.csv").read_text().splitlines()
    assert rows[0] == "K,dic,mean_deviance,p_dic"
    assert len(rows) == 4
    meta = json.loads((out / "dic.json").read_text())
    assert meta["selected_K"] in (6, 7, 8)
    assert 1 <= meta["workers"] <= min(3, len(os.sched_getaffinity(0)))


def test_predict_from_saved_chain(runner, fixture_csv, tmp_path):
    fit_out = tmp_path / "fit"
    _run(runner, ["fit", "--data", fixture_csv, "--k", "3", "--burnin", "20",
                  "--samples", "20", "--seed", "1", "--out", str(fit_out)])
    pred_out = tmp_path / "pred"
    _run(runner, ["predict", "--chain", str(fit_out / "chain.csv"),
                  "--chain-json", str(fit_out / "chain.json"),
                  "--grid-size", "15", "--out", str(pred_out)])
    lines = (pred_out / "predictions.csv").read_text().splitlines()
    assert len(lines) == 16
    _, mean, lo, hi = map(float, lines[1].split(","))
    assert lo <= mean <= hi


def test_predict_rejects_bad_level(runner, fixture_csv, tmp_path):
    fit_out = tmp_path / "fit"
    _run(runner, ["fit", "--data", fixture_csv, "--k", "3", "--burnin", "10",
                  "--samples", "10", "--seed", "1", "--out", str(fit_out)])
    pred_out = tmp_path / "pred"
    result = runner.invoke(main, ["predict", "--chain", str(fit_out / "chain.csv"),
                                  "--level", "1.5", "--out", str(pred_out)])
    assert result.exit_code != 0
    err = json.loads((pred_out / "error.json").read_text())
    assert err["error"] == "ValueError"
    assert "level" in err["message"]
    assert not (pred_out / "predictions.csv").exists()


def test_coverage_command(runner, tmp_path):
    out = tmp_path / "cov"
    _run(runner, ["coverage", "--truth", "volterra", "--n", "70",
                  "--noise-sd", "0.3", "--replicates", "3", "--estimators",
                  "conjugate", "--grid-size", "40", "--seed", "5",
                  "--out", str(out)])
    payload = json.loads((out / "coverage.json").read_text())
    assert payload["n_success"] == 3
    assert 1 <= payload["meta"]["workers"] <= min(3, len(os.sched_getaffinity(0)))


def test_benchmark_command(runner, tmp_path):
    out = tmp_path / "bench"
    _run(runner, ["benchmark", "--truth", "volterra", "--n", "70",
                  "--noise-sd", "0.3", "--k", "3", "--burnin", "20",
                  "--samples", "20", "--gp-covariances", "squared_exponential",
                  "--grid-size", "40", "--seed", "6", "--out", str(out)])
    payload = json.loads((out / "benchmark.json").read_text())
    assert "kmp" in payload["results"]


def test_failure_writes_error_json(runner, fixture_csv, tmp_path):
    out = tmp_path / "err"
    result = runner.invoke(main, ["fit", "--data", fixture_csv, "--x", "zzz",
                                  "--k", "3", "--seed", "1",
                                  "--out", str(out)])
    assert result.exit_code == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError"
    assert "zzz" in err["message"]


def test_seed_is_mandatory(runner, fixture_csv, tmp_path):
    result = runner.invoke(main, ["fit", "--data", fixture_csv, "--k", "3",
                                  "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    assert "--seed" in result.output
