import json
import re

import numpy as np
import pytest

from kmpoly import (Dataset, McmcConfig, PosteriorDraws, PriorConfig,
                    conjugate_fit, run_chain)
from kmpoly.plm import run_plm_chain

from conftest import sine_data


COLUMNS = ("h", "mu", "xi", "sigma", "loglik", "logpost")


@pytest.mark.parametrize("p, kernel, m", [(1, "bump", 2), (2, "triangle", 1),
                                          (1, "epanechnikov", 0)])
def test_chain_roundtrip_bit_exact(tmp_path, p, kernel, m):
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, (40, p))
    data = Dataset(x, np.sin(2 * np.pi * x[:, 0]) + 0.1 * rng.standard_normal(40))
    draws = run_chain(McmcConfig(burnin=20, samples=15, seed=1),
                      PriorConfig(kernel=kernel, m=m), 3, data)
    csv_path = tmp_path / "chain.csv"
    draws.to_csv(csv_path)
    back = PosteriorDraws.from_csv(csv_path)
    assert back.K == draws.K == 3 and len(back) == len(draws) == 15
    assert (back.grid, back.m, back.kernel) == (draws.grid, m, kernel)
    for col in COLUMNS:
        np.testing.assert_array_equal(getattr(back, col), getattr(draws, col),
                                      err_msg=col)
    assert back.accept == draws.accept
    # load -> save reproduces both files byte for byte
    back.to_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == csv_path.read_bytes()
    assert ((tmp_path / "again.csv.json").read_bytes()
            == (tmp_path / "chain.csv.json").read_bytes())


def test_unscored_conjugate_chain_roundtrips(tmp_path):
    data = sine_data(60, seed=4)
    draws = conjugate_fit(data, K=3).to_posterior_draws(
        6, np.random.default_rng(4))
    assert np.all(np.isnan(draws.loglik))
    draws.to_csv(tmp_path / "conj.csv")
    back = PosteriorDraws.from_csv(tmp_path / "conj.csv")
    for col in COLUMNS:
        np.testing.assert_array_equal(getattr(back, col), getattr(draws, col),
                                      err_msg=col)


def test_chain_roundtrip_with_beta(tmp_path):
    rng = np.random.default_rng(2)
    data = sine_data(30, seed=2)
    data.z = rng.uniform(-1, 1, (30, 2))
    draws = run_plm_chain(McmcConfig(burnin=10, samples=8, seed=2),
                          PriorConfig(), 2, data)
    draws.to_csv(tmp_path / "plm.csv")
    back = PosteriorDraws.from_csv(tmp_path / "plm.csv")
    np.testing.assert_array_equal(back.beta, draws.beta)
    assert back.meta["model"] == "plm"


def test_header_mismatch_detected(tmp_path):
    draws = run_chain(McmcConfig(burnin=5, samples=5, seed=3), PriorConfig(),
                      2, sine_data(20, seed=3))
    csv_path = tmp_path / "chain.csv"
    draws.to_csv(csv_path)
    header = json.loads((tmp_path / "chain.csv.json").read_text())
    header["columns"] = header["columns"][:-1]
    (tmp_path / "chain.csv.json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match="does not match"):
        PosteriorDraws.from_csv(csv_path)


@pytest.mark.parametrize("edit, match", [
    pytest.param(lambda cells: cells + ["0.5"],
                 "extra cell '0.5' at row 3, column 14", id="extra_cell"),
    pytest.param(lambda cells: cells[:-1],
                 "missing cell at row 3, column 'logpost'", id="short_row"),
    pytest.param(lambda cells: ["3"] + cells[1:],
                 "K cell '3.0' at row 3, column 'K' differs from the header's K = 2",
                 id="wrong_K"),
    pytest.param(lambda cells: cells[:2] + ["nan"] + cells[3:],
                 "non-finite chain cell 'nan' at row 3, column 'mu_0'", id="nan_center"),
    pytest.param(lambda cells: cells[:4] + ["x"] + cells[5:],
                 "non-numeric cell 'x' at row 3, column 'xi_0'", id="non_numeric"),
])
def test_malformed_chain_rows_rejected(tmp_path, edit, match):
    # p=1, K=2, m=2: K, h, mu_0..1, xi_0..5, sigma, loglik, logpost
    draws = run_chain(McmcConfig(burnin=5, samples=4, seed=3), PriorConfig(),
                      2, sine_data(20, seed=3))
    csv_path = tmp_path / "chain.csv"
    draws.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    lines[2] = ",".join(edit(lines[2].split(",")))   # file row 3
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(match)):
        PosteriorDraws.from_csv(csv_path)
