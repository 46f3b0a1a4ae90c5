import csv
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kmpoly import (Dataset, McmcConfig, PosteriorDraws, PriorConfig,
                    conjugate_fit, run_chain)
from kmpoly import chainio
from kmpoly.core import PartitionGrid, draw_violations
from kmpoly.dataset import _parse_cell
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


MALFORMED = [
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
    # block 1 of K=2 is (0.5, 1]
    pytest.param(lambda cells: cells[:3] + ["0.4"] + cells[4:],
                 "center cell '0.4' at row 3, column 'mu_1' lies outside the "
                 "closure of block 1", id="center_outside_block"),
    pytest.param(lambda cells: cells[:1] + ["0.5"] + cells[2:],
                 "bandwidth cell '0.5' at row 3, column 'h' gives Kh = 1.0 <= 1",
                 id="kh_at_most_one"),
    pytest.param(lambda cells: cells[:-3] + ["-1.0"] + cells[-2:],
                 "sigma cell '-1.0' at row 3, column 'sigma' is not positive",
                 id="negative_sigma"),
]


@pytest.mark.parametrize("edit, match", MALFORMED)
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


@pytest.mark.parametrize("edit, match", MALFORMED)
def test_malformed_chain_rows_rejected_by_the_row_reader(tmp_path, monkeypatch,
                                                         edit, match):
    # numpy's reader failing sends every row through csv.reader and float,
    # which must name the same cell in the same words
    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        raise ValueError("np.loadtxt is off in this test")

    monkeypatch.setattr(chainio.np, "loadtxt", fail)
    test_malformed_chain_rows_rejected(tmp_path, edit, match)
    assert len(calls) == 1


def test_chain_without_data_rows_rejected(tmp_path):
    draws = run_chain(McmcConfig(burnin=5, samples=4, seed=3), PriorConfig(),
                      2, sine_data(20, seed=3))
    csv_path = tmp_path / "chain.csv"
    draws.to_csv(csv_path)
    head = csv_path.read_text().splitlines()[0]
    csv_path.write_text(head + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{csv_path}: no data rows")):
        PosteriorDraws.from_csv(csv_path)
    csv_path.write_text("")
    with pytest.raises(ValueError, match=re.escape(f"{csv_path}: missing header row")):
        PosteriorDraws.from_csv(csv_path)
    # a blank line is a row without cells, and numpy's no-data warning
    # must not escape on the way to saying so
    csv_path.write_text(head + "\n\n")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="missing cell at row 2, column 'K'"):
            PosteriorDraws.from_csv(csv_path)
    assert not seen


def _load_draws_rowwise(csv_path, json_path=None):
    # reference: chainio.load_draws with every row parsed by csv.reader and
    # float, the reader numpy's text reader must agree with
    if json_path is None:
        json_path = str(csv_path) + ".json"
    with open(json_path, encoding="utf-8") as fh:
        header = json.load(fh)
    K, p, m = header["K"], header["p"], header["m"]
    nb, n_s, q = header["n_blocks"], header["n_coef_per_block"], header["q"]
    rows = []
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        cols = next(reader)
        if cols != header["columns"]:
            raise ValueError("chain CSV does not match its JSON header")
        for i, row in enumerate(reader, start=2):
            if len(row) < len(cols):
                raise ValueError(f"missing cell at row {i}, column {cols[len(row)]!r}")
            if len(row) > len(cols):
                raise ValueError(f"extra cell {row[len(cols)]!r} at row {i}, "
                                 f"column {len(cols) + 1}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                for v, c in zip(row, cols):
                    _parse_cell(v, i, c)
    T = len(rows)
    table = np.array(rows).reshape(T, len(cols))
    grid = PartitionGrid(K, p)
    starts = np.cumsum([0, q, 1, 1, nb * p, nb * n_s, 1, 1]).tolist()
    parts = np.split(table, starts[1:], axis=1)
    beta, _, h, mu, xi, sigma, lls, lps = map(np.ascontiguousarray, parts)
    checks = draw_violations(grid, h[:, 0], mu.reshape(T, nb, p),
                             xi.reshape(T, nb, n_s), sigma[:, 0])
    first = dict(zip(("h", "mu", "xi", "sigma"), starts[2:6]))
    bad = ~np.isfinite(table[:, :-2])
    bad[:, q] = table[:, q] != K
    for name, mask, _ in checks:
        flat = mask.reshape(T, -1)
        bad[:, first[name]:first[name] + flat.shape[1]] |= flat
    if bad.any():
        i, j = np.argwhere(bad)[0]
        v = float(table[i, j])
        cell = f"cell '{v}' at row {i + 2}, column {cols[j]!r}"
        if j == q:
            raise ValueError(f"K {cell} differs from the header's K = {K}")
        if not np.isfinite(v):
            raise ValueError(f"non-finite chain {cell}")
        for name, mask, reason in checks:
            flat, c = mask.reshape(T, -1), j - first[name]
            if 0 <= c < flat.shape[1] and flat[i, c]:
                index = (i, *np.unravel_index(c, mask.shape[1:]))
                raise ValueError(f"{chainio._KIND[name]} {cell} {reason(v, index)}")
    return PosteriorDraws(
        grid, m, header["kernel"], h[:, 0], mu.reshape(T, nb, p),
        xi.reshape(T, nb, n_s), sigma[:, 0], lls[:, 0], lps[:, 0],
        header.get("accept", {}), beta=beta if q else None,
        meta=header.get("meta", {}),
    )


@pytest.fixture(scope="module")
def saved_chain(tmp_path_factory):
    # p=1, K=2, m=2: K, h, mu_0..1, xi_0..5, sigma, loglik, logpost
    draws = run_chain(McmcConfig(burnin=5, samples=4, seed=3), PriorConfig(),
                      2, sine_data(20, seed=3))
    csv_path = tmp_path_factory.mktemp("chain") / "chain.csv"
    draws.to_csv(csv_path)
    head, *rows = csv_path.read_text().splitlines()
    return csv_path, head, [row.split(",") for row in rows]


# cells that float() and numpy's reader may read alike, differently, or not
# at all; some are valid numbers the model forbids in some columns
ODD_CELLS = ["1_0", '"1.5"', "\u0661", "1\u0660", "\uff11", "inf", "-inf", "nan",
             "-nan", "Infinity", "1e400", "-1e400", "5e-324", "1e-400", "0x10",
             "0x1p-2", "", " ", "\t", "1 2", "1\x0c5", "+.5", ".5", "2", "3",
             "0.4", "-1.0", "1,5", "#1", "1#", "\x00"]
DECOR = ["", " ", "\t", "+", "0", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
         "\u2028", "\u3000"]
cell_edit = st.tuples(st.integers(0, 3), st.integers(0, 12),
                      st.one_of(st.sampled_from(ODD_CELLS),
                                st.tuples(st.sampled_from(DECOR),
                                          st.sampled_from(DECOR))))
line_edit = st.tuples(st.integers(0, 4),
                      st.sampled_from(["", " ", "\t", "\x0c", ",", '"', '"\n1"']))


@given(cells=st.lists(cell_edit, max_size=3),
       extra_lines=st.lists(line_edit, max_size=1),
       newline=st.sampled_from(["\n", "\r\n", "\r"]),
       final_newline=st.booleans())
@settings(max_examples=400, deadline=None)
def test_loader_matches_the_row_reader(saved_chain, cells, extra_lines,
                                       newline, final_newline):
    csv_path, head, rows = saved_chain
    rows = [list(row) for row in rows]
    for i, j, new in cells:
        if isinstance(new, tuple):   # the same number, decorated
            text = rows[i][j]
            if text.startswith(("0.", "-0.")):
                text = text.replace("0.", ".", 1)
            new = new[0] + text + new[1]
        rows[i][j] = new
    lines = [",".join(row) for row in rows]
    for i, line in extra_lines:
        lines.insert(i, line)
    text = newline.join([head, *lines]) + (newline if final_newline else "")
    path = csv_path.with_name("edited.csv")
    path.write_bytes(text.encode("utf-8"))
    path.with_name("edited.csv.json").write_bytes(
        csv_path.with_name("chain.csv.json").read_bytes())

    def outcome(load):
        try:
            draws = load(path)
        except Exception as exc:   # compared, not handled
            return type(exc), str(exc)
        return [getattr(draws, c).tobytes() for c in COLUMNS]

    assert outcome(PosteriorDraws.from_csv) == outcome(_load_draws_rowwise)
