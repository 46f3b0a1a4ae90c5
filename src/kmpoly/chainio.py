"""Chain persistence: one CSV row per draw plus a JSON layout header.

Floats are written with repr, so a save/load cycle is bit-exact.  The
rows are read back in one C pass by numpy's text reader; the row-by-row
``csv`` reader runs only when that pass fails, to name the bad cell.
"""

from __future__ import annotations

import csv
import json
import warnings

import numpy as np

from .core import PartitionGrid, draw_violations
from .dataset import _parse_cell
from .io_utils import atomic_write, write_json


# how a malformed-row message names each checked column
_KIND = {"h": "bandwidth", "mu": "center", "xi": "coefficient", "sigma": "sigma"}
# whitespace to numpy's float reader but not to float(): '1\x1c' is 1.0 to
# np.loadtxt and a ValueError to float()
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _columns(p, nb, n_s, q):
    cols = [f"beta_{j}" for j in range(q)]
    cols += ["K", "h"]
    cols += [f"mu_{i}" for i in range(nb * p)]
    cols += [f"xi_{i}" for i in range(nb * n_s)]
    cols += ["sigma", "loglik", "logpost"]
    return cols


def save_draws(draws, csv_path, json_path=None):
    """Persist a PosteriorDraws object to CSV + JSON header."""
    if json_path is None:
        json_path = str(csv_path) + ".json"
    grid = draws.grid
    T, nb, n_s = draws.xi.shape
    q = 0 if draws.beta is None else draws.beta.shape[1]
    cols = _columns(grid.p, nb, n_s, q)
    table = np.column_stack([
        *([draws.beta] if q else []), draws.h, draws.mu.reshape(T, nb * grid.p),
        draws.xi.reshape(T, nb * n_s), draws.sigma, draws.loglik, draws.logpost,
    ])
    K = str(grid.K)
    lines = [",".join(cols)]
    for row in table.tolist():
        lines.append(",".join([*map(repr, row[:q]), K, *map(repr, row[q:])]))
    atomic_write(csv_path, "\n".join(lines) + "\n")
    header = {
        "K": grid.K,
        "p": grid.p,
        "m": draws.m,
        "kernel": draws.kernel,
        "n_blocks": nb,
        "n_coef_per_block": n_s,
        "q": q,
        "columns": cols,
        "accept": draws.accept,
        "meta": draws.meta,
    }
    write_json(json_path, header)


def _parse_rows(lines, cols):
    """The data lines as a (len(lines), len(cols)) float table."""
    text = "".join(lines)
    if not any(c in text for c in _LOADTXT_ONLY_SPACE):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(lines, delimiter=",", comments=None,
                                   dtype=float, ndmin=2)
        except (ValueError, Warning):
            pass
        else:
            if table.shape == (len(lines), len(cols)):
                return table
    rows = []
    for i, row in enumerate(csv.reader(lines), start=2):
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
    return np.array(rows).reshape(len(rows), len(cols))


def load_draws(csv_path, json_path=None):
    """Inverse of :func:`save_draws`.

    Every row must hold one number per column, the header's K in the K
    column and finite parameters (loglik and logpost may be NaN: a
    conjugate chain drawn without data is not scored) that the model
    allows, as :func:`core.draw_violations` checks them with its default
    bounds: Kh > 1, every center in its block closure and sigma > 0.  A
    malformed row raises ValueError naming its file row (the header is
    row 1) and column; a file with no data rows raises ValueError naming
    the file.

    The data rows are parsed by ``np.loadtxt`` in one C pass.  Its table is
    kept only when it holds one row per line and one value per column and
    no cell holds what only numpy counts as whitespace; otherwise (a parse
    error or warning, a blank line it would skip, a quoted or underscored
    cell, a stray cell) the rows go through ``csv.reader`` and ``float``
    one at a time, which return the same table or raise the message that
    names the first bad cell.  Both paths convert a cell with CPython's
    ``PyOS_string_to_double``, which rounds a decimal correctly to the
    nearest double, so they read the same bits.
    """
    from .sampler import PosteriorDraws

    if json_path is None:
        json_path = str(csv_path) + ".json"
    with open(json_path, encoding="utf-8") as fh:
        header = json.load(fh)
    K, p, m = header["K"], header["p"], header["m"]
    nb, n_s, q = header["n_blocks"], header["n_coef_per_block"], header["q"]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        cols = next(csv.reader(fh), None)
        if cols is None:
            raise ValueError(f"{csv_path}: missing header row")
        if cols != header["columns"]:
            raise ValueError("chain CSV does not match its JSON header")
        lines = fh.readlines()
    if not lines:
        raise ValueError(f"{csv_path}: no data rows")
    table = _parse_rows(lines, cols)
    T = len(table)
    grid = PartitionGrid(K, p)
    starts = np.cumsum([0, q, 1, 1, nb * p, nb * n_s, 1, 1]).tolist()
    parts = np.split(table, starts[1:], axis=1)
    beta, _, h, mu, xi, sigma, lls, lps = map(np.ascontiguousarray, parts)
    checks = draw_violations(grid, h[:, 0], mu.reshape(T, nb, p),
                             xi.reshape(T, nb, n_s), sigma[:, 0])
    first = dict(zip(("h", "mu", "xi", "sigma"), starts[2:6]))  # table column
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
                raise ValueError(f"{_KIND[name]} {cell} {reason(v, index)}")
    return PosteriorDraws(
        grid, m, header["kernel"], h[:, 0], mu.reshape(T, nb, p),
        xi.reshape(T, nb, n_s), sigma[:, 0], lls[:, 0], lps[:, 0],
        header.get("accept", {}), beta=beta if q else None,
        meta=header.get("meta", {}),
    )
