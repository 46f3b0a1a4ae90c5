"""Chain persistence: one CSV row per draw plus a JSON layout header.

Floats are written with repr, so a save/load cycle is bit-exact.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .core import PartitionGrid
from .dataset import _parse_cell
from .io_utils import atomic_write, write_json


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


def load_draws(csv_path, json_path=None):
    """Inverse of :func:`save_draws`.

    Every row must hold one number per column, the header's K in the K
    column and finite parameters (loglik and logpost may be NaN: a
    conjugate chain drawn without data is not scored) that the model
    allows: Kh > 1, every center in its block closure (the tolerance of
    ``PartitionGrid.contains``) and sigma > 0.  A malformed row raises
    ValueError naming its file row (the header is row 1) and column.
    """
    from .sampler import PosteriorDraws

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
    lo, hi = (b.ravel() for b in grid.closure())
    h_col, mu_cols, s_col = q + 1, slice(q + 2, q + 2 + nb * p), len(cols) - 3
    bad = ~np.isfinite(table[:, :-2])
    bad[:, q] = table[:, q] != K
    bad[:, h_col] |= ~(K * table[:, h_col] > 1.0)
    bad[:, mu_cols] |= (table[:, mu_cols] < lo) | (table[:, mu_cols] > hi)
    bad[:, s_col] |= ~(table[:, s_col] > 0.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        v = float(table[i, j])
        cell = f"cell '{v}' at row {i + 2}, column {cols[j]!r}"
        raise ValueError(
            f"K {cell} differs from the header's K = {K}" if j == q
            else f"non-finite chain {cell}" if not np.isfinite(v)
            else f"bandwidth {cell} gives Kh = {K * v} <= 1" if j == h_col
            else f"sigma {cell} is not positive" if j == s_col
            else f"center {cell} lies outside the closure of block "
                 f"{(j - mu_cols.start) // p}")
    parts = np.split(table, np.cumsum([q, 1, 1, nb * p, nb * n_s, 1, 1]), axis=1)
    beta, _, h, mu, xi, sigma, lls, lps = map(np.ascontiguousarray, parts)
    return PosteriorDraws(
        grid, m, header["kernel"], h[:, 0], mu.reshape(T, nb, p),
        xi.reshape(T, nb, n_s), sigma[:, 0], lls[:, 0], lps[:, 0],
        header.get("accept", {}), beta=beta if q else None,
        meta=header.get("meta", {}),
    )
