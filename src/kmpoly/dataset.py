"""Typed datasets, strict CSV ingestion, and the wage-data preprocessing."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .io_utils import atomic_write


def _require_finite(values, role, names):
    """Raise on the first NaN or infinity of a 2-D array, naming its cell."""
    bad = ~np.isfinite(values)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        col = names[j] if j < len(names) else j
        raise ValueError(f"non-finite {role} value {values[i, j]} "
                         f"at row {i}, column {col!r}")


@dataclass
class Dataset:
    """Design points x in [0, 1]^p, optional linear covariates z, responses y.

    NaN and infinite entries are rejected with their role, row (0-based)
    and column.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray | None = None
    x_names: list = field(default_factory=list)
    z_names: list = field(default_factory=list)
    y_name: str = "y"
    note: str = ""

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if self.x.shape[0] == 1 and self.x.shape[1] > 1 and np.ndim(self.y) == 1 \
                and len(np.atleast_1d(self.y)) == self.x.shape[1]:
            self.x = self.x.T
        self.y = np.asarray(self.y, dtype=float).ravel()
        n = self.y.shape[0]
        if self.x.shape[0] != n:
            raise ValueError("x and y row counts differ")
        if not self.x_names:
            self.x_names = [f"x{j+1}" for j in range(self.p)]
        _require_finite(self.x, "x", self.x_names)
        _require_finite(self.y[:, None], "y", [self.y_name])
        if np.any(self.x < 0.0) or np.any(self.x > 1.0):
            raise ValueError("design points must lie in [0, 1]^p")
        if self.z is not None:
            self.z = np.atleast_2d(np.asarray(self.z, dtype=float))
            if self.z.shape[0] != n:
                raise ValueError("z and y row counts differ")
            if not self.z_names:
                self.z_names = [f"z{j+1}" for j in range(self.q)]
            _require_finite(self.z, "z", self.z_names)

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def p(self):
        return self.x.shape[1]

    @property
    def q(self):
        return 0 if self.z is None else self.z.shape[1]


def _parse_cell(text, row, col, role):
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"non-numeric cell {text!r} at row {row}, column {col!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite {role} cell {text!r} at row {row}, column {col!r}")
    return value


def load_csv(path, schema) -> Dataset:
    """Load a dataset from a headered CSV under an explicit column schema.

    ``schema`` maps roles to column names: {"x": [...], "y": "col"} and
    optionally "z": [...].  Parsing is strict: a missing column or a
    non-numeric or non-finite cell raises with its location (rows count
    file lines, the header being row 1).
    """
    x_cols = list(schema["x"])
    z_cols = list(schema.get("z", []))
    y_col = schema["y"]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: missing header row")
        for col in [*x_cols, *z_cols, y_col]:
            if col not in reader.fieldnames:
                raise ValueError(f"{path}: missing column {col!r}")
        xs, zs, ys = [], [], []
        for i, row in enumerate(reader, start=2):  # header is line 1
            xs.append([_parse_cell(row[c], i, c, "x") for c in x_cols])
            if z_cols:
                zs.append([_parse_cell(row[c], i, c, "z") for c in z_cols])
            ys.append(_parse_cell(row[y_col], i, y_col, "y"))
    if not ys:
        raise ValueError(f"{path}: no data rows")
    return Dataset(
        x=np.array(xs), y=np.array(ys), z=np.array(zs) if z_cols else None,
        x_names=x_cols, z_names=z_cols, y_name=y_col, note=f"loaded from {path}",
    )


def save_csv(dataset: Dataset, path):
    """Write a dataset back to CSV; floats use repr so round-trips are exact."""
    header = [*dataset.x_names, *dataset.z_names, dataset.y_name]
    lines = [",".join(header)]
    for i in range(dataset.n):
        cells = [repr(float(v)) for v in dataset.x[i]]
        if dataset.z is not None:
            cells += [repr(float(v)) for v in dataset.z[i]]
        cells.append(repr(float(dataset.y[i])))
        lines.append(",".join(cells))
    atomic_write(path, "\n".join(lines) + "\n")


WAGE_COLUMNS = ("lwage", "female", "married", "educ", "tenure", "exper")


def _plus_minus_one(values, col):
    out = np.empty(len(values))
    for i, v in enumerate(values):
        s = str(v).strip().lower()
        if s in ("1", "1.0", "yes", "true"):
            out[i] = 1.0
        elif s in ("0", "0.0", "-1", "-1.0", "no", "false"):
            out[i] = -1.0
        else:
            raise ValueError(f"cannot code {col} value {v!r} as +/-1")
    return out


def wage_preprocess(table, seed=0, train_size=300):
    """Preprocess a wage table and split into train/test datasets.

    ``table`` is a mapping from column name to a sequence of raw values and
    must contain lwage, female, married, educ, tenure, exper.  Binary
    indicators are coded as +/-1, educ and tenure are centered on the full
    sample, exper is affinely mapped into (0, 1) with an open margin, and
    rows are split by a seeded permutation (300 train / rest test at the
    published sample size).
    """
    for col in WAGE_COLUMNS:
        if col not in table:
            raise ValueError(f"wage table is missing column {col!r}")
    n = len(table["lwage"])
    if n < 526:
        warnings.warn(f"wage table has {n} rows, fewer than the published 526")
        train_size = max(1, round(n * train_size / 526))
    y = np.asarray(table["lwage"], dtype=float)
    female = _plus_minus_one(table["female"], "female")
    married = _plus_minus_one(table["married"], "married")
    educ = np.asarray(table["educ"], dtype=float)
    tenure = np.asarray(table["tenure"], dtype=float)
    educ = educ - educ.mean()
    tenure = tenure - tenure.mean()
    exper = np.asarray(table["exper"], dtype=float)
    eps = 1e-6
    span = exper.max() - exper.min()
    if span == 0:
        raise ValueError("exper column is constant; cannot rescale")
    x = eps + (1 - 2 * eps) * (exper - exper.min()) / span
    z = np.column_stack([female, married, educ, tenure])
    perm = np.random.default_rng(seed).permutation(n)
    tr, te = perm[:train_size], perm[train_size:]

    def subset(idx, tag):
        return Dataset(x=x[idx, None], y=y[idx], z=z[idx],
                       x_names=["exper"],
                       z_names=["female", "married", "educ", "tenure"],
                       y_name="lwage", note=f"wage {tag} split (seed={seed})")

    return subset(tr, "train"), subset(te, "test")
