import numpy as np
import pytest

from kmpoly import Dataset, load_csv, save_csv, wage_preprocess
from kmpoly.dataset import WAGE_COLUMNS


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([[0.5], [0.6]]), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.2]]), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[0.5]]), np.array([1.0]), z=np.zeros((2, 1)))


@pytest.mark.parametrize("role, row, col", [("x", 1, 0), ("y", 2, 0), ("z", 0, 1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite(role, row, col, bad):
    arrays = {"x": np.full((3, 1), 0.5), "y": np.zeros((3, 1)), "z": np.ones((3, 2))}
    arrays[role][row, col] = bad
    names = {"x": "x1", "y": "y", "z": f"z{col + 1}"}[role]
    with pytest.raises(ValueError, match=rf"non-finite {role} .*row {row}, column '{names}'"):
        Dataset(arrays["x"], arrays["y"].ravel(), z=arrays["z"])


def test_load_csv_rejects_non_finite_cells(tmp_path):
    path = tmp_path / "nan.csv"
    for text, role, col in [("x1,z1,y\nnan,0.0,1.0\n", "x", "x1"),
                            ("x1,z1,y\n0.5,0.0,1.0\n0.5,inf,1.0\n", "z", "z1"),
                            ("x1,z1,y\n0.5,0.0,1.0\n0.5,0.0,NaN\n", "y", "y")]:
        path.write_text(text)
        row = text.count("\n")
        with pytest.raises(ValueError, match=rf"non-finite {role} cell .*row {row}, column '{col}'"):
            load_csv(path, {"x": ["x1"], "z": ["z1"], "y": "y"})


def test_dataset_default_names():
    ds = Dataset(np.array([[0.5, 0.5]]), np.array([1.0]), z=np.array([[1.0]]))
    assert ds.x_names == ["x1", "x2"] and ds.z_names == ["z1"]
    assert (ds.n, ds.p, ds.q) == (1, 2, 1)


def test_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(rng.uniform(0, 1, (3, 2)), rng.normal(size=3),
                 z=rng.normal(size=(3, 1)))
    path = tmp_path / "toy.csv"
    save_csv(ds, path)
    back = load_csv(path, {"x": ds.x_names, "z": ds.z_names, "y": "y"})
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.z, ds.z)


def test_load_csv_strict_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\n0.5,1.0\n0.6,NA\n")
    with pytest.raises(ValueError, match="row 3.*'y'"):
        load_csv(path, {"x": ["x1"], "y": "y"})
    with pytest.raises(ValueError, match="missing column 'x2'"):
        load_csv(path, {"x": ["x2"], "y": "y"})
    (tmp_path / "empty.csv").write_text("x1,y\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(tmp_path / "empty.csv", {"x": ["x1"], "y": "y"})


def _wage_table(n):
    rng = np.random.default_rng(8)
    return {
        "lwage": rng.normal(1.6, 0.4, n),
        "female": rng.integers(0, 2, n),
        "married": np.where(rng.integers(0, 2, n) == 1, "yes", "no"),
        "educ": rng.integers(8, 18, n).astype(float),
        "tenure": rng.integers(0, 20, n).astype(float),
        "exper": rng.integers(1, 40, n).astype(float),
    }


def test_wage_preprocess_small_table_warns():
    with pytest.warns(UserWarning, match="fewer"):
        train, test = wage_preprocess(_wage_table(10), seed=1)
    assert train.q == test.q == 4
    assert train.p == test.p == 1
    assert train.n + test.n == 10


def test_wage_preprocess_full_size_split():
    table = _wage_table(526)
    train, test = wage_preprocess(table, seed=2)
    assert (train.n, test.n) == (300, 226)
    # centered covariates and rescaled design
    both_z = np.vstack([train.z, test.z])
    np.testing.assert_allclose(both_z[:, 2:].sum(axis=0), 0.0, atol=1e-8)
    assert set(np.unique(both_z[:, :2])) == {-1.0, 1.0}
    both_x = np.concatenate([train.x.ravel(), test.x.ravel()])
    assert both_x.min() > 0.0 and both_x.max() < 1.0


def test_wage_preprocess_plus_minus_coding():
    table = _wage_table(10)
    table["female"] = ["yes"] * 10
    with pytest.warns(UserWarning):
        train, test = wage_preprocess(table, seed=0)
    assert np.all(np.concatenate([train.z[:, 0], test.z[:, 0]]) == 1.0)
    table["female"] = ["maybe"] * 10
    with pytest.warns(UserWarning), pytest.raises(ValueError, match="female"):
        wage_preprocess(table, seed=0)


def test_wage_preprocess_missing_column():
    table = _wage_table(10)
    del table["tenure"]
    with pytest.raises(ValueError, match="tenure"):
        wage_preprocess(table)
    assert "tenure" in WAGE_COLUMNS
