import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kmpoly import (KernelSpec, KmpParams, MultiIndexSet, PartitionGrid,
                    basis_matrix, eval_basis, eval_f, eval_kernel,
                    mixture_weights, taylor_project)
from kmpoly.core import _check_points, monomial_tensor

from conftest import make_params


# ---------------------------------------------------------------- kernels

def test_bump_at_zero():
    assert eval_kernel(KernelSpec("bump", 1.0), 0.0) == pytest.approx(math.exp(-1.0))


def test_bump_at_boundary_is_zero():
    assert eval_kernel(KernelSpec("bump", 1.0), 1.0) == 0.0
    assert eval_kernel(KernelSpec("bump", 1.0), 1.7) == 0.0


def test_bump_at_half():
    # exp(-1 / (1 - 0.25)) = exp(-4/3)
    assert eval_kernel(KernelSpec("bump", 1.0), 0.5) == pytest.approx(math.exp(-4.0 / 3.0))


def test_kernel_families_at_half():
    assert eval_kernel(KernelSpec("triangle", 1.0), 0.5) == pytest.approx(0.5)
    assert eval_kernel(KernelSpec("epanechnikov", 1.0), 0.5) == pytest.approx(0.75)


def test_kernel_bandwidth_rescales_radius():
    spec = KernelSpec("bump", 0.5)
    assert eval_kernel(spec, 0.25) == pytest.approx(math.exp(-4.0 / 3.0))
    assert eval_kernel(spec, 0.5) == 0.0


def test_kernel_sup_norm_in_two_dims():
    spec = KernelSpec("bump", 1.0)
    assert eval_kernel(spec, [0.5, 0.2]) == pytest.approx(math.exp(-4.0 / 3.0))
    assert eval_kernel(spec, [0.3, 1.0]) == 0.0


def test_kernel_support_exact_near_boundary():
    spec = KernelSpec("bump", 1.0)
    t = np.array([0.99, 1.0, 1.0000001])
    vals = spec.profile(t)
    assert vals[0] > 0.0
    assert vals[1] == 0.0 and vals[2] == 0.0


def test_kernel_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        KernelSpec("gaussian", 1.0)
    with pytest.raises(ValueError):
        KernelSpec("bump", 0.0)
    with pytest.raises(ValueError):
        eval_kernel(KernelSpec("bump", 1.0), np.nan)


# ---------------------------------------------------------------- partition

def test_block_centers_formula():
    grid = PartitionGrid(4)
    np.testing.assert_allclose(grid.block_centers.ravel(),
                               [1 / 8, 3 / 8, 5 / 8, 7 / 8])


def test_block_index_half_open_convention():
    grid = PartitionGrid(4)
    idx = grid.block_index(np.array([0.0, 0.25, 0.250001, 0.5, 1.0]))
    # blocks are (left, right] with 0 folded into the first block
    np.testing.assert_array_equal(idx, [0, 0, 1, 1, 3])


def test_block_index_two_dims_lexicographic():
    grid = PartitionGrid(2, p=2)
    idx = grid.block_index(np.array([[0.25, 0.25], [0.25, 0.75],
                                     [0.75, 0.25], [0.75, 0.75]]))
    np.testing.assert_array_equal(idx, [0, 1, 2, 3])


def test_contains_block_closures():
    grid = PartitionGrid(4)
    assert grid.contains(grid.block_centers)
    shifted = grid.block_centers.copy()
    shifted[0, 0] += 0.5 / 4  # right edge of the block: still in the closure
    assert grid.contains(shifted)
    shifted[0, 0] += 0.01
    assert not grid.contains(shifted)


def test_check_points_rejects_out_of_domain():
    with pytest.raises(ValueError):
        _check_points(np.array([0.5, 1.2]), 1)
    with pytest.raises(ValueError):
        _check_points(np.array([[0.5, 0.5]]), 1)
    with pytest.raises(ValueError):
        _check_points(np.array([np.inf]), 1)


# ---------------------------------------------------------------- weights

def test_weights_symmetric_midpoint():
    params = make_params(K=2, h=0.75, m=0)
    w = mixture_weights(params, np.array([0.5]))
    np.testing.assert_allclose(w, [[0.5, 0.5]], atol=1e-14)


def test_weights_frozen_value():
    # w_1(0.25) = phi(0) / (phi(0) + phi(2/3)) = 1 / (1 + exp(-0.8))
    params = make_params(K=2, h=0.75, m=0)
    w = mixture_weights(params, np.array([0.25]))
    expected = 1.0 / (1.0 + math.exp(-0.8))
    assert w[0, 0] == pytest.approx(expected, rel=1e-12)
    assert w[0, 1] == pytest.approx(1.0 - expected, rel=1e-12)


@given(st.integers(2, 6), st.floats(1.05, 1.99), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_weights_partition_of_unity(K, kh, seed):
    params = make_params(K=K, h=kh / K, m=0)
    x = np.random.default_rng(seed).uniform(0.0, 1.0, size=(31, 1))
    w = mixture_weights(params, x)
    assert np.all(w >= 0.0)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_weights_support_exactness():
    params = make_params(K=4, h=1.5 / 4, m=0)
    x = np.linspace(0.0, 1.0, 401)[:, None]
    w = mixture_weights(params, x)
    dist = np.abs(x - params.mu.ravel()[None, :])
    np.testing.assert_array_equal(w == 0.0, dist >= params.h)


def test_weights_all_families_normalize(rng):
    for family in ("bump", "triangle", "epanechnikov"):
        params = make_params(K=3, h=0.5, m=0, kernel=family)
        w = mixture_weights(params, rng.uniform(0, 1, size=(50, 1)))
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_weights_are_kernel_values_over_row_sum(rng):
    for family in ("bump", "triangle", "epanechnikov"):
        params = make_params(K=5, h=1.4 / 5, m=0, kernel=family,
                             mu_tilde=rng.uniform(-1.0, 1.0, (5, 1)))
        x = rng.uniform(0.0, 1.0, (200, 1))
        phi = KernelSpec(family, 1.0).profile(np.abs(x - params.mu.T) / params.h)
        np.testing.assert_array_equal(mixture_weights(params, x),
                                      phi / phi.sum(-1, keepdims=True))


def test_weights_empty_neighborhood_raises():
    # Kh < 1 leaves gaps between kernel supports
    params = make_params(K=4, h=0.5 / 4, m=0)
    with pytest.raises(FloatingPointError):
        mixture_weights(params, np.array([0.25]))
    # Kh just above 1 with centers at 0 and 0.5: x = 0.25 sits at radius
    # 0.9999, where the bump exp(-1 / (1 - r^2)) underflows to 0
    params = make_params(K=4, h=1.0001 / 4, m=0,
                         mu_tilde=[[-1.0], [1.0], [0.0], [0.0]])
    np.testing.assert_array_equal(params.mu.ravel(), [0.0, 0.5, 0.625, 0.875])
    with pytest.raises(FloatingPointError, match="empty kernel neighborhood"):
        mixture_weights(params, np.array([0.25]))


# ---------------------------------------------------------------- multi-indices

def test_mindex_cardinality_and_order():
    mi = MultiIndexSet(2, 2)
    assert len(mi) == math.comb(4, 2) == 6
    assert mi.indices == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert mi.indices[0] == (0, 0)


def test_mindex_degree_zero():
    assert MultiIndexSet(3, 0).indices == [(0, 0, 0)]


def test_mindex_rejects_bad_args():
    with pytest.raises(ValueError):
        MultiIndexSet(0, 2)
    with pytest.raises(ValueError):
        MultiIndexSet(1, -1)


# ---------------------------------------------------------------- basis

def test_basis_degree_zero_is_weight():
    params = make_params(K=3, m=2)
    x = np.linspace(0.05, 0.95, 11)
    w = mixture_weights(params, x)
    for k in range(3):
        np.testing.assert_allclose(eval_basis(params, k, (0,), x), w[:, k],
                                   atol=1e-14)


def test_basis_vanishes_at_own_center():
    params = make_params(K=3, m=2)
    centers = params.grid.block_centers.ravel()
    for k in range(3):
        for s in [(1,), (2,)]:
            assert eval_basis(params, k, s, np.array([centers[k]]))[0] == 0.0


def test_basis_frozen_value():
    # symmetric weights 0.5 times the centered monomial (0.5 - 0.25)
    params = make_params(K=2, h=0.75, m=2)
    val = eval_basis(params, 0, (1,), np.array([0.5]))[0]
    assert val == pytest.approx(0.125, rel=1e-12)


def test_basis_matrix_layout_matches_eval_basis(rng):
    params = make_params(K=2, p=2, m=2)
    x = rng.uniform(0, 1, size=(7, 2))
    psi = basis_matrix(params, x)
    n_s = len(params.mindex)
    for k in range(params.grid.n_blocks):
        for i, s in enumerate(params.mindex.indices):
            np.testing.assert_allclose(psi[:, k * n_s + i],
                                       eval_basis(params, k, s, x), atol=1e-14)


def test_monomial_tensor_matches_loop(rng):
    grid = PartitionGrid(2, p=2)
    x = rng.uniform(0, 1, size=(5, 2))
    mono = monomial_tensor(grid, 2, x)
    mindex = MultiIndexSet(2, 2)
    for i in range(5):
        for k in range(grid.n_blocks):
            for j, s in enumerate(mindex.indices):
                expect = np.prod((x[i] - grid.block_centers[k]) ** np.array(s))
                assert mono[i, k, j] == pytest.approx(expect, abs=1e-14)


# ---------------------------------------------------------------- eval_f

def test_eval_f_zero_coefficients():
    params = make_params(K=3)
    np.testing.assert_array_equal(eval_f(params, np.linspace(0, 1, 9)), 0.0)


def test_eval_f_reproduces_constants():
    params = make_params(K=4, m=2)
    params.xi[:, 0] = 3.25
    f = eval_f(params, np.linspace(0, 1, 101))
    np.testing.assert_allclose(f, 3.25, atol=1e-12)


def test_eval_f_linear_in_xi(rng):
    params = make_params(K=3, m=2)
    params.xi[:] = rng.normal(size=params.xi.shape)
    x = rng.uniform(0, 1, 20)
    f1 = eval_f(params, x)
    params.xi[:] *= 2.0
    np.testing.assert_allclose(eval_f(params, x), 2.0 * f1, atol=1e-10)


@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_eval_f_superposition(a, b, seed):
    r = np.random.default_rng(seed)
    params = make_params(K=2, m=1)
    xi1 = r.normal(size=params.xi.shape)
    xi2 = r.normal(size=params.xi.shape)
    x = r.uniform(0, 1, 9)
    params.xi[:] = xi1
    f1 = eval_f(params, x)
    params.xi[:] = xi2
    f2 = eval_f(params, x)
    params.xi[:] = a * xi1 + b * xi2
    np.testing.assert_allclose(eval_f(params, x), a * f1 + b * f2,
                               atol=1e-9, rtol=1e-9)


# ---------------------------------------------------------------- params

def test_params_shape_validation():
    grid = PartitionGrid(2)
    with pytest.raises(ValueError):
        KmpParams(grid, 0.75, np.zeros((3, 1)), np.zeros((2, 3)), 0.1)
    with pytest.raises(ValueError):
        KmpParams(grid, 0.75, grid.block_centers, np.zeros((2, 2)), 0.1, m=2)


def test_params_validate_constraints():
    params = make_params(K=2, h=0.75)
    params.validate(B=50, h_lo=1.2, h_hi=2.0, sigma_lo=1e-3, sigma_hi=10)
    bad = make_params(K=2, h=0.4)  # Kh = 0.8 <= 1
    with pytest.raises(ValueError):
        bad.validate(h_lo=0.5, h_hi=2.0)
    params.xi[0, 0] = 99.0
    with pytest.raises(ValueError):
        params.validate(B=50, h_lo=1.2, h_hi=2.0)


def test_mu_tilde_roundtrip(rng):
    mt = rng.uniform(-1, 1, size=(3, 1))
    params = make_params(K=3, mu_tilde=mt)
    np.testing.assert_allclose(params.mu_tilde, mt, atol=1e-12)


# ---------------------------------------------------------------- taylor

def test_taylor_project_constant():
    grid = PartitionGrid(3)
    xi = taylor_project(lambda x: 7.0, grid, 2)
    np.testing.assert_allclose(xi[:, 0], 7.0, atol=1e-8)
    np.testing.assert_allclose(xi[:, 1:], 0.0, atol=1e-6)


def test_taylor_project_linear_exact():
    grid = PartitionGrid(4)
    xi = taylor_project(lambda x: x, grid, 1)
    np.testing.assert_allclose(xi[:, 0], grid.block_centers.ravel(), atol=1e-10)
    np.testing.assert_allclose(xi[:, 1], 1.0, atol=1e-6)


def test_taylor_project_analytic_derivs():
    grid = PartitionGrid(4)

    def derivs(c, s):
        k = s[0]
        return (2 * math.pi) ** k * math.sin(2 * math.pi * c[0] + k * math.pi / 2)

    xi = taylor_project(np.sin, grid, 2, derivs=derivs)
    xi_fd = taylor_project(lambda x: math.sin(2 * math.pi * x), grid, 2)
    np.testing.assert_allclose(xi, xi_fd, atol=1e-4)


def _taylor_sup_error(K, m=2):
    grid = PartitionGrid(K)

    def derivs(c, s):
        k = s[0]
        return (2 * math.pi) ** k * math.sin(2 * math.pi * c[0] + k * math.pi / 2)

    xi = taylor_project(None, grid, m, derivs=derivs)
    params = KmpParams(grid, 1.5 / K, grid.block_centers.copy(), xi, 1.0, m=m)
    xs = np.linspace(0.0, 1.0, 2048)
    return float(np.max(np.abs(eval_f(params, xs) - np.sin(2 * math.pi * xs))))


def test_taylor_error_decays_with_K():
    assert _taylor_sup_error(16) <= 0.3 * _taylor_sup_error(8)
