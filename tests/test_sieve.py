import numpy as np
import pytest
from scipy.optimize import lsq_linear

from kmpoly import (Dataset, MultiIndexSet, SieveConfig, basis_matrix, choose_Kn,
                    eval_f, fit_sieve_mle)
from kmpoly import sieve
from kmpoly.sieve import solve_xi_box

from conftest import make_params, sine_data


# ---------------------------------------------------------------- solve_xi_box

def test_box_solver_unconstrained_equals_lstsq(rng):
    psi = rng.normal(size=(40, 6))
    y = rng.normal(size=40)
    # the early return hands back lstsq's solution itself
    np.testing.assert_array_equal(solve_xi_box(y, psi, B=1e6),
                                  np.linalg.lstsq(psi, y, rcond=None)[0])


def test_box_solver_degenerate_box():
    rng = np.random.default_rng(0)
    psi = rng.normal(size=(10, 3))
    np.testing.assert_array_equal(solve_xi_box(rng.normal(size=10), psi, B=0.0),
                                  np.zeros(3))


def test_box_solver_matches_scipy_on_active_constraints(rng):
    # force clipping by fitting large data with a small box
    psi = rng.normal(size=(60, 5))
    y = 10.0 * rng.normal(size=60)
    B = 0.7
    xi = solve_xi_box(y, psi, B)
    assert np.max(np.abs(xi)) <= B + 1e-12
    ref = lsq_linear(psi, y, bounds=(-B, B), tol=1e-14)
    obj = float(np.sum((y - psi @ xi) ** 2))
    obj_ref = float(np.sum((y - psi @ ref.x) ** 2))
    assert obj <= obj_ref + 1e-8 * (1 + obj_ref)


def test_box_solver_handles_zero_columns(rng):
    psi = rng.normal(size=(20, 4))
    psi[:, 2] = 0.0
    xi = solve_xi_box(rng.normal(size=20), psi, B=5.0)
    assert xi[2] == 0.0


@pytest.mark.parametrize("B", [np.nan, -1.0, -np.inf])
def test_box_solver_rejects_bad_B(B):
    psi = np.random.default_rng(0).normal(size=(10, 3))
    with pytest.raises(ValueError, match="B >= 0"):
        solve_xi_box(np.ones(10), psi, B)


@pytest.mark.parametrize("binds", ["none", "some", "all"])
@pytest.mark.parametrize("shape", ["well_posed", "wide", "rank_deficient"])
@pytest.mark.parametrize("factor", [False, True])
def test_bvls_port_matches_scipy_byte_for_byte(shape, binds, factor):
    # sieve._bvls against the scipy routine it ports, on the dense problem
    # and on the triangular [A | b] factor that solve_xi_box hands it, with
    # the box cutting none, some or all of the least-squares solution's
    # coordinates
    rng = np.random.default_rng(["well_posed", "wide", "rank_deficient"]
                                .index(shape))
    cut = []
    for _ in range(40):
        n, k = int(rng.integers(12, 41)), int(rng.integers(2, 11))
        if shape == "wide":
            n, k = k, n
        A = rng.normal(size=(n, k))
        if shape == "rank_deficient":
            A[:, 1::3] = A[:, :1] * rng.normal(size=(k + 1) // 3)
        b = 3.0 * rng.normal(size=n)
        if factor:
            ra = np.linalg.qr(np.column_stack([A, b]), mode="r")
            A, b = ra[:, :-1], ra[:, -1]
        ls = np.abs(np.linalg.lstsq(A, b, rcond=-1)[0])
        B = {"none": 2.0 * ls.max(), "some": 0.4 * ls.max(),
             "all": 0.5 * ls.min()}[binds]
        x = sieve._bvls(A, b, B)
        ref = lsq_linear(A, b, bounds=(-B, B), method="bvls").x
        assert x.tobytes() == ref.tobytes()
        cut.append(np.mean(ls > B))
    if binds == "none":
        assert max(cut) == 0.0
    elif binds == "all":
        assert min(cut) == 1.0
    else:
        assert 0.0 < np.mean(cut) < 1.0


def _solve_xi_box_dense(y, psi, B, tol=1e-10, max_sweeps=200):
    # reference: solve_xi_box with the active set and the polish run on the
    # dense n-row basis instead of the triangular factor of [psi | y]
    xi = np.zeros(psi.shape[1])
    if B == 0:
        return xi
    ls, *_ = np.linalg.lstsq(psi, y, rcond=None)
    if np.max(np.abs(ls)) <= B:
        return ls
    live = np.einsum("ij,ij->j", psi, psi) > 0.0
    A = psi[:, live]
    d = np.einsum("ij,ij->j", A, A)
    x = np.clip(lsq_linear(A, y, bounds=(-B, B), method="bvls").x, -B, B)
    r = y - A @ x
    scale = max(float(y @ y), 1.0)
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(x.shape[0]):
            old = x[j]
            new = (float(A[:, j] @ r) + d[j] * old) / d[j]
            new = min(max(new, -B), B)
            if new != old:
                r -= A[:, j] * (new - old)
                x[j] = new
                delta = max(delta, abs(new - old))
        if delta == 0.0 or sieve._kkt_residual(A, r, x, B, d) <= tol * scale:
            break
    xi[live] = x
    return xi


def test_box_solver_on_the_qr_factor_matches_the_dense_solve():
    # n from 1 to 60 against 1 to 12 coefficients (fewer rows than
    # coefficients too), some zero columns, and a box that binds at half
    # the least-squares solution's largest entry and one that does not.
    # Enough sweeps that the KKT test, not the sweep cap, ends every
    # solve: rank-deficient problems converge slowly either way
    rng = np.random.default_rng(2017)
    tol, sweeps, eps = 1e-10, 20000, np.finfo(float).eps
    bound = 0
    for _ in range(300):
        n, ncoef = int(rng.integers(1, 61)), int(rng.integers(1, 13))
        psi = rng.normal(size=(n, ncoef))
        psi[:, rng.random(ncoef) < 0.2] = 0.0
        y = 3.0 * rng.normal(size=n)
        top = np.max(np.abs(np.linalg.lstsq(psi, y, rcond=None)[0]))
        full_rank = np.linalg.matrix_rank(psi) == ncoef
        for B in (0.5 * top, 2.0 * top + 1e-3):
            if B == 0.0:
                continue
            xi = solve_xi_box(y, psi, B, tol, sweeps)
            ref = _solve_xi_box_dense(y, psi, B, tol, sweeps)
            if B > top:
                np.testing.assert_array_equal(xi, ref)
                continue
            bound += 1
            assert np.max(np.abs(xi)) <= B
            if full_rank:
                assert np.max(np.abs(xi - ref)) <= 1e-9 * np.max(np.abs(ref))
            obj, obj_ref = (float(np.sum((y - psi @ v) ** 2)) for v in (xi, ref))
            assert abs(obj - obj_ref) <= 1e-10 * obj_ref
            # optimality on the original problem, up to the rounding of
            # the gradient psi'(y - psi xi)
            scale = max(float(y @ y), 1.0)
            d = np.einsum("ij,ij->j", psi, psi)
            kkt = sieve._kkt_residual(psi, y - psi @ xi, xi, B, d)
            assert kkt <= (tol + 8 * eps) * scale
    assert bound > 250


def test_box_solver_reaches_its_kkt_tolerance_with_zero_columns():
    # the generator above with the box binding: rank-deficient problems
    # with zero columns, on which a coordinate polish alone converges
    # slowly, must still meet the KKT tolerance at the default 200 sweeps
    rng = np.random.default_rng(2017)
    tol, eps = 1e-10, np.finfo(float).eps
    bound = 0
    for _ in range(2000):
        n, ncoef = int(rng.integers(1, 61)), int(rng.integers(1, 13))
        psi = rng.normal(size=(n, ncoef))
        psi[:, rng.random(ncoef) < 0.2] = 0.0
        y = 3.0 * rng.normal(size=n)
        B = 0.5 * np.max(np.abs(np.linalg.lstsq(psi, y, rcond=None)[0]))
        if B == 0.0:
            continue
        bound += 1
        xi = solve_xi_box(y, psi, B)
        d = np.einsum("ij,ij->j", psi, psi)
        assert np.all(xi[d == 0.0] == 0.0) and np.max(np.abs(xi)) <= B
        kkt = sieve._kkt_residual(psi, y - psi @ xi, xi, B, d)
        assert kkt <= (tol + 8 * eps) * max(float(y @ y), 1.0)
    assert bound > 1900


def _kkt_residual_loop(psi, r, xi, B, d):
    # per-coordinate reference for the vectorized sieve._kkt_residual
    g = -(psi.T @ r)
    res = 0.0
    for j in range(xi.shape[0]):
        if d[j] == 0.0:
            continue
        if xi[j] >= B - 1e-14:
            res = max(res, max(0.0, g[j]))
        elif xi[j] <= -B + 1e-14:
            res = max(res, max(0.0, -g[j]))
        else:
            res = max(res, abs(g[j]))
    return res


@pytest.mark.parametrize("B", [1e-15, 0.5, 50.0])
def test_kkt_residual_matches_the_coordinate_loop(B):
    # coordinates at either bound (or within 1e-14 of it), interior ones and
    # zero columns, which the residual skips
    rng = np.random.default_rng(17)
    for _ in range(300):
        n, ncoef = int(rng.integers(1, 20)), int(rng.integers(1, 10))
        psi = rng.normal(size=(n, ncoef))
        psi[:, rng.random(ncoef) < 0.2] = 0.0
        u = rng.random(ncoef)
        xi = np.select([u < 0.3, u > 0.7, u < 0.35], [B, -B, B - 5e-15],
                       rng.uniform(-B, B, ncoef))
        args = (psi, rng.normal(size=n), xi, B, np.einsum("ij,ij->j", psi, psi))
        assert sieve._kkt_residual(*args) == _kkt_residual_loop(*args)


def test_kkt_residual_signs_at_active_bounds():
    # psi = I: xi_0 at +B and xi_1 at -B, with g = -(y - xi)
    psi, B = np.eye(2), 1.0
    d = np.ones(2)
    xi = np.array([B, -B])
    # y beyond the box on each bound's own side: the bounds hold with
    # correct-sign multipliers, so xi is optimal and the residual reads 0
    y = np.array([3.0, -3.0])
    assert sieve._kkt_residual(psi, y - psi @ xi, xi, B, d) == 0.0
    np.testing.assert_array_equal(solve_xi_box(y, psi, B), xi)
    # y on the far side: the gradient points back into the box at both
    # bounds, and the residual reads its size
    y = np.array([-3.0, 3.0])
    assert sieve._kkt_residual(psi, y - psi @ xi, xi, B, d) == 4.0
    y = np.array([3.0, 0.5])      # only the lower bound is violated, by 1.5
    assert sieve._kkt_residual(psi, y - psi @ xi, xi, B, d) == 1.5


# ---------------------------------------------------------------- K rule

def test_sieve_K_values():
    assert choose_Kn(1000, 1.0, 1) == 6
    with pytest.raises(ValueError):
        choose_Kn(1, 1.0, 1)


def test_sieve_K_monotone_in_n():
    ks = [choose_Kn(n, 1.0, 1) for n in (100, 500, 1000, 5000, 20000, 100000)]
    assert all(a <= b for a, b in zip(ks, ks[1:]))


# ---------------------------------------------------------------- fitting

def test_constant_data_recovered_exactly(rng):
    x = rng.uniform(0, 1, 30)
    data = Dataset(x[:, None], np.full(30, 2.5))
    cfg = SieveConfig(K=2, m=0, multistart=2, max_outer=10)
    fit = fit_sieve_mle(data, cfg, rng)
    grid = np.linspace(0, 1, 200)
    assert np.max(np.abs(eval_f(fit.params, grid) - 2.5)) < 1e-6


def test_representable_data_fit_to_machine_noise(rng):
    # truth on the search lattice: centered mu, Kh on the kh grid
    truth = make_params(K=2, h=1.6 / 2, m=1, xi=[[0.5, 1.2], [-0.3, 0.8]])
    x = np.random.default_rng(5).uniform(0, 1, 30)
    data = Dataset(x[:, None], eval_f(truth, x))
    cfg = SieveConfig(K=2, m=1, multistart=3, max_outer=20)
    fit = fit_sieve_mle(data, cfg, rng)
    assert fit.objective <= 1e-8 * data.n


def test_fit_stays_feasible(rng):
    data = sine_data(60, seed=1)
    cfg = SieveConfig(K=3, m=2, B=50.0, multistart=2, max_outer=4, mu_grid=11)
    fit = fit_sieve_mle(data, cfg, rng)
    fit.params.validate(B=cfg.B, h_lo=cfg.h_lo, h_hi=cfg.h_hi)
    assert fit.objective >= 0.0
    assert len(fit.start_objectives) == 2
    assert min(fit.start_objectives) == pytest.approx(fit.objective)


def test_fit_uses_n_rule_when_K_unset(rng):
    data = sine_data(100, seed=2)
    cfg = SieveConfig(multistart=1, max_outer=2, mu_grid=7)
    fit = fit_sieve_mle(data, cfg, rng)
    assert fit.params.grid.K == choose_Kn(100, 1.0, 1)


def test_fixed_sigma0_propagates(rng):
    data = sine_data(40, seed=3)
    cfg = SieveConfig(K=2, multistart=1, max_outer=3, sigma0=0.25)
    fit = fit_sieve_mle(data, cfg, rng)
    assert fit.params.sigma == 0.25


def test_accepted_moves_reuse_the_candidate_solve(monkeypatch):
    # K=2, m=1 has 4 coefficients, so refit is on: _score solves xi once per
    # candidate geometry and an accepted move keeps that solve; the only
    # other solve is _descend's _fit_xi at the start, which scores the
    # state's own geometry: solves = candidates + 1
    calls = {"solve": 0, "score": 0, "fit": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sieve, "solve_xi_box", counted("solve", solve_xi_box))
    monkeypatch.setattr(sieve, "_score", counted("score", sieve._score))
    monkeypatch.setattr(sieve, "_fit_xi", counted("fit", sieve._fit_xi))
    data = sine_data(40, seed=3)
    cfg = SieveConfig(K=2, m=1, multistart=1, max_outer=3)
    fit = fit_sieve_mle(data, cfg, np.random.default_rng(0))
    candidates = calls["score"] - calls["fit"]
    assert calls["fit"] == 1 and calls["solve"] == candidates + 1
    np.testing.assert_array_equal(
        fit.params.xi.ravel(),
        solve_xi_box(data.y, basis_matrix(fit.params, data.x), cfg.B))


def test_refit_passes_skip_the_redundant_solve(monkeypatch):
    # with refit on, params.xi after a pass already is the solve at its final
    # geometry: re-solving after every pass, as _descend does with refit off,
    # must leave the fit bit-identical and only cost solves
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve_xi_box(*args, **kwargs)

    monkeypatch.setattr(sieve, "solve_xi_box", counted)
    data = sine_data(40, seed=3)
    cfg = SieveConfig(K=2, m=1, multistart=2, max_outer=4)
    fit = fit_sieve_mle(data, cfg, np.random.default_rng(0))
    n_fit, calls[0] = calls[0], 0
    kh_search = sieve._kh_search

    def resolving(state, obj, cfg, refit):
        obj = kh_search(state, obj, cfg, refit)
        return min(obj, sieve._fit_xi(state, cfg.B))

    monkeypatch.setattr(sieve, "_kh_search", resolving)
    ref = fit_sieve_mle(data, cfg, np.random.default_rng(0))
    assert n_fit < calls[0]
    assert (fit.objective, fit.n_outer, fit.start_objectives) == (
        ref.objective, ref.n_outer, ref.start_objectives)
    assert fit.params.h == ref.params.h
    np.testing.assert_array_equal(fit.params.mu, ref.params.mu)
    np.testing.assert_array_equal(fit.params.xi, ref.params.xi)


@pytest.mark.parametrize("p, K, m, refit", [
    (1, 2, 1, True),       # K^p * n_s = 4
    (1, 5, 2, False),      # 15
    (2, 2, 1, True),       # 12
    (2, 2, 2, False),      # 24
])
@pytest.mark.parametrize("kernel", ["bump", "triangle", "epanechnikov"])
def test_objective_is_the_rss_of_the_returned_fit(p, K, m, refit, kernel):
    # candidates are scored on the pair caches (or a basis built from them),
    # so the objective must still be the dense basis residual of the final
    # parameters; a cache left stale after an accepted move breaks this
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, (50, p))
    y = np.sin(2 * np.pi * x.sum(axis=1)) + 0.2 * rng.standard_normal(50)
    data = Dataset(x, y)
    cfg = SieveConfig(K=K, m=m, kernel=kernel, multistart=2, max_outer=3,
                      mu_grid=5)
    n_s = len(MultiIndexSet(p, m))
    assert (K**p * n_s <= 12) == refit
    fit = fit_sieve_mle(data, cfg, rng)
    r = y - basis_matrix(fit.params, x) @ fit.params.xi.ravel()
    assert fit.objective == pytest.approx(float(r @ r), rel=1e-12, abs=0)


def test_config_validation():
    with pytest.raises(ValueError):
        SieveConfig(tol=0.0)
    with pytest.raises(ValueError):
        SieveConfig(multistart=0)
    with pytest.raises(ValueError, match=r"need 1 < h_lo < h_hi"):
        SieveConfig(h_lo=2.0, h_hi=1.2)
    with pytest.raises(ValueError, match=r"need 1 < h_lo < h_hi"):
        SieveConfig(h_lo=0.5)
    with pytest.raises(ValueError, match=r"need mu_grid >= 2"):
        SieveConfig(mu_grid=1)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match=r"need B >= 0, got B = "):
            SieveConfig(B=bad)
    assert SieveConfig(B=0.0).B == 0.0
