import numpy as np
import pytest
from scipy.optimize import lsq_linear

from kmpoly import (Dataset, SieveConfig, basis_matrix, choose_Kn, eval_f,
                    fit_sieve_mle)
from kmpoly import sieve
from kmpoly.sieve import solve_xi_box

from conftest import make_params, sine_data


# ---------------------------------------------------------------- solve_xi_box

def test_box_solver_unconstrained_equals_lstsq(rng):
    psi = rng.normal(size=(40, 6))
    y = rng.normal(size=40)
    xi = solve_xi_box(y, psi, B=1e6)
    ref, *_ = np.linalg.lstsq(psi, y, rcond=None)
    np.testing.assert_allclose(xi, ref, atol=1e-8)


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
    # K=2, m=1 has 4 coefficients, so refit is on: _rss_at solves xi once per
    # candidate geometry and an accepted move keeps that solve; the only
    # other solves are _descend's, one at the start and one per outer pass
    calls = {"solve": 0, "rss": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sieve, "solve_xi_box", counted("solve", solve_xi_box))
    monkeypatch.setattr(sieve, "_rss_at", counted("rss", sieve._rss_at))
    data = sine_data(40, seed=3)
    cfg = SieveConfig(K=2, m=1, multistart=1, max_outer=3)
    fit = fit_sieve_mle(data, cfg, np.random.default_rng(0))
    assert calls["solve"] == calls["rss"] + 1 + fit.n_outer
    np.testing.assert_array_equal(
        fit.params.xi.ravel(),
        solve_xi_box(data.y, basis_matrix(fit.params, data.x), cfg.B))


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
