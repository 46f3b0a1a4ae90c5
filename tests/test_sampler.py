import itertools
import math
import re

import numpy as np
import pytest
from scipy import stats

from kmpoly import (Dataset, McmcConfig, PartitionGrid, PosteriorDraws,
                    PriorConfig, SieveConfig, basis_matrix, core, eval_f,
                    fit_sieve_mle, log_prior_density, loglik, plm, run_chain,
                    run_plm_chain, sample_prior, sieve)
from kmpoly._stats import reflect, truncnorm_ppf
from kmpoly.sampler import (ChainState, _in_x_order, _initial_state,
                            gibbs_sigma, gibbs_xi, mh_h, mh_mu)

from conftest import make_params, sine_data


def _state(params, data, prior):
    return ChainState(params, data, prior)


# ---------------------------------------------------------------- loglik

def test_loglik_zero_residual_unit_sigma():
    params = make_params(K=2, h=0.75, sigma=1.0)
    x = np.array([0.4])
    data = Dataset(x[:, None], eval_f(params, x))
    assert loglik(params, data) == pytest.approx(-0.5 * math.log(2 * math.pi))


def test_loglik_two_equal_residuals():
    params = make_params(K=2, h=0.75, sigma=0.7)
    x = np.array([0.3, 0.6])
    r = 0.25
    data = Dataset(x[:, None], eval_f(params, x) + r)
    expected = -math.log(2 * math.pi * 0.7**2) - r**2 / 0.7**2
    assert loglik(params, data) == pytest.approx(expected, rel=1e-12)


def test_loglik_matches_pointwise_oracle(rng):
    params = make_params(K=3, sigma=0.4, xi=rng.normal(size=(3, 3)))
    x = rng.uniform(0, 1, 25)
    y = rng.normal(size=25)
    data = Dataset(x[:, None], y)
    f = eval_f(params, x)
    naive = sum(stats.norm(loc=f[i], scale=0.4).logpdf(y[i]) for i in range(25))
    assert loglik(params, data) == pytest.approx(naive, abs=1e-10)


def test_loglik_rejects_degenerate_input():
    params = make_params(K=2, h=0.75, sigma=0.0)
    with pytest.raises(ValueError):
        loglik(params, Dataset(np.array([[0.5]]), np.array([0.0])))


# ---------------------------------------------------------------- curves

@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kernel", ["bump", "triangle", "epanechnikov"])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_batched_curves_match_basis_matrix(p, kernel, m):
    # K = 3 puts every point in every block's window; the larger K leaves
    # most points outside most windows
    for K in (3, {1: 12, 2: 6}[p]):
        with pytest.MonkeyPatch.context() as mp:
            _check_batched_curves(p, K, kernel, m, mp)


def _check_batched_curves(p, K, kernel, m, monkeypatch):
    rng = np.random.default_rng(100 * p + 10 * m + len(kernel) + K)
    prior = PriorConfig(m=m, kernel=kernel)
    draws = [sample_prior(prior, K, rng, p=p) for _ in range(10)]
    # one batch mixes the narrowest and the widest kernels
    draws[0].h, draws[1].h = prior.h_lo / K, prior.h_hi / K
    edges = np.array([0.0, 1.0, *(np.arange(1, K) / K)])
    x = np.concatenate([rng.uniform(0.0, 1.0, (37, p)),
                        np.stack([edges] * p, axis=1),
                        rng.choice(edges, (len(edges), p))])
    chain = PosteriorDraws(PartitionGrid(K, p), m, kernel,
                           *(np.array([getattr(d, c) for d in draws])
                             for c in ("h", "mu", "xi", "sigma")),
                           np.zeros(10), np.zeros(10))
    want = np.array([basis_matrix(d, x) @ d.xi.ravel() for d in draws])
    shapes = []
    profile = core.KernelSpec.profile

    def spy(spec, t):
        shapes.append(np.shape(t))
        return profile(spec, t)

    monkeypatch.setattr(core.KernelSpec, "profile", spy)
    np.testing.assert_allclose(chain.curves(x), want, rtol=0, atol=1e-12)
    (nb, width, T), = shapes          # (blocks, window, draws): one batch
    assert (nb, T) == (K**p, 10)
    if K > 3:
        assert width < len(x)
    # batches of 3 draws: 10 is not a multiple of the batch size
    shapes.clear()
    monkeypatch.setattr(core, "BATCH_ELEMENTS", 3 * nb * width)
    np.testing.assert_allclose(chain.curves(x), want, rtol=0, atol=1e-12)
    assert [s[2] for s in shapes] == [3, 3, 3, 1]
    # a single draw larger than the batch budget still evaluates whole
    shapes.clear()
    monkeypatch.setattr(core, "BATCH_ELEMENTS", 1)
    np.testing.assert_allclose(eval_f(draws[4], x), want[4], rtol=0, atol=1e-12)
    assert len(shapes) == 1 and shapes[0][::2] == (nb, 1)


def _eval_curves_bincount(grid, m, kernel, h, mu, xi, x):
    """Reference for ``core._eval_curves``: the same windows and batches,
    laid out (blocks, draws, window), with each point's sums formed by
    ``np.bincount`` over (draw, point) bins, block by block from 0.0."""
    x = core._check_points(x, grid.p)
    n, nb = x.shape[0], grid.n_blocks
    reach = np.max(h[:, None] + core.sup_dist(mu, grid.block_centers), axis=0)
    blk, rows = core.support_pairs(grid, x, reach)
    pos = np.arange(blk.size) - np.searchsorted(blk, blk)
    idx = np.full((nb, np.bincount(blk, minlength=nb).max()), n)  # n: padding
    idx[blk, pos] = rows
    xw = np.concatenate([x, np.full((1, grid.p), np.inf)])[idx][:, None]
    mono = np.zeros((nb, len(core.MultiIndexSet(grid.p, m)), idx.shape[1]))
    mono[blk, :, pos] = core.monomial_tensor(grid, m, x)[rows, blk]
    mu, xi = mu.transpose(1, 0, 2)[:, :, None], xi.transpose(1, 0, 2)
    spec = core.KernelSpec(kernel, 1.0)
    T = h.shape[0]
    out = np.empty((T, n))
    step = max(1, core.BATCH_ELEMENTS // max(1, idx.size))
    for a in range(0, T, step):
        t = slice(a, a + step)
        tb = h[t].shape[0]
        phi = spec.profile(core.sup_dist(xw, mu[:, t]) / h[None, t, None])
        bins = (idx[:, None] + (n + 1) * np.arange(tb)[:, None]).ravel()
        S, num = (np.bincount(bins, v.ravel(), tb * (n + 1))
                  .reshape(tb, n + 1)[:, :n]
                  for v in (phi, phi * (xi[:, t] @ mono)))
        out[t] = core.normalize_weights(num, S)
    return out


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kernel", ["bump", "triangle", "epanechnikov"])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_curves_match_the_bincount_reference_bit_for_bit(p, kernel, m,
                                                         monkeypatch):
    K = {1: 9, 2: 4}[p]
    rng = np.random.default_rng(1000 + 100 * p + 10 * m + len(kernel))
    prior = PriorConfig(m=m, kernel=kernel)
    draws = [sample_prior(prior, K, rng, p=p) for _ in range(11)]
    h, mu, xi = (np.array([getattr(d, c) for d in draws]) for c in ("h", "mu", "xi"))
    h[0], h[1] = prior.h_lo / K, prior.h_hi / K
    # zero polynomials, and a constant of -5e-324: every bump term
    # phi * P (phi <= 1/e) then rounds to -0.0, so a sum's start shows
    xi[3] = 0.0
    xi[5] = 0.0
    xi[5, :, 0] = -5e-324
    edges = np.arange(K + 1) / K
    x = rng.permutation(np.concatenate([rng.uniform(0.0, 1.0, (40, p)),
                                        np.stack([edges] * p, axis=1),
                                        rng.choice(edges, (K + 1, p))]))
    grid = PartitionGrid(K, p)
    shapes = []
    profile = core.KernelSpec.profile

    def spy(spec, t):
        shapes.append(np.shape(t))
        return profile(spec, t)

    monkeypatch.setattr(core.KernelSpec, "profile", spy)
    core._eval_curves(grid, m, kernel, h, mu, xi, x)
    nb, width, _ = shapes[0]
    # one batch; batches of 3, 3, 3 and 2 draws; one draw a batch
    for budget in (core.BATCH_ELEMENTS, 3 * nb * width, 1):
        monkeypatch.setattr(core, "BATCH_ELEMENTS", budget)
        got = core._eval_curves(grid, m, kernel, h, mu, xi, x)
        want = _eval_curves_bincount(grid, m, kernel, h, mu, xi, x)
        assert got.tobytes() == want.tobytes()
    if kernel == "bump":
        assert not np.signbit(got[5]).any() and np.all(got[5] == 0.0)


def test_curves_reject_empty_chain():
    with pytest.raises(ValueError, match="no draws"):
        PosteriorDraws(PartitionGrid(2), 0, "bump", np.zeros(0), np.zeros((0, 2, 1)),
                       np.zeros((0, 2, 1)), np.zeros(0), np.zeros(0),
                       np.zeros(0)).curves(np.array([0.5]))


# ---------------------------------------------------------------- caches

def test_state_psi_matches_basis_matrix(rng):
    prior = PriorConfig()
    data = sine_data(80, seed=1)
    params = sample_prior(prior, 4, rng)
    state = _state(params, data, prior)
    np.testing.assert_array_equal(state.basis(), basis_matrix(params, data.x))


def _moves(state, rng, sweeps=25):
    for _ in range(sweeps):
        gibbs_xi(state, rng)
        mh_mu(state, rng, 0.3)
        mh_h(state, rng, 0.1)


def _same_bits(a, b, what=""):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), what


def _check_poly(state):
    # the cached block polynomials against a fresh product per block
    off, xi = state.offsets, state.params.xi
    _same_bits(state.poly, np.concatenate(
        [xi[k] @ state.mono[:, off[k]:off[k + 1]] for k in range(xi.shape[0])]),
        "poly")


def _check_caches(state):
    # the pair caches against the dense kernel, fresh block polynomials, a
    # fresh refresh() and the model's residual y - psi xi
    _check_poly(state)
    params, data = state.params, state.data
    dense = core.eval_kernel(params.spec, data.x[:, None, :] - params.mu[None])
    on_pairs = np.zeros(dense.shape, dtype=bool)
    on_pairs[state.rows, state.blk] = True
    assert np.all(dense[~on_pairs] == 0.0)
    np.testing.assert_array_equal(state.phi, dense[state.rows, state.blk])
    cached = {k: getattr(state, k).copy() for k in ("dist", "phi", "S", "resid")}
    state.refresh()
    for name in ("dist", "phi"):
        np.testing.assert_array_equal(cached[name], getattr(state, name), err_msg=name)
    np.testing.assert_allclose(cached["S"], state.S, rtol=1e-12, atol=0)
    psi = basis_matrix(params, data.x)
    np.testing.assert_allclose(cached["resid"], data.y - psi @ params.xi.ravel(),
                               rtol=0, atol=1e-10)
    np.testing.assert_array_equal(state.basis(), psi)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kernel", ["bump", "triangle", "epanechnikov"])
def test_caches_stay_consistent_through_moves(rng, p, kernel):
    # the moves update dist, phi, S and resid on the pairs in place
    prior = PriorConfig(kernel=kernel, m=2 if p == 1 else 1)
    K = 3
    edges = np.arange(K + 1) / K                         # includes 0 and 1
    x = np.vstack([rng.uniform(0.0, 1.0, (60, p)),
                   np.array(list(itertools.product(edges, repeat=p)))])
    data = Dataset(x, np.sin(2 * math.pi * x[:, 0]) + x[:, -1] ** 2)
    state = _state(sample_prior(prior, K, rng, p=p), data, prior)
    mu0, h0 = state.params.mu.copy(), state.params.h
    _moves(state, rng)
    assert state.params.h != h0 and not np.array_equal(state.params.mu, mu0)
    _check_caches(state)
    # the widest support the prior allows: Kh = h_hi and every center on
    # the edge of its block's closure
    lo, hi = state.params.grid.closure
    state.params.mu[:] = np.where(rng.uniform(size=lo.shape) < 0.5, lo, hi)
    state.params.h = prior.h_hi / K
    state.refresh()
    _check_caches(state)
    _moves(state, rng, sweeps=5)
    _check_caches(state)


@pytest.mark.parametrize("x", [np.linspace(0.3, 0.0, 40, endpoint=False),
                               np.empty(0)], ids=["empty_blocks", "no_data"])
def test_caches_with_empty_blocks(rng, x):
    # at K=8 the blocks centred above 0.6 hold no pair; n=0 holds none at all
    prior = PriorConfig()
    data = Dataset(x[:, None], np.cos(3.0 * x))
    state = _state(sample_prior(prior, 8, rng), data, prior)
    counts = np.diff(state.offsets)
    assert counts[-1] == 0 and counts.sum() == state.rows.shape[0]
    _moves(state, rng)
    _check_caches(state)


def test_sorted_1d_design_gives_every_block_a_slice(rng):
    prior = PriorConfig()
    data = sine_data(200, seed=4)
    params = sample_prior(prior, 8, rng)
    state = _state(params, _in_x_order(data), prior)
    off = state.offsets
    for k, rows in enumerate(state.block_rows):
        assert isinstance(rows, slice)
        np.testing.assert_array_equal(np.arange(data.n)[rows],
                                      state.rows[off[k]:off[k + 1]])
    # in the caller's random order no block's rows form a run
    state = _state(params, data, prior)
    assert all(isinstance(rows, np.ndarray) for rows in state.block_rows)


@pytest.mark.parametrize("p", [1, 2])
def test_caches_do_not_drift_over_many_sweeps(p):
    # 50 sweeps of in-place updates, through slices (a 1-D design in x
    # order) or mostly index arrays (p = 2), against a fresh refresh();
    # no bandwidth move, as an accepted one recomputes every cache
    prior = PriorConfig(m=2 if p == 1 else 1)
    rng = np.random.default_rng(30 + p)
    data = _in_x_order(_oracle_data(p, 0, seed=30 + p))
    state = _state(sample_prior(prior, 6 if p == 1 else 4, rng, p=p), data, prior)
    kinds = {type(rows) for rows in state.block_rows}
    assert kinds == ({slice} if p == 1 else {slice, np.ndarray})
    accepted = 0
    for _ in range(50):
        gibbs_xi(state, rng)
        accepted += mh_mu(state, rng, 0.3)[1]
    assert 0 < accepted < 50 * state.params.grid.n_blocks
    cached = {k: getattr(state, k).copy() for k in ("resid", "S", "poly")}
    state.refresh()
    for name, value in cached.items():
        fresh = getattr(state, name)
        np.testing.assert_allclose(value, fresh, rtol=0,
                                   atol=1e-10 * np.abs(fresh).max(), err_msg=name)


def test_poly_cache_after_lsq_start_plm_pre_step_and_sieve(monkeypatch):
    data = _oracle_data(1, 2, seed=3)
    cfg = McmcConfig(burnin=3, samples=2, seed=1, init="lsq")
    _check_caches(_initial_state(cfg, PriorConfig(), 4, Dataset(data.x, data.y),
                                 np.random.default_rng(1)))
    # every PLM beta pre-step, from the lsq start on
    run_sweeps, checked = plm._run_sweeps, []

    def checked_sweeps(cfg, prior, state, rng, pre_step):
        def checked_pre_step(state, rng):
            out = pre_step(state, rng)
            _check_caches(state)
            checked.append(state)
            return out
        return run_sweeps(cfg, prior, state, rng, checked_pre_step)

    monkeypatch.setattr(plm, "_run_sweeps", checked_sweeps)
    run_plm_chain(cfg, PriorConfig(), 4, data, estimate_sigma=True)
    assert len(checked) == 5

    # every fit the sieve scores, refit off (5 blocks x 3 coefficients > 12),
    # sees the polynomials of the state's current xi
    class CheckedState(ChainState):
        def _fit(self, phi, S):
            _check_poly(self)
            checked.append(self)
            return super()._fit(phi, S)

    monkeypatch.setattr(sieve, "ChainState", CheckedState)
    fit = fit_sieve_mle(Dataset(data.x, data.y),
                        SieveConfig(K=5, multistart=2, max_outer=3),
                        np.random.default_rng(0))
    assert np.any(fit.params.xi != 0.0) and len(checked) > 100


# ---------------------------------------------------------------- draw order

def _gibbs_xi_per_coordinate(state, rng):
    """gibbs_xi as a loop that draws each coordinate's uniform when it needs
    it, with rng.uniform: the reference for the sweep's batched draws."""
    cfg = state.prior
    sigma2 = state.params.sigma**2
    prior_sd = cfg._xi_sd(state.params.sigma)
    flat_prior = cfg.xi_dist == "uniform"
    prior_prec = 0.0 if flat_prior else 1.0 / prior_sd**2
    xi = state.params.xi
    cols = state.mono * core.normalize_weights(state.phi, state.S[state.rows])
    resid, off = state.resid, state.offsets
    for k in range(xi.shape[0]):
        a, b = off[k], off[k + 1]
        rows = state.rows[a:b]
        r = resid[rows]
        for j, col in enumerate(cols[:, a:b]):
            d = float(col @ col)
            old = float(xi[k, j])
            g = float(col @ r) + d * old
            prec = d / sigma2 + prior_prec
            if not (prec > 0 and math.isfinite(prec)):
                state.xi_fallbacks += 1
                new = (rng.uniform(-cfg.B, cfg.B) if flat_prior else
                       truncnorm_ppf(rng.uniform(), 0.0, prior_sd, -cfg.B, cfg.B))
            else:
                new = truncnorm_ppf(rng.uniform(), (g / sigma2) / prec,
                                    1.0 / math.sqrt(prec), -cfg.B, cfg.B)
            if new != old:
                r -= col * (new - old)
                xi[k, j] = new
        resid[rows] = r
    state.poly = state._poly()


def _mh_mu_per_block(state, rng, step):
    """mh_mu as a loop that draws, proposes and evaluates one block at a
    time, with rng.uniform: the reference for the batched proposals."""
    params = state.params
    grid = params.grid
    K, p, centers = grid.K, grid.p, grid.block_centers
    y, S, resid = state.data.y, state.S, state.resid
    half_prec = 0.5 / params.sigma**2
    off = state.offsets
    accepted = 0
    for k in range(grid.n_blocks):
        mt_k = 2.0 * K * (params.mu[k] - centers[k])
        walk = (mt_k + step * rng.normal(size=p)).tolist()
        prop = np.array([reflect(v, -1.0, 1.0) for v in walk])
        new_mu_k = centers[k] + prop / (2.0 * K)
        a, b = off[k], off[k + 1]
        rows = state.rows[a:b]
        dist = core.sup_dist(state._xp[a:b], new_mu_k)
        phi_new = params.spec.profile(dist / params.h)
        dphi = phi_new - state.phi[a:b]
        S_new = S[rows] + dphi
        r = resid[rows]
        poly = params.xi[k] @ state.mono[:, a:b]
        r_new = r - dphi * (poly - (y[rows] - r)) / S_new
        delta = half_prec * (float(r @ r) - float(r_new @ r_new))
        if math.log(rng.uniform()) < delta:
            state.phi[a:b] = phi_new
            state.dist[a:b] = dist
            S[rows] = S_new
            resid[rows] = r_new
            params.mu[k] = new_mu_k
            accepted += 1
    return state, accepted


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kernel", ["bump", "triangle", "epanechnikov"])
@pytest.mark.parametrize("xi_dist", ["truncnorm", "uniform"])
def test_batched_steps_draw_like_the_per_block_loops(p, kernel, xi_dist):
    # the points fill only the lower corner of the cube, so the upper
    # blocks hold no pair
    rng = np.random.default_rng(10 * p + len(kernel) + len(xi_dist))
    K, top = (8, 0.3) if p == 1 else (4, 0.25)
    x = rng.uniform(0.0, top, (40, p))
    state = _batched_against_loops(rng, x, K, kernel, xi_dist)
    assert state.counts[-1] == 0


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("xi_dist", ["truncnorm", "uniform"])
def test_batched_steps_draw_like_the_loops_past_an_empty_interior_block(p, xi_dist):
    # the points leave out a band that holds one block's whole reach at
    # Kh <= 2, so its zero count sits between nonempty blocks' counts
    rng = np.random.default_rng(50 + p + len(xi_dist))
    if p == 1:
        # block 4 of 8 reaches (0.25, 0.875)
        K, x = 8, np.concatenate([rng.uniform(0.0, 0.24, (20, 1)),
                                  rng.uniform(0.885, 1.0, (20, 1))])
    else:
        # block (0, 3) of 4 x 4 reaches x1 < 0.75 and x2 > 0.25
        K, x = 4, np.concatenate([rng.uniform(0.0, 1.0, (20, 2)) * [1.0, 0.24],
                                  rng.uniform(0.8, 1.0, (20, 2))])
    state = _batched_against_loops(rng, x, K, "bump", xi_dist)
    counts = state.counts
    assert counts[0] > 0 and counts[-1] > 0 and np.count_nonzero(counts == 0) == 1


def _batched_against_loops(rng, x, K, kernel, xi_dist):
    """Run the batched steps and the per-block reference loops side by side
    on data at x; returns the batched state.

    No draw depends on the state, so the batched steps must leave the
    generator, the parameters and every cache byte-equal to loops that
    draw each number when they need it.  Blocks without pairs take the
    fallback prior draw under the flat prior; steps of 0.8 on mu-tilde in
    [-1, 1] and 0.5 on Kh in [1.2, 2] reflect often.
    """
    p = x.shape[1]
    data = Dataset(x, np.sin(20.0 * x[:, 0]) + 0.1 * rng.standard_normal(40))
    prior = PriorConfig(kernel=kernel, m=2 if p == 1 else 1, xi_dist=xi_dist)
    start = sample_prior(prior, K, rng, p=p)
    batched, looped = (ChainState(start.copy(), data, prior) for _ in range(2))
    rb, rl = np.random.default_rng(7), np.random.default_rng(7)
    accepted = 0
    for _ in range(6):
        gibbs_xi(batched, rb)
        _gibbs_xi_per_coordinate(looped, rl)
        _, acc = mh_mu(batched, rb, 0.8)
        _, ref_acc = _mh_mu_per_block(looped, rl, 0.8)
        assert acc == ref_acc
        accepted += acc
        for state, r in ((batched, rb), (looped, rl)):
            mh_h(state, r, 0.5)
            gibbs_sigma(state, r)
    assert 0 < accepted < 6 * K**p
    assert (batched.xi_fallbacks > 0) == (xi_dist == "uniform")
    # a noise scale whose square is subnormal makes the conditional
    # precision of every coefficient with data infinite, so those take the
    # fallback draw under either prior
    fallbacks = batched.xi_fallbacks
    for state in (batched, looped):
        state.params.sigma = 1e-160
    gibbs_xi(batched, rb)
    _gibbs_xi_per_coordinate(looped, rl)
    assert batched.xi_fallbacks == looped.xi_fallbacks > fallbacks
    assert rb.bit_generator.state == rl.bit_generator.state
    for name in ("dist", "phi", "S", "resid", "poly"):
        _same_bits(getattr(batched, name), getattr(looped, name), name)
    for name in ("h", "mu", "xi", "sigma"):
        _same_bits(getattr(batched.params, name), getattr(looped.params, name), name)
    _check_caches(batched)
    return batched


# ---------------------------------------------------------------- gibbs_xi

def test_gibbs_xi_no_data_reduces_to_prior(rng):
    prior = PriorConfig(m=0, tau_xi=2.0, B=5.0)
    data = Dataset(np.empty((0, 1)), np.empty(0))
    params = make_params(K=1, h=1.5, m=0, sigma=1.0)
    state = _state(params, data, prior)
    draws = np.empty(5000)
    for t in range(5000):
        gibbs_xi(state, rng)
        draws[t] = state.params.xi[0, 0]
    a, b = -5.0 / 2.0, 5.0 / 2.0
    ks = stats.kstest(draws, stats.truncnorm(a, b, loc=0, scale=2.0).cdf)
    assert ks.statistic < 0.03


def test_gibbs_xi_flat_prior_centers_on_least_squares(rng):
    prior = PriorConfig(m=0, xi_dist="uniform", B=50.0)
    data = Dataset(np.array([[0.5]]), np.array([1.7]))
    params = make_params(K=1, h=1.5, m=0, sigma=0.3)
    state = _state(params, data, prior)
    draws = np.empty(4000)
    for t in range(4000):
        gibbs_xi(state, rng)
        draws[t] = state.params.xi[0, 0]
    # single basis value is 1 (partition of unity), so LS value is y itself
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - 1.7) < 4 * se


# ---------------------------------------------------------------- mh moves

def test_mh_zero_step_keeps_geometry(rng):
    prior = PriorConfig()
    data = sine_data(40, seed=3)
    state = _state(sample_prior(prior, 3, rng), data, prior)
    mu0, h0 = state.params.mu.copy(), state.params.h
    mh_mu(state, rng, 0.0)
    mh_h(state, rng, 0.0)
    np.testing.assert_array_equal(state.params.mu, mu0)
    assert state.params.h == h0


def test_mh_respects_bounds(rng):
    prior = PriorConfig()
    data = sine_data(40, seed=4)
    state = _state(sample_prior(prior, 3, rng), data, prior)
    for _ in range(300):
        mh_mu(state, rng, 2.5)     # huge steps exercise the reflection
        mh_h(state, rng, 1.5)
        assert np.max(np.abs(state.params.mu_tilde)) <= 1.0 + 1e-12
        kh = state.params.grid.K * state.params.h
        assert prior.h_lo - 1e-12 <= kh <= prior.h_hi + 1e-12


def test_acceptance_rates_in_window():
    prior = PriorConfig()
    data = sine_data(200, sigma=0.2, seed=5)
    cfg = McmcConfig(burnin=0, samples=1000, seed=6, adapt=False)
    draws = run_chain(cfg, prior, 6, data)
    assert 0.1 < draws.accept["mu"] < 0.9
    assert 0.1 < draws.accept["h"] < 0.9


# ---------------------------------------------------------------- run_chain

def test_chain_bit_exact_determinism():
    prior = PriorConfig()
    data = sine_data(50, seed=7)
    cfg = McmcConfig(burnin=50, samples=40, seed=11)
    a = run_chain(cfg, prior, 3, data)
    b = run_chain(cfg, prior, 3, data)
    assert len(a) == len(b) == 40
    np.testing.assert_array_equal(a.loglik, b.loglik)
    np.testing.assert_array_equal(a.logpost, b.logpost)
    for da, db in zip(a.draws, b.draws):
        np.testing.assert_array_equal(da.xi, db.xi)
        np.testing.assert_array_equal(da.mu, db.mu)
        assert da.h == db.h and da.sigma == db.sigma


def test_chain_geometry_frozen_with_zero_steps():
    prior = PriorConfig(step_mu=0.0, step_kh=0.0)
    data = sine_data(50, seed=8)
    draws = run_chain(McmcConfig(burnin=20, samples=30, seed=2), prior, 3, data)
    mus = {tuple(d.mu.ravel()) for d in draws.draws}
    hs = {d.h for d in draws.draws}
    assert len(mus) == 1 and len(hs) == 1


def test_posterior_beats_prior_predictive(rng):
    prior = PriorConfig()
    truth = sample_prior(prior, 4, np.random.default_rng(99))
    truth.sigma = 0.5
    x = rng.uniform(0, 1, 150)
    y = eval_f(truth, x) + 0.5 * rng.standard_normal(150)
    data = Dataset(x[:, None], y)
    cfg = McmcConfig(burnin=300, samples=200, seed=1, init="lsq")
    draws = run_chain(cfg, prior, 4, data)
    grid = np.linspace(0, 1, 200)
    f0 = eval_f(truth, grid)
    post_mse = float(np.mean((draws.curves(grid).mean(axis=0) - f0) ** 2))
    prior_curves = np.array([eval_f(sample_prior(prior, 4, rng), grid)
                             for _ in range(200)])
    prior_mse = float(np.mean((prior_curves.mean(axis=0) - f0) ** 2))
    assert post_mse < prior_mse


def test_sigma_recovery_synthetic():
    prior = PriorConfig()
    from kmpoly import ScenarioSpec
    data = ScenarioSpec(truth="volterra", n=1000, noise_sd=0.2).simulate(0)
    cfg = McmcConfig(burnin=400, samples=300, seed=0, init="lsq")
    draws = run_chain(cfg, prior, 10, data)
    assert 0.17 <= float(np.mean(draws.sigma)) <= 0.23


def test_lsq_init_starts_near_data():
    prior = PriorConfig()
    data = sine_data(120, seed=9)
    base = McmcConfig(burnin=0, samples=1, seed=4)
    warm = McmcConfig(burnin=0, samples=1, seed=4, init="lsq")
    ll_cold = run_chain(base, prior, 4, data).loglik[0]
    ll_warm = run_chain(warm, prior, 4, data).loglik[0]
    assert ll_warm > ll_cold


@pytest.mark.parametrize("edit, match", [
    pytest.param(lambda q: setattr(q, "h", 2.5 / 4),
                 "h = 0.625 gives Kh = 2.5 above h_hi = 2.0", id="kh_above"),
    pytest.param(lambda q: setattr(q, "h", 1.1 / 4), "below h_lo = 1.2", id="kh_below"),
    pytest.param(lambda q: q.mu.__setitem__((1, 0), 0.1),
                 "mu = 0.1 lies outside the closure of block 1", id="center"),
    pytest.param(lambda q: q.xi.__setitem__((2, 1), -60.0),
                 "xi = -60.0 lies outside [-B, B] with B = 50.0", id="xi"),
    pytest.param(lambda q: setattr(q, "sigma", 20.0),
                 "sigma = 20.0 is above sigma_hi = 10.0", id="sigma"),
    pytest.param(lambda q: make_params(K=5),
                 "init_params has K = 5 where the chain has K = 4", id="K"),
    pytest.param(lambda q: make_params(K=4, p=2),
                 "init_params has p = 2 where the chain has p = 1", id="p"),
    pytest.param(lambda q: make_params(K=4, m=1),
                 "init_params has m = 1 where the chain has m = 2", id="m"),
    pytest.param(lambda q: make_params(K=4, kernel="triangle"),
                 "init_params has kernel = 'triangle' where the chain has "
                 "kernel = 'bump'", id="kernel"),
])
def test_run_chain_rejects_init_params_outside_the_prior(edit, match):
    # an edit either changes the draw in place or returns another start
    prior = PriorConfig()
    params = sample_prior(prior, 4, np.random.default_rng(0))
    params = edit(params) or params
    with pytest.raises(ValueError, match=re.escape(match)):
        run_chain(McmcConfig(burnin=0, samples=1), prior, 4, sine_data(20, seed=1),
                  init_params=params)


def test_run_chain_starts_at_the_bandwidth_bound():
    # Kh = h_hi lies inside the prior; the conjugate check (ACCEPT-06) starts there
    prior = PriorConfig()
    params = sample_prior(prior, 5, np.random.default_rng(0))
    params.h = prior.h_hi / 5
    cfg = McmcConfig(burnin=2, samples=2, sample_h=False)
    draws = run_chain(cfg, prior, 5, sine_data(20, seed=1), init_params=params)
    np.testing.assert_array_equal(draws.h, params.h)


def test_config_validation():
    with pytest.raises(ValueError):
        McmcConfig(samples=0)
    with pytest.raises(ValueError):
        McmcConfig(init="map")


# ---------------------------------------------------------------- score oracle

def _oracle_data(p, q, seed):
    rng = np.random.default_rng(seed)
    n = 80 if p == 1 else 60
    x = rng.uniform(0, 1, size=(n, p))
    z = rng.standard_normal((n, q)) if q else None
    y = np.sin(2 * math.pi * x[:, 0]) + 0.3 * rng.standard_normal(n)
    if q:
        y = y + z @ np.linspace(-1.0, 1.0, q)
    return Dataset(x, y, z=z)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("model", ["chain", "plm_sigma_fixed", "plm_sigma_estimated"])
def test_stored_scores_match_full_recomputation(p, model):
    # the sweep loop keeps the residual incrementally; every retained draw's
    # stored loglik and logpost must agree with a from-scratch evaluation
    prior = PriorConfig()
    cfg = McmcConfig(burnin=40, samples=12, thin=2, seed=4)
    K = 4 if p == 1 else 3
    if model == "chain":
        data = _oracle_data(p, 0, seed=p)
        draws = run_chain(cfg, prior, K, data)
    else:
        data = _oracle_data(p, 2, seed=10 + p)
        draws = run_plm_chain(cfg, prior, K, data,
                              estimate_sigma=model == "plm_sigma_estimated")
    assert len(draws) == 12
    for t, d in enumerate(draws.draws):
        if draws.beta is None:
            target, beta_lp = data, 0.0
        else:
            beta = draws.beta[t]
            target = Dataset(data.x, data.y - data.z @ beta)
            beta_lp = float(np.sum(stats.norm.logpdf(beta, scale=prior.tau_beta)))
        ll = loglik(d, target)
        assert draws.loglik[t] == pytest.approx(ll, rel=1e-9)
        expect = draws.loglik[t] + log_prior_density(prior, d) + beta_lp
        assert draws.logpost[t] == pytest.approx(expect, rel=1e-9)


# ---------------------------------------------------------------- row order

def test_in_x_order_moves_rows_together_and_keeps_fields():
    x = np.array([[0.7, 0.1], [0.2, 0.9], [0.7, 0.3], [0.0, 0.5]])
    data = Dataset(x, np.arange(4.0), z=np.arange(8.0).reshape(4, 2),
                   x_names=["a", "b"], z_names=["c", "d"], y_name="w", note="n")
    out = _in_x_order(data)
    order = [3, 1, 0, 2]                 # ties keep their order
    np.testing.assert_array_equal(out.x, x[order])
    np.testing.assert_array_equal(out.y, data.y[order])
    np.testing.assert_array_equal(out.z, data.z[order])
    assert (out.x_names, out.z_names, out.y_name, out.note) == (
        ["a", "b"], ["c", "d"], "w", "n")
    assert _in_x_order(Dataset(x, data.y)).z is None


@pytest.mark.parametrize("model", ["chain", "plm"])
def test_row_order_moves_draws_only_through_rounding(model):
    # a chain takes the design in x order, so a shuffled copy of the data
    # makes the same accept decisions and differs only in rounding
    data = _oracle_data(1, 2 if model == "plm" else 0, seed=40)
    perm = np.random.default_rng(41).permutation(data.n)
    shuffled = Dataset(data.x[perm], data.y[perm],
                       z=None if data.z is None else data.z[perm])
    cfg = McmcConfig(burnin=100, samples=100, seed=42, init="lsq")
    if model == "chain":
        a, b = (run_chain(cfg, PriorConfig(), 5, d) for d in (data, shuffled))
    else:
        a, b = (run_plm_chain(cfg, PriorConfig(), 5, d, estimate_sigma=True)
                for d in (data, shuffled))
    assert a.accept == b.accept
    np.testing.assert_array_equal(a.h, b.h)
    np.testing.assert_array_equal(a.mu, b.mu)
    for name in ("xi", "sigma", "loglik", "logpost", "beta"):
        if getattr(a, name) is not None:
            np.testing.assert_allclose(getattr(a, name), getattr(b, name),
                                       rtol=1e-10, atol=1e-10, err_msg=name)
