"""Sampler fixtures: Hadamard construction, AR(1) ground truth, the logistic
random walk sampler, and the random effects Gibbs sampler."""

import hashlib
import math
import pickle
import tracemalloc
from functools import partial
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import solve_triangular
from scipy.signal import lfilter

from chainvar import (
    Ar1Params,
    ar1_simulate,
    ar1_truth,
    gibbs_random_effects,
    hadamard,
    load_logit_data,
    log_posterior,
    log_posterior_grad,
    random_walk_metropolis,
    rwm_logistic,
    simulate_dataset,
    uis,
)
from chainvar.samplers import MODELS, ar1_blocks, build
from chainvar.samplers import ar1 as ar1_module
from chainvar.samplers.ar1 import _CHUNK, _modes
from chainvar.samplers.logistic import generate_logit_data, log_prior
from chainvar.samplers.random_effects import (
    GibbsSweep,
    RandomEffectsHyper,
    RandomEffectsState,
    coordinate_names,
)


class TestHadamard:
    def test_exact_orthogonality_all_orders(self):
        for p in (1, 2, 4, 8, 12):
            h = hadamard(p)
            assert h.dtype == np.int64
            assert np.all(np.abs(h) == 1)
            assert np.array_equal(h @ h.T, p * np.eye(p, dtype=np.int64))

    def test_sylvester_order_two(self):
        np.testing.assert_array_equal(hadamard(2), [[1, 1], [1, -1]])

    def test_order_one(self):
        np.testing.assert_array_equal(hadamard(1), [[1]])

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            hadamard(3)


class TestAr1Params:
    def test_rejects_nonreversible_coefficients(self):
        # A V = A must be symmetric when V is the identity
        a = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError, match="symmetric"):
            Ar1Params(a, np.eye(2), np.zeros(2))

    def test_rejects_explosive_coefficients(self):
        with pytest.raises(ValueError, match="spectral radius"):
            Ar1Params.scalar(1.0)

    def test_hadamard_fixture_invariants(self):
        params = Ar1Params.hadamard_fixture(12)
        av = params.A @ params.V
        assert np.array_equal(av, av.T)
        d = np.sort(np.linalg.eigvalsh(params.A))
        np.testing.assert_allclose(d, np.sort(0.5 ** np.arange(1, 13)), atol=1e-12)
        assert abs(np.abs(d).max() - 0.5) <= 1e-12


def _strided_column_simulate(params, n, seed):
    """Reference: ar1_simulate as scipy's compiled filter over strided columns
    into a second array, mapped back in one product."""
    rng = np.random.default_rng(seed)
    d, basis, p = params._decays, params._basis, params.p
    wbar = np.linalg.solve(basis, params.theta)
    z0 = wbar / (1.0 - d) + rng.standard_normal(p) / np.sqrt(1.0 - d**2)
    w = rng.standard_normal((n, p)) + wbar
    z = np.empty((n, p))
    for k in range(p):
        z[:, k], _ = lfilter([1.0], [1.0, -d[k]], w[:, k], zi=[d[k] * z0[k]])
    return z @ basis.T


def _explicit_params(p):
    # A = L Q diag(d) Q' L^{-1} with V = L L', so A V = L Q diag(d) Q' L' is
    # symmetric and A is neither diagonal nor a Hadamard fixture
    rng = np.random.default_rng(p)
    g = rng.standard_normal((p, p))
    v = g @ g.T / p + np.eye(p)
    v = (v + v.T) / 2.0
    low = np.linalg.cholesky(v)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    a = low @ (q * rng.uniform(-0.9, 0.9, p)) @ q.T @ np.linalg.inv(low)
    return Ar1Params(a, v, rng.standard_normal(p))


# The chunked Toeplitz filter sums each mode in another order than the
# recursion, so it agrees with it to a bound set from float64 rounding:
# 1e-14 of the largest value, about 45 ulps of it.
_FILTER_BOUND = 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 17, 3000, _CHUNK + 1])
@pytest.mark.parametrize("make", [partial(Ar1Params.hadamard_fixture, p) for p in (1, 2, 4, 12)]
                         + [partial(_explicit_params, p) for p in (3, 32)],
                         ids=["h1", "h2", "h4", "h12", "explicit3", "explicit32"])
def test_simulate_matches_the_strided_column_filter(make, n, blas_threads):
    params = make()
    for seed in (0, 1, 20260809):
        got = ar1_simulate(params, n, seed).values
        want = _strided_column_simulate(params, n, seed)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=_FILTER_BOUND * np.abs(want).max(), err_msg=f"seed {seed}")


# 2^-12 to the 64th underflows in the carry across sub-rows; 0.999 carries
# most of a mode's past across every sub-row and chunk
@pytest.mark.parametrize("a", [0.0, 2.0**-12, -(2.0**-12), 0.5, -0.9, 0.999])
def test_scalar_chain_matches_the_recursion(a):
    # one mode with unit basis: the chain is x_i = a x_{i-1} + w_i, as a
    # Python loop over the same draws
    n = 3 * _CHUNK + 5
    rng = np.random.default_rng(93)
    x = 1.0 / (1.0 - a) + rng.standard_normal() / math.sqrt(1.0 - a * a)
    want = np.empty(n)
    for i, w in enumerate((rng.standard_normal(n) + 1.0).tolist()):
        x = a * x + w
        want[i] = x
    got = ar1_simulate(Ar1Params.scalar(a), n, 93).values[:, 0]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=_FILTER_BOUND * np.abs(want).max())


class TestAr1Truth:
    def test_scalar_closed_form(self):
        truth = ar1_truth(Ar1Params.scalar(0.5, v=1.0, theta=1.0))
        assert truth.mu[0] == 2.0
        np.testing.assert_allclose(truth.C, [[4.0 / 3.0]], rtol=1e-14)
        assert truth.Sigma[0, 0] == 4.0

    def test_iid_limit(self):
        rng = np.random.default_rng(50)
        g = rng.standard_normal((3, 3))
        v = g @ g.T + np.eye(3)
        v = (v + v.T) / 2
        theta = rng.standard_normal(3)
        truth = ar1_truth(Ar1Params(np.zeros((3, 3)), v, theta))
        np.testing.assert_allclose(truth.mu, theta, atol=1e-12)
        np.testing.assert_allclose(truth.C, v, atol=1e-12)
        np.testing.assert_allclose(truth.Sigma, v, atol=1e-12)

    def test_stationary_fixed_point(self):
        params = Ar1Params.hadamard_fixture(12)
        truth = ar1_truth(params)
        residual = truth.C - params.A @ truth.C @ params.A.T - params.V
        assert np.abs(residual).max() <= 1e-10
        assert np.linalg.eigvalsh(truth.Sigma)[0] > 0
        # the first truncated sum gamma0 + 2*gamma1 is already positive definite
        assert np.linalg.eigvalsh(truth.partial_sum(0))[0] > 0

    def test_gamma_recursion(self):
        params = Ar1Params.hadamard_fixture(4)
        truth = ar1_truth(params)
        np.testing.assert_allclose(truth.gamma(0), truth.C, atol=1e-14)
        for t in range(1, 6):
            np.testing.assert_allclose(
                truth.gamma(t), params.A @ truth.gamma(t - 1), atol=1e-12
            )

    def test_partial_sums_telescope_and_converge(self):
        truth = ar1_truth(Ar1Params.hadamard_fixture(4))
        for m in range(1, 10):
            np.testing.assert_allclose(
                truth.partial_sum(m),
                truth.partial_sum(m - 1) + 2.0 * truth.pair_sum(m),
                atol=1e-13,
            )
        np.testing.assert_allclose(truth.partial_sum(60), truth.Sigma, atol=1e-12)

    def test_empirical_autocovariances_match(self):
        # entrywise agreement of simulated lag covariances with gamma(t),
        # within five (conservatively inflated) standard errors
        params = Ar1Params.hadamard_fixture(12)
        truth = ar1_truth(params)
        n = 1_000_000
        chain = ar1_simulate(params, n, seed=51)
        centered = chain.values - chain.mean
        se = 5.0 * np.sqrt(
            3.0 * (np.outer(np.diag(truth.C), np.diag(truth.C)) + truth.C**2) / n
        )
        for t in range(6):
            emp = centered[: n - t].T @ centered[t:] / n
            assert np.all(np.abs(emp - truth.gamma(t)) <= se), f"lag {t}"

    def test_empirical_long_run_variance_oracle(self):
        # n * var(mean) over independent replications estimates Sigma; the
        # scalar case pins the lag-decay convention (4, not 20/9)
        params = Ar1Params.scalar(0.5)
        means = [
            float(ar1_simulate(params, 10_000, seed=(52, r)).mean[0])
            for r in range(150)
        ]
        long_run = 10_000 * np.var(means, ddof=1)
        assert abs(long_run - 4.0) <= 1.0


class TestAr1Simulate:
    def test_determinism(self):
        params = Ar1Params.hadamard_fixture(4)
        a = ar1_simulate(params, 500, seed=7)
        b = ar1_simulate(params, 500, seed=7)
        assert np.array_equal(a.values, b.values)
        c = ar1_simulate(params, 500, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_iid_case_mean(self):
        n = 100_000
        chain = ar1_simulate(Ar1Params.scalar(0.0, v=1.0, theta=1.0), n, seed=9)
        assert abs(chain.mean[0] - 1.0) <= 4.0 / math.sqrt(n)

    def test_matches_naive_recursion(self):
        # the decoupled filter must agree with a direct state-space loop
        params = Ar1Params.hadamard_fixture(4)
        d, basis = _modes(params.A, params.V)
        rng = np.random.default_rng(10)
        wbar = np.linalg.solve(basis, params.theta)
        z0 = wbar / (1.0 - d) + rng.standard_normal(4) / np.sqrt(1.0 - d**2)
        w = rng.standard_normal((200, 4)) + wbar
        x = np.empty((200, 4))
        state = basis @ z0
        for i in range(200):
            state = params.A @ state + basis @ (w[i] - wbar) + basis @ wbar
            x[i] = state
        chain = ar1_simulate(params, 200, seed=10)
        np.testing.assert_allclose(chain.values, x, atol=1e-8)

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            ar1_simulate(Ar1Params.scalar(0.5), 0, seed=1)

    # the Hadamard fixture at p = 12, n = 1e4.  The last bits are those of
    # the chunked BLAS products, here OpenBLAS 0.3.31's; a BLAS build with
    # other kernels can move them
    CHAIN_SHA256 = {
        1: "e12c12ec7bfd26266049ca671e2afc88341edaf3c2e624cc9d9a87453460d65e",
        2: "16f23a0624c487801c81a5e32ffe63bf4aa65abff2227e2edc97bb87049d2fc8",
    }

    @pytest.mark.parametrize("seed", sorted(CHAIN_SHA256))
    def test_chain_bytes_pinned(self, seed, blas_threads):
        values = ar1_simulate(Ar1Params.hadamard_fixture(12), 10_000, seed).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == self.CHAIN_SHA256[seed]

    def test_modes_are_computed_once_per_params(self, monkeypatch):
        # truth and simulation read the decoupling that validation computed,
        # also on params that crossed a pickle (as for a worker process)
        params = Ar1Params.hadamard_fixture(4)
        expected = ar1_simulate(params, 50, seed=3).values

        def fail(A, V):
            raise AssertionError("_modes ran after the params were built")

        monkeypatch.setattr(ar1_module, "_modes", fail)
        for p in (params, pickle.loads(pickle.dumps(params))):
            ar1_truth(p)
            assert np.array_equal(ar1_simulate(p, 50, seed=3).values, expected)


class TestLogisticPosterior:
    def test_zero_coefficients_value(self):
        data = load_logit_data()
        assert abs(log_posterior(np.zeros(5), data) + 100.0 * math.log(2.0)) < 1e-10

    def test_prior_quadratic_form(self):
        beta = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        assert log_prior(beta) - log_prior(np.zeros(5)) == -0.5

    def test_gradient_matches_central_differences(self):
        data = load_logit_data()
        rng = np.random.default_rng(60)
        h = 1e-6
        for _ in range(5):
            beta = rng.standard_normal(5)
            grad = log_posterior_grad(beta, data)
            for k in range(5):
                e = np.zeros(5)
                e[k] = h
                fd = (log_posterior(beta + e, data) - log_posterior(beta - e, data)) / (2 * h)
                assert abs(fd - grad[k]) <= 1e-6 * max(1.0, abs(grad[k]))

    def test_overflow_safe_for_huge_logits(self):
        data = load_logit_data()
        with np.errstate(over="raise"):
            value = log_posterior(np.full(5, 150.0), data)
        assert np.isfinite(value)

    def test_synthetic_data_shape(self):
        data = generate_logit_data()
        assert data.X.shape == (100, 5)
        assert np.all(data.X[:, 0] == 1.0)
        assert set(np.unique(data.y)) <= {0.0, 1.0}


class TestRandomWalkMetropolis:
    def test_determinism(self):
        data = load_logit_data()
        a = rwm_logistic(data, 0.3, 300, seed=61)
        b = rwm_logistic(data, 0.3, 300, seed=61)
        assert np.array_equal(a.chain.values, b.chain.values)
        assert a.acceptance_rate == b.acceptance_rate

    def test_acceptance_rate_band(self):
        # the canonical-data figure of ~0.36 does not transfer to the
        # synthetic stand-in; only sanity-band the rate here
        run = rwm_logistic(load_logit_data(), 0.3, 20_000, seed=62)
        assert 0.10 <= run.acceptance_rate <= 0.60

    def test_overdispersed_proposal_freezes(self):
        run = rwm_logistic(load_logit_data(), 1000.0, 20_000, seed=63)
        assert run.acceptance_rate < 0.01

    def test_finite_states_throughout(self):
        run = rwm_logistic(load_logit_data(), 0.3, 5_000, seed=64)
        assert np.all(np.isfinite(run.chain.values))

    def test_binned_flows_are_reversible(self):
        # stationary flow counts between coarse bins must be symmetric for
        # a reversible kernel; a 3-state discretization of a standard
        # normal target makes that a direct count comparison
        logpdf = lambda x: -0.5 * float(x @ x)
        run = random_walk_metropolis(logpdf, [0.0], 1.0, 200_000, seed=65)
        x = run.chain.values[:, 0]
        states = np.digitize(x, [-0.5, 0.5])
        for i in range(3):
            for j in range(i + 1, 3):
                forward = int(np.sum((states[:-1] == i) & (states[1:] == j)))
                backward = int(np.sum((states[:-1] == j) & (states[1:] == i)))
                gap = abs(forward - backward)
                assert gap <= 5.0 * math.sqrt(forward + backward + 1.0), (i, j)

    # the packaged data at step_sd = 0.3, n = 2e4
    CHAIN_SHA256 = {
        1: "8e774c78801d324fa7aca7161d7715af728607011613384618f7957cd2f5e411",
        2: "b8ef33f47eeea12ebe5d318835beb6692ec52ee28707505298f8be376aa82b06",
    }

    @pytest.mark.parametrize("seed", sorted(CHAIN_SHA256))
    def test_chain_bytes_pinned(self, seed):
        values = rwm_logistic(load_logit_data(), 0.3, 20_000, seed).chain.values
        assert hashlib.sha256(values.tobytes()).hexdigest() == self.CHAIN_SHA256[seed]

    def test_validation(self):
        with pytest.raises(ValueError):
            random_walk_metropolis(lambda x: 0.0, [0.0], 0.0, 10, seed=1)
        for step_sd in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^step_sd must be finite and > 0, got"):
                random_walk_metropolis(lambda x: 0.0, [0.0], step_sd, 10, seed=1)
        with pytest.raises(ValueError, match="^need n >= 1, got -1$"):
            random_walk_metropolis(lambda x: 0.0, [0.0], 1.0, -1, seed=1)
        with pytest.raises(ValueError):
            random_walk_metropolis(lambda x: 0.0, [0.0], 1.0, 0, seed=1)


def _fixed_state():
    return RandomEffectsState(
        theta=np.array([0.4, -0.8]),
        mu=0.2,
        lam_theta=1.0,
        lam=np.array([1.3, 0.7]),
        gam=np.array([1.0, 2.0]),
    )


def _sweep(state, hyper, y, seed):
    return GibbsSweep(np.asarray(y, dtype=np.float64), hyper, state,
                      np.random.default_rng(seed))


def _locations(sweep):
    # the (theta, mu) entries of the recorded row
    return sweep.row[:sweep.theta.shape[0] + 1].copy()


class TestGibbsConditionals:
    def test_shrinkage_precision_conjugacy_against_quadrature(self):
        # the unnormalized conditional integrates to gamma(shape, rate)
        # moments, and repeated draws reproduce them
        hyper = RandomEffectsHyper()
        state = _fixed_state()
        shape = hyper.a1 + 1.0
        rate = hyper.b1 + 0.5 * float(state.lam @ (state.theta - state.mu) ** 2)
        dens = lambda lam: lam ** (shape - 1.0) * np.exp(-rate * lam)
        z, _ = integrate.quad(dens, 0.0, np.inf)
        m1 = integrate.quad(lambda v: v * dens(v), 0.0, np.inf)[0] / z
        m2 = integrate.quad(lambda v: v * v * dens(v), 0.0, np.inf)[0] / z
        assert abs(m1 - shape / rate) < 1e-9
        assert abs(m2 - m1 * m1 - shape / rate**2) < 1e-9
        # the block's own value is not an input of its conditional, so
        # repeated draws are independent draws from it
        sweep = _sweep(state, hyper, np.zeros(2), 70)
        draws = np.empty(100_000)
        for i in range(draws.size):
            sweep.draw_shrinkage_precision()
            draws[i] = sweep.lam_theta
        se_mean = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - m1) <= 2.0 * se_mean
        var = draws.var(ddof=1)
        se_var = var * math.sqrt(2.0 / (draws.size - 1)) * 3.0
        assert abs(var - (m2 - m1 * m1)) <= 3.0 * se_var

    def test_location_block_against_quadrature(self):
        # K=1 keeps the (theta, mu) conditional two-dimensional, so its
        # mean can be checked by direct numerical integration
        hyper = RandomEffectsHyper()
        state = RandomEffectsState(
            theta=np.array([0.5]), mu=0.0, lam_theta=1.2,
            lam=np.array([0.9]), gam=np.array([1.5]),
        )
        y = np.array([1.0])
        precision, linear = location_precision(state, hyper, y)
        mean = np.linalg.solve(precision, linear)

        def unnorm(th, mu):
            e = (
                state.gam[0] * (y[0] - th) ** 2
                + state.lam_theta * state.lam[0] * (th - mu) ** 2
                + hyper.v0 * (mu - hyper.m0) ** 2
            )
            return np.exp(-0.5 * e)

        bound = 60.0
        z = integrate.dblquad(unnorm, -bound, bound, -bound, bound)[0]
        q_th = integrate.dblquad(lambda t, m: t * unnorm(t, m), -bound, bound,
                                 -bound, bound)[0] / z
        q_mu = integrate.dblquad(lambda t, m: m * unnorm(t, m), -bound, bound,
                                 -bound, bound)[0] / z
        assert abs(mean[0] - q_th) < 1e-6
        assert abs(mean[1] - q_mu) < 1e-6

        sweep = _sweep(state, hyper, y, 71)
        draws = np.empty((50_000, 2))
        for i in range(draws.shape[0]):
            sweep.draw_locations()
            draws[i] = _locations(sweep)
        cov = np.linalg.inv(precision)
        for k in range(2):
            se = math.sqrt(cov[k, k] / draws.shape[0])
            assert abs(draws[:, k].mean() - mean[k]) <= 4.0 * se
        emp_cov = np.cov(draws.T)
        assert np.abs(emp_cov - cov).max() <= 0.05 * np.abs(cov).max()


def location_precision(state, hyper, y):
    # dense precision P and linear term b of the (theta, mu) conditional
    # N(P^-1 b, P^-1): the arrow form that draw_locations factors in closed form
    K = state.theta.shape[0]
    coupling = state.lam_theta * state.lam
    P = np.zeros((K + 1, K + 1))
    P[np.arange(K), np.arange(K)] = state.gam + coupling
    P[:K, K] = -coupling
    P[K, :K] = -coupling
    P[K, K] = hyper.v0 + coupling.sum()
    b = np.concatenate([state.gam * y, [hyper.v0 * hyper.m0]])
    return P, b


def _dense_draw_locations(state, hyper, y, rng):
    # reference location draw: dense Cholesky factor, solve for the mean,
    # triangular solve for the noise, on the same K + 1 standard normals
    P, b = location_precision(state, hyper, y)
    lower = np.linalg.cholesky(P)
    mean = np.linalg.solve(P, b)
    z = rng.standard_normal(P.shape[0])
    return mean + solve_triangular(lower.T, z, lower=False)


def _arrow_draw_locations(state, hyper, y, rng):
    # the closed-form arrow draw, computed afresh from the state
    c = state.lam_theta * state.lam
    d = state.gam + c
    w = c / d
    b = state.gam * y
    schur = hyper.v0 + float(w @ state.gam)
    z = rng.standard_normal(d.shape[0] + 1)
    mu = (hyper.v0 * hyper.m0 + float(w @ b)) / schur + float(z[-1]) / math.sqrt(schur)
    return np.concatenate([(b + c * mu) / d + z[:-1] / np.sqrt(d), [mu]])


def _reference_chain(y, hyper, n, rng, draw_locations=_arrow_draw_locations):
    # The sampler as a plain per-iteration loop: rng.integers(4) picks the
    # block, and every conditional is computed afresh from the state, with
    # rng.gamma for the precisions.
    K = y.shape[0]
    state = RandomEffectsState(theta=y.copy(), mu=float(y.mean()), lam_theta=1.0,
                               lam=np.ones(K), gam=np.ones(K))
    out = np.empty((n, 3 * K + 2))
    for i in range(n):
        block = int(rng.integers(4))
        if block == 0:
            rate = hyper.b1 + 0.5 * float(state.lam @ (state.theta - state.mu) ** 2)
            state.lam_theta = float(rng.gamma(hyper.a1 + 0.5 * K, 1.0 / rate))
        elif block == 1:
            rates = hyper.b2 + 0.5 * state.lam_theta * (state.theta - state.mu) ** 2
            state.lam = rng.gamma(hyper.a2 + 0.5, 1.0 / rates)
        elif block == 2:
            state.gam = rng.gamma(hyper.a3 + 0.5, 1.0 / (hyper.b3 + 0.5 * (y - state.theta) ** 2))
        else:
            xi = draw_locations(state, hyper, y, rng)
            state.theta, state.mu = xi[:K], float(xi[K])
        out[i] = np.concatenate([state.theta, [state.mu, state.lam_theta], state.lam, state.gam])
    return out


def _random_state(rng, K):
    return RandomEffectsState(
        theta=rng.standard_normal(K),
        mu=float(rng.standard_normal()),
        lam_theta=float(rng.uniform(0.1, 10.0)),
        lam=rng.uniform(0.1, 10.0, K),
        gam=rng.uniform(0.1, 10.0, K),
    )


def _same_state(a, b):
    # bit generator states are dicts that may hold arrays (Philox, MT19937)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


_BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                   np.random.MT19937, np.random.SFC64]


class TestArrowLocationDraw:
    @pytest.mark.parametrize("K", [1, 2, 21, 60])
    def test_matches_dense_reference(self, K):
        hyper = RandomEffectsHyper()
        rng = np.random.default_rng(80 + K)
        for trial in range(50):
            state = _random_state(rng, K)
            y = 2.0 * rng.standard_normal(K)
            sweep = _sweep(state, hyper, y, trial)
            sweep.draw_locations()
            want = _dense_draw_locations(state, hyper, y, np.random.default_rng(trial))
            np.testing.assert_allclose(_locations(sweep), want, rtol=1e-12, atol=1e-14)

    def test_chain_matches_dense_path(self):
        # the whole sampler against the per-iteration loop with dense
        # location draws and rng.gamma with an array of scales
        y = simulate_dataset(21, seed=1)
        got = gibbs_random_effects(y, n=2000, seed=81).values
        want = _reference_chain(y, RandomEffectsHyper(), 2000, np.random.default_rng(81),
                                draw_locations=_dense_draw_locations)
        # entries near zero carry the absolute rounding of their O(1) inputs
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


class TestGammaDraws:
    @pytest.mark.parametrize("K", [1, 21])
    def test_bit_identical_to_scaled_gamma(self, K):
        hyper = RandomEffectsHyper()
        state = _random_state(np.random.default_rng(82), K)
        y = np.random.default_rng(83).standard_normal(K)
        draws = (
            (GibbsSweep.draw_component_precisions, "lam", hyper.a2 + 0.5,
             hyper.b2 + 0.5 * state.lam_theta * (state.theta - state.mu) ** 2),
            (GibbsSweep.draw_observation_precisions, "gam", hyper.a3 + 0.5,
             hyper.b3 + 0.5 * (y - state.theta) ** 2),
        )
        for draw, block, shape, rates in draws:
            a = np.random.default_rng(84)
            b = np.random.default_rng(84)
            sweep = GibbsSweep(y, hyper, state, a)
            # the rates stay fixed: a block is not an input of its own conditional
            for _ in range(20):
                draw(sweep)
                assert np.array_equal(getattr(sweep, block), b.gamma(shape, 1.0 / rates))
            assert _same_state(a.bit_generator.state, b.bit_generator.state)


class TestSweepStream:
    # Hashes of gibbs_random_effects(simulate_dataset(K, 0), n=5000, seed=s)
    # recorded from the per-iteration loop that rng.integers(4) drove; the
    # sweep keeps its random stream and its arithmetic, so its chains match.
    CHAIN_SHA256 = {
        (1, 1): "a64e18d5c550d78637fe98d634e7a716463a04e89bbf33496e77688b4a8cc08a",
        (1, 2): "5d576c09904e73f592f14eae3b5802caa66de9390ad081c36286a0bd3110555b",
        (1, 3): "7eb2a4b06040b9dac4456cb087ca3846e6c99f19cf708a19d43d0ab47c4b6025",
        (2, 1): "623a4e2f56931ebb3862b32d2151ef2606353ab57dcacdad483bef96c8c4494c",
        (2, 2): "a0ae63b866915ea7c6eb98a9fd36b0becdd4617c9238480c20809a95bfa7848a",
        (2, 3): "c8ee840a731b2ed2d6199ec2bc76d6e3bc20fa68fee4166398053684c7e89b5a",
        (21, 1): "177bc97547d9f67d105d2cdd12a82a068426d9f3a60cbe6499d96a778fd04061",
        (21, 2): "459c9a5c861a663f4657c9d2e0cf45fa6831f72873cc8652ccabb242985c03eb",
        (21, 3): "505dcaf86a5f18f8023d0eb7f16559a61bed0ffd0c2f955a9bde6a8a435dea0f",
    }

    @pytest.mark.parametrize("K, seed", sorted(CHAIN_SHA256))
    def test_chain_bytes_pinned(self, K, seed):
        values = gibbs_random_effects(simulate_dataset(K, 0), n=5000, seed=seed).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == self.CHAIN_SHA256[K, seed]

    @pytest.mark.parametrize("bit_generator", _BIT_GENERATORS)
    def test_passed_generator_ends_in_the_reference_state(self, bit_generator):
        y = simulate_dataset(5, seed=0)
        a = np.random.Generator(bit_generator(86))
        b = np.random.Generator(bit_generator(86))
        got = gibbs_random_effects(y, n=3001, seed=a).values
        want = _reference_chain(y, RandomEffectsHyper(), 3001, b)
        assert got.tobytes() == want.tobytes()
        assert _same_state(a.bit_generator.state, b.bit_generator.state)

    @pytest.mark.parametrize("bit_generator", _BIT_GENERATORS)
    def test_top_bits_of_next_uint32_are_integers_4(self, bit_generator):
        # The sweep picks its block as next_uint32 >> 30 through the bit
        # generator's ctypes interface, relying on numpy's rng.integers(4)
        # being Lemire's bounded draw on exactly one next_uint32 that shares
        # the generator's half-word cache.  If a numpy release changes that
        # routine, this is the test that fails.
        a = np.random.Generator(bit_generator(87))
        b = np.random.Generator(bit_generator(87))
        bits = a.bit_generator.ctypes
        pattern = np.random.default_rng(88).integers(4, size=3000)
        for kind in pattern:
            if kind == 0:
                assert bits.next_uint32(bits.state) >> 30 == int(b.integers(4))
            elif kind == 1:
                assert a.standard_normal(3).tobytes() == b.standard_normal(3).tobytes()
            elif kind == 2:
                assert a.standard_gamma(0.6, size=2).tobytes() == b.standard_gamma(0.6, size=2).tobytes()
            else:
                assert a.standard_gamma(2.5) == b.standard_gamma(2.5)
            assert _same_state(a.bit_generator.state, b.bit_generator.state)

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(1, 40),
        shapes=st.tuples(*[st.floats(0.1, 10.0)] * 3),
        rates=st.tuples(*[st.floats(0.1, 10.0)] * 3),
        m0=st.floats(-10.0, 10.0),
        v0=st.floats(1e-4, 10.0),
        y_seed=st.integers(0, 2**32 - 1),
        y_scale=st.floats(0.01, 20.0),
        seed=st.integers(0, 2**63 - 1),
        bit_generator=st.sampled_from(_BIT_GENERATORS),
        n=st.integers(1, 300),
    )
    def test_sweep_matches_reference_loop(self, K, shapes, rates, m0, v0, y_seed,
                                          y_scale, seed, bit_generator, n):
        hyper = RandomEffectsHyper(*shapes, *rates, m0=m0, v0=v0)
        y = y_scale * np.random.default_rng(y_seed).standard_normal(K)
        a = np.random.Generator(bit_generator(seed))
        b = np.random.Generator(bit_generator(seed))
        got = gibbs_random_effects(y, hyper, n, seed=a).values
        want = _reference_chain(y, hyper, n, b)
        assert got.tobytes() == want.tobytes()
        assert _same_state(a.bit_generator.state, b.bit_generator.state)


class TestGibbsSampler:
    def test_determinism_and_layout(self):
        y = simulate_dataset(2, seed=0)
        a = gibbs_random_effects(y, n=400, seed=72)
        b = gibbs_random_effects(y, n=400, seed=72)
        assert np.array_equal(a.values, b.values)
        assert a.p == 8
        assert len(coordinate_names(2)) == 8

    def test_dimension_scales_with_groups(self):
        y = simulate_dataset(21, seed=1)
        chain = gibbs_random_effects(y, n=50, seed=73)
        assert chain.p == 65

    def test_recorded_precisions_stay_positive(self):
        y = simulate_dataset(2, seed=0)
        chain = gibbs_random_effects(y, n=20_000, seed=74)
        assert np.all(chain.values[:, 3:] > 0.0)

    def test_posterior_mean_stable_across_seeds(self):
        # the mu coordinate's long-run average must agree between two
        # independent seeds within combined Monte Carlo error
        y = simulate_dataset(2, seed=0)
        mus = []
        ses = []
        for seed in (75, 76):
            chain = gibbs_random_effects(y, n=100_000, seed=seed)
            col = chain.column(2)
            mus.append(float(col.mean[0]))
            est = uis(col)
            ses.append(math.sqrt(est.sigma2 / chain.n))
        combined = math.hypot(ses[0], ses[1])
        assert abs(mus[0] - mus[1]) <= 5.0 * combined

    def test_validation(self):
        with pytest.raises(ValueError):
            gibbs_random_effects([], n=10, seed=1)
        with pytest.raises(ValueError):
            gibbs_random_effects([1.0], n=0, seed=1)
        with pytest.raises(ValueError):
            RandomEffectsHyper(a1=-1.0)

    @pytest.mark.parametrize("field, value", [("a1", "x"), ("b3", None), ("m0", "0"),
                                              ("v0", True), ("a2", [1.0])])
    def test_non_numeric_hyperparameter_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^hyperparameter {field} must be a number, got "):
            RandomEffectsHyper(**{field: value})

    def test_integer_and_numpy_hyperparameters_are_numbers(self):
        hyper = RandomEffectsHyper(a1=1, m0=np.float64(-2.0), v0=np.int64(3))
        assert (hyper.a1, hyper.m0, hyper.v0) == (1, -2.0, 3)


# one small parameter set per built-in model
_BUILD_PARAMS = {"ar1": {"kind": "hadamard", "p": 4}, "logistic": {}, "ranef": {"K": 2}}


@pytest.mark.parametrize("model", MODELS)
def test_built_simulator_pickles(model):
    # a process pool runs the parent's simulator, so it must survive pickling
    simulate, _ = build(model, _BUILD_PARAMS[model])
    again = pickle.loads(pickle.dumps(simulate))
    chain, stats = simulate(500, 3)
    chain_again, stats_again = again(500, 3)
    assert np.array_equal(chain_again.values, chain.values)
    assert stats_again == stats


@pytest.mark.parametrize("model, default, explicit", [
    ("logistic", {}, {"data_path": "{csv}"}),
    ("ranef", {"K": 2}, {"y": simulate_dataset(2, 0).tolist()}),
], ids=["logistic data_path", "ranef y"])
def test_explicit_data_builds_the_default_simulator(model, default, explicit, tmp_path):
    # the packaged logistic data written to a file, and ranef's K=2 data set given as y
    csv = tmp_path / "logit.csv"
    csv.write_text((files("chainvar") / "data" / "logit_synthetic.csv").read_text())
    explicit = {key: str(csv) if value == "{csv}" else value for key, value in explicit.items()}
    a, _ = build(model, default)[0](300, 4)
    b, _ = build(model, explicit)[0](300, 4)
    assert np.array_equal(a.values, b.values)


# Blocks concatenate to the chain bit for bit.  Here AR(1) has a diagonal
# A, whose basis is a permutation; test_ar1_blocks_agree_to_rounding covers
# a dense basis.
_BLOCK_PARAMS = {
    "ar1": {"A": np.diag([0.5, -0.3, 0.8]).tolist(), "V": np.eye(3).tolist(),
            "theta": [1.0, 2.0, -1.0]},
    "logistic": {},
    "ranef": {"K": 3},
}


@pytest.mark.parametrize("rows", [1, 7, 997, "n", "n+3"])
@pytest.mark.parametrize("model", MODELS)
def test_blocks_concatenate_to_the_chain(model, rows):
    n = 2_000
    rows = {"n": n, "n+3": n + 3}.get(rows, rows)
    simulate, _ = build(model, _BLOCK_PARAMS[model])
    whole, blocked = (np.random.Generator(np.random.PCG64(91)) for _ in range(2))
    chain, _ = simulate(n, whole)
    # a block is the caller's only until the next one is drawn
    blocks = [block.copy() for block, _ in simulate.blocks(n, blocked, rows)]
    sizes = [min(rows, n - first) for first in range(0, n, rows)]
    assert [block.shape for block in blocks] == [(m, simulate.p) for m in sizes]
    assert np.concatenate(blocks).tobytes() == chain.values.tobytes()
    assert _same_state(whole.bit_generator.state, blocked.bit_generator.state)


@pytest.mark.parametrize("rows", [1, 7, 997, _CHUNK - 1, _CHUNK + 1, "n"])
def test_ar1_blocks_agree_to_rounding(rows, on_blas_threads):
    # the products run on fixed chunks, so blocks that split a chunk or
    # straddle two are the chain bit for bit, at either thread count
    params = Ar1Params.hadamard_fixture(12)
    n = 3 * _CHUNK + 5
    rows = n if rows == "n" else rows
    for threads in (1, 2):
        with on_blas_threads(threads):
            whole, blocked = (np.random.Generator(np.random.PCG64(92)) for _ in range(2))
            chain = ar1_simulate(params, n, whole).values
            # a block is the caller's only until the next one is drawn
            got = np.concatenate([block.copy() for block, _ in
                                  ar1_blocks(params, n, blocked, rows)])
        assert got.tobytes() == chain.tobytes(), f"{threads} BLAS threads"
        assert _same_state(whole.bit_generator.state, blocked.bit_generator.state)


def test_ar1_memory_is_the_chain_and_a_few_chunks():
    # tracemalloc peaks at n and 10 n: the (n, p) chain plus a bound that
    # does not grow with n, here eight chunks of p columns
    params = Ar1Params.hadamard_fixture(12)
    bound = 8 * _CHUNK * params.p * 8
    for n in (20_000, 200_000):
        tracemalloc.start()
        try:
            ar1_simulate(params, n, 94)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * n * params.p <= bound, n


@pytest.mark.parametrize("model", MODELS)
def test_blocks_need_a_row(model):
    simulate, _ = build(model, _BUILD_PARAMS[model])
    with pytest.raises(ValueError, match="need rows >= 1, got 0"):
        next(simulate.blocks(10, 1, 0))


@pytest.mark.parametrize("model", MODELS)
def test_blocks_need_an_n(model):
    simulate, _ = build(model, _BUILD_PARAMS[model])
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        next(simulate.blocks(0, 1, 5))


@pytest.mark.parametrize("model", MODELS)
def test_blocks_share_one_buffer(model):
    simulate, _ = build(model, _BUILD_PARAMS[model])
    blocks = [block for block, _ in simulate.blocks(25, 1, 10)]
    assert [len(block) for block in blocks] == [10, 10, 5]
    assert all(np.shares_memory(block, blocks[0]) for block in blocks[1:])


@pytest.mark.parametrize("rows", [1, 7, 997, "n"])
def test_rwm_blocks_end_with_the_acceptance_rate(rows):
    # the rate over the rows so far, which at the last block is the run's
    n = 2_000
    rows = n if rows == "n" else rows
    data = load_logit_data()
    run = rwm_logistic(data, 0.3, n, 93)
    simulate, _ = build("logistic", {})
    *_, (_, stats) = simulate.blocks(n, 93, rows)
    assert stats == {"acceptance rate": run.acceptance_rate}
    assert simulate(n, 93)[1] == stats
