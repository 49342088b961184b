"""Sampler fixtures: Hadamard construction, AR(1) ground truth, the logistic
random walk sampler, and the random effects Gibbs sampler."""

import math
import pickle

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import solve_triangular

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
from chainvar.samplers import MODELS, build, random_effects
from chainvar.samplers.ar1 import _modes
from chainvar.samplers.logistic import generate_logit_data, log_prior
from chainvar.samplers.random_effects import (
    RandomEffectsHyper,
    RandomEffectsState,
    coordinate_names,
    draw_component_precisions,
    draw_locations,
    draw_observation_precisions,
    draw_shrinkage_precision,
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
        d, basis, _ = _modes(params.A, params.V)
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

    def test_validation(self):
        with pytest.raises(ValueError):
            random_walk_metropolis(lambda x: 0.0, [0.0], 0.0, 10, seed=1)
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
        rng = np.random.default_rng(70)
        draws = np.array(
            [draw_shrinkage_precision(state, hyper, rng) for _ in range(100_000)]
        )
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

        rng = np.random.default_rng(71)
        draws = np.array([draw_locations(state, hyper, y, rng) for _ in range(50_000)])
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


def _random_state(rng, K):
    return RandomEffectsState(
        theta=rng.standard_normal(K),
        mu=float(rng.standard_normal()),
        lam_theta=float(rng.uniform(0.1, 10.0)),
        lam=rng.uniform(0.1, 10.0, K),
        gam=rng.uniform(0.1, 10.0, K),
    )


class TestArrowLocationDraw:
    @pytest.mark.parametrize("K", [1, 2, 21, 60])
    def test_matches_dense_reference(self, K):
        hyper = RandomEffectsHyper()
        rng = np.random.default_rng(80 + K)
        for trial in range(50):
            state = _random_state(rng, K)
            y = 2.0 * rng.standard_normal(K)
            got = draw_locations(state, hyper, y, np.random.default_rng(trial))
            want = _dense_draw_locations(state, hyper, y, np.random.default_rng(trial))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_chain_matches_dense_path(self, monkeypatch):
        # the whole sampler against the former per-iteration path: dense
        # location draws and rng.gamma with an array of scales
        y = simulate_dataset(21, seed=1)
        got = gibbs_random_effects(y, n=2000, seed=81).values
        monkeypatch.setattr(random_effects, "draw_locations", _dense_draw_locations)
        monkeypatch.setattr(
            random_effects, "draw_component_precisions",
            lambda state, hyper, rng: rng.gamma(
                hyper.a2 + 0.5,
                1.0 / (hyper.b2 + 0.5 * state.lam_theta * (state.theta - state.mu) ** 2)),
        )
        monkeypatch.setattr(
            random_effects, "draw_observation_precisions",
            lambda state, hyper, y, rng: rng.gamma(
                hyper.a3 + 0.5, 1.0 / (hyper.b3 + 0.5 * (y - state.theta) ** 2)),
        )
        want = gibbs_random_effects(y, n=2000, seed=81).values
        # entries near zero carry the absolute rounding of their O(1) inputs
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


class TestGammaDraws:
    @pytest.mark.parametrize("K", [1, 21])
    def test_bit_identical_to_scaled_gamma(self, K):
        hyper = RandomEffectsHyper()
        state = _random_state(np.random.default_rng(82), K)
        y = np.random.default_rng(83).standard_normal(K)
        draws = (
            (lambda rng: draw_component_precisions(state, hyper, rng),
             hyper.a2 + 0.5,
             hyper.b2 + 0.5 * state.lam_theta * (state.theta - state.mu) ** 2),
            (lambda rng: draw_observation_precisions(state, hyper, y, rng),
             hyper.a3 + 0.5,
             hyper.b3 + 0.5 * (y - state.theta) ** 2),
        )
        for draw, shape, rates in draws:
            a = np.random.default_rng(84)
            b = np.random.default_rng(84)
            for _ in range(20):
                assert np.array_equal(draw(a), b.gamma(shape, 1.0 / rates))
            assert a.random() == b.random()


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
