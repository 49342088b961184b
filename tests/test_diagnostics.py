"""Quantiles, effective sample size, and confidence regions against closed forms."""

import math

import numpy as np
import pytest

from chainvar import (
    Chain,
    Ar1Params,
    ExperimentConfig,
    ar1_simulate,
    chisq_quantile,
    cube_region,
    ellipsoid_region,
    ess,
    min_univariate_ess,
    normal_quantile,
    run_replications,
    sample_cov,
    univariate_ess_components,
)
from chainvar.samplers import build, replication_stream
from chainvar.symmat import NotPositiveDefiniteError


def normal_quantile_oracle(prob, tol=1e-13):
    """Bisection on the standard normal CDF via the library erf series."""
    cdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestQuantiles:
    def test_chisq_two_dof_closed_form(self):
        # p = 2: inverse CDF is -2 ln(1 - prob)
        assert abs(chisq_quantile(0.9, 2) - (-2.0 * math.log(0.1))) < 1e-10
        assert abs(chisq_quantile(0.9, 2) - 4.6051702) < 1e-6

    def test_normal_against_bisection_oracle(self):
        for prob in (0.5, 0.9, 0.95, 0.975, 0.999):
            assert abs(normal_quantile(prob) - normal_quantile_oracle(prob)) < 1e-8
        assert abs(normal_quantile(0.975) - 1.9599640) < 1e-6

    def test_chisq_one_dof_is_squared_normal(self):
        z = normal_quantile_oracle(0.95)
        assert abs(chisq_quantile(0.9, 1) - z * z) < 1e-8
        assert abs(chisq_quantile(0.9, 1) - 2.7055435) < 1e-6

    def test_input_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                normal_quantile(bad)
            with pytest.raises(ValueError):
                chisq_quantile(bad, 2)
        with pytest.raises(ValueError):
            chisq_quantile(0.5, 0)


class TestSampleCov:
    def test_constant_chain(self):
        np.testing.assert_array_equal(sample_cov(Chain(np.ones((5, 2)))), np.zeros((2, 2)))

    def test_scalar_two_point(self):
        assert sample_cov(Chain([0.0, 2.0]))[0, 0] == 1.0

    def test_bivariate_hand_case(self):
        got = sample_cov(Chain([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(got, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)


class TestEss:
    def test_iid_case(self):
        lam = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert abs(ess(500, lam, lam) - 500.0) < 1e-9

    def test_scalar_factor(self):
        assert abs(ess(100, np.eye(2), 4.0 * np.eye(2)) - 25.0) < 1e-9

    def test_congruence_invariance(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((3, 3))
        lam = g @ g.T + np.eye(3)
        h = rng.standard_normal((3, 3))
        sigma = h @ h.T + 2.0 * np.eye(3)
        # exact-symmetry contract: two-gemm congruences pick up 1e-17 skew
        b = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        sym = lambda m: (m + m.T) / 2.0
        base = ess(1000, sym(lam), sym(sigma))
        mapped = ess(1000, sym(b @ lam @ b.T), sym(b @ sigma @ b.T))
        assert abs(base - mapped) <= 1e-8 * base

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            ess(10, np.eye(2), np.diag([1.0, -1.0]))


class TestMinUnivariateEss:
    def test_uncorrelated_pattern_gives_n_exactly(self):
        # lag-1 products vanish and the lag-2/3 pair is negative, so the
        # univariate variance equals the lag-0 variance on each coordinate
        base = [1.0, 0.0, -1.0, 0.0]
        col1 = np.tile(base, 8)
        col2 = np.roll(col1, 1)
        chain = Chain(np.column_stack([col1, col2]))
        assert min_univariate_ess(chain) == chain.n
        assert univariate_ess_components(chain) == [chain.n, chain.n]

    def test_white_plus_ar_component(self):
        # AR(1) with a=0.5 has variance 4/3 and long-run variance 4, so its
        # component ESS is about n/3 and the white component stays near n
        rng = np.random.default_rng(30)
        n = 100_000
        white = rng.standard_normal(n)
        ar = ar1_simulate(Ar1Params.scalar(0.5, theta=0.0), n, seed=31).values[:, 0]
        chain = Chain(np.column_stack([white, ar]))
        got = min_univariate_ess(chain)
        assert abs(got - n / 3) <= 0.15 * (n / 3)
        components = univariate_ess_components(chain)
        assert components[1] == got

    def test_components_match_harness_uis_ess_bit_for_bit(self):
        # the harness reports n * min(gamma0_jj / sigma2_j) as its uis ESS;
        # the analyst path must give the very same number for the same chain
        params = {"kind": "hadamard", "p": 12}
        config = ExperimentConfig(model="ar1", model_params=params, n=100_000,
                                  replications=1, methods=("uis",), regions=(),
                                  master_seed=1)
        harness = run_replications(config).records[0]["methods"]["uis"]["ess"]
        simulate, _ = build("ar1", params)
        chain, _ = simulate(config.n, replication_stream(1, 0))
        assert min(univariate_ess_components(chain)) == harness

    def test_degenerate_component_excluded_with_warning(self):
        rng = np.random.default_rng(32)
        values = np.column_stack([np.ones(50), rng.standard_normal(50)])
        with pytest.warns(RuntimeWarning, match="degenerate"):
            got = min_univariate_ess(Chain(values))
        assert math.isfinite(got)

    def test_all_degenerate_raises(self):
        with pytest.raises(ValueError):
            min_univariate_ess(Chain(np.ones((50, 2))))


class TestEllipsoidRegion:
    def test_scalar_interval_volume(self):
        # p=1, sigma=4, n=100, alpha=0.1: half width z_{0.95} * 2/10
        z = normal_quantile_oracle(0.95)
        region = ellipsoid_region([0.0], [[4.0]], 100, 0.1)
        assert abs(region.volume - 2.0 * z * 0.2) < 1e-9
        assert abs(region.volume - 0.6580) < 1e-4

    def test_p2_identity_closed_form(self):
        region = ellipsoid_region([1.0, -1.0], np.eye(2), 100, 0.1)
        expected = math.pi * (-2.0 * math.log(0.1)) / 100.0
        assert abs(region.volume - expected) < 1e-12

    def test_center_membership_and_boundary(self):
        rng = np.random.default_rng(40)
        g = rng.standard_normal((3, 3))
        sigma = g @ g.T + np.eye(3)
        mu = rng.standard_normal(3)
        region = ellipsoid_region(mu, sigma, 250, 0.1)
        assert region.contains(mu)
        # walk to the boundary along a random direction and check the
        # quadratic form lands on the cutoff
        v = rng.standard_normal(3)
        scale = math.sqrt(region.cutoff / (region.n * v @ np.linalg.solve(sigma, v)))
        x = mu + scale * v
        q = region.n * (mu - x) @ np.linalg.solve(sigma, mu - x)
        assert abs(q - region.cutoff) < 1e-10 * region.cutoff
        assert not region.contains(mu + 2.0 * scale * v)

    def test_volume_scales_with_sqrt_determinant(self):
        rng = np.random.default_rng(41)
        g = rng.standard_normal((4, 4))
        sigma = g @ g.T + np.eye(4)
        base = ellipsoid_region(np.zeros(4), sigma, 100, 0.1)
        doubled = ellipsoid_region(np.zeros(4), 2.0 * sigma, 100, 0.1)
        assert abs(doubled.log_volume - base.log_volume - 2.0 * math.log(2.0)) < 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            ellipsoid_region([0.0, 0.0], np.diag([1.0, -1.0]), 10, 0.1)


class TestCubeRegion:
    def test_p1_bonferroni_collapses(self):
        a = cube_region([0.0], [1.0], 100, 0.1, bonferroni=False)
        b = cube_region([0.0], [1.0], 100, 0.1, bonferroni=True)
        assert a.half_widths[0] == b.half_widths[0]
        assert a.volume == b.volume

    def test_p2_uncorrected_volume(self):
        z = normal_quantile_oracle(0.95)
        region = cube_region([0.0, 0.0], [1.0, 1.0], 100, 0.1)
        assert abs(region.half_widths[0] - z / 10.0) < 1e-9
        assert abs(region.volume - (2.0 * z / 10.0) ** 2) < 1e-9
        assert abs(region.half_widths[0] - 0.16449) < 1e-5

    def test_p2_bonferroni_volume(self):
        z = normal_quantile_oracle(0.975)
        region = cube_region([0.0, 0.0], [1.0, 1.0], 100, 0.1, bonferroni=True)
        assert abs(region.half_widths[0] - z / 10.0) < 1e-9
        assert abs(region.volume - (2.0 * z / 10.0) ** 2) < 1e-9

    def test_bonferroni_dominates_for_p_at_least_two(self):
        rng = np.random.default_rng(42)
        for p in (2, 3, 8):
            sd = rng.uniform(0.5, 2.0, size=p)
            mu = rng.standard_normal(p)
            plain = cube_region(mu, sd, 400, 0.1)
            bonf = cube_region(mu, sd, 400, 0.1, bonferroni=True)
            assert bonf.volume > plain.volume
            assert bonf.contains(mu) and plain.contains(mu)

    def test_membership(self):
        region = cube_region([1.0, 2.0], [1.0, 1.0], 100, 0.1)
        hw = region.half_widths
        assert region.contains([1.0 + 0.999 * hw[0], 2.0])
        assert not region.contains([1.0 + 1.01 * hw[0], 2.0])

    def test_rejects_nonpositive_sd(self):
        with pytest.raises(ValueError):
            cube_region([0.0], [0.0], 100, 0.1)

    def test_volume_root(self):
        region = cube_region(np.zeros(3), np.full(3, 2.0), 100, 0.1)
        assert abs(region.volume_root ** 3 - region.volume) < 1e-12
