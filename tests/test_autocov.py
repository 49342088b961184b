"""Autocovariance engine against hand values and a brute-force oracle."""

import warnings

import numpy as np
import pytest

from chainvar import Chain, LagPairSequence, MomentOverflowError, autocov, symmetrize


def brute_autocov(values, t):
    """Direct double-loop evaluation of the lag-t autocovariance (divisor n)."""
    n, p = values.shape
    mu = values.mean(axis=0)
    out = np.zeros((p, p))
    for i in range(n - t):
        out += np.outer(values[i] - mu, values[i + t] - mu)
    return out / n


def brute_pair(values, i):
    def sym(t):
        g = brute_autocov(values, t)
        return (g + g.T) / 2
    return sym(2 * i) + sym(2 * i + 1)


def brute_partial(values, m):
    total = -brute_autocov(values, 0)
    for i in range(m + 1):
        total = total + 2 * brute_pair(values, i)
    return total


class TestHandValues:
    def test_constant_chain_vanishes(self):
        chain = Chain(np.tile([2.0, -1.0], (6, 1)))
        for t in range(6):
            np.testing.assert_array_equal(autocov(chain, t), np.zeros((2, 2)))
        pairs = LagPairSequence(chain)
        np.testing.assert_array_equal(pairs.pair(0), np.zeros((2, 2)))
        np.testing.assert_array_equal(pairs.partial_sum(0), np.zeros((2, 2)))

    def test_two_point_scalar_chain(self):
        # values (0, 2): mean 1, centered (-1, 1)
        chain = Chain([0.0, 2.0])
        assert autocov(chain, 0)[0, 0] == 1.0
        assert autocov(chain, 1)[0, 0] == -0.5
        pairs = LagPairSequence(chain)
        assert pairs.pair(0)[0, 0] == 0.5
        assert pairs.partial_sum(0)[0, 0] == 0.0

    def test_alternating_chain(self):
        # (1,-1,1,-1): gamma0=1, gamma1=-0.75, gamma2=0.5, gamma3=-0.25
        chain = Chain([1.0, -1.0, 1.0, -1.0])
        assert autocov(chain, 1)[0, 0] == -0.75
        assert autocov(chain, 2)[0, 0] == 0.5
        assert autocov(chain, 3)[0, 0] == -0.25
        pairs = LagPairSequence(chain)
        assert pairs.pair(0)[0, 0] == 0.25
        assert pairs.pair(1)[0, 0] == 0.25
        # antithetic chain: the truncated sum at m=1 is exactly zero
        assert pairs.partial_sum(1)[0, 0] == 0.0

    def test_bivariate_hand_case(self):
        # rows (1,0), (0,1): mean (.5,.5); lag-1 cross product is
        # (.5,-.5) x (-.5,.5) / 2
        chain = Chain([[1.0, 0.0], [0.0, 1.0]])
        expected = np.array([[-0.125, 0.125], [0.125, -0.125]])
        np.testing.assert_allclose(autocov(chain, 1), expected, atol=1e-15)
        # the only pair is gamma0 plus that (already symmetric) lag
        np.testing.assert_allclose(
            LagPairSequence(chain).pair(0), autocov(chain, 0) + expected, atol=1e-15
        )

    def test_lag_zero_equals_symmetrized(self):
        rng = np.random.default_rng(0)
        chain = Chain(rng.standard_normal((30, 3)))
        np.testing.assert_array_equal(autocov(chain, 0), symmetrize(autocov(chain, 0)))
        np.testing.assert_array_equal(autocov(chain, 0), LagPairSequence(chain).gamma0)


class TestBruteForceOracle:
    def test_matches_double_loop(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            n = int(rng.integers(4, 60))
            p = int(rng.integers(1, 5))
            values = rng.standard_normal((n, p)) * 3.0
            chain = Chain(values)
            for t in (0, 1, 2, n - 1):
                np.testing.assert_allclose(
                    autocov(chain, t), brute_autocov(values, t), atol=1e-12
                )
            pairs = LagPairSequence(chain)
            for idx in {0, pairs.max_index}:
                np.testing.assert_allclose(
                    pairs.pair(idx), brute_pair(values, idx), atol=1e-12
                )
                np.testing.assert_allclose(
                    pairs.partial_sum(idx), brute_partial(values, idx), atol=1e-12
                )


class TestProperties:
    def test_lag_zero_is_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            chain = Chain(rng.standard_normal((int(rng.integers(2, 40)), 4)))
            w = np.linalg.eigvalsh(autocov(chain, 0))
            assert w[0] >= -1e-12 * max(1.0, w[-1])

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((50, 3))
        shifted = values + np.array([5.0, -7.0, 100.0])
        for t in range(5):
            np.testing.assert_allclose(
                autocov(Chain(values), t), autocov(Chain(shifted), t), atol=1e-10
            )

    def test_linear_map_equivariance(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((60, 3))
        b = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        mapped = values @ b.T
        for t in range(4):
            np.testing.assert_allclose(
                autocov(Chain(mapped), t),
                b @ autocov(Chain(values), t) @ b.T,
                atol=1e-10,
            )


@pytest.mark.parametrize("lag", [0, 1, 499], ids=["0", "1", "n-1"])
@pytest.mark.parametrize("moment", ["variance", "mean"])
def test_overflowing_moment_names_its_column_at_every_lag(moment, lag):
    # finite values whose squares (or, near the largest double, whose sum)
    # overflow: column c2 is named at every lag, never a numpy warning
    values = np.random.default_rng(8).standard_normal((500, 4))
    if moment == "variance":
        values[:, 1] *= 2.0**520
    else:
        values[:, 1] = 1.6e308 * (1.0 - 0.01 * np.abs(values[:, 1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MomentOverflowError) as info:
            autocov(Chain(values), lag)
    assert str(info.value) == f"the {moment} of column c2 overflows; rescale the chain"


class TestLagPairSequence:
    def test_incremental_partial_sums_are_exact(self):
        rng = np.random.default_rng(9)
        pairs = LagPairSequence(Chain(rng.standard_normal((40, 2))))
        for m in range(1, pairs.max_index + 1):
            expected = pairs.partial_sum(m - 1) + 2.0 * pairs.pair(m)
            assert np.array_equal(pairs.partial_sum(m), expected)

    def test_pairs_are_exactly_symmetric(self):
        rng = np.random.default_rng(10)
        pairs = LagPairSequence(Chain(rng.standard_normal((30, 4))))
        for i in range(pairs.max_index + 1):
            mat = pairs.pair(i)
            assert np.array_equal(mat, mat.T)

    def test_out_of_order_access_is_consistent(self):
        rng = np.random.default_rng(12)
        values = rng.standard_normal((40, 2))
        eager = LagPairSequence(Chain(values))
        lazy = LagPairSequence(Chain(values))
        hi = eager.max_index
        a = lazy.partial_sum(hi)
        for m in range(hi + 1):
            assert np.array_equal(eager.partial_sum(m), lazy.partial_sum(m))
        assert np.array_equal(a, eager.partial_sum(hi))

    def test_range_validation(self):
        chain = Chain(np.arange(10.0))
        with pytest.raises(ValueError):
            autocov(chain, 10)
        with pytest.raises(ValueError):
            autocov(chain, -1)
        pairs = LagPairSequence(chain)
        assert pairs.max_index == 4
        with pytest.raises(ValueError):
            pairs.pair(5)
        with pytest.raises(ValueError):
            pairs.partial_sum(5)
