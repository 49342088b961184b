"""Truncation rules and estimator identities, including the univariate coincidences."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainvar import (
    Chain,
    LagPairSequence,
    MomentOverflowError,
    NoPositiveDefinitePartialSum,
    ar1_simulate,
    Ar1Params,
    mis,
    misadj,
    mk,
    sample_cov,
    uis,
    uis_components,
    univariate_ess_components,
)
from chainvar.symmat import pd_from_eigenvalues, signed_logdet


def signed_logdet_greater(a, b):
    """Reference: whether determinant a exceeds determinant b, both as (sign, log|det|)."""
    sign_a, log_a = a
    sign_b, log_b = b
    if sign_a != sign_b:
        return sign_a > sign_b
    if sign_a == 0:
        return False
    if sign_a > 0:
        return log_a > log_b
    return log_a < log_b


def reference_scan(pairs):
    """(s_n, t_n) by the sign-aware determinant comparison, or None without a PD sum."""
    dets = [signed_logdet(np.linalg.eigvalsh(pairs.partial_sum(m)))
            for m in range(pairs.max_index + 1)]
    s_n = next((m for m in range(pairs.max_index + 1)
                if pd_from_eigenvalues(np.linalg.eigvalsh(pairs.partial_sum(m)))), None)
    if s_n is None:
        return None
    t_n = s_n
    while t_n < pairs.max_index and signed_logdet_greater(dets[t_n + 1], dets[t_n]):
        t_n += 1
    return s_n, t_n


def ar_like(rng, n, p, coef=0.7):
    x = rng.standard_normal((n, p))
    for i in range(1, n):
        x[i] = coef * x[i - 1] + x[i]
    return Chain(x)


class TestUis:
    def test_constant_series_is_degenerate(self):
        est = uis(Chain(np.full(10, 3.0)))
        assert est.degenerate
        assert est.t_n == -1
        assert est.sigma2 == 0.0

    def test_alternating_series(self):
        # pair sums are 0.25, 0.25 so the scan keeps both; the total is 0
        est = uis(Chain([1.0, -1.0, 1.0, -1.0]))
        assert not est.degenerate
        assert est.t_n == 1
        assert est.sigma2 == 0.0

    def test_long_ar1_near_analytic_value(self):
        # scalar AR(1) with a=0.5, V=1 has long-run variance 1/(1-a)^2 = 4
        chain = ar1_simulate(Ar1Params.scalar(0.5), 100_000, seed=20)
        est = uis(chain)
        assert abs(est.sigma2 - 4.0) <= 0.4

    def test_requires_univariate(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="univariate"):
            uis(Chain(rng.standard_normal((10, 2))))

    def test_truncation_invariant(self):
        # every pair up to t_n is positive and the next one (if any) is not
        rng = np.random.default_rng(21)
        for _ in range(10):
            chain = ar_like(rng, int(rng.integers(20, 200)), 1)
            est = uis(chain)
            pairs = LagPairSequence(chain)
            assert all(pairs.pair(i)[0, 0] > 0 for i in range(est.t_n + 1))
            if est.t_n < pairs.max_index:
                assert pairs.pair(est.t_n + 1)[0, 0] <= 0


def reference_uis(pairs):
    """Reference: the initial positive sequence rule over pair(i) and partial_sum(m)."""
    if not pairs.pair(0)[0, 0] > 0.0:
        return float(pairs.gamma0[0, 0]), -1, True
    t_n = 0
    while t_n < pairs.max_index and pairs.pair(t_n + 1)[0, 0] > 0.0:
        t_n += 1
    return float(pairs.partial_sum(t_n)[0, 0]), t_n, False


def _bits(est):
    # float.hex tells -0.0 from 0.0, so equal tuples mean equal bits
    return est.sigma2.hex(), est.t_n, est.degenerate


def _column(rng, kind, n, coef):
    if kind == "ar":
        return ar_like(rng, n, 1, coef).values[:, 0] * 10.0 ** rng.uniform(-3, 3)
    if kind == "offset":
        return rng.standard_normal(n) + rng.uniform(-1e4, 1e4)
    if kind == "constant":
        return np.full(n, rng.uniform(-5.0, 5.0))
    return np.resize([1.0, -1.0], n)


class TestUisScan:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300),
           kinds=st.lists(st.sampled_from(["ar", "offset", "constant", "alternating"]),
                          min_size=1, max_size=4),
           coef=st.sampled_from([0.0, 0.7, -0.5, 0.95]))
    def test_every_entry_point_matches_the_pair_sequence(self, seed, n, kinds, coef):
        rng = np.random.default_rng(seed)
        chain = Chain(np.column_stack([_column(rng, kind, n, coef) for kind in kinds]))
        components = uis_components(chain)
        for j in range(chain.p):
            column = chain.column(j)
            sigma2, t_n, degenerate = reference_uis(LagPairSequence(column))
            want = (sigma2.hex(), t_n, degenerate)
            assert _bits(uis(column)) == want
            assert _bits(uis(LagPairSequence(column))) == want
            assert _bits(components[j]) == want
            k = mk(column)
            assert k.t_n == t_n
            if not degenerate:
                assert k.sigma[0, 0].hex() == sigma2.hex()

    def test_alternating_series_keeps_both_pairs(self):
        chain = Chain([1.0, -1.0, 1.0, -1.0])
        want = reference_uis(LagPairSequence(chain))
        assert want == (0.0, 1, False)
        assert (uis(chain).sigma2, uis(chain).t_n, uis(chain).degenerate) == want

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300), p=st.integers(1, 4),
           column=st.integers(0, 3), k=st.integers(520, 1023))
    def test_an_overflowing_column_is_named(self, seed, n, p, column, k):
        # column j alternates 1.5 and -1 times 2**k: its variance always
        # overflows, and at large k and n the sum behind its mean as well
        j = column % p
        values = ar_like(np.random.default_rng(seed), n, p).values.copy()
        values[:, j] = np.resize([1.5, -1.0], n) * 2.0**k
        chain = Chain(values)
        with pytest.raises(MomentOverflowError) as want:
            LagPairSequence(chain.column(j))
        # warnings are errors in the body only, so that a failure is reported
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MomentOverflowError) as got:
                uis_components(chain)
            assert (got.value.moment, got.value.column) == (want.value.moment, j)
            with pytest.raises(MomentOverflowError) as got:
                uis(chain.column(j))
            assert (got.value.moment, got.value.column) == (want.value.moment, 0)


class TestMis:
    def test_no_pd_partial_sum_raises(self):
        # (0, 2) has exactly one truncated sum and it is the zero matrix
        with pytest.raises(NoPositiveDefinitePartialSum):
            mis(Chain([0.0, 2.0]))

    def test_one_step_stop_fixture(self):
        # iid-like rows where the determinant drops immediately: s = t = 0
        chain = Chain(np.random.default_rng(0).standard_normal((30, 2)))
        est = mis(chain)
        assert est.s_n == 0 and est.t_n == 0
        np.testing.assert_array_equal(est.sigma, LagPairSequence(chain).partial_sum(0))

    def test_determinant_run_property(self):
        # log-dets strictly increase on (s_n, t_n] and the run is maximal,
        # as the sign-aware comparison of every truncated sum decides
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(40):
            chain = ar_like(rng, int(rng.integers(8, 300)), int(rng.integers(1, 5)),
                            coef=rng.uniform(-0.9, 0.9))
            expected = reference_scan(LagPairSequence(chain))
            try:
                est = mis(chain)
            except NoPositiveDefinitePartialSum:
                assert expected is None
                continue
            assert (est.s_n, est.t_n) == expected
            checked += 1
        assert checked >= 20

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40), p=st.integers(1, 4))
    def test_short_chains_match_sign_aware_reference(self, seed, n, p):
        # short iid chains reach truncated sums with an even number of
        # negative eigenvalues, whose positive determinant may extend the run
        chain = Chain(np.random.default_rng(seed).standard_normal((n, p)))
        expected = reference_scan(LagPairSequence(chain))
        try:
            est = mis(chain)
        except NoPositiveDefinitePartialSum:
            assert expected is None
        else:
            assert (est.s_n, est.t_n) == expected

    def test_pairs_instance_accepted(self):
        chain = ar_like(np.random.default_rng(1), 100, 2)
        pairs = LagPairSequence(chain)
        a = mis(chain)
        b = mis(pairs)
        assert a.s_n == b.s_n and a.t_n == b.t_n
        np.testing.assert_array_equal(a.sigma, b.sigma)


class TestMisadj:
    def test_univariate_coincidence_is_bit_exact(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(30):
            chain = ar_like(rng, int(rng.integers(10, 150)), 1, coef=rng.uniform(-0.5, 0.9))
            try:
                a = mis(chain)
            except NoPositiveDefinitePartialSum:
                continue
            b = misadj(chain)
            assert a.sigma[0, 0] == b.sigma[0, 0]
            assert (a.s_n, a.t_n) == (b.s_n, b.t_n)
            checked += 1
        assert checked >= 20

    def test_negative_pair_fixture_gives_psd_gap(self):
        # found by seeded search: some pair inside the run has a negative
        # eigenvalue, so the adjusted estimate strictly dominates
        rng = np.random.default_rng(0)
        chain = ar_like(rng, 250, 2)
        base = mis(chain)
        adj = misadj(chain)
        pairs = LagPairSequence(chain)
        assert any(
            np.linalg.eigvalsh(pairs.pair(i))[0] < 0
            for i in range(base.s_n + 1, base.t_n + 1)
        )
        gap = adj.sigma - base.sigma
        w = np.linalg.eigvalsh((gap + gap.T) / 2)
        assert w[0] >= -1e-12 * max(1.0, w[-1])
        assert w[-1] > 1e-12
        assert adj.logdet >= base.logdet
        assert adj.pd

    def test_logdet_dominates_mis_when_mis_is_psd(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            chain = ar_like(rng, 200, 3)
            try:
                base = mis(chain)
            except NoPositiveDefinitePartialSum:
                continue
            adj = misadj(chain)
            if base.pd:
                assert adj.logdet >= base.logdet


class TestSharedSpectrum:
    def test_estimates_carry_the_spectrum_of_sigma(self):
        pairs = LagPairSequence(ar_like(np.random.default_rng(27), 400, 3))
        for method in (mk, mis, misadj):
            est = method(pairs)
            np.testing.assert_array_equal(est.eigenvalues, np.linalg.eigvalsh(est.sigma))


class TestUisComponents:
    def test_matches_per_column_uis_bit_for_bit(self):
        rng = np.random.default_rng(40)
        n = 400
        chain = Chain(np.column_stack([
            np.full(n, 2.5),
            rng.standard_normal(n),
            ar_like(rng, n, 1, coef=0.95).values[:, 0],
            np.tile([1.0, -1.0], n // 2),
        ]))
        got = [(e.sigma2, e.t_n, e.degenerate) for e in uis_components(chain)]
        want = [(e.sigma2, e.t_n, e.degenerate)
                for e in (uis(chain.column(j)) for j in range(chain.p))]
        assert got == want
        # the constant column degenerates and the others stop at their own t_n
        assert got[0][2] and got[0][1] == -1
        assert len({t_n for _, t_n, _ in got[1:]}) == 3


class TestMk:
    def test_constant_chain_is_degenerate(self):
        est = mk(Chain(np.ones((12, 2))))
        assert est.degenerate and est.t_n == -1
        np.testing.assert_array_equal(est.sigma, np.zeros((2, 2)))
        assert not est.pd

    def test_univariate_truncation_matches_uis_exactly(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            chain = ar_like(rng, int(rng.integers(10, 150)), 1, coef=rng.uniform(-0.5, 0.9))
            u = uis(chain)
            k = mk(chain)
            assert k.t_n == u.t_n
            if not u.degenerate:
                assert k.sigma[0, 0] == u.sigma2

    def test_truncates_no_later_than_mis_on_average(self):
        params = Ar1Params.hadamard_fixture(4)
        t_mk, t_mis, ld_mk, ld_mis = [], [], [], []
        for r in range(25):
            pairs = LagPairSequence(ar1_simulate(params, 20_000, seed=1000 + r))
            k = mk(pairs)
            m = mis(pairs)
            t_mk.append(k.t_n)
            t_mis.append(m.t_n)
            ld_mk.append(k.logdet)
            ld_mis.append(m.logdet)
        assert np.mean(t_mk) <= np.mean(t_mis)
        assert np.mean(ld_mk) <= np.mean(ld_mis)


class TestConstantColumn:
    def _chain_with_constant_column(self):
        rng = np.random.default_rng(29)
        x = ar_like(rng, 400, 4).values.copy()
        x[:, 2] = 3.7
        return Chain(x)

    @pytest.mark.parametrize("method", [mis, misadj])
    def test_fails_before_any_pair(self, method):
        pairs = LagPairSequence(self._chain_with_constant_column())
        assert pairs.constant_columns == (2,)
        with pytest.raises(NoPositiveDefinitePartialSum, match=r"column c3 is constant"):
            method(pairs)
        assert len(pairs._pairs) == 0

    @pytest.mark.parametrize("method", [mis, misadj])
    def test_univariate_constant_chain(self, method):
        # the mean of ten copies of 1e10 + 0.1 rounds, so the centered
        # values are a nonzero constant; the scan used to accept the
        # resulting rounding-error "variance" as positive definite
        chain = Chain(np.full(10, 1e10 + 0.1))
        assert chain.mean[0] != 1e10 + 0.1
        pairs = LagPairSequence(chain)
        with pytest.raises(NoPositiveDefinitePartialSum, match=r"column c1 is constant"):
            method(pairs)
        assert len(pairs._pairs) == 0

    @pytest.mark.parametrize("method", [mis, misadj])
    def test_near_constant_column_fails_before_any_pair(self, method):
        # a column one ulp away from constant has a nonzero range, but its
        # variance is far below the relative floor of the lag-0 test
        x = self._chain_with_constant_column().values.copy()
        x[:, 2] = 1e10
        x[7, 2] = np.nextafter(1e10, np.inf)
        pairs = LagPairSequence(Chain(x))
        assert pairs.constant_columns == ()
        with pytest.raises(NoPositiveDefinitePartialSum, match=r"column c3 is near-constant"):
            method(pairs)
        assert len(pairs._pairs) == 0

    @pytest.mark.parametrize("method", [mis, misadj])
    def test_collinear_columns_fail_before_any_pair(self, method):
        rng = np.random.default_rng(30)
        x = ar_like(rng, 400, 4).values.copy()
        x[:, 3] = 0.2 * (x[:, 0] + x[:, 1])  # null vector (0.2, 0.2, 0, -1)
        pairs = LagPairSequence(Chain(x))
        with pytest.raises(NoPositiveDefinitePartialSum, match=r"column c4 is .* collinear"):
            method(pairs)
        assert len(pairs._pairs) == 0


# (chain seed, n, p) of an ar_like chain for the property tests
_chains = st.tuples(st.integers(0, 2**32 - 1), st.integers(60, 300), st.integers(1, 4))


def _outcome(method, chain):
    try:
        return method(chain)
    except NoPositiveDefinitePartialSum:
        return None


class TestUnitsDoNotMatter:
    @settings(max_examples=40, deadline=None)
    @given(spec=_chains, k=st.integers(-60, 60))
    def test_power_of_two_scaling(self, spec, k):
        # scaling the chain by 2**k scales every lag matrix by 4**k exactly,
        # so truncation, definiteness and the estimate's digits carry over
        seed, n, p = spec
        chain = ar_like(np.random.default_rng(seed), n, p)
        scaled = Chain(chain.values * 2.0**k)
        for method in (mis, misadj, mk):
            a = _outcome(method, chain)
            b = _outcome(method, scaled)
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.s_n, a.t_n, a.pd) == (b.s_n, b.t_n, b.pd)
                assert np.array_equal(b.sigma, a.sigma * 4.0**k)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=40, deadline=None)
    @given(spec=_chains, k=st.integers(511, 1020), column=st.integers(0, 3))
    def test_overflowing_units_raise_a_named_error(self, spec, k, column):
        # only column j is scaled; its values stay finite, but its variance
        # overflows at every n drawn (its sum of squares exceeds 4 * 4**511),
        # and near k = 1020 the sum behind its mean overflows as well
        seed, n, p = spec
        j = column % p
        values = ar_like(np.random.default_rng(seed), n, p).values.copy()
        values[:, j] *= 2.0**k
        huge = Chain(values)
        for method in (mis, misadj, mk, uis_components, sample_cov,
                       univariate_ess_components):
            with pytest.raises(MomentOverflowError) as info:
                method(huge)
            assert info.value.column == j
            assert str(info.value) == (f"the {info.value.moment} of column c{j + 1} "
                                       f"overflows; rescale the chain")
        with pytest.raises(MomentOverflowError, match=r"^the (mean|variance) of column c1 "):
            uis(huge.column(j))

    def test_tiny_units_estimate(self):
        # the former absolute floor rejected every truncated sum of this
        # chain once its values were of order 1e-7
        chain = ar1_simulate(Ar1Params.hadamard_fixture(4), 16_000, seed=3)
        tiny = Chain(chain.values * 1e-7)
        for method in (mis, misadj, mk):
            a = method(chain)
            b = method(tiny)
            assert (a.s_n, a.t_n) == (b.s_n, b.t_n)
            assert b.pd
            np.testing.assert_allclose(b.sigma, a.sigma * 1e-14, rtol=1e-9)


class TestDegenerateColumnsFailFast:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=40, deadline=None)
    @given(spec=_chains,
           kind=st.sampled_from(["collinear", "near-collinear", "constant", "huge constant"]),
           position=st.integers(0, 4), coef=st.tuples(st.floats(0.25, 4.0), st.floats(-4.0, 4.0)),
           noise=st.floats(0.0, 1e-8))
    def test_degenerate_column_raises_before_any_pair(self, spec, kind, position, coef,
                                                      noise):
        seed, n, p = spec
        rng = np.random.default_rng(seed)
        x = ar_like(rng, n, p).values
        if kind == "constant":
            col = np.full(n, coef[1])
        elif kind == "huge constant":
            col = np.full(n, 2.0**660)  # variance 0; the constant-column bound is ~2**620
        else:
            col = coef[0] * x[:, 0] + coef[1] * x[:, -1]
            if kind == "near-collinear":
                col = col + noise * np.std(col) * rng.standard_normal(n)
        x = np.insert(x, min(position, p), col, axis=1)
        for method in (mis, misadj):
            pairs = LagPairSequence(Chain(x))
            with pytest.raises(NoPositiveDefinitePartialSum):
                method(pairs)
            assert len(pairs._pairs) == 0


def _check_too_few_rows(chain):
    """mis, misadj and mk on a chain with few rows for its width.

    A truncated sum is C^T B C / n for the centred chain C and a 0/1 band
    B; on centred vectors every such band has at most 2(n - 1)/3 positive
    eigenvalues (checked for each n <= 64), so a wider chain has no
    positive definite truncated sum, and at p >= n gamma0 is singular too.
    The one exception is rounding: for even n the last truncated sum
    spans every lag, where the lags of a centred chain add up to the zero
    matrix, and the relative positive-definite test can pass what
    rounding leaves of it.
    """
    n, p = chain.n, chain.p
    possible = 3 * p <= 2 * (n - 1)
    for method in (mis, misadj):
        pairs = LagPairSequence(chain)
        try:
            est = method(pairs)
        except NoPositiveDefinitePartialSum:
            assert len(pairs._pairs) <= (0 if p >= n else n // 2)
            continue
        assert 0 <= est.s_n <= est.t_n <= pairs.max_index
        assert pd_from_eigenvalues(pairs.partial_sum_eigenvalues(est.s_n))
        if not possible:
            assert n % 2 == 0 and est.s_n == pairs.max_index
    est = mk(chain)
    assert -1 <= est.t_n <= pairs.max_index
    if p >= n:
        assert est.degenerate and not est.pd
    elif not possible and est.pd:
        assert est.degenerate or (n % 2 == 0 and est.t_n == pairs.max_index)


class TestShortAndWideChains:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), p=st.integers(1, 4),
           coef=st.sampled_from([0.0, 0.7, -0.5]))
    def test_fewer_than_four_rows(self, seed, n, p, coef):
        chain = ar_like(np.random.default_rng(seed), n, p, coef)
        if n == 1:
            for method in (mis, misadj, mk, uis_components):
                with pytest.raises(ValueError, match="needs n >= 2"):
                    method(chain)
            return
        for est in uis_components(chain):
            assert est.t_n in (-1, 0) and np.isfinite(est.sigma2)
        _check_too_few_rows(chain)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 64),
           coef=st.sampled_from([0.0, 0.7, -0.5, 0.95]), data=st.data())
    def test_at_least_half_as_many_columns_as_rows(self, seed, n, coef, data):
        p = data.draw(st.integers(-(-n // 2), n + 2), label="p")
        _check_too_few_rows(ar_like(np.random.default_rng(seed), n, p, coef))


class TestEquivariance:
    def test_permutation(self):
        rng = np.random.default_rng(26)
        chain = ar_like(rng, 150, 3)
        perm = [2, 0, 1]
        permuted = Chain(chain.values[:, perm])
        for method in (mis, misadj, mk):
            a = method(chain)
            b = method(permuted)
            assert (a.s_n, a.t_n) == (b.s_n, b.t_n)
            np.testing.assert_allclose(
                b.sigma, a.sigma[np.ix_(perm, perm)], atol=1e-12
            )

    def test_diagonal_scaling(self):
        # congruence scaling shifts every log-det by a constant, so the
        # truncation indices never move; mis and mk rescale exactly.  The
        # misadj eigenvalue clamp is not congruence-equivariant, so its
        # matrix only rescales exactly when no pair inside the run needs
        # clamping.
        rng = np.random.default_rng(27)
        chain = ar_like(rng, 150, 3)
        d = np.array([2.0, 0.5, 7.0])
        scaled = Chain(chain.values * d)
        dd = np.outer(d, d)
        for method in (mis, misadj, mk):
            a = method(chain)
            b = method(scaled)
            assert (a.s_n, a.t_n) == (b.s_n, b.t_n)
            if method is not misadj:
                np.testing.assert_allclose(b.sigma, a.sigma * dd, rtol=1e-10)

    def test_diagonal_scaling_misadj_without_clamping(self):
        rng = np.random.default_rng(28)
        d = np.array([3.0, 0.25])
        checked = 0
        for _ in range(40):
            chain = ar_like(rng, int(rng.integers(40, 200)), 2)
            try:
                base = mis(chain)
            except NoPositiveDefinitePartialSum:
                continue
            pairs = LagPairSequence(chain)
            if any(
                np.linalg.eigvalsh(pairs.pair(i))[0] < 0
                for i in range(base.s_n + 1, base.t_n + 1)
            ):
                continue
            a = misadj(chain)
            b = misadj(Chain(chain.values * d))
            assert (a.s_n, a.t_n) == (b.s_n, b.t_n)
            np.testing.assert_allclose(b.sigma, a.sigma * np.outer(d, d), rtol=1e-10)
            checked += 1
        assert checked >= 5


def test_short_chains_rejected():
    with pytest.raises(ValueError):
        mis(Chain([1.0]))
    with pytest.raises(ValueError):
        uis(Chain([1.0]))


def test_sixty_five_dimensional_pipeline():
    # the high-dimensional regime the toolkit must support: a 21-group
    # random effects posterior (p = 65) through the full estimate path
    from chainvar import (
        ellipsoid_region,
        ess,
        gibbs_random_effects,
        min_univariate_ess,
        simulate_dataset,
    )

    y = simulate_dataset(21, seed=4)
    chain = gibbs_random_effects(y, n=20_000, seed=5)
    assert chain.p == 65
    pairs = LagPairSequence(chain)
    base = mis(pairs)
    adj = misadj(pairs)
    assert base.pd and adj.pd
    assert adj.logdet >= base.logdet
    value = ess(chain.n, pairs.gamma0, adj.sigma)
    assert 0 < value < chain.n
    assert min_univariate_ess(chain) < value
    region = ellipsoid_region(chain.mean, adj.sigma, chain.n, 0.1)
    assert region.contains(chain.mean)
    assert region.volume > 0.0 and region.volume_root > 0.0
