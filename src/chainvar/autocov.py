"""Empirical autocovariances of a chain: single lags, and the adjacent-pair
sums and truncated long-run covariance sums of :class:`LagPairSequence`."""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np

from ._blas import single_threaded_blas
from .chain import Chain, _StoredChain
from .symmat import eigenvalues_sym, symmetrize

# A lag product of p >= 2 columns is summed over blocks of
# _LAG_BLOCK_CELLS // p**2 rows: OpenBLAS takes its small-matrix path for
# p**2 * rows up to about 1e6, 2-3x faster per row than its regular GEMM.
# A block of fewer than _MIN_LAG_BLOCK_ROWS rows costs more per call than it
# saves, so where the rule gives one each lag is one product.
_LAG_BLOCK_CELLS = 1 << 19
_MIN_LAG_BLOCK_ROWS = 64


class MomentOverflowError(ValueError):
    """A chain's mean or lag-0 autocovariance overflows double precision.

    Its values are finite, but too large in magnitude for their products
    (or their sum) to be represented; rescale the chain.  ``moment`` is
    ``"mean"`` or ``"variance"`` and ``column`` the 0-based index of the
    first column whose moment overflows.
    """

    def __init__(self, moment: str, column: int) -> None:
        super().__init__(moment, column)
        self.moment, self.column = moment, column

    def __str__(self) -> str:
        return (f"the {self.moment} of column c{self.column + 1} overflows; "
                f"rescale the chain")


def _locked(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _block_rows(n: int, p: int, t: int) -> int:
    """The rows of each block product of the lag-t sum of an n-by-p chain."""
    rows = _LAG_BLOCK_CELLS // (p * p)
    if p > 1 and _MIN_LAG_BLOCK_ROWS <= rows < n - t:
        return rows
    # one column is a dot product, whose threaded form splits the sum and so
    # gives last digits that depend on the BLAS thread count; a lag that
    # fits in one block is the one product
    return n - t


def _pass_lags(p: int) -> int:
    """The lags each pass over a stored chain of p columns computes after
    the first, which computes half as many, from gamma0 on.

    A pass reads and centres the rows once for all its lags, at the cost
    of about 28 / p lag products (2 at p = 12 and 0.45 at p = 65, measured
    on 1e6- and 2e4-row chains), and the lags past the scan's stop are
    wasted.  Passes of k lags for a scan that needs T more lags cost about
    T / k reads and k / 2 wasted lags, least at k = sqrt(2 T 28 / p); with
    T = 8 that is 4 sqrt(28 / p), taken to a multiple of 4 so that every
    pass, the first too, computes whole pairs.
    """
    return 4 * max(1, round(math.sqrt(28 / p)))


def _lag_sums(windows, n: int, p: int, lags) -> list[np.ndarray]:
    """The lag-t autocovariance of each t in ``lags``, from windows of centered rows.

    Each is (1/n) sum_{i=1}^{n-t} c_i c_{i+t}^T, with divisor n, not n - t;
    the telescoping of the truncated sums below relies on this
    normalization.  The sum is taken over consecutive row blocks [a, b) of
    :func:`_block_rows` rows, added in row order.  ``windows`` yields
    ``(s, e, w)`` in row order, where ``w`` holds the centered rows s to
    min(e + max(lags), n) and s is a multiple of each lag's block rows; the
    blocks that start in [s, e) are taken from ``w``.
    """
    totals: dict[int, np.ndarray] = {}
    with single_threaded_blas() if p == 1 else nullcontext():
        for s, e, w in windows:
            for t in lags:
                m = n - t
                rows = _block_rows(n, p, t)
                for a in range(s, min(e, m), rows):
                    b = min(a + rows, m)
                    block = w[a - s:b - s].T @ w[a - s + t:b - s + t]
                    if t in totals:
                        totals[t] += block
                    else:
                        totals[t] = block
    return [totals[t] / n for t in lags]


def _cross_lag(centered: np.ndarray, t: int) -> np.ndarray:
    """The lag-t autocovariance of the centered rows of a chain held in memory."""
    n, p = centered.shape
    return _lag_sums(((0, n, centered),), n, p, (t,))[0]


def autocov(chain: Chain, t: int) -> np.ndarray:
    """Lag-t empirical autocovariance matrix (divisor n).

    Generally nonsymmetric for t >= 1; the lag-0 matrix is symmetric
    positive semi-definite by its Gram structure.  At every lag, a mean or
    variance that overflows raises :class:`MomentOverflowError`.
    """
    if not 0 <= t <= chain.n - 1:
        raise ValueError(f"lag t={t} out of range [0, {chain.n - 1}]")
    _, centered, g0 = _lag0(chain)
    return g0 if t == 0 else _cross_lag(centered, t)


def _checked_mean(chain: Chain | _StoredChain) -> np.ndarray:
    mean = chain.mean
    if not np.isfinite(mean).all():
        raise MomentOverflowError("mean", int(np.argmin(np.isfinite(mean))))
    return mean


def _check_variance(g0: np.ndarray) -> None:
    if not np.isfinite(g0).all():
        # by Cauchy-Schwarz a cross product overflows only where one of
        # its two variances does, so the diagonal names the column
        raise MomentOverflowError("variance", int(np.argmin(np.isfinite(np.diagonal(g0)))))


def _lag0(chain: Chain, in_place: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mean, the centered values and the symmetrized lag-0 autocovariance.

    Finite values can still overflow their sum, their centering or their
    squares; that raises :class:`MomentOverflowError` naming the first such
    column, never a numpy warning.  ``in_place`` centers the chain's own
    buffer, with the same bits, and locks it again; its mean is cached first.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _checked_mean(chain)
        if in_place:
            centered = chain.values
            centered.setflags(write=True)
            np.subtract(centered, mean, out=centered)
            centered.setflags(write=False)
        else:
            centered = chain.values - mean
        g0 = symmetrize(_cross_lag(centered, 0))
    _check_variance(g0)
    return mean, centered, g0


def _constant_columns(windows, columns) -> tuple[int, ...]:
    """Those of ``columns`` whose centered values in ``windows`` all coincide."""
    lo = np.full(len(columns), np.inf)
    hi = -lo
    for _, _, w in windows:
        for k, j in enumerate(columns):
            lo[k] = min(lo[k], w[:, j].min())
            hi[k] = max(hi[k], w[:, j].max())
    return tuple(int(j) for j, a, b in zip(columns, lo, hi) if a == b)


class LagPairSequence:
    """Lazily materialized pair sums and their running totals for one chain.

    Pair i is the sum of the symmetrized lag-(2i) and lag-(2i+1)
    autocovariances; the m-th partial sum is ``-gamma0 + 2 * (pairs 0..m)``
    and satisfies ``partial_sum(m) == partial_sum(m-1) + 2 * pair(m)``
    exactly, because each entry is produced by that very accumulation.

    ``constant_columns`` lists, in ascending order, the columns whose
    centered values all coincide.  Each is a null direction of every lag
    matrix, so no truncated sum of such a chain is positive definite.
    A chain whose mean or lag-0 autocovariance overflows raises
    :class:`MomentOverflowError`, naming the first such column, before
    any pair is built.

    All matrices returned are exactly symmetric.  Their eigenvalues are
    computed at most once each, on request.  Materialization is not
    thread-safe; confine one instance to one thread.

    The chain is a :class:`Chain`, or a stored chain read in passes of row
    blocks, whose lags have the same bits.  A pass over a stored chain
    computes :func:`_pass_lags` lags, and its first half as many with
    gamma0; where a lag is one product, the stored chain is read whole.
    """

    # whether construction centers the chain's own buffer (see _adopt)
    _in_place = False

    def __init__(self, chain: Chain | _StoredChain) -> None:
        self.n = chain.n
        self.p = chain.p
        self.max_index = chain.n // 2 - 1  # largest pair index, floor(n/2 - 1)
        self._lags: dict[int, np.ndarray] = {}
        if isinstance(chain, Chain):
            self._stored = None
            mean, self._centered, g0 = _lag0(chain, self._in_place)
        else:
            self._stored, self._centered = chain, None
            with np.errstate(over="ignore", invalid="ignore"):
                mean = _checked_mean(chain)
                self._compute(range(min(_pass_lags(self.p) // 2, self.n)))
                g0 = symmetrize(self._lags.pop(0))
            _check_variance(g0)
        self._gamma0 = _locked(g0)
        # A constant column's centered value is the rounding error of its
        # mean, within n * eps * |mean| (the sequential-summation bound;
        # pairwise summation does better), so only columns with a variance
        # that small need the exact zero-range test.  The bound is compared
        # with the standard deviation, since its square may overflow.
        bound = 2.0 * self.n * np.finfo(np.float64).eps * np.abs(mean)
        suspects = np.flatnonzero(np.sqrt(np.diagonal(g0)) <= bound)
        self.constant_columns = (_constant_columns(self._windows(), suspects)
                                 if suspects.size else ())
        self._pairs: list[np.ndarray] = []
        self._partials: list[np.ndarray] = []
        self._gamma0_w: np.ndarray | None = None
        self._partial_w: dict[int, np.ndarray] = {}

    def _windows(self, carry: int = 0):
        if self._centered is not None:
            return ((0, self.n, self._centered),)
        return self._stored._windows(_LAG_BLOCK_CELLS // (self.p * self.p), carry, center=True)

    def _compute(self, lags) -> None:
        """Compute ``lags``, in one pass over a stored chain's rows."""
        n, p = self.n, self.p
        if self._centered is None and any(_block_rows(n, p, t) == n - t for t in lags):
            self._centered = self._stored._centered_values()
        if self._centered is not None:
            self._lags.update((t, _cross_lag(self._centered, t)) for t in lags)
        else:
            self._lags.update(zip(lags, _lag_sums(self._windows(max(lags)), n, p, lags)))

    @classmethod
    def _adopt(cls, chain: Chain) -> "LagPairSequence":
        """The sequence of a chain its owner hands off, over the chain's own buffer.

        The buffer is centered in place instead of copied, so the chain holds
        centered values from then on; only its cached ``mean`` is still the
        raw chain's.  The numbers are those of ``LagPairSequence(chain)``.
        """
        seq = cls.__new__(cls)
        seq._in_place = True
        seq.__init__(chain)
        return seq

    @property
    def gamma0(self) -> np.ndarray:
        """The lag-0 autocovariance (symmetric PSD)."""
        return self._gamma0

    @property
    def gamma0_eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of :attr:`gamma0`, computed once."""
        if self._gamma0_w is None:
            self._gamma0_w = _locked(eigenvalues_sym(self._gamma0))
        return self._gamma0_w

    def partial_sum_eigenvalues(self, m: int) -> np.ndarray:
        """Ascending eigenvalues of ``partial_sum(m)``, computed once."""
        w = self._partial_w.get(m)
        if w is None:
            w = self._partial_w[m] = _locked(eigenvalues_sym(self.partial_sum(m)))
        return w

    def _sym_lag(self, t: int) -> np.ndarray:
        if t == 0:
            return self._gamma0
        if t not in self._lags:
            lags = 1 if self._centered is not None else _pass_lags(self.p)
            self._compute(range(t, min(t + lags, self.n)))
        return symmetrize(self._lags.pop(t))

    def pair(self, i: int) -> np.ndarray:
        """Pair sum i: symmetrized lag-(2i) plus lag-(2i+1), 0 <= i <= max_index."""
        if not 0 <= i <= self.max_index:
            raise ValueError(f"pair index i={i} out of range [0, {self.max_index}]")
        while len(self._pairs) <= i:
            k = len(self._pairs)
            self._pairs.append(_locked(self._sym_lag(2 * k) + self._sym_lag(2 * k + 1)))
        return self._pairs[i]

    def partial_sum(self, m: int) -> np.ndarray:
        """Truncated long-run covariance sum: -gamma0 plus twice pairs 0..m."""
        if not 0 <= m <= self.max_index:
            raise ValueError(f"index m={m} out of range [0, {self.max_index}]")
        while len(self._partials) <= m:
            k = len(self._partials)
            prev = self._partials[k - 1] if k else -self._gamma0
            self._partials.append(_locked(prev + 2.0 * self.pair(k)))
        return self._partials[m]
