"""Empirical autocovariances of a chain: single lags, and the adjacent-pair
sums and truncated long-run covariance sums of :class:`LagPairSequence`."""

from __future__ import annotations

import numpy as np

from .chain import Chain
from .symmat import symmetrize


def _centered(chain: Chain) -> np.ndarray:
    return chain.values - chain.mean


def _cross_lag(centered: np.ndarray, t: int) -> np.ndarray:
    # (1/n) sum_{i=1}^{n-t} c_i c_{i+t}^T with divisor n, not n - t; the
    # telescoping of the truncated sums below relies on this normalization.
    n = centered.shape[0]
    return centered[: n - t].T @ centered[t:] / n


def autocov(chain: Chain, t: int) -> np.ndarray:
    """Lag-t empirical autocovariance matrix (divisor n).

    Generally nonsymmetric for t >= 1; the lag-0 matrix is symmetric
    positive semi-definite by its Gram structure.
    """
    if not 0 <= t <= chain.n - 1:
        raise ValueError(f"lag t={t} out of range [0, {chain.n - 1}]")
    raw = _cross_lag(_centered(chain), t)
    return symmetrize(raw) if t == 0 else raw


class LagPairSequence:
    """Lazily materialized pair sums and their running totals for one chain.

    Pair i is the sum of the symmetrized lag-(2i) and lag-(2i+1)
    autocovariances; the m-th partial sum is ``-gamma0 + 2 * (pairs 0..m)``
    and satisfies ``partial_sum(m) == partial_sum(m-1) + 2 * pair(m)``
    exactly, because each entry is produced by that very accumulation.

    ``constant_columns`` lists, in ascending order, the columns whose
    centered values all coincide.  Each is a null direction of every lag
    matrix, so no truncated sum of such a chain is positive definite.

    All matrices returned are exactly symmetric.  Materialization is not
    thread-safe; confine one instance to one thread.
    """

    def __init__(self, chain: Chain) -> None:
        self.n = chain.n
        self.p = chain.p
        self.max_index = chain.n // 2 - 1  # largest pair index, floor(n/2 - 1)
        self._centered = _centered(chain)
        g0 = symmetrize(_cross_lag(self._centered, 0))
        g0.setflags(write=False)
        self._gamma0 = g0
        # A constant column's centered value is the rounding error of its
        # mean, within n * eps * |mean| (the sequential-summation bound;
        # pairwise summation does better), so only columns with a variance
        # that small need the exact zero-range test.
        bound = 2.0 * self.n * np.finfo(np.float64).eps * np.abs(chain.mean)
        suspects = np.flatnonzero(np.diagonal(g0) <= bound * bound)
        self.constant_columns = tuple(
            int(j) for j in suspects if np.ptp(self._centered[:, j]) == 0.0
        )
        self._pairs: list[np.ndarray] = []
        self._partials: list[np.ndarray] = []

    @property
    def gamma0(self) -> np.ndarray:
        """The lag-0 autocovariance (symmetric PSD)."""
        return self._gamma0

    def _sym_lag(self, t: int) -> np.ndarray:
        if t == 0:
            return self._gamma0
        return symmetrize(_cross_lag(self._centered, t))

    def pair(self, i: int) -> np.ndarray:
        """Pair sum i: symmetrized lag-(2i) plus lag-(2i+1), 0 <= i <= max_index."""
        if not 0 <= i <= self.max_index:
            raise ValueError(f"pair index i={i} out of range [0, {self.max_index}]")
        while len(self._pairs) <= i:
            k = len(self._pairs)
            mat = self._sym_lag(2 * k) + self._sym_lag(2 * k + 1)
            mat.setflags(write=False)
            self._pairs.append(mat)
        return self._pairs[i]

    def partial_sum(self, m: int) -> np.ndarray:
        """Truncated long-run covariance sum: -gamma0 plus twice pairs 0..m."""
        if not 0 <= m <= self.max_index:
            raise ValueError(f"index m={m} out of range [0, {self.max_index}]")
        while len(self._partials) <= m:
            k = len(self._partials)
            prev = self._partials[k - 1] if k else -self._gamma0
            total = prev + 2.0 * self.pair(k)
            total.setflags(write=False)
            self._partials.append(total)
        return self._partials[m]
