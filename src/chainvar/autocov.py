"""Empirical autocovariances of a chain: single lags, and the adjacent-pair
sums and truncated long-run covariance sums of :class:`LagPairSequence`."""

from __future__ import annotations

import numpy as np

from ._blas import single_threaded_blas
from .chain import Chain
from .symmat import eigenvalues_sym, symmetrize


class MomentOverflowError(ValueError):
    """A chain's mean or lag-0 autocovariance overflows double precision.

    Its values are finite, but too large in magnitude for their products
    (or their sum) to be represented; rescale the chain.
    """


def _centered(chain: Chain) -> np.ndarray:
    return chain.values - chain.mean


def _locked(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _cross_lag(centered: np.ndarray, t: int) -> np.ndarray:
    # (1/n) sum_{i=1}^{n-t} c_i c_{i+t}^T with divisor n, not n - t; the
    # telescoping of the truncated sums below relies on this normalization.
    n = centered.shape[0]
    if centered.shape[1] == 1:
        # one column is a dot product, whose threaded form splits the sum
        # and so gives last digits that depend on the BLAS thread count
        with single_threaded_blas():
            return centered[: n - t].T @ centered[t:] / n
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
    A chain whose mean or lag-0 autocovariance overflows raises
    :class:`MomentOverflowError`, naming the first such column, before
    any pair is built.

    All matrices returned are exactly symmetric.  Their eigenvalues are
    computed at most once each, on request.  Materialization is not
    thread-safe; confine one instance to one thread.
    """

    def __init__(self, chain: Chain) -> None:
        self.n = chain.n
        self.p = chain.p
        self.max_index = chain.n // 2 - 1  # largest pair index, floor(n/2 - 1)
        # finite values can still overflow their sum, their centering or
        # their squares; that is reported below by column, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            mean = chain.mean
            if not np.isfinite(mean).all():
                j = int(np.argmin(np.isfinite(mean)))
                raise MomentOverflowError(f"the mean of column c{j + 1} overflows; "
                                          f"rescale the chain")
            self._centered = _centered(chain)
            g0 = symmetrize(_cross_lag(self._centered, 0))
        if not np.isfinite(g0).all():
            # by Cauchy-Schwarz a cross product overflows only where one of
            # its two variances does, so the diagonal names the column
            j = int(np.argmin(np.isfinite(np.diagonal(g0))))
            raise MomentOverflowError(f"the variance of column c{j + 1} overflows; "
                                      f"rescale the chain")
        self._gamma0 = _locked(g0)
        # A constant column's centered value is the rounding error of its
        # mean, within n * eps * |mean| (the sequential-summation bound;
        # pairwise summation does better), so only columns with a variance
        # that small need the exact zero-range test.  The bound is compared
        # with the standard deviation, since its square may overflow.
        bound = 2.0 * self.n * np.finfo(np.float64).eps * np.abs(mean)
        suspects = np.flatnonzero(np.sqrt(np.diagonal(g0)) <= bound)
        self.constant_columns = tuple(
            int(j) for j in suspects if np.ptp(self._centered[:, j]) == 0.0
        )
        self._pairs: list[np.ndarray] = []
        self._partials: list[np.ndarray] = []
        self._gamma0_w: np.ndarray | None = None
        self._partial_w: dict[int, np.ndarray] = {}

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
        return symmetrize(_cross_lag(self._centered, t))

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
