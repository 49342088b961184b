"""Long-run covariance estimators for reversible-sampler output.

Four estimators of the covariance matrix appearing in the Markov chain
CLT for the vector of sample means:

* ``uis``    -- Geyer's univariate initial positive sequence estimator
                (scalar chains only): keep adding pair sums while they
                stay positive.
* ``mis``    -- multivariate initial sequence estimator: start from the
                first positive definite truncated sum and extend it while
                the determinant strictly increases.
* ``misadj`` -- same truncation as ``mis`` with each added pair replaced
                by its positive part, so the result is positive definite
                and never smaller (in determinant) than ``mis``.
* ``mk``     -- Kosorok-style truncation at the last pair sum that is
                still positive definite (the same relative test as
                ``mis``).

``uis_components`` runs ``uis`` on each coordinate of a multivariate chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ._blas import single_threaded_blas
from .autocov import LagPairSequence, MomentOverflowError
from .chain import Chain
from .symmat import (
    eigen_sym,
    eigenvalues_sym,
    pd_from_eigenvalues,
    positive_part,
    signed_logdet,
)

ChainOrPairs = Union[Chain, LagPairSequence]


class NoPositiveDefinitePartialSum(RuntimeError):
    """No truncated covariance sum is positive definite.

    Either the run is too short or the chain is degenerate, for instance
    because one of its columns is constant or collinear with others.
    """


@dataclass(frozen=True)
class MvEstimate:
    """A multivariate long-run covariance estimate.

    ``s_n`` is the first index whose truncated sum is positive definite
    (None for methods that do not search for it), ``t_n`` the truncation
    index actually used, ``logdet`` the log of |det sigma|, ``pd``
    whether ``sigma`` passed the positive-definite test, and
    ``eigenvalues`` the ascending spectrum of ``sigma``.  Degenerate
    results (no usable truncation; ``t_n == -1`` and ``sigma`` falls back
    to the lag-0 autocovariance) are flagged rather than raised so that
    replication harnesses can aggregate and filter them.
    """

    method: str
    sigma: np.ndarray
    s_n: int | None
    t_n: int
    logdet: float
    pd: bool
    degenerate: bool = False
    eigenvalues: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class UvEstimate:
    """A univariate long-run variance estimate with its truncation index."""

    sigma2: float
    t_n: int
    degenerate: bool = False

    @property
    def usable(self) -> bool:
        """Whether the estimate can scale an interval: not degenerate, and positive."""
        return not self.degenerate and self.sigma2 > 0.0


def _pairs_for(chain: ChainOrPairs, method: str) -> LagPairSequence:
    pairs = chain if isinstance(chain, LagPairSequence) else LagPairSequence(chain)
    if pairs.max_index < 0:
        raise ValueError(f"{method} needs n >= 2, got n={pairs.n}")
    return pairs


def _estimate(method: str, sigma: np.ndarray, s_n: int | None, t_n: int,
              w: np.ndarray | None = None) -> MvEstimate:
    """An estimate of ``sigma``, whose ascending eigenvalues are ``w`` if known."""
    if w is None:
        w = eigenvalues_sym(sigma)
    _, logabs = signed_logdet(w)
    return MvEstimate(method, sigma, s_n, t_n, logabs, pd_from_eigenvalues(w),
                      degenerate=t_n < 0, eigenvalues=w)


def _scan_initial_sequence(pairs: LagPairSequence) -> tuple[int, int]:
    """Shared mis/misadj truncation scan.

    Returns (s_n, t_n).  The run starts at a positive definite sum, so
    the best determinant so far is always positive, and a later sum
    extends the run only when its determinant is positive and larger.  A
    chain with a constant column, or whose lag-0 autocovariance fails the
    positive-definite test, fails before any pair is materialized: a null
    vector of gamma0 is a null vector of every lag matrix.  Spectra come from ``pairs``, which computes each
    once, so a second scan of the same sequence decomposes nothing.
    """
    if pairs.constant_columns:
        raise NoPositiveDefinitePartialSum(
            f"column c{pairs.constant_columns[0] + 1} is constant, so no "
            f"truncated covariance sum can be positive definite"
        )
    if not pd_from_eigenvalues(pairs.gamma0_eigenvalues):
        spec = eigen_sym(pairs.gamma0)
        j = int(np.argmax(np.abs(spec.eigenvectors[:, 0])))
        raise NoPositiveDefinitePartialSum(
            f"the lag-0 autocovariance is singular (eigenvalues "
            f"{spec.eigenvalues[0]:.3e} to {spec.eigenvalues[-1]:.3e}); column "
            f"c{j + 1} is near-constant or collinear with other columns, so no "
            f"truncated covariance sum can be positive definite"
        )
    s_n = next((m for m in range(pairs.max_index + 1)
                if pd_from_eigenvalues(pairs.partial_sum_eigenvalues(m))), None)
    if s_n is None:
        raise NoPositiveDefinitePartialSum(
            f"no truncated covariance sum is positive definite for "
            f"m in [0, {pairs.max_index}]; the chain (n={pairs.n}) is too short"
        )
    t_n = s_n
    _, best = signed_logdet(pairs.partial_sum_eigenvalues(s_n))
    for m in range(s_n + 1, pairs.max_index + 1):
        sign, logabs = signed_logdet(pairs.partial_sum_eigenvalues(m))
        if not (sign > 0 and logabs > best):
            break
        t_n = m
        best = logabs
    return s_n, t_n


def mis(chain: ChainOrPairs) -> MvEstimate:
    """Multivariate initial sequence estimate.

    Raises :class:`NoPositiveDefinitePartialSum` when no truncated sum is
    positive definite (existence is only guaranteed asymptotically).
    """
    pairs = _pairs_for(chain, "mis")
    s_n, t_n = _scan_initial_sequence(pairs)
    return _estimate("mis", pairs.partial_sum(t_n), s_n, t_n,
                     pairs.partial_sum_eigenvalues(t_n))


def misadj(chain: ChainOrPairs) -> MvEstimate:
    """Adjusted multivariate initial sequence estimate.

    Uses the same (s_n, t_n) as :func:`mis` but adds the positive part of
    each pair beyond s_n, so the estimate is positive definite and its
    determinant is at least that of ``mis`` whenever ``mis`` is PSD.
    """
    pairs = _pairs_for(chain, "misadj")
    s_n, t_n = _scan_initial_sequence(pairs)
    sigma = pairs.partial_sum(s_n).copy()
    for i in range(s_n + 1, t_n + 1):
        sigma = sigma + 2.0 * positive_part(pairs.pair(i))
    return _estimate("misadj", sigma, s_n, t_n)


def mk(chain: ChainOrPairs) -> MvEstimate:
    """Smallest-eigenvalue truncation estimate.

    Truncates at the largest m such that every pair sum with index in
    {0, ..., m} passes the positive-definite test; vetting the first pair
    too matches the univariate rule, and for p = 1 the test is exactly
    positivity.  When the first pair already fails, the result is a
    degenerate fallback to the lag-0 autocovariance with ``t_n == -1``.
    """
    pairs = _pairs_for(chain, "mk")
    t_n = -1
    for i in range(pairs.max_index + 1):
        if not pd_from_eigenvalues(eigenvalues_sym(pairs.pair(i))):
            break
        t_n = i
    if t_n < 0:
        return _estimate("mk", pairs.gamma0, None, t_n, pairs.gamma0_eigenvalues)
    return _estimate("mk", pairs.partial_sum(t_n), None, t_n,
                     pairs.partial_sum_eigenvalues(t_n))


def _uis_scan(centered: np.ndarray, column: int) -> UvEstimate:
    """Initial positive sequence scan of one contiguous centered column.

    Each lag and sum is the scalar form of the one-column
    :class:`LagPairSequence`'s (the same operations in the same order),
    so the estimate is bit-for-bit that of its pairs and partial sums.
    Run under :func:`single_threaded_blas`, as every one-column lag is.
    """
    n = centered.shape[0]
    if n < 2:
        raise ValueError(f"uis needs n >= 2, got n={n}")

    def sym_lag(t: int) -> float:
        v = float(np.dot(centered[: n - t], centered[t:]) / n)
        return (v + v) / 2.0

    with np.errstate(over="ignore"):
        gamma0 = sym_lag(0)
    if not math.isfinite(gamma0):
        raise MomentOverflowError("variance", column)
    pair = gamma0 + sym_lag(1)
    if not pair > 0.0:
        return UvEstimate(gamma0, -1, degenerate=True)
    t_n, partial = 0, -gamma0 + 2.0 * pair
    for i in range(1, n // 2):
        pair = sym_lag(2 * i) + sym_lag(2 * i + 1)
        if not pair > 0.0:
            break
        t_n, partial = i, partial + 2.0 * pair
    return UvEstimate(partial, t_n)


def _centered_column(values: np.ndarray, column: int) -> np.ndarray:
    """A contiguous copy of one column, centered as its one-column chain is."""
    x = values[:, column: column + 1].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        if not np.isfinite(mean[0]):
            raise MomentOverflowError("mean", column)
        return (x - mean).ravel()


def uis(chain: ChainOrPairs) -> UvEstimate:
    """Initial positive sequence estimate of the long-run variance (p = 1).

    Stops adding pair sums at the first non-positive one; the degenerate
    case (the very first pair is already non-positive) falls back to the
    lag-0 autocovariance with ``t_n == -1``.
    """
    if chain.p != 1:
        raise ValueError(f"uis requires a univariate chain, got p={chain.p}")
    with single_threaded_blas():
        if isinstance(chain, LagPairSequence):
            return _uis_scan(chain._centered[:, 0], 0)
        return _uis_scan(_centered_column(chain.values, 0), 0)


def uis_components(chain: Chain) -> list[UvEstimate]:
    """:func:`uis` applied to each coordinate of a chain in turn.

    Each coordinate gets its own scan and stops at its own ``t_n``; only
    lag products of that one column are computed, never p-by-p lags.  A
    coordinate whose moments overflow raises :class:`MomentOverflowError`
    naming its column of ``chain``.
    """
    with single_threaded_blas():
        return [_uis_scan(_centered_column(chain.values, j), j) for j in range(chain.p)]


# Estimators of the full p-by-p long-run covariance, by method name.
MULTIVARIATE = {"mk": mk, "mis": mis, "misadj": misadj}
METHODS = ("uis", *MULTIVARIATE)
