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
* ``mk``     -- Kosorok-style truncation at the last pair sum whose
                smallest eigenvalue is still positive.

``uis_components`` runs ``uis`` on each coordinate of a multivariate chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .autocov import LagPairSequence
from .chain import Chain
from .symmat import (
    eigenvalues_sym,
    pd_from_eigenvalues,
    positive_part,
    signed_logdet,
    signed_logdet_greater,
)

ChainOrPairs = Union[Chain, LagPairSequence]


class NoPositiveDefinitePartialSum(RuntimeError):
    """No truncated covariance sum is positive definite; the run is too short."""


@dataclass(frozen=True)
class MvEstimate:
    """A multivariate long-run covariance estimate.

    ``s_n`` is the first index whose truncated sum is positive definite
    (None for methods that do not search for it), ``t_n`` the truncation
    index actually used, ``logdet`` the log of |det sigma|, and ``pd``
    whether ``sigma`` passed the positive-definite test.  Degenerate
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


@dataclass(frozen=True)
class UvEstimate:
    """A univariate long-run variance estimate with its truncation index."""

    sigma2: float
    t_n: int
    degenerate: bool = False


def _as_pairs(chain: ChainOrPairs) -> LagPairSequence:
    if isinstance(chain, LagPairSequence):
        return chain
    return LagPairSequence(chain)


def _require_pairs_available(pairs: LagPairSequence, method: str) -> None:
    if pairs.max_index < 0:
        raise ValueError(f"{method} needs n >= 2, got n={pairs.n}")


def _scan_initial_sequence(pairs: LagPairSequence) -> tuple[int, int, np.ndarray]:
    """Shared mis/misadj truncation scan.

    Returns (s_n, t_n, eigenvalues of the truncated sum at t_n).  The
    determinant run uses sign-aware comparisons so that a sum that loses
    definiteness mid-run is still compared correctly.
    """
    s_n = None
    w = None
    for m in range(pairs.max_index + 1):
        w = eigenvalues_sym(pairs.partial_sum(m))
        if pd_from_eigenvalues(w):
            s_n = m
            break
    if s_n is None:
        raise NoPositiveDefinitePartialSum(
            f"no truncated covariance sum is positive definite for "
            f"m in [0, {pairs.max_index}]; the chain (n={pairs.n}) is too short"
        )
    t_n = s_n
    best = signed_logdet(w)
    w_best = w
    for m in range(s_n + 1, pairs.max_index + 1):
        w = eigenvalues_sym(pairs.partial_sum(m))
        cur = signed_logdet(w)
        if not signed_logdet_greater(cur, best):
            break
        t_n = m
        best = cur
        w_best = w
    return s_n, t_n, w_best


def mis(chain: ChainOrPairs) -> MvEstimate:
    """Multivariate initial sequence estimate.

    Raises :class:`NoPositiveDefinitePartialSum` when no truncated sum is
    positive definite (existence is only guaranteed asymptotically).
    """
    pairs = _as_pairs(chain)
    _require_pairs_available(pairs, "mis")
    s_n, t_n, w = _scan_initial_sequence(pairs)
    sigma = pairs.partial_sum(t_n)
    _, logabs = signed_logdet(w)
    return MvEstimate("mis", sigma, s_n, t_n, logabs, pd_from_eigenvalues(w))


def misadj(chain: ChainOrPairs) -> MvEstimate:
    """Adjusted multivariate initial sequence estimate.

    Uses the same (s_n, t_n) as :func:`mis` but adds the positive part of
    each pair beyond s_n, so the estimate is positive definite and its
    determinant is at least that of ``mis`` whenever ``mis`` is PSD.
    """
    pairs = _as_pairs(chain)
    _require_pairs_available(pairs, "misadj")
    s_n, t_n, _ = _scan_initial_sequence(pairs)
    sigma = pairs.partial_sum(s_n).copy()
    for i in range(s_n + 1, t_n + 1):
        sigma = sigma + 2.0 * positive_part(pairs.pair(i))
    w = eigenvalues_sym(sigma)
    _, logabs = signed_logdet(w)
    return MvEstimate("misadj", sigma, s_n, t_n, logabs, pd_from_eigenvalues(w))


def mk(chain: ChainOrPairs) -> MvEstimate:
    """Smallest-eigenvalue truncation estimate.

    Truncates at the largest m such that every pair sum with index in
    {0, ..., m} has a strictly positive smallest eigenvalue; vetting the
    first pair too matches the univariate rule.  When the first pair
    already fails, the result is a degenerate fallback to the lag-0
    autocovariance with ``t_n == -1``.
    """
    pairs = _as_pairs(chain)
    _require_pairs_available(pairs, "mk")
    t_n = -1
    for i in range(pairs.max_index + 1):
        if not eigenvalues_sym(pairs.pair(i))[0] > 0.0:
            break
        t_n = i
    if t_n < 0:
        sigma = pairs.gamma0
        w = eigenvalues_sym(sigma)
        _, logabs = signed_logdet(w)
        return MvEstimate("mk", sigma, None, -1, logabs,
                          pd_from_eigenvalues(w), degenerate=True)
    sigma = pairs.partial_sum(t_n)
    w = eigenvalues_sym(sigma)
    _, logabs = signed_logdet(w)
    return MvEstimate("mk", sigma, None, t_n, logabs, pd_from_eigenvalues(w))


def uis(chain: ChainOrPairs) -> UvEstimate:
    """Initial positive sequence estimate of the long-run variance (p = 1).

    Stops adding pair sums at the first non-positive one; the degenerate
    case (the very first pair is already non-positive) falls back to the
    lag-0 autocovariance with ``t_n == -1``.
    """
    pairs = _as_pairs(chain)
    if pairs.p != 1:
        raise ValueError(f"uis requires a univariate chain, got p={pairs.p}")
    _require_pairs_available(pairs, "uis")
    if not float(pairs.pair(0)[0, 0]) > 0.0:
        return UvEstimate(float(pairs.gamma0[0, 0]), -1, degenerate=True)
    t_n = 0
    for i in range(1, pairs.max_index + 1):
        if not float(pairs.pair(i)[0, 0]) > 0.0:
            break
        t_n = i
    return UvEstimate(float(pairs.partial_sum(t_n)[0, 0]), t_n)


def uis_components(chain: Chain) -> list[UvEstimate]:
    """:func:`uis` applied to each coordinate of a chain in turn.

    Each coordinate gets its own scan and stops at its own ``t_n``; only
    lag products of that one column are computed, never p-by-p lags.
    """
    return [uis(chain.column(j)) for j in range(chain.p)]


# Estimators of the full p-by-p long-run covariance, by method name.
MULTIVARIATE = {"mk": mk, "mis": mis, "misadj": misadj}
METHODS = ("uis", *MULTIVARIATE)
