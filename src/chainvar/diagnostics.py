"""Effective sample size and confidence regions built from long-run covariance estimates.

The regions' chi-square and normal quantiles are computed with the
standard library, so a region needs no package beyond NumPy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .autocov import LagPairSequence, MomentOverflowError, autocov
from .chain import Chain, _StoredChain
from .estimators import MULTIVARIATE, MvEstimate, UvEstimate, uis_components
from .symmat import (
    NotPositiveDefiniteError,
    eigenvalues_sym,
    logdet_from_eigenvalues,
    logdet_pd,
    pd_from_eigenvalues,
)


def _check_prob(prob: float) -> float:
    prob = float(prob)
    if not 0.0 < prob < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {prob}")
    return prob


_STANDARD_NORMAL = NormalDist()


def normal_quantile(prob: float) -> float:
    """Inverse standard normal CDF, by Wichura's algorithm AS241
    (*Appl. Statist.* 37, 1988), as :meth:`statistics.NormalDist.inv_cdf`
    evaluates it."""
    return _STANDARD_NORMAL.inv_cdf(_check_prob(prob))


def _gamma_log_density(a: float, y: float) -> float:
    """log of y^(a-1) e^-y / Gamma(a), the density of a gamma(a) variable at y > 0.

    From a = 17 on it is taken as a Poisson log-probability in the form of
    Loader (2000): Stirling's error term and ``k log(k/y) + y - k`` for
    k = a - 1, which has no cancellation of terms the size of a log y.
    """
    k = a - 1.0
    if k < 16.0:
        return k * math.log(y) - y - math.lgamma(a)
    k2 = k * k
    stirling_error = (1/12 - (1/360 - (1/1260 - (1/1680 - 1/(1188 * k2)) / k2) / k2) / k2) / k
    return (-(stirling_error + k * math.log1p((k - y) / y) + y - k)
            - 0.5 * math.log(2.0 * math.pi * k))


def _upper_tail_ratio(a: float, y: float, log_density: float) -> float:
    """Q(a, y), the upper gamma tail, over the density at y, for an integer
    or half-integer a: a finite sum whose terms are 1, (a-1)/y,
    (a-1)(a-2)/y^2, ..., plus erfc(sqrt(y)) over the density for a half-integer a."""
    ratio, term, j = 0.0, 1.0, a - 1.0
    while j >= 0.0:
        ratio += term
        term *= j / y
        j -= 1.0
    erfc = math.erfc(math.sqrt(y)) if a % 1.0 else 0.0
    return ratio + math.exp(math.log(erfc) - log_density) if erfc else ratio


def _lower_tail_ratio(a: float, y: float) -> float:
    """P(a, y), the lower gamma tail, over the density at y: its series
    y/a * sum_k y^k / ((a+1)...(a+k))."""
    term = ratio = y / a
    k = 1.0
    while term > 1e-17 * ratio:
        term *= y / (a + k)
        ratio += term
        k += 1.0
    return ratio


def chisq_quantile(prob: float, dof: int) -> float:
    """Inverse chi-square CDF with an integer ``dof`` degrees of freedom.

    Halley's method on the log of a gamma tail of y = x/2, shape a = dof/2,
    started from the Wilson-Hilferty approximation.  For prob >= 1/2 it
    solves on the upper tail Q, a finite sum for integer dof; below, on
    the series of the lower tail P.  So the tail it solves on is the small
    one, which keeps its relative accuracy, and its log does not underflow.
    The tests hold it within 1e-13 relative of a reference inverse for
    dof up to 1000 (see the README).
    """
    prob = _check_prob(prob)
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if dof != int(dof):
        raise ValueError(f"degrees of freedom must be an integer, got {dof}")
    a = int(dof) / 2.0
    upper = prob >= 0.5
    # F = log(tail) - log(target) has F' = sign / ratio
    sign = -1.0 if upper else 1.0
    log_target = math.log1p(-prob) if upper else math.log(prob)
    h = 2.0 / (9.0 * dof)
    cube_root = 1.0 - h + normal_quantile(prob) * math.sqrt(h)
    if cube_root > 0.3:
        y = a * cube_root ** 3
    else:  # far in the lower tail, where P(a, y) ~ y^a / Gamma(a + 1)
        y = math.exp((log_target + math.lgamma(a + 1.0)) / a)
        if y == 0.0:
            return 0.0
    for _ in range(100):
        log_density = _gamma_log_density(a, y)
        ratio = _upper_tail_ratio(a, y, log_density) if upper else _lower_tail_ratio(a, y)
        newton = sign * ratio * (log_density + math.log(ratio) - log_target)
        # Halley's correction, from F'' / F' = (a - 1)/y - 1 - F'
        halley = 1.0 - 0.5 * newton * ((a - 1.0) / y - 1.0 - sign / ratio)
        step = newton / halley if halley > 0.5 else newton
        y = max(y - step, 0.5 * y)
        # convergence is cubic: after a step this small, only rounding is left
        if abs(step) <= 1e-8 * y:
            break
    return 2.0 * y


def sample_cov(chain: Chain) -> np.ndarray:
    """Sample covariance of the recorded values (divisor n; symmetric PSD).

    Raises :class:`MomentOverflowError` if the mean or a variance overflows.
    """
    return autocov(chain, 0)


def ess(n: int, lam: np.ndarray, sigma: np.ndarray) -> float:
    """Effective sample size, ``n * (det(lam) / det(sigma))**(1/p)``.

    ``lam`` is the target-scale covariance (usually the sample covariance)
    and ``sigma`` the long-run covariance of the mean; both must be
    positive definite.  Computed through log-determinants so that large p
    does not overflow.
    """
    lam = np.asarray(lam, dtype=np.float64)
    return _ess(n, lam.shape[0], logdet_pd(lam), logdet_pd(sigma))


def _ess(n: int, p: int, logdet_lam: float, logdet_sigma: float) -> float:
    """:func:`ess` from the two log-determinants."""
    return float(n * math.exp((logdet_lam - logdet_sigma) / p))


def univariate_ess_components(chain: Chain) -> list[float]:
    """Component-wise effective sample sizes from univariate truncation.

    Component i gets ``n * gamma0_ii / sigma2_i`` with ``gamma0`` the
    sample covariance and ``sigma2_i`` the univariate initial-sequence
    variance of that coordinate.  Components whose estimate is degenerate
    or non-positive come back as NaN.
    """
    return Analysis(chain).component_ess()


def min_univariate_ess(chain: Chain) -> float:
    """Minimum of the component-wise univariate effective sample sizes.

    Components whose univariate estimate is degenerate are excluded with
    a warning; if every component is degenerate a ValueError is raised.
    """
    return Analysis(chain).ess("uis")


@dataclass(frozen=True)
class Region:
    """A confidence region for the vector of means.

    ``kind`` is one of ``ellipsoid``, ``cube``, ``bonferroni-cube``.  An
    ellipsoid stores its covariance ``sigma`` and chi-square ``cutoff``;
    the cubes store per-component ``half_widths``.  Volumes are carried in
    log form; ``volume`` may underflow to 0.0 in extreme dimensions while
    ``volume_root`` (the p-th root) stays representable.
    """

    kind: str
    center: np.ndarray
    level: float
    n: int
    log_volume: float
    sigma: np.ndarray | None = field(default=None, repr=False)
    cutoff: float | None = None
    half_widths: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.center.shape[0]

    @property
    def volume(self) -> float:
        return math.exp(self.log_volume)

    @property
    def volume_root(self) -> float:
        """volume ** (1/p), the side of the volume-equivalent cube."""
        return math.exp(self.log_volume / self.p)

    def contains(self, x) -> bool:
        """Whether the point lies inside (or on the boundary of) the region."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.center.shape:
            raise ValueError(f"point shape {x.shape} != center shape {self.center.shape}")
        if self.kind == "ellipsoid":
            d = self.center - x
            q = float(self.n * d @ np.linalg.solve(self.sigma, d))
            return q <= self.cutoff
        return bool(np.all(np.abs(x - self.center) <= self.half_widths))


def ellipsoid_region(mu_n, sigma, n: int, alpha: float) -> Region:
    """Asymptotic confidence ellipsoid {x : n (mu-x)' sigma^{-1} (mu-x) <= cutoff}.

    ``cutoff`` is the chi-square quantile at 1 - alpha with p degrees of
    freedom; the volume is the unit-ball volume times
    ``(cutoff/n)**(p/2) * sqrt(det sigma)``.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    return _ellipsoid_region(mu_n, sigma, eigenvalues_sym(sigma), n, alpha)


def _ellipsoid_region(mu_n, sigma: np.ndarray, w: np.ndarray, n: int,
                      alpha: float) -> Region:
    """:func:`ellipsoid_region` for a ``sigma`` whose ascending eigenvalues are ``w``."""
    mu_n = np.asarray(mu_n, dtype=np.float64).reshape(-1)
    alpha = _check_prob(alpha)
    p = mu_n.shape[0]
    if not pd_from_eigenvalues(w):
        raise NotPositiveDefiniteError("ellipsoid region needs a positive definite sigma")
    cutoff = chisq_quantile(1.0 - alpha, p)
    log_volume = (
        0.5 * p * math.log(math.pi)
        - math.lgamma(0.5 * p + 1.0)
        + 0.5 * p * math.log(cutoff / n)
        + 0.5 * float(np.log(w).sum())
    )
    return Region("ellipsoid", mu_n, 1.0 - alpha, n, log_volume,
                  sigma=sigma, cutoff=cutoff)


def cube_region(mu_n, sigma_diag, n: int, alpha: float, bonferroni: bool = False) -> Region:
    """Axis-aligned region of per-component normal intervals.

    ``sigma_diag`` holds the per-component long-run standard deviations.
    Each side is ``mu_i +- z * sigma_i / sqrt(n)`` with z the standard
    normal quantile at ``1 - alpha/2`` or, with the Bonferroni correction,
    ``1 - alpha/(2p)``.
    """
    mu_n = np.asarray(mu_n, dtype=np.float64).reshape(-1)
    sigma_diag = np.asarray(sigma_diag, dtype=np.float64).reshape(-1)
    alpha = _check_prob(alpha)
    p = mu_n.shape[0]
    if sigma_diag.shape[0] != p:
        raise ValueError("sigma_diag length must match the center dimension")
    if not np.all(sigma_diag > 0.0):
        raise ValueError("per-component standard deviations must be positive")
    z = normal_quantile(1.0 - alpha / (2.0 * p)) if bonferroni else normal_quantile(1.0 - alpha / 2.0)
    half = z * sigma_diag / math.sqrt(n)
    log_volume = float(np.log(2.0 * half).sum())
    kind = "bonferroni-cube" if bonferroni else "cube"
    return Region(kind, mu_n, 1.0 - alpha, n, log_volume, half_widths=half)


class CenteredChainError(RuntimeError):
    """Work on a chain's raw columns after an analysis that owns the chain
    has centered it in place; a new analysis of a fresh chain can do it."""


class Analysis:
    """One chain's estimates, and the ESS and regions built from them.

    ``uis`` means the per-component univariate estimates, which give the
    smallest component-wise ESS and the cubes; any other method is a
    p-by-p estimate on the one shared :class:`LagPairSequence`, which
    gives the determinant ESS and the ellipsoid.  Each is computed once.

    The chain is a :class:`Chain` or a stored bin chain, which the
    sequence and the ``uis`` scans read in passes of row blocks.
    """

    def __init__(self, chain: Chain | _StoredChain) -> None:
        self.chain = chain
        self._estimates: dict[str, MvEstimate] = {}
        # whether the analysis owns its chain, and whether it may have
        # centered it in place
        self._owns_chain = self._centered = False

    @classmethod
    def _adopt(cls, chain: Chain) -> "Analysis":
        """The analysis of a chain its maker hands off and no one else holds.

        Its sequence centers the chain's buffer in place instead of copying
        it, so the chain is held once.  Work on raw columns must come first:
        afterwards it raises :class:`CenteredChainError`.  The chain's mean
        is cached before the centering, so the regions' centers keep their bits.
        """
        analysis = cls(chain)
        analysis._owns_chain = True
        return analysis

    @cached_property
    def pairs(self) -> LagPairSequence:
        if not self._owns_chain:
            return LagPairSequence(self.chain)
        # a failed first build may have centered the buffer already
        self._raw_chain()
        self._centered = True
        return LagPairSequence._adopt(self.chain)

    @cached_property
    def components(self) -> list[UvEstimate]:
        """The uis estimate of each column, from the raw columns.

        A moment overflow of the whole chain is named before one of a
        column scan, whichever column the scan meets first.
        """
        try:
            return uis_components(self._raw_chain())
        except MomentOverflowError:
            self.pairs
            raise

    def _raw_chain(self) -> Chain:
        """The chain, for work on its raw values, which must not be centered yet."""
        if self._centered:
            raise CenteredChainError(
                "the analysis has centered its chain in place; its raw columns are gone"
            )
        return self.chain

    @property
    def logdet_lambda(self) -> float:
        """Log-determinant of the lag-0 autocovariance, which must be PD."""
        return logdet_from_eigenvalues(self.pairs.gamma0_eigenvalues)

    def estimate(self, method: str) -> MvEstimate | UvEstimate:
        """The estimate by ``method``; ``uis`` needs a univariate chain."""
        if method == "uis":
            if self.chain.p != 1:
                raise ValueError(f"uis requires a univariate chain, got p={self.chain.p}")
            return self.components[0]
        if method not in self._estimates:
            self._estimates[method] = MULTIVARIATE[method](self.pairs)
        return self._estimates[method]

    def component_ess(self) -> list[float]:
        """See :func:`univariate_ess_components`."""
        components = self.components
        g0 = np.diagonal(self.pairs.gamma0)
        return [float(self.chain.n * (g0[j] / est.sigma2)) if est.usable else float("nan")
                for j, est in enumerate(components)]

    def ess(self, method: str) -> float:
        """:func:`ess` of a multivariate method; for ``uis``, :func:`min_univariate_ess`."""
        chain = self.chain
        if method != "uis":
            est = self.estimate(method)
            return _ess(chain.n, chain.p, self.logdet_lambda,
                        logdet_from_eigenvalues(est.eigenvalues))
        values = self.component_ess()
        usable = [v for v in values if not math.isnan(v)]
        if not usable:
            raise ValueError("every component has a degenerate univariate estimate")
        if len(usable) < len(values):
            skipped = [j for j, v in enumerate(values) if math.isnan(v)]
            warnings.warn(
                f"excluded degenerate components {skipped} from the univariate ESS minimum",
                RuntimeWarning,
                stacklevel=3,
            )
        return min(usable)

    def uis_sd(self) -> np.ndarray:
        """The uis long-run standard deviations; raises at an unusable component."""
        for j, est in enumerate(self.components):
            if not est.usable:
                raise ValueError(f"degenerate univariate estimate in component {j}")
        return np.sqrt([est.sigma2 for est in self.components])

    def region(self, method: str, kind: str, level: float) -> Region:
        """The ``ellipsoid`` of a multivariate method, or the ``cube`` or
        ``bonferroni`` cube of ``uis``, at ``level``."""
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {level}")
        chain, alpha = self.chain, 1.0 - level
        if kind == "ellipsoid":
            if method == "uis":
                raise ValueError("ellipsoid regions need a multivariate method")
            est = self.estimate(method)
            return _ellipsoid_region(chain.mean, est.sigma, est.eigenvalues, chain.n, alpha)
        if method != "uis":
            raise ValueError("cube regions are built from the uis method")
        # the scans name an overflow before the mean is read
        sd = self.uis_sd()
        return cube_region(chain.mean, sd, chain.n, alpha, bonferroni=kind == "bonferroni")
