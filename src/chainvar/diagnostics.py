"""Effective sample size and confidence regions built from long-run covariance estimates."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .autocov import autocov
from .chain import Chain
from .estimators import UvEstimate, uis_components
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


def chisq_quantile(prob: float, dof: int) -> float:
    """Inverse chi-square CDF with ``dof`` degrees of freedom."""
    prob = _check_prob(prob)
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    return float(stats.chi2.ppf(prob, dof))


def normal_quantile(prob: float) -> float:
    """Inverse standard normal CDF."""
    return float(stats.norm.ppf(_check_prob(prob)))


def sample_cov(chain: Chain) -> np.ndarray:
    """Sample covariance of the recorded values (divisor n; symmetric PSD)."""
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


def _univariate_ess(n: int, lam: np.ndarray, estimates: list[UvEstimate]) -> list[float]:
    """``n * (lam_jj / sigma2_j)`` per component; NaN where the estimate is unusable."""
    g0 = np.diag(lam)
    return [float(n * (g0[j] / est.sigma2)) if est.usable else float("nan")
            for j, est in enumerate(estimates)]


def univariate_ess_components(chain: Chain) -> list[float]:
    """Component-wise effective sample sizes from univariate truncation.

    Component i gets ``n * gamma0_ii / sigma2_i`` with ``gamma0`` the
    sample covariance and ``sigma2_i`` the univariate initial-sequence
    variance of that coordinate.  Components whose estimate is degenerate
    or non-positive come back as NaN.
    """
    return _univariate_ess(chain.n, sample_cov(chain), uis_components(chain))


def min_univariate_ess(chain: Chain) -> float:
    """Minimum of the component-wise univariate effective sample sizes.

    Components whose univariate estimate is degenerate are excluded with
    a warning; if every component is degenerate a ValueError is raised.
    """
    if chain.n < 2:
        raise ValueError("need n >= 2")
    values = univariate_ess_components(chain)
    usable = [v for v in values if not math.isnan(v)]
    if not usable:
        raise ValueError("every component has a degenerate univariate estimate")
    if len(usable) < len(values):
        skipped = [j for j, v in enumerate(values) if math.isnan(v)]
        warnings.warn(
            f"excluded degenerate components {skipped} from the univariate ESS minimum",
            RuntimeWarning,
            stacklevel=2,
        )
    return min(usable)


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
