"""Reversible vector AR(1) process with closed-form moments.

The process is ``X_{k+1} = A X_k + U_{k+1}`` with iid normal innovations
``U ~ N(theta, V)``.  It satisfies detailed balance exactly when ``A V``
is symmetric, and when the spectral radius of A is below one it has the
stationary law ``N((I-A)^{-1} theta, (I-A^2)^{-1} V)``.  This makes it the
one fixture with fully analytic lag autocovariances and long-run
covariance, so estimator output can be checked against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.signal import lfilter

from ..chain import Chain
from ..symmat import symmetrize
from ._rng import SeedLike, as_generator
from .hadamard import hadamard

_AV_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Ar1Params:
    """Coefficient matrix, innovation covariance, and innovation mean.

    Validated on construction: ``A V`` symmetric to 1e-12 (the
    detailed-balance condition) and spectral radius of A below one.  The
    decoupling of :func:`_modes` that the check computes is kept for
    :func:`ar1_truth` and :func:`ar1_simulate`.
    """

    A: np.ndarray
    V: np.ndarray
    theta: np.ndarray
    _decays: np.ndarray = field(init=False, repr=False, compare=False)
    _basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        V = np.atleast_2d(np.asarray(self.V, dtype=np.float64))
        theta = np.atleast_1d(np.asarray(self.theta, dtype=np.float64)).reshape(-1)
        p = A.shape[0]
        if A.shape != (p, p) or V.shape != (p, p) or theta.shape != (p,):
            raise ValueError(
                f"inconsistent shapes: A {A.shape}, V {V.shape}, theta {theta.shape}"
            )
        if not np.array_equal(V, V.T):
            raise ValueError("V must be exactly symmetric")
        if np.linalg.eigvalsh(V)[0] <= 0.0:
            raise ValueError("V must be positive definite")
        av = A @ V
        skew = np.abs(av - av.T).max()
        if skew > _AV_SYMMETRY_TOL * max(1.0, np.abs(av).max()):
            raise ValueError(
                f"A V must be symmetric for reversibility (max asymmetry {skew:.3e})"
            )
        d, basis = _modes(A, V)
        if np.abs(d).max() >= 1.0:
            raise ValueError(f"spectral radius of A must be < 1, got {np.abs(d).max()}")
        # every Ar1Truth of these params shares the two arrays
        d.setflags(write=False)
        basis.setflags(write=False)
        for name, value in (("A", A), ("V", V), ("theta", theta),
                            ("_decays", d), ("_basis", basis)):
            object.__setattr__(self, name, value)

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @classmethod
    def scalar(cls, a: float, v: float = 1.0, theta: float = 1.0) -> "Ar1Params":
        return cls(np.array([[a]]), np.array([[v]]), np.array([theta]))

    @classmethod
    def hadamard_fixture(cls, p: int) -> "Ar1Params":
        """The benchmark fixture: A = H diag(2^-1..2^-p) H' / p, V = I, theta = 1."""
        h = hadamard(p).astype(np.float64)
        decay = 0.5 ** np.arange(1, p + 1)
        a = (h * decay) @ h.T / p
        return cls(a, np.eye(p), np.ones(p))


def _modes(A: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize the process: return (d, B) with A = B diag(d) B^{-1}.

    ``B = L Q``, where L is the lower Cholesky factor of V and Q holds
    the (orthonormal) eigenvectors of the symmetric matrix L^{-1} A L:
    symmetry of that matrix is exactly the detailed-balance condition, so
    d is real.  In B-coordinates the process decouples into independent
    scalar recursions with unit innovation variance.
    """
    L = np.linalg.cholesky(V)
    m = solve_triangular(L, A @ L, lower=True)
    d, q = np.linalg.eigh(symmetrize(m))
    return d, L @ q


@dataclass(frozen=True)
class Ar1Truth:
    """Closed-form moments of the stationary process.

    ``mu`` is the stationary mean, ``C`` the stationary covariance, and
    ``Sigma`` the long-run covariance of the sample mean; the last two are
    assembled from ``decays`` and the basis on construction.  ``gamma``,
    ``pair_sum`` and ``partial_sum`` give the lag-t autocovariance, the
    adjacent-pair sums and their truncated totals, all evaluated through
    the spectral decomposition of A so that arbitrarily fast-decaying
    terms keep their (positive) analytic spectra.
    """

    mu: np.ndarray
    C: np.ndarray = field(init=False)
    Sigma: np.ndarray = field(init=False)
    decays: np.ndarray
    _basis: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        long_run = 2.0 * (1.0 / (1.0 - self.decays)) - 1.0
        object.__setattr__(self, "C", self.gamma(0))
        object.__setattr__(self, "Sigma", self._assemble(long_run * self._mode_c()))

    def _assemble(self, mode_values: np.ndarray) -> np.ndarray:
        b = self._basis
        return symmetrize((b * mode_values) @ b.T)

    def _mode_c(self) -> np.ndarray:
        return 1.0 / (1.0 - self.decays**2)

    def gamma(self, t: int) -> np.ndarray:
        """Lag-t autocovariance matrix of the stationary process."""
        if t < 0:
            raise ValueError(f"lag must be >= 0, got {t}")
        return self._assemble(self.decays**t * self._mode_c())

    def pair_sum(self, i: int) -> np.ndarray:
        """Sum of the lag-(2i) and lag-(2i+1) autocovariances."""
        d = self.decays
        return self._assemble((d ** (2 * i) + d ** (2 * i + 1)) * self._mode_c())

    def partial_sum(self, m: int) -> np.ndarray:
        """Truncated long-run covariance: -gamma(0) + 2 * (pair sums 0..m)."""
        if m < 0:
            raise ValueError(f"index must be >= 0, got {m}")
        d = self.decays
        geom = (1.0 - d ** (2 * m + 2)) / (1.0 - d)
        return self._assemble((2.0 * geom - 1.0) * self._mode_c())


def ar1_truth(params: Ar1Params) -> Ar1Truth:
    """Closed-form stationary moments for the given process.

    The lag-t autocovariance decays like A^t, as the recursion
    ``X_{k+1} = A X_k + U`` implies; the long-run covariance is validated
    against the simulated long-run variance.
    """
    mu = np.linalg.solve(np.eye(params.p) - params.A, params.theta)
    return Ar1Truth(mu, params._decays, params._basis)


def ar1_simulate(params: Ar1Params, n: int, seed: SeedLike) -> Chain:
    """Simulate n steps started from the stationary distribution.

    The recursion is run in the decoupling coordinates of
    :func:`Ar1Params` (independent scalar AR(1) components, evaluated
    with a compiled linear filter), then mapped back.  Deterministic:
    identical seeds give bit-identical chains.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = as_generator(seed)
    d, basis, p = params._decays, params._basis, params.p
    # innovation mean and X_0 in decoupled coordinates
    wbar = np.linalg.solve(basis, params.theta)
    z0 = wbar / (1.0 - d) + rng.standard_normal(p) / np.sqrt(1.0 - d**2)
    # innovations are drawn row by row, shifted and transposed in one pass;
    # each mode is then filtered in place as one contiguous row
    w = np.add(rng.standard_normal((n, p)).T, wbar[:, None], out=np.empty((p, n)))
    for k in range(p):
        w[k], _ = lfilter([1.0], [1.0, -d[k]], w[k], zi=[d[k] * z0[k]])
    # mapped back from row-major modes: a product over another layout can
    # round differently
    z = np.ascontiguousarray(w.T)
    del w
    return Chain._adopt(z @ basis.T)
