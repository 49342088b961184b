"""Symmetric-matrix kernel: eigendecompositions, definiteness tests, log-determinants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative floor for calling an eigenvalue "positive".  Truncated covariance
# sums cross zero right at the first-positive-definite boundary, where a
# strict float comparison against 0 would be noise-sensitive.
PD_RELATIVE_TOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """A positive definite matrix was required."""


class EigenDecompositionError(RuntimeError):
    """The symmetric eigensolver failed to converge."""


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are in ascending order; column k of ``eigenvectors``
    pairs with ``eigenvalues[k]`` and the columns are orthonormal, so the
    input is ``eigenvectors @ diag(eigenvalues) @ eigenvectors.T``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a.T) / 2; the result is exactly symmetric entry-for-entry."""
    return (a + a.T) / 2.0


def require_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not exactly symmetric; use symmetrize() first")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def eigen_sym(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    m = require_symmetric(m)
    try:
        w, q = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        off = np.abs(m - np.diag(np.diag(m))).max() if m.size else 0.0
        raise EigenDecompositionError(
            f"symmetric eigensolver did not converge "
            f"(max off-diagonal magnitude {off:.3e})"
        ) from exc
    return Spectrum(w, q)


def eigenvalues_sym(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues only (cheaper than :func:`eigen_sym`)."""
    m = require_symmetric(m)
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError("symmetric eigensolver did not converge") from exc


def pd_from_eigenvalues(w: np.ndarray) -> bool:
    """Positive-definite test on an ascending eigenvalue vector.

    True iff the smallest eigenvalue clears a threshold relative to the
    largest magnitude, ``w[0] > tol * |w[-1]|``, so the answer does not
    depend on the units of the matrix.
    """
    return bool(w[0] > PD_RELATIVE_TOL * abs(float(w[-1])))


def is_pd(m: np.ndarray) -> bool:
    """Whether a symmetric matrix is positive definite (tolerance-based)."""
    return pd_from_eigenvalues(eigenvalues_sym(m))


def logdet_pd(m: np.ndarray) -> float:
    """Log-determinant of a positive definite matrix, as a sum of log eigenvalues."""
    return logdet_from_eigenvalues(eigenvalues_sym(m))


def logdet_from_eigenvalues(w: np.ndarray) -> float:
    """:func:`logdet_pd` of the matrix whose ascending eigenvalues are ``w``."""
    if not pd_from_eigenvalues(w):
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (smallest eigenvalue {w[0]:.3e})"
        )
    return float(np.log(w).sum())


def signed_logdet(w: np.ndarray) -> tuple[int, float]:
    """Determinant of a symmetric matrix with eigenvalues ``w``, as (sign, log|det|).

    The sign is -1, 0, or +1; log|det| is -inf when the determinant is 0.
    """
    w = np.asarray(w, dtype=np.float64)
    if np.any(w == 0.0):
        return 0, float("-inf")
    sign = -1 if (int(np.count_nonzero(w < 0.0)) % 2) else 1
    return sign, float(np.log(np.abs(w)).sum())


def positive_part(m: np.ndarray) -> np.ndarray:
    """Clamp the negative eigenvalues of a symmetric matrix to zero.

    Returns ``Q diag(max(w, 0)) Q.T``.  A matrix that is already positive
    semi-definite is returned unchanged (bit-for-bit), which makes the
    operation an exact no-op along runs of positive-definite summands.
    """
    spec = eigen_sym(m)
    if spec.eigenvalues[0] >= 0.0:
        return m
    clipped = np.clip(spec.eigenvalues, 0.0, None)
    q = spec.eigenvectors
    return symmetrize((q * clipped) @ q.T)
