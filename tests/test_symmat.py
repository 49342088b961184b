"""Eigendecomposition contract, definiteness tests, and the positive part."""

import numpy as np
import pytest

from chainvar import eigen_sym, is_pd, logdet_pd, positive_part, symmetrize
from chainvar.symmat import (
    NotPositiveDefiniteError,
    signed_logdet,
)


def random_symmetric(rng, p, scale=1.0):
    return symmetrize(rng.standard_normal((p, p)) * scale)


def random_psd(rng, p):
    g = rng.standard_normal((p, p))
    return symmetrize(g @ g.T)


class TestEigenSym:
    def test_identity(self):
        spec = eigen_sym(np.eye(2))
        np.testing.assert_array_equal(spec.eigenvalues, [1.0, 1.0])
        q = spec.eigenvectors
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)

    def test_diagonal_is_sorted_ascending(self):
        spec = eigen_sym(np.diag([3.0, -1.0]))
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 3.0], atol=1e-14)

    def test_two_by_two_hand_eigenvalues(self):
        # det([[2-l,1],[1,2-l]]) = l^2 - 4l + 3 = (l-1)(l-3)
        spec = eigen_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for p in (1, 2, 5, 12, 30, 65):
            m = random_symmetric(rng, p, scale=10.0 ** rng.integers(-3, 4))
            spec = eigen_sym(m)
            q, w = spec.eigenvectors, spec.eigenvalues
            assert np.all(np.diff(w) >= 0.0)
            assert np.abs(q.T @ q - np.eye(p)).max() <= 1e-10
            rebuilt = (q * w) @ q.T
            tol = 1e-10 * max(1.0, np.abs(m).max())
            assert np.abs(rebuilt - m).max() <= tol

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigen_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestIsPd:
    def test_identity_true(self):
        assert is_pd(np.eye(3))

    def test_singular_boundary_false(self):
        assert not is_pd(np.diag([1.0, 0.0]))

    def test_indefinite_false(self):
        # eigenvalues 1 +- 2 = (-1, 3)
        assert not is_pd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_threshold_is_relative(self):
        assert is_pd(np.diag([1e-6, 1.0]))
        assert not is_pd(np.diag([1e-14, 1.0]))

    def test_independent_of_units(self):
        # the floor scales with the largest eigenvalue alone, so a tiny
        # but well-conditioned matrix is positive definite
        for scale in (1e-20, 1e-14, 1.0, 1e20):
            assert is_pd(scale * np.diag([1e-6, 1.0]))
            assert not is_pd(scale * np.diag([1e-14, 1.0]))
        np.testing.assert_allclose(logdet_pd(1e-14 * np.eye(2)), 2 * np.log(1e-14))


class TestLogdet:
    def test_identity_zero(self):
        for p in (1, 4, 65):
            assert logdet_pd(np.eye(p)) == 0.0

    def test_diagonal_product(self):
        np.testing.assert_allclose(logdet_pd(np.diag([2.0, 3.0])), np.log(6.0), rtol=1e-14)

    def test_hand_cofactor(self):
        # det [[2,1],[1,2]] = 4 - 1 = 3
        np.testing.assert_allclose(
            logdet_pd(np.array([[2.0, 1.0], [1.0, 2.0]])), np.log(3.0), rtol=1e-12
        )

    def test_exp_matches_lu_determinant(self):
        rng = np.random.default_rng(11)
        for p in (2, 5, 10):
            m = random_psd(rng, p) + np.eye(p)
            np.testing.assert_allclose(
                np.exp(logdet_pd(m)), np.linalg.det(m), rtol=1e-8
            )

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            logdet_pd(np.diag([1.0, -1.0]))


class TestPositivePart:
    def test_diagonal_clamp(self):
        np.testing.assert_allclose(
            positive_part(np.diag([1.0, -2.0])), np.diag([1.0, 0.0]), atol=1e-14
        )

    def test_psd_fixed_point_is_bit_exact(self):
        m = np.eye(2)
        assert positive_part(m) is m

    def test_rank_one_projector(self):
        # [[0,1],[1,0]] has eigenpairs (-1, (1,-1)/sqrt2), (+1, (1,1)/sqrt2);
        # clamping keeps the rank-1 projector onto (1,1)/sqrt2.
        out = positive_part(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_idempotent_and_dominating(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = int(rng.integers(1, 9))
            m = random_symmetric(rng, p)
            out = positive_part(m)
            scale = max(1.0, np.abs(m).max())
            again = positive_part(out)
            assert np.abs(again - out).max() <= 1e-10 * scale
            # out itself is PSD, and out - m has no negative eigenvalues
            assert np.linalg.eigvalsh(out)[0] >= -1e-10 * scale
            assert np.linalg.eigvalsh(symmetrize(out - m))[0] >= -1e-10 * scale


class TestEigenvalueMonotonicity:
    def test_pd_difference_orders_spectra_and_determinants(self):
        # For PSD a, b with a - b positive definite, every ordered
        # eigenvalue of a exceeds the matching one of b, and so does the
        # determinant.
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = int(rng.integers(1, 9))
            b = random_psd(rng, p)
            gap = random_psd(rng, p) + 0.1 * np.eye(p)
            a = symmetrize(b + gap)
            wa = np.linalg.eigvalsh(a)
            wb = np.linalg.eigvalsh(b)
            assert np.all(wa > wb)
            sa, la = signed_logdet(wa)
            sb, lb = signed_logdet(wb)
            assert sa == sb == 1 and la > lb


class TestSignedLogdet:
    def test_sign_tracking(self):
        assert signed_logdet(np.array([1.0, 2.0]))[0] == 1
        assert signed_logdet(np.array([-1.0, 2.0]))[0] == -1
        assert signed_logdet(np.array([-1.0, -2.0]))[0] == 1
        assert signed_logdet(np.array([0.0, 2.0])) == (0, float("-inf"))
