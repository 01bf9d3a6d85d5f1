"""Tests for the dense spectral helpers."""

import numpy as np
import numpy.testing as npt
import pytest

from neumann_bounds import (DenseMatrix, DimensionError, SingularityError,
                            SymmetryError, inv_sqrt_psd, symmetric_eig)


def _reconstruct(dec):
    return (dec.basis * dec.eigenvalues) @ dec.basis.conj().T


def _random_symmetric(n, rng):
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2


def _random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


class TestDenseMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            DenseMatrix(np.zeros((2, 3)), "general")

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            DenseMatrix(np.eye(2), "upper-triangular")

    def test_rejects_false_symmetry_claim(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SymmetryError):
            DenseMatrix(a, "symmetric")

    def test_rejects_complex_entries_tagged_symmetric(self):
        a = np.array([[0.0, 1j], [-1j, 0.0]])
        with pytest.raises(SymmetryError):
            DenseMatrix(a, "symmetric")
        DenseMatrix(a, "hermitian")  # same matrix is fine as hermitian

    def test_n_property(self):
        assert DenseMatrix(np.eye(4), "symmetric").n == 4


class TestSymmetricEig:
    def test_identity(self):
        dec = symmetric_eig(np.eye(3))
        npt.assert_allclose(dec.eigenvalues, np.ones(3))
        assert dec.lambda_min == 1.0 and dec.lambda_max == 1.0

    def test_diagonal_comes_back_ascending(self):
        dec = symmetric_eig(np.diag([0.5, -0.5]))
        npt.assert_allclose(dec.eigenvalues, [-0.5, 0.5])

    def test_reconstruction_real(self):
        rng = np.random.default_rng(42)
        a = _random_symmetric(6, rng)
        dec = symmetric_eig(a)
        npt.assert_allclose(_reconstruct(dec), a, atol=1e-12)

    def test_reconstruction_hermitian(self):
        rng = np.random.default_rng(43)
        a = _random_hermitian(5, rng)
        dec = symmetric_eig(a)
        assert not np.iscomplexobj(dec.eigenvalues)
        npt.assert_allclose(_reconstruct(dec), a, atol=1e-12)

    def test_basis_is_orthonormal(self):
        rng = np.random.default_rng(44)
        for n in (1, 2, 7):
            dec = symmetric_eig(_random_symmetric(n, rng))
            npt.assert_allclose(dec.basis.T @ dec.basis, np.eye(n), atol=1e-12)

    def test_accepts_tagged_wrapper(self):
        a = _random_symmetric(4, np.random.default_rng(45))
        dec = symmetric_eig(DenseMatrix(a, "symmetric"))
        npt.assert_allclose(_reconstruct(dec), a, atol=1e-12)

    def test_rejects_general_tag(self):
        with pytest.raises(SymmetryError):
            symmetric_eig(DenseMatrix(np.eye(2), "general"))

    def test_rejects_asymmetric_ndarray(self):
        with pytest.raises(SymmetryError):
            symmetric_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            symmetric_eig(np.zeros((3, 2)))


class TestInvSqrtPsd:
    def test_identity(self):
        npt.assert_allclose(inv_sqrt_psd(np.eye(3)).entries, np.eye(3))

    def test_diagonal_oracle(self):
        got = inv_sqrt_psd(np.diag([4.0, 9.0]))
        npt.assert_allclose(got.entries, np.diag([0.5, 1.0 / 3.0]), rtol=1e-14)

    def test_whitens_random_spd(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((6, 6))
        a = g @ g.T + 6 * np.eye(6)
        r = inv_sqrt_psd(a).entries
        npt.assert_allclose(r @ a @ r, np.eye(6), atol=1e-10)
        npt.assert_allclose(r, r.T)  # re-symmetrized exactly

    def test_hermitian_input(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = g @ g.conj().T + 4 * np.eye(4)
        r = inv_sqrt_psd(a)
        assert r.symmetry == "hermitian"
        npt.assert_allclose(r.entries @ a @ r.entries, np.eye(4), atol=1e-10)

    def test_rejects_singular(self):
        with pytest.raises(SingularityError):
            inv_sqrt_psd(np.diag([1.0, 0.0]))
        with pytest.raises(SingularityError):
            inv_sqrt_psd(np.diag([1.0, 1e-15]))

    def test_rejects_indefinite(self):
        with pytest.raises(SingularityError):
            inv_sqrt_psd(np.diag([1.0, -1.0]))
