"""Dense symmetric/Hermitian matrix helpers.

Thin, contract-checked wrappers around LAPACK (via numpy.linalg). Eigenvalues
are always returned in ascending order with an orthonormal eigenbasis, which is
the convention every other module relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularityError, SymmetryError

# Relative tolerance for the "is it actually (conjugate-)symmetric" check.
SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class DenseMatrix:
    """A dense square matrix plus a symmetry tag.

    Parameters
    ----------
    entries : ndarray
        Square, real or complex.
    symmetry : str
        One of ``"symmetric"``, ``"hermitian"``, ``"general"``. The tag is a
        promise that is verified numerically at construction time.
    """

    entries: np.ndarray
    symmetry: str = "general"

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        if self.symmetry not in ("symmetric", "hermitian", "general"):
            raise ValueError(f"unknown symmetry tag {self.symmetry!r}")
        if self.symmetry != "general":
            _check_hermitian(a, self.symmetry)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization m = basis @ diag(eigenvalues) @ basis^H.

    ``eigenvalues`` is real and ascending; ``basis`` has orthonormal columns,
    column j belonging to ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def _check_hermitian(a: np.ndarray, tag: str) -> None:
    scale = max(1.0, np.abs(a).max()) if a.size else 1.0
    gap = np.abs(a - a.conj().T).max() if a.size else 0.0
    if gap > SYMMETRY_RTOL * scale:
        raise SymmetryError(
            f"matrix tagged {tag!r} deviates from its adjoint by {gap:.3e}"
        )
    if tag == "symmetric" and np.iscomplexobj(a) and np.abs(a.imag).max() > SYMMETRY_RTOL * scale:
        raise SymmetryError("matrix tagged 'symmetric' has a complex part")


def _entries(m) -> np.ndarray:
    return m.entries if isinstance(m, DenseMatrix) else np.asarray(m)


def symmetric_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a symmetric/Hermitian matrix.

    Accepts a ``DenseMatrix`` tagged symmetric or hermitian, or a plain
    ndarray (which is then checked numerically). Eigenvalues come back real
    and ascending.
    """
    if isinstance(m, DenseMatrix):
        if m.symmetry == "general":
            raise SymmetryError("symmetric_eig requires a symmetric or hermitian tag")
        a = m.entries
    else:
        a = np.asarray(m)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        _check_hermitian(a, "hermitian" if np.iscomplexobj(a) else "symmetric")
    eigenvalues, basis = np.linalg.eigh(a)
    return EigenDecomposition(eigenvalues=eigenvalues, basis=basis)


# Eigenvalues below SINGULAR_RTOL * lambda_max count as zero for inversion.
SINGULAR_RTOL = 1e-12


def inv_sqrt_psd(m) -> DenseMatrix:
    """Inverse square root of a positive-definite matrix.

    Computed spectrally: U diag(eigenvalues**-0.5) U^H, then re-symmetrized to
    kill roundoff asymmetry. Raises ``SingularityError`` when the smallest
    eigenvalue is nonpositive or negligible against the largest.
    """
    dec = symmetric_eig(m)
    lam = dec.eigenvalues
    if lam[-1] <= 0 or lam[0] <= SINGULAR_RTOL * lam[-1]:
        raise SingularityError(
            f"matrix is not safely positive definite (eigenvalue range "
            f"[{lam[0]:.3e}, {lam[-1]:.3e}])"
        )
    root = (dec.basis / np.sqrt(lam)) @ dec.basis.conj().T
    root = (root + root.conj().T) / 2
    tag = "hermitian" if np.iscomplexobj(root) else "symmetric"
    return DenseMatrix(root, tag)
