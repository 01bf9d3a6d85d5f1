"""Random matrix ensembles.

Three samplers:

* ``uniform-eig-haar`` — A = Q diag(lam) Q^T with lam_i iid Uniform(-1, 1) and
  Q Haar-orthogonal (QR of a Gaussian matrix with the sign-of-R-diagonal fix).
  The sample carries that construction as its ``decomposition`` (lam sorted,
  Q's columns permuted to match), so no caller has to diagonalize A again;
  A itself is the rounded, symmetrized product.
* ``eigenvalues-only-uniform`` — the same eigenvalue law without building the
  matrix; valid whenever downstream quantities depend only on the extreme
  eigenvalues.
* ``jue`` — W = I - 2V where V is the Jacobi (MANOVA) matrix built from two
  complex Ginibre blocks; eigenvalues live in [-1, 1] and the extremes sit at
  distance ~n^-2 from the edges.

Every sample records ``seed_used``, a single integer that reproduces it
bit-for-bit through the same sampler. Passing a Generator instead of an int is
allowed; the sampler then draws a fresh sub-seed from it first, so the record
stays replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DimensionError, DomainError, PreconditionError,
                     SingularityError, as_int, check_keys)
from .linalg import DenseMatrix, EigenDecomposition, inv_sqrt_psd

KINDS = ("uniform-eig-haar", "eigenvalues-only-uniform", "jue")


@dataclass(frozen=True)
class EnsembleSpec:
    """What to sample: ensemble kind, sizes, and the seed.

    For ``jue``, ``n1``/``n2`` default to n+2 (the two Ginibre block heights);
    they are meaningless for the uniform kinds and stay None there.
    """

    kind: str
    n: int
    n1: Optional[int] = None
    n2: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PreconditionError(f"unknown ensemble kind {self.kind!r}")
        if self.n < 1:
            raise DimensionError(f"need n >= 1, got {self.n}")
        if self.seed < 0:
            raise DomainError("seed must be a nonnegative integer")
        if self.kind == "jue":
            n1 = self.n + 2 if self.n1 is None else self.n1
            n2 = self.n + 2 if self.n2 is None else self.n2
            if n1 < self.n or n2 < self.n:
                raise PreconditionError(
                    f"jue needs n1, n2 >= n, got n1={n1}, n2={n2}, n={self.n}"
                )
            object.__setattr__(self, "n1", n1)
            object.__setattr__(self, "n2", n2)
        elif self.n1 is not None or self.n2 is not None:
            raise PreconditionError(f"n1/n2 only apply to the jue kind, not {self.kind!r}")

    def to_json(self) -> dict:
        return {"kind": self.kind, "n": self.n, "n1": self.n1, "n2": self.n2,
                "seed": self.seed}

    @classmethod
    def from_json(cls, data: dict) -> "EnsembleSpec":
        check_keys(data, ("kind", "n", "n1", "n2", "seed"), ("kind", "n"), "ensemble")
        size = lambda key: None if data.get(key) is None else as_int(data[key], key)
        return cls(kind=data["kind"], n=as_int(data["n"], "n"), n1=size("n1"),
                   n2=size("n2"), seed=as_int(data.get("seed", 0), "seed"))


@dataclass(frozen=True)
class EnsembleSample:
    """One draw: the (optional) matrix, its ascending eigenvalues, provenance.

    ``spec.seed == seed_used`` always holds — the recorded spec reproduces this
    exact sample through ``draw(spec, trial_index=None)``. ``decomposition`` is
    the eigendecomposition the matrix was built from, when the sampler has one
    (``uniform-eig-haar``); None otherwise.
    """

    spec: EnsembleSpec
    matrix: Optional[DenseMatrix]
    eigenvalues: np.ndarray
    seed_used: int
    decomposition: Optional[EigenDecomposition] = None

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Fold (master seed, trial index) into one reproducible 64-bit seed."""
    if master_seed < 0 or trial_index < 0:
        raise DomainError("master seed and trial index must be nonnegative")
    ss = np.random.SeedSequence((master_seed, trial_index))
    return int(ss.generate_state(1, np.uint64)[0])


def _resolve_rng(rng) -> tuple[np.random.Generator, int]:
    """Normalize an int-or-Generator argument to (fresh generator, seed)."""
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        if seed < 0:
            raise DomainError("seed must be nonnegative")
    elif isinstance(rng, np.random.Generator):
        seed = int(rng.integers(0, 2**63))
    else:
        raise TypeError(f"rng must be an int seed or numpy Generator, got {type(rng)}")
    return np.random.default_rng(seed), seed


def _haar_orthogonal(n: int, g: np.random.Generator) -> np.ndarray:
    gauss = g.standard_normal((n, n))
    q, r = np.linalg.qr(gauss)
    # Fixing the signs of R's diagonal makes the distribution exactly Haar;
    # zero diagonal entries (probability zero) count as +1.
    d = np.diagonal(r)
    q = q * np.where(d >= 0, 1.0, -1.0)
    return q


def sample_haar_orthogonal(n: int, rng) -> DenseMatrix:
    """Draw a Haar-distributed orthogonal n x n matrix."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    g, _ = _resolve_rng(rng)
    return DenseMatrix(_haar_orthogonal(n, g), "general")


def sample_uniform_eig_matrix(n: int, rng) -> EnsembleSample:
    """Symmetric matrix with iid Uniform(-1,1) eigenvalues in a Haar eigenbasis.

    Draw order (fixed for reproducibility): eigenvalues first, then the basis.
    The sample's ``decomposition`` holds both, sorted ascending.
    """
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    g, seed = _resolve_rng(rng)
    lam = g.uniform(-1.0, 1.0, n)
    q = _haar_orthogonal(n, g)
    a = (q * lam) @ q.T
    a = (a + a.T) / 2
    order = np.argsort(lam)
    dec = EigenDecomposition(lam[order], q[:, order])
    return EnsembleSample(
        spec=EnsembleSpec("uniform-eig-haar", n, seed=seed),
        matrix=DenseMatrix(a, "symmetric"),
        eigenvalues=dec.eigenvalues,
        seed_used=seed,
        decomposition=dec,
    )


def sample_eigenvalues_only_uniform(n: int, rng) -> EnsembleSample:
    """Only the eigenvalue vector of the uniform ensemble (no matrix built)."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    g, seed = _resolve_rng(rng)
    lam = np.sort(g.uniform(-1.0, 1.0, n))
    return EnsembleSample(
        spec=EnsembleSpec("eigenvalues-only-uniform", n, seed=seed),
        matrix=None,
        eigenvalues=lam,
        seed_used=seed,
    )


def _jue_draw(n: int, n1: int, n2: int, g: np.random.Generator) -> np.ndarray:
    scale = np.sqrt(0.5)
    v = scale * (g.standard_normal((n1, n)) + 1j * g.standard_normal((n1, n)))
    w = scale * (g.standard_normal((n2, n)) + 1j * g.standard_normal((n2, n)))
    a = v.conj().T @ v
    b = w.conj().T @ w
    root = inv_sqrt_psd(DenseMatrix((a + b + (a + b).conj().T) / 2, "hermitian")).entries
    vmat = root @ a @ root
    wmat = np.eye(n) - 2.0 * vmat
    return (wmat + wmat.conj().T) / 2


def sample_jue_matrix(n: int, n1: int, n2: int, rng) -> EnsembleSample:
    """Jacobi-ensemble matrix W = I - 2V, Hermitian with spectrum in [-1, 1].

    A singular A+B (probability zero for n1, n2 >= n) triggers one resample
    from a seed derived off the recorded one before giving up.
    """
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    if n1 < n or n2 < n:
        raise PreconditionError(f"need n1, n2 >= n, got n1={n1}, n2={n2}, n={n}")
    g, seed = _resolve_rng(rng)
    try:
        wmat = _jue_draw(n, n1, n2, g)
    except SingularityError:
        retry = int(np.random.SeedSequence((seed, 1)).generate_state(1, np.uint64)[0])
        wmat = _jue_draw(n, n1, n2, np.random.default_rng(retry))
    return EnsembleSample(
        spec=EnsembleSpec("jue", n, n1=n1, n2=n2, seed=seed),
        matrix=DenseMatrix(wmat, "hermitian"),
        eigenvalues=np.linalg.eigvalsh(wmat),
        seed_used=seed,
    )


def draw(spec: EnsembleSpec, trial_index: Optional[int] = None) -> EnsembleSample:
    """Sample according to a spec.

    With ``trial_index`` given, the effective seed is derived from
    (spec.seed, trial_index); with None, spec.seed is used directly, so a
    sample's own recorded spec replays it exactly.
    """
    seed = spec.seed if trial_index is None else trial_seed(spec.seed, trial_index)
    if spec.kind == "uniform-eig-haar":
        return sample_uniform_eig_matrix(spec.n, seed)
    if spec.kind == "eigenvalues-only-uniform":
        return sample_eigenvalues_only_uniform(spec.n, seed)
    return sample_jue_matrix(spec.n, spec.n1, spec.n2, seed)
