"""Neumann series iteration and its halting-time bounds.

For a symmetric A with spectrum inside (-1, 1), the iteration
x_0 = 0, x_k = A x_{k-1} + b solves (I - A) x = b, and x_k equals the partial
sum of the first k terms of the Neumann series. Two stopping counts are
measured:

* ``k_eps``      — first k with ||x - x_k|| < eps (true-error criterion),
* ``k_star_eps`` — first k with ||(I - A) x_k - b|| < eps (residual criterion),

read off the eigenbasis by ``halting_counts`` (the route experiments take) or
from the literal recursion by ``iterate`` (the oracle that checks it),

and two a-priori upper bounds are computed from the extreme eigenvalues alone:

* ``bound_K``     — first k with ``tail_norm(lmin, lmax, k) < eps``, available
  in closed form via per-branch counts k1, kn;
* ``bound_Kstar`` — first k with max(|lmin|, |lmax|)^k < eps.

For unit b the measured counts never exceed the bounds; with b an eigenvector
of the dominant branch the error bound is attained exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergenceError, DomainError, PreconditionError
from .linalg import EigenDecomposition, _entries, symmetric_eig

# Mean of log(X) for X ~ Exponential(rate 1/2): log 2 - Euler gamma.
EXP_HALF_MEAN_LOG = math.log(2.0) - np.euler_gamma


def _check_spectrum_args(lmin: float, lmax: float) -> None:
    if not (-1.0 < lmin <= lmax < 1.0):
        raise DomainError(
            f"need -1 < lmin <= lmax < 1, got lmin={lmin}, lmax={lmax}"
        )


def _check_epsilon(eps: float) -> None:
    if not (0.0 < eps < 0.5):
        raise DomainError(f"epsilon must lie in (0, 1/2), got {eps}")


def _check_unit(b: np.ndarray) -> None:
    nrm = np.linalg.norm(b)
    if abs(nrm - 1.0) > 1e-12:
        raise PreconditionError(f"rhs must be a unit vector, ||b|| = {nrm!r}")


def tail_norm(lmin: float, lmax: float, k: int) -> float:
    """Operator norm of the Neumann tail sum_{i>=k} A^i.

    For symmetric A the norm is attained at one of the extreme eigenvalues:
    max over both branches of |lam|^k / |1 - lam|.
    """
    _check_spectrum_args(lmin, lmax)
    if k < 0 or k != int(k):
        raise DomainError(f"k must be a nonnegative integer, got {k}")
    k = int(k)
    return max(abs(lmin) ** k / abs(1.0 - lmin),
               abs(lmax) ** k / abs(1.0 - lmax))


def _branch_count(lam: float, eps: float) -> float:
    """Continuous solution k of |lam|^k / |1-lam| = eps; 0 for the lam=0 branch."""
    if lam == 0.0:
        return 0.0
    return (math.log(eps) + math.log(abs(1.0 - lam))) / math.log(abs(lam))


@dataclass(frozen=True)
class TailBound:
    """Closed-form halting bound with its per-branch breakdown.

    ``value`` is the minimal k with tail_norm < eps; ``k1``/``kn`` are the
    continuous branch counts for the smallest/largest eigenvalue and
    ``sigma = ceil(max(k1, kn)) - max(k1, kn)`` is the ceiling defect.
    """

    value: int
    k1: float
    kn: float
    sigma: float


def bound_K(lmin: float, lmax: float, eps: float) -> TailBound:
    """Error-criterion halting bound: min k with tail_norm(lmin, lmax, k) < eps.

    Computed in closed form from the branch counts, then nudged by a direct
    check so that floating-point boundary ties always resolve to the true
    direct-search minimum.
    """
    _check_spectrum_args(lmin, lmax)
    _check_epsilon(eps)
    k1 = _branch_count(lmin, eps)
    kn = _branch_count(lmax, eps)
    raw = max(k1, kn)
    sigma = math.ceil(raw) - raw
    k = max(0, math.ceil(raw))
    while k > 0 and tail_norm(lmin, lmax, k - 1) < eps:
        k -= 1
    while tail_norm(lmin, lmax, k) >= eps:
        k += 1
    return TailBound(value=k, k1=k1, kn=kn, sigma=sigma)


def bound_Kstar(lmin: float, lmax: float, eps: float) -> int:
    """Residual-criterion halting bound: min k with max(|lmin|,|lmax|)^k < eps."""
    _check_spectrum_args(lmin, lmax)
    _check_epsilon(eps)
    r = max(abs(lmin), abs(lmax))
    if r == 0.0:
        return 1
    k = max(0, math.ceil(math.log(eps) / math.log(r)))
    while k > 0 and r ** (k - 1) < eps:
        k -= 1
    while r ** k >= eps:
        k += 1
    return k


def _log_scale(n: int, alpha: float, eps: float) -> float:
    """log(n / eps^(1/alpha)) with the usual domain checks."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if alpha <= 0:
        raise DomainError(f"need alpha > 0, got {alpha}")
    _check_epsilon(eps)
    return math.log(n) - math.log(eps) / alpha


def scaled_K(k_value: float, n: int, alpha: float, eps: float) -> float:
    """k_value / (alpha * log(n / eps^(1/alpha)) * n^alpha).

    Under edge scaling n^alpha (1 - lambda_max) -> X this converges in
    distribution to 1/X when k_value is the error bound.
    """
    if k_value < 0:
        raise DomainError(f"need a nonnegative count, got {k_value}")
    return k_value / (alpha * _log_scale(n, alpha, eps) * float(n) ** alpha)


def refined_statistic(k_n_value: float, n: int, alpha: float, eps: float,
                      mean_log_xi: float = EXP_HALF_MEAN_LOG) -> float:
    """Finite-n corrected reciprocal statistic built from the k_n branch count.

    ((a*L - mean_log_xi) / (a*L)) * (a*L*n^alpha / k_n) with L the log scale;
    the correction subtracts the mean of log(edge gap) so the statistic matches
    its exponential limit much sooner than the plain reciprocal.
    """
    if k_n_value <= 0:
        raise DomainError(f"need k_n_value > 0, got {k_n_value}")
    al = alpha * _log_scale(n, alpha, eps)
    return ((al - mean_log_xi) / al) * (al * float(n) ** alpha / k_n_value)


def sharpness_rhs(dec: EigenDecomposition, which: str = "max_eig") -> np.ndarray:
    """Right-hand side that makes a halting bound exact.

    ``max_eig`` (the only mode) returns the unit eigenvector of the largest
    eigenvalue (needs lambda_max in (0, 1)); when that branch dominates the
    tail norm, iterating from this b gives k_eps == bound_K exactly.
    """
    if which != "max_eig":
        raise DomainError(f"unknown sharpness mode {which!r}")
    lam = float(dec.eigenvalues[-1])
    if not (0.0 < lam < 1.0):
        raise PreconditionError(
            f"max_eig sharpness needs lambda_max in (0, 1), got {lam}"
        )
    v = dec.basis[:, -1]
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class IterationProblem:
    """(I - A) x = b to be solved by Neumann iteration.

    ``rhs`` must be a unit vector (the halting theory normalizes ||b|| = 1) and
    ``epsilon`` must lie in (0, 1/2). ``max_iterations=None`` means an
    automatic cap of 50x the halting bounds.
    """

    matrix: object
    rhs: np.ndarray
    epsilon: float = 1e-3
    max_iterations: Optional[int] = None

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        b = np.asarray(self.rhs)
        _check_unit(b)
        a = _entries(self.matrix)
        if a.shape[0] != a.shape[1] or a.shape[1] != b.shape[0]:
            raise DomainError(
                f"matrix {a.shape} incompatible with rhs of length {b.shape[0]}"
            )
        if self.max_iterations is not None and self.max_iterations < 1:
            raise DomainError("max_iterations must be positive when given")


@dataclass(frozen=True)
class IterationResult:
    """Outcome of the iteration: final iterate x_k (k = the larger count) and
    halting counts.

    When a criterion is still unmet at the iteration cap, its count equals the
    cap and the matching saturation flag is set — saturation is reported, not
    raised.
    """

    x: np.ndarray
    k_eps: int
    k_star_eps: int
    k_eps_saturated: bool = False
    k_star_saturated: bool = False

    @property
    def saturated(self) -> bool:
        return self.k_eps_saturated or self.k_star_saturated


def iterate(problem: IterationProblem) -> IterationResult:
    """Run the iteration, measuring both halting counts: the oracle.

    The reference solution is computed once spectrally; the iterates follow
    the literal recursion x_k = A x_{k-1} + b, so the measured counts reflect
    the actual floating-point trajectory, not an eigenbasis shortcut. It
    costs O(k n^2); experiments count with ``halting_counts`` instead, and
    ``verify`` (suite prop25) checks those counts against this loop.
    """
    dec = symmetric_eig(problem.matrix)
    lmin, lmax = dec.lambda_min, dec.lambda_max
    if max(abs(lmin), abs(lmax)) >= 1.0:
        raise DivergenceError(
            f"spectral radius {max(abs(lmin), abs(lmax)):.6f} >= 1; the series diverges"
        )
    a = _entries(problem.matrix)
    b = np.asarray(problem.rhs)
    eps = problem.epsilon

    coef = dec.basis.conj().T @ b
    x_star = dec.basis @ (coef / (1.0 - dec.eigenvalues))

    cap = problem.max_iterations
    if cap is None:
        cap = 50 * max(bound_K(lmin, lmax, eps).value,
                       bound_Kstar(lmin, lmax, eps), 1)

    k_eps = None
    k_star = None
    x_next = b.astype(x_star.dtype)  # x_1 = A x_0 + b = b
    k = 0
    while k < cap and (k_eps is None or k_star is None):
        k += 1
        x = x_next
        x_next = a @ x + b
        residual = np.linalg.norm(x - x_next)
        if k_eps is None and np.linalg.norm(x_star - x) < eps:
            k_eps = k
        if k_star is None and residual < eps:
            k_star = k

    return IterationResult(
        x=x,
        k_eps=cap if k_eps is None else k_eps,
        k_star_eps=cap if k_star is None else k_star,
        k_eps_saturated=k_eps is None,
        k_star_saturated=k_star is None,
    )


def _first_below(weight: np.ndarray, modulus: np.ndarray, eps: float,
                 cap: int) -> tuple:
    """(first k in [1, cap] with ||weight * modulus^k|| < eps, saturated).

    The norm is nonincreasing in k (modulus <= 1), so the crossing is bisected;
    (cap, True) when even k = cap is not below eps.
    """
    def norm(k):
        term = weight * modulus ** k  # |lam|^k, not (lam^2)^k: rounded once, as in tail_norm
        return math.sqrt(float(term @ term))

    if norm(cap) >= eps:
        return cap, True
    lo, hi = 0, cap  # norm(hi) < eps; lo == 0 or norm(lo) >= eps
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if norm(mid) < eps:
            hi = mid
        else:
            lo = mid
    return hi, False


def halting_counts(dec: EigenDecomposition, rhs, epsilon: float) -> IterationResult:
    """Both halting counts of the iteration for A = dec, read off the eigenbasis.

    With c = basis^H b, the error and the residual after k steps are

        ||x* - x_k|| = ||A^k x*|| = sqrt(sum |c_i|^2 lam_i^(2k) / (1 - lam_i)^2),
        ||(I - A) x_k - b|| = ||A^k b|| = sqrt(sum |c_i|^2 lam_i^(2k)),

    both nonincreasing in k, so each first crossing below eps is bisected in
    O(n log cap). The cap is iterate's (50x the bounds) and the search is never
    clamped at the bound, so callers' k <= K audits stay live. ``x`` is x_k at
    the larger count, as in ``iterate``, whose counts these equal except where
    the literal trajectory's norm ties with eps to rounding.
    """
    _check_epsilon(epsilon)
    lam = dec.eigenvalues
    lmin, lmax = dec.lambda_min, dec.lambda_max
    if max(abs(lmin), abs(lmax)) >= 1.0:
        raise DivergenceError(
            f"spectral radius {max(abs(lmin), abs(lmax)):.6f} >= 1; the series diverges"
        )
    b = np.asarray(rhs)
    _check_unit(b)
    coef = dec.basis.conj().T @ b
    modulus = np.abs(lam)
    weight = np.abs(coef)
    error_weight = weight / np.abs(1.0 - lam)
    cap = 50 * max(bound_K(lmin, lmax, epsilon).value,
                   bound_Kstar(lmin, lmax, epsilon), 1)
    k_eps, eps_saturated = _first_below(error_weight, modulus, epsilon, cap)
    k_star, star_saturated = _first_below(weight, modulus, epsilon, cap)
    k = max(k_eps, k_star)
    return IterationResult(
        x=dec.basis @ (coef * (1.0 - lam ** k) / (1.0 - lam)),
        k_eps=k_eps, k_star_eps=k_star,
        k_eps_saturated=eps_saturated, k_star_saturated=star_saturated,
    )
