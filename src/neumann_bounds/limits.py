"""Limit laws for the scaled halting statistics.

Two references: the exponential law (rate 1/2) that the uniform ensemble's
edge gap converges to, and the hard-edge law 1 - det(I - J_a on (0, 2t)) that
the Jacobi ensemble's scaled extreme eigenvalues converge to. The Fredholm
determinant is approximated by a Nystrom discretization of the Bessel kernel
on an m-point Gauss-Legendre rule mapped to the integration interval
(Bornemann, "On the numerical evaluation of Fredholm determinants", Math.
Comp. 2010), batched over all requested interval lengths.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.special import jv

from .errors import DomainError, NumericalError


def exp_cdf(t, rate: float):
    """CDF of the exponential law with the given rate; 0 for t < 0."""
    if rate <= 0:
        raise DomainError(f"rate must be positive, got {rate}")
    t = np.asarray(t, dtype=float)
    out = np.where(t < 0, 0.0, -np.expm1(-rate * np.clip(t, 0.0, None)))
    return float(out) if out.ndim == 0 else out


# Relative closeness at which the kernel switches to its diagonal formula.
_DIAGONAL_RTOL = 1e-9

# Interval lengths per batched determinant; bounds the (block, m, m) stack.
_DET_BLOCK = 8


def _kernel_parts(order: float, u: np.ndarray):
    """A(u) = J_a(sqrt u) and B(u) = sqrt(u) J_a'(sqrt u), vectorized.

    B is assembled as sqrt(u) J_{a-1}(sqrt u) - a J_a(sqrt u), which stays
    finite at u = 0 for every order >= 0.
    """
    x = np.sqrt(u)
    a_val = jv(order, x)
    b_val = x * jv(order - 1.0, x) - order * a_val
    return a_val, b_val


def _kernel_diagonal(order: float, u: np.ndarray) -> np.ndarray:
    """Limit of the kernel as v -> u, via J, J', J'' at x = sqrt(u)."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    zero = u == 0.0
    out[zero] = 0.25 if order == 0 else 0.0
    x = np.sqrt(u[~zero])
    if x.size:
        j0 = jv(order, x)
        jm1 = jv(order - 1.0, x)
        jm2 = jv(order - 2.0, x)
        jp = jm1 - (order / x) * j0
        jp_m1 = jm2 - ((order - 1.0) / x) * jm1
        jpp = jp_m1 - (order / x) * jp + (order / x ** 2) * j0
        out[~zero] = (jp * jp - j0 * jpp - j0 * jp / x) / 4.0
    return out


def bessel_kernel(order: float, u, v):
    """Bessel kernel J_a(u, v) of the hard-edge scaling limit; broadcasts.

    (J_a(su) sv J_a'(sv) - J_a(sv) su J_a'(su)) / (2 (u - v)) with s* the
    square roots; within relative distance 1e-9 of the diagonal the closed
    v -> u limit is used instead. J_a is evaluated on u and v before they
    broadcast, so a (T, m, 1) by (T, 1, m) call costs O(T m) Bessel values.
    """
    if order < 0:
        raise DomainError(f"kernel order must be >= 0, got {order}")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u < 0) or np.any(v < 0):
        raise DomainError(f"kernel arguments must be >= 0, got ({u}, {v})")
    a_u, b_u = _kernel_parts(order, u)
    a_v, b_v = _kernel_parts(order, v)
    diff = u - v
    near = np.abs(diff) <= _DIAGONAL_RTOL * np.maximum(np.maximum(u, v), 1.0)
    out = np.asarray((a_u * b_v - a_v * b_u) / (2.0 * np.where(near, 1.0, diff)))
    out[near] = _kernel_diagonal(order, ((u + v) / 2.0)[near])
    return float(out) if out.ndim == 0 else out


def _mapped_rule(s, quad_size: int):
    """Gauss-Legendre nodes and weights on (0, s), one row per interval length."""
    x, w = np.polynomial.legendre.leggauss(quad_size)
    half = np.reshape(np.asarray(s, dtype=float), (-1, 1)) / 2.0
    return half * (1.0 + x), half * w


def _nystrom(order: float, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Stack of symmetrized kernel matrices sqrt(w_i w_j) J_a(x_i, x_j)."""
    root = np.sqrt(weights)
    kern = bessel_kernel(order, nodes[:, :, None], nodes[:, None, :])
    mat = root[:, :, None] * kern * root[:, None, :]
    return (mat + mat.transpose(0, 2, 1)) / 2.0


def fredholm_det(order: float, s, quad_size: int = 40):
    """det(I - J_a) on L^2(0, s) via the Nystrom discretization.

    ``s`` is a scalar or an array of interval lengths; the result has its
    shape and is a float for a scalar. Costs O(m^3) per interval length.
    """
    if quad_size < 2:
        raise DomainError(f"need at least 2 quadrature points, got {quad_size}")
    s = np.asarray(s, dtype=float)
    if not np.all(s > 0):
        raise DomainError(f"interval length must be positive, got {s}")
    nodes, weights = _mapped_rule(s, quad_size)
    dets = np.empty(len(nodes))
    eye = np.eye(quad_size)
    for lo in range(0, len(nodes), _DET_BLOCK):
        block = slice(lo, lo + _DET_BLOCK)
        mat = _nystrom(order, nodes[block], weights[block])
        if not np.all(np.isfinite(mat)):
            raise NumericalError(
                f"kernel matrix is not finite (order={order}, "
                f"s={s.reshape(-1)[block]}, m={quad_size})"
            )
        dets[block] = np.linalg.det(eye - mat)
    return float(dets[0]) if s.ndim == 0 else dets.reshape(s.shape)


def jue_limit_cdf(t, order: float = 2.0, quad_size: int = 40):
    """Hard-edge limit CDF: P(scaled edge gap <= t) = 1 - det(I - J_a on (0, 2t))."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise DomainError(f"the hard-edge law lives on t >= 0, got {t}")
    out = np.zeros(t.shape)
    pos = t > 0
    out[pos] = np.clip(1.0 - fredholm_det(order, 2.0 * t[pos], quad_size), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


class LimitLaw:
    """A reference law with a vectorized CDF evaluator.

    Two kinds: ``exponential`` (closed form) and ``bessel-hard-edge``
    (one Fredholm determinant per evaluation point, batched per call).
    """

    def __init__(self, kind: str, rate: float = None, order: float = None,
                 quad_size: int = 40):
        if kind not in ("exponential", "bessel-hard-edge"):
            raise DomainError(f"unknown limit law kind {kind!r}")
        self.kind = kind
        if kind == "exponential":
            if rate is None or rate <= 0:
                raise DomainError("exponential law needs a positive rate")
            self.rate = float(rate)
        else:
            if order is None or order < 0:
                raise DomainError("bessel-hard-edge law needs an order >= 0")
            if quad_size < 2:
                raise DomainError(
                    f"bessel-hard-edge law needs at least 2 quadrature points, "
                    f"got {quad_size}")
            self.order = float(order)
            self.quad_size = int(quad_size)

    @classmethod
    def exponential(cls, rate: float) -> "LimitLaw":
        return cls("exponential", rate=rate)

    @classmethod
    def bessel_hard_edge(cls, order: float, quad_size: int = 40) -> "LimitLaw":
        return cls("bessel-hard-edge", order=order, quad_size=quad_size)

    def cdf(self, t):
        if self.kind == "exponential":
            return exp_cdf(t, self.rate)
        return jue_limit_cdf(np.maximum(t, 0.0), self.order, self.quad_size)

    def describe(self) -> dict:
        if self.kind == "exponential":
            return {"kind": self.kind, "rate": self.rate}
        return {"kind": self.kind, "order": self.order, "quad_size": self.quad_size}


class ReciprocalLaw:
    """Law of 1/X for X ~ base law supported on (0, inf)."""

    def __init__(self, base: LimitLaw):
        self.base = base

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        pos = t > 0
        out[pos] = 1.0 - self.base.cdf(1.0 / t[pos])
        return float(out) if out.ndim == 0 else out

    def describe(self) -> dict:
        return {"kind": "reciprocal", "base": self.base.describe()}


def numeric_pdf(law, t, h):
    """Central-difference density (cdf(t+h) - cdf(t-h)) / (2h); needs t >= h.

    Broadcasts over ``t`` and ``h``; returns a float for scalar arguments.
    """
    t = np.asarray(t, dtype=float)
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0):
        raise DomainError(f"step must be positive, got {h}")
    if np.any(t < h):
        raise DomainError(f"need t >= h for the centered stencil, got t={t}, h={h}")
    out = (np.asarray(law.cdf(t + h)) - np.asarray(law.cdf(t - h))) / (2.0 * h)
    return float(out) if out.ndim == 0 else out


def export_cdf_table(law, t_max: float, step: float, path) -> int:
    """Write a (t, cdf, pdf) CSV table on the grid 0, step, ..., t_max.

    The pdf column uses the centered stencil with h = step/2 and is left blank
    where the stencil would cross zero. Every value is computed before the
    file is opened, so a failed evaluation leaves no partial table. Returns
    the number of data rows.
    """
    if t_max <= 0 or step <= 0:
        raise DomainError("t_max and step must be positive")
    grid = np.arange(0.0, t_max + step / 2.0, step)
    h = step / 2.0
    cdf = np.asarray(law.cdf(grid))
    has_pdf = grid >= h
    pdf = np.zeros(len(grid))
    pdf[has_pdf] = numeric_pdf(law, grid[has_pdf], h)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "cdf", "pdf"])
        for t, c, p, ok in zip(grid, cdf, pdf, has_pdf):
            writer.writerow([repr(float(t)), repr(float(c)), repr(float(p)) if ok else ""])
    return len(grid)
