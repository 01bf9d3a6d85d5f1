"""End-to-end verification checks.

Each check is a self-contained experiment with a frozen seed, a stated
tolerance, and an independent route to the quantity under test (brute-force
partial sums, direct search, quadrature, or a limit law). The Monte Carlo
checks draw their trials through ``run_experiment`` with the frozen seed as
master seed, so they exercise the production trial loop. The CLI ``verify``
subcommand and the acceptance test suite both run these.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad as _quad

from .ensembles import EnsembleSpec, draw, sample_haar_orthogonal
from .errors import DomainError, NumericalError
from .experiments import (RHS_MODES, EmpiricalDistribution, ExperimentConfig,
                          ks_distance, rhs_vector, run_experiment)
from .iteration import (EXP_HALF_MEAN_LOG, IterationProblem, bound_K, iterate,
                        scaled_K, sharpness_rhs, tail_norm)
from .limits import LimitLaw, fredholm_det
from .linalg import DenseMatrix, _entries, symmetric_eig

# Frozen seeds, one per statistical check; arbitrary but fixed.
SEED_TAIL_NORM = 1101
SEED_BOUND_SEARCH = 1102
SEED_HALTING = 1103
SEED_SHARPNESS = 1104
SEED_EDGE_GAP = 1105
SEED_REFINED = 1106
SEED_JUE = 1107
SEED_SPECTRAL = 1108


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: str
    elapsed: float = 0.0
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "value": self.value, "threshold": self.threshold,
                "elapsed_seconds": round(self.elapsed, 3), "detail": self.detail}


def _timed(fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        result.elapsed = time.perf_counter() - start
        return result
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@_timed
def check_tail_norm_brute_force(seed: int = SEED_TAIL_NORM, matrices: int = 200,
                                k_max: int = 30, terms: int = 2000,
                                tol: float = 1e-8) -> CheckResult:
    """Closed-form tail norm vs brute-force partial sums of matrix powers.

    Random symmetric matrices (size <= 8, spectrum inside (-0.95, 0.95));
    the brute route literally accumulates sum_{i=k}^{terms} M^i and takes its
    2-norm, never touching the closed form.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(matrices):
        n = int(rng.integers(1, 9))
        lam = rng.uniform(-0.95, 0.95, n)
        q = sample_haar_orthogonal(n, rng).entries
        m = (q * lam) @ q.T
        m = (m + m.T) / 2
        dec = symmetric_eig(m)

        total = np.zeros((n, n))
        power = np.eye(n)
        prefixes = []
        for i in range(terms + 1):
            if i <= k_max:
                prefixes.append(total.copy())
            total = total + power
            power = power @ m
        for k in range(k_max + 1):
            brute = np.linalg.norm(total - prefixes[k], 2)
            closed = tail_norm(dec.lambda_min, dec.lambda_max, k)
            worst = max(worst, abs(brute - closed))
    return CheckResult("tail-norm-brute-force", worst <= tol, worst,
                       f"max abs deviation <= {tol}",
                       detail={"matrices": matrices, "k_max": k_max})


@_timed
def check_bound_direct_search(seed: int = SEED_BOUND_SEARCH,
                              triples: int = 100) -> CheckResult:
    """Closed-form halting bound == direct search minimum, exactly."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(triples):
        lmax = rng.uniform(-0.99, 0.99)
        lmin = rng.uniform(-0.99, lmax)
        eps = 10.0 ** rng.uniform(-6.0, math.log10(0.49))
        k = 0
        while tail_norm(lmin, lmax, k) >= eps:
            k += 1
        if k != bound_K(lmin, lmax, eps).value:
            mismatches += 1
    return CheckResult("bound-direct-search", mismatches == 0, mismatches,
                       "0 mismatches", detail={"triples": triples})


def _rows(ensemble: EnsembleSpec, seed: int, trials: int, statistic: str,
          eps: float = 1e-3) -> list:
    """Trial rows of one ``run_experiment`` call at the ensemble's n."""
    return run_experiment(ExperimentConfig(
        ensemble=ensemble, n_values=(ensemble.n,), trials=trials, epsilon=eps,
        statistic=statistic, master_seed=seed))


@_timed
def check_halting_bounds_uniform(seed: int = SEED_HALTING, trials: int = 100,
                                 n: int = 50, eps: float = 1e-3) -> CheckResult:
    """Measured halting counts never exceed their bounds on random instances.

    Counted from the rows, independently of ``run_experiment``'s own audit,
    whose abort (naming trial, n and seed) also fails the check.
    """
    name, threshold = "halting-bounds-uniform", "0 violations, 0 saturated"
    detail = {"trials": trials, "n": n, "epsilon": eps}
    try:
        rows = _rows(EnsembleSpec("uniform-eig-haar", n), seed, trials,
                     "k_measured", eps)
    except NumericalError as exc:
        return CheckResult(name, False, 1, threshold,
                           detail={**detail, "audit_error": str(exc)})
    saturated = sum(row.saturated for row in rows)
    violations = sum(not row.saturated and (row.k_eps > row.K_eps
                                            or row.k_star_eps > row.K_star_eps)
                     for row in rows)
    return CheckResult(name, violations == 0 and saturated == 0, violations,
                       threshold, detail={**detail, "saturated": saturated})


@_timed
def check_sharpness(seed: int = SEED_SHARPNESS, instances: int = 50,
                    n: int = 20, eps: float = 1e-3) -> CheckResult:
    """With b the top eigenvector and a dominant top branch, k_eps == bound."""
    rng = np.random.default_rng(seed)
    exact = 0
    for _ in range(instances):
        lam = np.concatenate([rng.uniform(-0.5, 0.5, n - 1),
                              [rng.uniform(0.8, 0.95)]])
        q = sample_haar_orthogonal(n, rng).entries
        a = (q * lam) @ q.T
        a = (a + a.T) / 2
        matrix = DenseMatrix(a, "symmetric")
        dec = symmetric_eig(matrix)
        b = sharpness_rhs(dec, "max_eig")
        result = iterate(IterationProblem(matrix, b, eps))
        if result.k_eps == bound_K(dec.lambda_min, dec.lambda_max, eps).value:
            exact += 1
    return CheckResult("sharpness-max-eigvec", exact == instances, exact,
                       f"k_eps == K_eps on all {instances} instances",
                       detail={"instances": instances, "n": n})


def literal_disagreements(matrix, b: np.ndarray, eps: float, counts,
                          rel_tie: float = 1e-8) -> list:
    """Where ``counts`` (anything with ``k_eps`` and ``k_star_eps``: an
    IterationResult or a TrialRow) differs from ``iterate``'s literal loop.

    One entry per differing count. The disputed step is the smaller of the two
    counts; the entry is a tie when the literal trajectory's norm there (as
    ``iterate`` computes it) lies within a relative ``rel_tie`` of eps.
    """
    literal = iterate(IterationProblem(matrix, b, eps))
    out = []
    for criterion in ("k_eps", "k_star_eps"):
        fast, slow = getattr(counts, criterion), getattr(literal, criterion)
        if fast != slow:
            norm = _literal_norm(matrix, b, criterion, min(fast, slow))
            out.append({"criterion": criterion, "spectral": fast, "literal": slow,
                        "literal_norm": norm,
                        "tie": abs(norm - eps) <= rel_tie * eps})
    return out


def _literal_norm(matrix, b: np.ndarray, criterion: str, k: int) -> float:
    """||x* - x_k|| or ||x_k - x_{k+1}|| along the recursion, as iterate computes them."""
    dec = symmetric_eig(matrix)
    x_star = dec.basis @ ((dec.basis.conj().T @ b) / (1.0 - dec.eigenvalues))
    a = _entries(matrix)
    x = np.zeros_like(x_star)
    for _ in range(k):
        x = a @ x + b
    if criterion == "k_eps":
        return float(np.linalg.norm(x_star - x))
    return float(np.linalg.norm(x - (a @ x + b)))


@_timed
def check_spectral_vs_literal(seed: int = SEED_SPECTRAL, trials: int = 100,
                              n: int = 50, eps: float = 1e-3,
                              rel_tie: float = 1e-8) -> CheckResult:
    """Eigenbasis halting counts (what ``run`` reports) vs the literal recursion.

    For every rhs mode, ``run_experiment`` measures the trials; each is redrawn
    from its recorded seed and ``iterate`` runs x_k = A x_{k-1} + b on the
    same matrix and b. A differing count is allowed only as a tie (see
    ``literal_disagreements``); ties are listed in the detail.
    """
    name, threshold = "spectral-vs-literal", "0 unexplained disagreements"
    detail = {"trials": trials, "n": n, "epsilon": eps, "rel_tie": rel_tie}
    ties, unexplained = [], []
    for mode in RHS_MODES:
        config = ExperimentConfig(
            ensemble=EnsembleSpec("uniform-eig-haar", n), n_values=(n,),
            trials=trials, epsilon=eps, statistic="k_measured", rhs_mode=mode,
            master_seed=seed)
        try:
            rows = run_experiment(config)
        except NumericalError as exc:
            return CheckResult(name, False, 1, threshold,
                               detail={**detail, "audit_error": str(exc)})
        for row in rows:
            sample = draw(EnsembleSpec("uniform-eig-haar", n, seed=row.seed))
            b = rhs_vector(config, sample.decomposition, row.seed)
            for entry in literal_disagreements(sample.matrix, b, eps, row, rel_tie):
                entry.update(rhs_mode=mode, trial=row.trial_index, seed=row.seed)
                (ties if entry["tie"] else unexplained).append(entry)
    return CheckResult(name, not unexplained, len(unexplained), threshold,
                       detail={**detail, "ties": ties, "unexplained": unexplained})


@_timed
def check_edge_gap_exponential(seed: int = SEED_EDGE_GAP, n: int = 10_000,
                               trials: int = 2000,
                               ks_bound: float = 0.05) -> CheckResult:
    """Scaled extreme-eigenvalue gaps of the uniform ensemble vs Exp(1/2)."""
    rows = _rows(EnsembleSpec("eigenvalues-only-uniform", n), seed, trials,
                 "extreme_eig_scaled")
    top = [row.statistic for row in rows]
    bottom = [n * (1.0 + row.lambda_min) for row in rows]
    law = LimitLaw.exponential(0.5)
    ks_top = ks_distance(EmpiricalDistribution.from_samples(top), law)
    ks_bottom = ks_distance(EmpiricalDistribution.from_samples(bottom), law)
    worst = max(ks_top, ks_bottom)
    return CheckResult("edge-gap-exponential", worst < ks_bound, worst,
                       f"KS < {ks_bound} on both edges",
                       detail={"n": n, "trials": trials,
                               "ks_top": ks_top, "ks_bottom": ks_bottom})


@_timed
def check_refined_statistic(seed: int = SEED_REFINED, n: int = 1000,
                            trials: int = 1000, eps: float = 1e-3,
                            ks_bound: float = 0.1) -> CheckResult:
    """The mean-log-corrected statistic beats the plain reciprocal and is close
    to Exp(1/2)."""
    rows = _rows(EnsembleSpec("eigenvalues-only-uniform", n), seed, trials,
                 "Z_refined", eps)
    refined = [row.statistic for row in rows]
    plain = [1.0 / scaled_K(row.K_eps, n, 1.0, eps) for row in rows]
    law = LimitLaw.exponential(0.5)
    ks_refined = ks_distance(EmpiricalDistribution.from_samples(refined), law)
    ks_plain = ks_distance(EmpiricalDistribution.from_samples(plain), law)
    passed = ks_refined < ks_bound and ks_refined < ks_plain
    return CheckResult("refined-statistic", passed, ks_refined,
                       f"KS < {ks_bound} and < plain reciprocal's KS",
                       detail={"n": n, "trials": trials, "epsilon": eps,
                               "ks_refined": ks_refined, "ks_plain": ks_plain})


@_timed
def check_fredholm_determinant(tol_pair: float = 1e-8,
                               tol_small: float = 1e-3,
                               tol_exact: float = 1e-12) -> CheckResult:
    """Quadrature self-convergence, small-interval limit, and monotonicity.

    The small-interval check is order-aware: 1 - det grows like
    s^(order+1) / ((order+1) 4^(order+1) G(order+1) G(order+2)), which at
    s = 0.01 is below 1e-3 only for order >= 1. Order 0 instead gets the
    exact closed form det = exp(-s/4), a much sharper statement.
    """
    detail = {}
    passed = True
    worst_pair = 0.0
    for order in (0.0, 1.0, 2.0):
        for s in (1.0, 5.0, 20.0):
            gap = abs(fredholm_det(order, s, 40) - fredholm_det(order, s, 80))
            worst_pair = max(worst_pair, gap)
    passed &= worst_pair < tol_pair
    detail["max_m40_vs_m80"] = worst_pair

    worst_small = max(abs(fredholm_det(order, 0.01, 40) - 1.0)
                      for order in (1.0, 2.0))
    passed &= worst_small <= tol_small
    detail["max_small_s_gap_order_ge_1"] = worst_small

    worst_exact = max(abs(fredholm_det(0.0, s, 40) - math.exp(-s / 4.0))
                      for s in (0.01, 1.0, 5.0, 20.0))
    passed &= worst_exact <= tol_exact
    detail["max_order0_closed_form_gap"] = worst_exact

    grid = np.arange(0.5, 30.0 + 1e-9, 0.5)
    monotone = True
    for order in (0.0, 1.0, 2.0):
        dets = fredholm_det(order, grid, 40)
        monotone &= bool(np.all(np.diff(dets) <= 1e-12))
    passed &= monotone
    detail["monotone_on_grid"] = monotone
    return CheckResult("fredholm-determinant", bool(passed), worst_pair,
                       f"m-pair gap < {tol_pair}; det(0.01) within {tol_small} "
                       f"of 1 (order >= 1); order-0 closed form to {tol_exact}; "
                       "nonincreasing in s", detail=detail)


def jue_extreme_batch(seed: int = SEED_JUE, n: int = 200, n1: int = 202,
                      n2: int = 202, trials: int = 500,
                      eps: float = 1e-3) -> list:
    """Trial rows of a batch of JUE draws; the statistic is n^2 (1 - lambda_max)
    and K_eps is the halting bound at ``eps``."""
    return _rows(EnsembleSpec("jue", n, n1=n1, n2=n2), seed, trials,
                 "extreme_eig_scaled", eps)


@_timed
def check_jue_hard_edge(rows: list = None, seed: int = SEED_JUE,
                        n: int = 200, trials: int = 500, order: float = 2.0,
                        quad_size: int = 60,
                        ks_bound: float = 0.1) -> CheckResult:
    """Scaled JUE edge gaps vs the hard-edge determinant law, both edges."""
    if rows is None:
        rows = jue_extreme_batch(seed, n, n + 2, n + 2, trials)
    law = LimitLaw.bessel_hard_edge(order, quad_size)
    top = [row.statistic for row in rows]
    bottom = [n ** 2 * (1.0 + row.lambda_min) for row in rows]
    ks_top = ks_distance(EmpiricalDistribution.from_samples(top), law)
    ks_bottom = ks_distance(EmpiricalDistribution.from_samples(bottom), law)
    worst = max(ks_top, ks_bottom)
    return CheckResult("jue-hard-edge-ks", worst < ks_bound, worst,
                       f"KS < {ks_bound} on both edges",
                       detail={"n": n, "trials": len(rows), "order": order,
                               "quad_size": quad_size,
                               "ks_top": ks_top, "ks_bottom": ks_bottom})


@_timed
def check_log_gap_bound(points: int = 1000) -> CheckResult:
    """Deterministic bound |1/(c log(1 - x/c)) + 1/x| <= 8/c on (0, c/2]."""
    worst_ratio = 0.0
    for n in (10, 100, 1000):
        for alpha in (1, 2):
            c = float(n) ** alpha
            xs = np.logspace(math.log10(c) - 9.0, math.log10(c / 2.0), points)
            gap = np.abs(1.0 / (c * np.log1p(-xs / c)) + 1.0 / xs)
            worst_ratio = max(worst_ratio, float(np.max(gap * c / 8.0)))
    return CheckResult("log-gap-bound", worst_ratio <= 1.0, worst_ratio,
                       "gap * n^alpha / 8 <= 1 everywhere",
                       detail={"points": points})


@_timed
def check_jue_scaling(rows: list = None, seed: int = SEED_JUE,
                      n: int = 200, trials: int = 500, eps: float = 1e-3,
                      order: float = 2.0, quad_size: int = 60,
                      ks_bound: float = 0.15) -> CheckResult:
    """Reciprocal scaled halting bound for JUE vs the hard-edge law.

    ``rows`` must come from ``jue_extreme_batch`` at the same ``eps``.
    """
    if rows is None:
        rows = jue_extreme_batch(seed, n, n + 2, n + 2, trials, eps)
    stats = np.array([1.0 / scaled_K(row.K_eps, n, 2.0, eps) for row in rows])
    nonneg = bool(np.all(stats >= 0.0))
    law = LimitLaw.bessel_hard_edge(order, quad_size)
    ks = ks_distance(EmpiricalDistribution.from_samples(stats), law)
    return CheckResult("jue-scaling-ks", nonneg and ks < ks_bound, ks,
                       f"all values >= 0 and KS < {ks_bound}",
                       detail={"n": n, "trials": len(rows), "epsilon": eps,
                               "nonnegative": nonneg})


@_timed
def check_mean_log_exponential(tol: float = 1e-8) -> CheckResult:
    """The frozen mean-log constant matches direct quadrature of the density."""
    value, err = _quad(lambda x: math.log(x) * 0.5 * math.exp(-0.5 * x),
                       0.0, np.inf)
    gap = abs(value - EXP_HALF_MEAN_LOG)
    return CheckResult("mean-log-exponential", gap < tol and err < tol, gap,
                       f"|quadrature - constant| < {tol}",
                       detail={"quadrature": value, "constant": EXP_HALF_MEAN_LOG})


# Suite name -> its checks, run in this order.
_SUITE_CHECKS = {
    "lemma41": (check_tail_norm_brute_force, check_bound_direct_search,
                check_log_gap_bound),
    "prop25": (check_halting_bounds_uniform, check_sharpness,
               check_spectral_vs_literal),
    "prop34": (check_edge_gap_exponential,),
    "thm32": (check_refined_statistic, check_jue_scaling),
    "jue-hard-edge": (check_fredholm_determinant, check_jue_hard_edge),
    "appendixA": (check_mean_log_exponential, check_refined_statistic),
}
SUITES = tuple(_SUITE_CHECKS)


@dataclass
class SuiteReport:
    suite: str
    passed: bool
    checks: list

    def to_json(self) -> dict:
        return {"suite": self.suite, "passed": bool(self.passed),
                "checks": [c.to_json() for c in self.checks]}


def run_suite(name: str) -> SuiteReport:
    """Run one named verification suite and collect its check results."""
    if name not in _SUITE_CHECKS:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITES}")
    checks = [check() for check in _SUITE_CHECKS[name]]
    return SuiteReport(suite=name, passed=all(c.passed for c in checks),
                       checks=checks)
