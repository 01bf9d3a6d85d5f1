"""Trial driver, empirical statistics, and report files.

An experiment is: for each n in ``n_values``, draw ``trials`` independent
ensemble samples, compute one statistic per trial, and compare the empirical
distribution against the matching limit law. Per-trial randomness is derived
from (master_seed, global trial index), so runs replay byte-for-byte and any
single row can be reproduced from its recorded seed.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .ensembles import EnsembleSpec, EnsembleSample, draw, trial_seed
from .errors import (DomainError, NumericalError, PreconditionError, as_int,
                     check_keys)
from .iteration import (bound_K, bound_Kstar, halting_counts, refined_statistic,
                        scaled_K, sharpness_rhs, EXP_HALF_MEAN_LOG)
from .limits import LimitLaw, ReciprocalLaw, numeric_pdf
from .linalg import EigenDecomposition, symmetric_eig

# Closed-form statistics: (config, n, TailBound, lambda_max) -> value. The
# lambdas look scaled_K / refined_statistic up when called, so rebinding works.
_CLOSED_FORM = {
    "K_scaled": lambda c, n, bnd, lmax: scaled_K(bnd.value, n, c.alpha, c.epsilon),
    "K_reciprocal_scaled":
        lambda c, n, bnd, lmax: 1.0 / scaled_K(bnd.value, n, c.alpha, c.epsilon),
    "Z_refined": lambda c, n, bnd, lmax: refined_statistic(
        bnd.kn, n, c.alpha, c.epsilon, c.effective_mean_log_xi()),
    "extreme_eig_scaled": lambda c, n, bnd, lmax: float(n) ** c.alpha * (1.0 - lmax),
}
STATISTICS = (*_CLOSED_FORM, "k_measured")
RHS_MODES = ("random_unit_sphere", "basis_e1", "max_eigvec")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce an experiment.

    ``ensemble`` is a template: its ``n`` is overridden by each entry of
    ``n_values`` (for jue, n1/n2 keep their offsets from the template n), and
    its seed is ignored in favor of ``master_seed``. ``alpha`` is the edge
    exponent of the ensemble (1 for the uniform kinds, 2 for jue); None
    derives it, and any other value is rejected.
    """

    ensemble: EnsembleSpec
    n_values: tuple
    trials: int
    epsilon: float = 1e-3
    alpha: Optional[float] = None
    statistic: str = "K_reciprocal_scaled"
    rhs_mode: str = "random_unit_sphere"
    master_seed: int = 0
    mean_log_xi: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if len(set(self.n_values)) != len(self.n_values):
            raise DomainError(f"n_values must be distinct, got {list(self.n_values)}")
        if self.trials < 1:
            raise DomainError(f"need trials >= 1, got {self.trials}")
        if not (0.0 < self.epsilon < 0.5):
            raise DomainError(f"epsilon must lie in (0, 1/2), got {self.epsilon}")
        edge = 2.0 if self.ensemble.kind == "jue" else 1.0
        if self.alpha is not None and self.alpha != edge:
            raise DomainError(f"alpha is the edge exponent of {self.ensemble.kind!r}, "
                              f"{edge}, got {self.alpha}")
        object.__setattr__(self, "alpha", edge)
        if self.statistic not in STATISTICS:
            raise DomainError(f"unknown statistic {self.statistic!r}")
        if self.rhs_mode not in RHS_MODES:
            raise DomainError(f"unknown rhs_mode {self.rhs_mode!r}")
        if self.master_seed < 0:
            raise DomainError("master_seed must be nonnegative")
        if (self.statistic == "k_measured"
                and self.ensemble.kind == "eigenvalues-only-uniform"):
            raise PreconditionError(
                "k_measured needs a matrix ensemble, not eigenvalues-only"
            )

    def to_json(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "ensemble": self.ensemble.to_json(), "n_values": list(self.n_values)}

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        check_keys(data, {f.name for f in fields(cls)},
                   ("ensemble", "n_values", "trials"), "config")
        return cls(
            ensemble=EnsembleSpec.from_json(data["ensemble"]),
            n_values=tuple(as_int(n, "n_values entry") for n in data["n_values"]),
            trials=as_int(data["trials"], "trials"),
            epsilon=float(data.get("epsilon", 1e-3)),
            alpha=data.get("alpha"),
            statistic=data.get("statistic", "K_reciprocal_scaled"),
            rhs_mode=data.get("rhs_mode", "random_unit_sphere"),
            master_seed=as_int(data.get("master_seed", 0), "master_seed"),
            mean_log_xi=data.get("mean_log_xi"),
        )

    def effective_mean_log_xi(self) -> float:
        return EXP_HALF_MEAN_LOG if self.mean_log_xi is None else self.mean_log_xi


@dataclass(frozen=True)
class TrialRow:
    """One trial's bookkeeping; k columns are None on closed-form paths."""

    trial_index: int
    n: int
    seed: int
    lambda_min: float
    lambda_max: float
    k_eps: Optional[int]
    k_star_eps: Optional[int]
    K_eps: int
    K_star_eps: int
    saturated: bool
    statistic: float

    def csv_row(self) -> list:
        blank = lambda v: "" if v is None else v
        return [self.trial_index, self.n, repr(self.lambda_min),
                repr(self.lambda_max), blank(self.k_eps), blank(self.k_star_eps),
                self.K_eps, self.K_star_eps, int(self.saturated),
                self.seed, repr(self.statistic)]


TRIALS_CSV_HEADER = ("trial_index", "n", "lambda_min", "lambda_max", "k_eps",
                     "k_star_eps", "K_eps", "K_star_eps", "saturated",
                     "seed", "statistic")


def _spec_for(config: ExperimentConfig, n: int, seed: int) -> EnsembleSpec:
    template = config.ensemble
    if template.kind == "jue":
        return EnsembleSpec("jue", n, n1=n + (template.n1 - template.n),
                            n2=n + (template.n2 - template.n), seed=seed)
    return EnsembleSpec(template.kind, n, seed=seed)


def rhs_vector(config: ExperimentConfig, dec: EigenDecomposition, seed: int):
    """The unit right-hand side of a measured trial under ``config.rhs_mode``."""
    n = dec.eigenvalues.size
    if config.rhs_mode == "basis_e1":
        b = np.zeros(n)
        b[0] = 1.0
        return b
    if config.rhs_mode == "max_eigvec":
        return sharpness_rhs(dec, "max_eig")
    g = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    b = g.standard_normal(n)
    return b / np.linalg.norm(b)


def _measure(config: ExperimentConfig, sample: EnsembleSample, seed: int):
    """Halting counts in the sample's eigenbasis: the sampler's own, else one eigh."""
    dec = sample.decomposition
    if dec is None:
        dec = symmetric_eig(sample.matrix)
    return halting_counts(dec, rhs_vector(config, dec, seed), config.epsilon)


def run_experiment(config: ExperimentConfig) -> list:
    """Run all trials; returns the trial table in deterministic order.

    Measured counts come from the sample's eigenbasis (``halting_counts``).
    On measured paths every non-saturated trial is audited against its bounds
    (k <= K, k* <= K*); a violation aborts the run — it would mean the
    implementation, not the mathematics, is wrong. A violation, or a trial the
    right-hand side cannot be built for, is reported with its trial index, n
    and seed.
    """
    rows = []
    index = 0
    for n in config.n_values:
        for _ in range(config.trials):
            seed = trial_seed(config.master_seed, index)
            sample = draw(_spec_for(config, n, seed))
            lmin, lmax = sample.lambda_min, sample.lambda_max
            bnd = bound_K(lmin, lmax, config.epsilon)
            kstar = bound_Kstar(lmin, lmax, config.epsilon)

            k_eps = k_star_eps = None
            saturated = False
            if config.statistic == "k_measured":
                try:
                    result = _measure(config, sample, seed)
                except PreconditionError as exc:
                    raise PreconditionError(
                        f"{exc} (trial {index}, n={n}, seed={seed})") from exc
                k_eps, k_star_eps = result.k_eps, result.k_star_eps
                saturated = result.saturated
                if not result.k_eps_saturated and k_eps > bnd.value:
                    raise NumericalError(
                        f"halting bound violated: k={k_eps} > K={bnd.value} "
                        f"(trial {index}, n={n}, seed={seed})"
                    )
                if not result.k_star_saturated and k_star_eps > kstar:
                    raise NumericalError(
                        f"residual bound violated: k*={k_star_eps} > K*={kstar} "
                        f"(trial {index}, n={n}, seed={seed})"
                    )
                value = float(k_eps)
            else:
                value = _CLOSED_FORM[config.statistic](config, n, bnd, lmax)

            rows.append(TrialRow(
                trial_index=index, n=n, seed=seed,
                lambda_min=lmin, lambda_max=lmax,
                k_eps=k_eps, k_star_eps=k_star_eps,
                K_eps=bnd.value, K_star_eps=kstar,
                saturated=saturated, statistic=value,
            ))
            index += 1
    return rows


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted sample with right-continuous CDF and its left limits."""

    samples: np.ndarray

    @classmethod
    def from_samples(cls, values) -> "EmpiricalDistribution":
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.size == 0:
            raise DomainError("need at least one sample")
        if not np.all(np.isfinite(arr)):
            raise DomainError("samples must be finite")
        return cls(samples=arr)

    @property
    def count(self) -> int:
        return int(self.samples.size)

    def cdf(self, t):
        pos = np.searchsorted(self.samples, t, side="right")
        out = pos / self.count
        return float(out) if np.ndim(t) == 0 else out

    def cdf_left(self, t):
        pos = np.searchsorted(self.samples, t, side="left")
        out = pos / self.count
        return float(out) if np.ndim(t) == 0 else out


def _reference_cdfs(reference):
    """(right, left) CDF callables; left is None when the law has no jumps."""
    if hasattr(reference, "cdf"):
        return reference.cdf, getattr(reference, "cdf_left", None)
    if callable(reference):
        return reference, None
    raise TypeError(f"reference must be callable or expose .cdf, got {type(reference)}")


def ks_distance(dist: EmpiricalDistribution, reference) -> float:
    """Kolmogorov-Smirnov distance between a sample and a reference law.

    Evaluated at the sample points from both sides; for a continuous reference
    this is the exact sup-distance. The reference may be a plain callable, a
    LimitLaw, or another EmpiricalDistribution (whose left limits are used, so
    a distribution compared against itself gives exactly 0).
    """
    right, left = _reference_cdfs(reference)
    xs = dist.samples
    n = dist.count
    f_right = np.asarray(right(xs), dtype=float)
    f_left = f_right if left is None else np.asarray(left(xs), dtype=float)
    upper = np.abs(np.arange(1, n + 1) / n - f_right)
    lower = np.abs(np.arange(0, n) / n - f_left)
    return float(max(upper.max(), lower.max()))


def histogram(dist: EmpiricalDistribution, bin_count: int):
    """Density-normalized histogram (edges, densities); integrates to 1.

    A sample whose values are all identical has no usable range; it gets a
    single machine-width bin and a warning rather than an exception.
    """
    if bin_count < 1:
        raise DomainError(f"need bin_count >= 1, got {bin_count}")
    xs = dist.samples
    if xs[0] == xs[-1]:
        warnings.warn("degenerate sample: all values equal; using a token-width bin")
        half = max(abs(xs[0]), 1.0) * 1e-12
        edges = np.array([xs[0] - half, xs[0] + half])
        # density against the realized float width, so the mass is exactly 1
        return edges, np.array([1.0 / (edges[1] - edges[0])])
    densities, edges = np.histogram(xs, bins=bin_count, density=True)
    return edges, densities


def reference_law(config: ExperimentConfig, quad_size: int = 60):
    """Limit law the configured statistic should be compared against.

    Direct statistics (reciprocal/refined/extreme-eig) compare to the edge-gap
    law; K_scaled compares to its reciprocal; measured raw counts have no
    finite limit law and get None.
    """
    if config.statistic == "k_measured":
        return None
    if config.ensemble.kind == "jue":
        base = LimitLaw.bessel_hard_edge(
            order=float(config.ensemble.n1 - config.ensemble.n),
            quad_size=quad_size)
    else:
        base = LimitLaw.exponential(0.5)
    if config.statistic == "K_scaled":
        return ReciprocalLaw(base)
    return base


def emit_report(rows: list, config: ExperimentConfig, outdir, bins: int = 40) -> dict:
    """Write trials.csv, summary.json, and per-n histogram CSVs.

    Files are deterministic byte-for-byte for a given (rows, config). Returns
    the paths written. An empty run (no n_values) still produces valid files
    with an explicit empty marker.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {"trials": outdir / "trials.csv", "summary": outdir / "summary.json"}

    with open(paths["trials"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIALS_CSV_HEADER)
        for row in rows:
            writer.writerow(row.csv_row())

    law = reference_law(config)
    per_n = []
    for n in config.n_values:
        values = [r.statistic for r in rows if r.n == n]
        dist = EmpiricalDistribution.from_samples(values)
        quantiles = np.quantile(dist.samples, [0.05, 0.25, 0.5, 0.75, 0.95])
        entry = {
            "n": n,
            "trials": dist.count,
            "saturated_count": sum(1 for r in rows if r.n == n and r.saturated),
            "mean": float(np.mean(dist.samples)),
            "quantiles": {"q05": quantiles[0], "q25": quantiles[1],
                          "q50": quantiles[2], "q75": quantiles[3],
                          "q95": quantiles[4]},
            "ks_distance": None if law is None else ks_distance(dist, law),
        }
        per_n.append(entry)

        edges, densities = histogram(dist, bins)
        mids = (edges[:-1] + edges[1:]) / 2.0
        halves = (edges[1:] - edges[:-1]) / 2.0
        has_ref = (law is not None) & (mids >= halves) & (halves > 0)
        ref = np.zeros(len(densities))
        if has_ref.any():
            ref[has_ref] = numeric_pdf(law, mids[has_ref], halves[has_ref])
        hist_path = outdir / f"histogram_n{n}.csv"
        paths[f"histogram_n{n}"] = hist_path
        with open(hist_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_left", "bin_right", "density", "reference_pdf"])
            for i in range(len(densities)):
                writer.writerow([repr(float(edges[i])), repr(float(edges[i + 1])),
                                 repr(float(densities[i])),
                                 repr(float(ref[i])) if has_ref[i] else ""])

    summary = {
        "config": config.to_json(),
        "empty": len(rows) == 0,
        "reference_law": None if law is None else law.describe(),
        "per_n": per_n,
    }
    if config.statistic == "Z_refined":
        summary["mean_log_xi"] = config.effective_mean_log_xi()
    with open(paths["summary"], "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
