"""The benchmark's workloads: what each run feeds the CLI, and how its outputs
are checked.

A run repeats *batches*. A batch is one CLI command (``run`` with a generated
config, or ``limit-cdf`` with a generated grid) whose inputs derive from
(benchmark seed, batch index) alone; the package receives only the generated
config or arguments.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

EPSILON = 1e-3
# The KS threshold that verify uses for these statistics (criteria 06 and 08).
KS_BOUND = 0.1
# Tolerance of the criterion-07 comparison of the m=40 rule against m=80.
FREDHOLM_TOL = 1e-8


def derived_seed(*words: int) -> int:
    return int(np.random.SeedSequence(words).generate_state(1, np.uint32)[0])


def file_digests(outdir: Path, names) -> dict:
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in names}


def ks_sorted(cdf_at_sample: np.ndarray) -> float:
    """Two-sided KS distance, given a continuous CDF at the sorted sample."""
    n = cdf_at_sample.size
    return float(max(np.max(np.arange(1, n + 1) / n - cdf_at_sample),
                     np.max(cdf_at_sample - np.arange(0, n) / n)))


def exp_half_ks(values: np.ndarray) -> float:
    """Two-sided KS distance of a sample against Exp(rate 1/2)."""
    return ks_sorted(-np.expm1(-0.5 * np.clip(np.sort(values), 0.0, None)))


def read_csv_columns(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [r[i] for r in body] for i, name in enumerate(header)}


def _ints(column) -> np.ndarray:
    return np.array([int(v) for v in column], dtype=np.int64)


def _floats(column) -> np.ndarray:
    return np.array([float(v) for v in column])


class Check:
    """One correctness check over one batch (or the pooled run)."""

    def __init__(self, name: str, failed_ops: int, value=None):
        self.name, self.failed_ops, self.value = name, int(failed_ops), value


class Workload:
    """A named CLI command whose batches derive from (seed, batch index).

    ``traced_batch_s`` sizes the traced run, which runs a fixed number of
    batches so that its counts repeat exactly; ``min_batches`` is the least
    number of distinct batches a run needs for its checks.
    """

    rate_name = "trials_per_s"  # what ops_per_s counts, as named in the details line
    speed_kind = "interpreter"  # the speed.py reference task matching the hot path
    outputs = ("trials.csv", "summary.json")

    def __init__(self, name, tag, traced_batch_s, min_batches=2):
        self.name, self.tag = name, tag
        self.traced_batch_s, self.min_batches = traced_batch_s, min_batches

    def pooled_checks(self, pool: dict) -> list:
        return []


class RunWorkload(Workload):
    """``neumann-bounds run`` on a generated config."""

    def __init__(self, name, tag, template, traced_batch_s, min_batches=2):
        super().__init__(name, tag, traced_batch_s, min_batches)
        self.template = template

    def master_seed(self, seed: int, index: int) -> int:
        return derived_seed(self.tag, seed, index)

    def batch(self, seed: int, index: int) -> dict:
        config = dict(self.template, master_seed=self.master_seed(seed, index))
        return {"index": index, "seed": config["master_seed"], "config": config,
                "ops": config["trials"] * len(config["n_values"])}

    def setup_spec(self, seed: int) -> dict:
        return {"config": self.batch(seed, 0)["config"]}

    def argv(self, batch: dict, outdir: Path) -> list:
        outdir.mkdir(parents=True)
        config_path = outdir / "config.json"
        config_path.write_text(json.dumps(batch["config"]))
        return ["run", "--config", str(config_path), "--out", str(outdir / "report")]

    def report_dir(self, outdir: Path) -> Path:
        return outdir / "report"

    def check(self, batch: dict, outdir: Path, pool: dict):
        """Checks on one batch's report; returns (checks, facts)."""
        report = self.report_dir(outdir)
        config = batch["config"]
        table = read_csv_columns(report / "trials.csv")
        summary = json.loads((report / "summary.json").read_text())
        expected_n = np.repeat(config["n_values"], config["trials"])
        n_col = _ints(table["n"])
        shape_ok = (n_col.size == expected_n.size and np.array_equal(n_col, expected_n)
                    and np.array_equal(_ints(table["trial_index"]),
                                       np.arange(expected_n.size))
                    and [e["trials"] for e in summary["per_n"]]
                    == [config["trials"]] * len(config["n_values"]))
        checks = [Check("rows", 0 if shape_ok else batch["ops"])]
        facts = {"bytes_written": sum(p.stat().st_size for p in report.iterdir()),
                 "steps": 0}
        if shape_ok:
            self.check_rows(config, table, summary, checks, facts, pool)
        return checks, facts

    def check_rows(self, config, table, summary, checks, facts, pool):
        raise NotImplementedError


class MeasuredHaar(RunWorkload):
    """k_measured batches whose bound work per matrix size is fixed.

    A measured trial costs about K_eps matrix-vector products, and K_eps grows
    like 1/(1 - lambda_max), whose mean is infinite for uniform eigenvalues:
    unconditioned batches of any affordable size differ about threefold in
    work between seeds. Each batch therefore takes the first master seed
    (derived from the benchmark seed) whose sum of K over the trials of each
    n lies within WORK_BAND of that n's WORK_TARGET, the median of the sum.
    Fixing each n separately keeps the batch steady whatever a step costs at
    each size. The sums are computed here from the ensemble's eigenvalue draw
    (``default_rng(trial_seed).uniform(-1, 1, n)``, drawn before the basis),
    without calling the package, so the inputs do not move when it changes.
    """

    WORK_TARGET = {100: 13_200.0, 200: 27_400.0}
    WORK_BAND = 0.1
    MAX_CANDIDATES = 100_000

    def master_seed(self, seed: int, index: int) -> int:
        trials = self.template["trials"]
        for j in range(self.MAX_CANDIDATES):
            master = derived_seed(self.tag, seed, index, j)
            if all(abs(self.bound_sum(master, n, i * trials) / self.WORK_TARGET[n] - 1.0)
                   < self.WORK_BAND for i, n in enumerate(self.template["n_values"])):
                return master
        raise RuntimeError(f"no work-matched batch for seed {seed}, batch {index}")

    def bound_sum(self, master: int, n: int, first_index: int) -> float:
        """Sum of the continuous bound max(k1, kn) over one n's trials."""
        total, log_eps = 0.0, math.log(EPSILON)
        for index in range(first_index, first_index + self.template["trials"]):
            trial = int(np.random.SeedSequence((master, index)).generate_state(1, np.uint64)[0])
            lam = np.random.default_rng(trial).uniform(-1.0, 1.0, n)
            total += max((log_eps + math.log(1.0 - x)) / math.log(abs(x))
                         for x in (lam.min(), lam.max()))
        return total

    def check_rows(self, config, table, summary, checks, facts, pool):
        k, k_star = _ints(table["k_eps"]), _ints(table["k_star_eps"])
        bad = ((_ints(table["saturated"]) != 0) | (k > _ints(table["K_eps"]))
               | (k_star > _ints(table["K_star_eps"])))
        checks.append(Check("bound-audit", bad.sum(), int(bad.sum())))
        facts["steps"] = int(np.maximum(k, k_star).sum())


class JueEdge(RunWorkload):
    """Scaled JUE top edge; KS-checked on the pooled run against the Bessel law.

    At n = 200 the scaled edges still sit about 0.03 in KS distance from their
    limit, so a pooled sample of both edges needs about 500 distinct trials
    before a KS above 0.1 becomes rarer than one run in a thousand; runs
    therefore draw at least 20 batches of 25.
    """

    speed_kind = "dense"

    def check_rows(self, config, table, summary, checks, facts, pool):
        n = config["n_values"][0]
        lmin, lmax = _floats(table["lambda_min"]), _floats(table["lambda_max"])
        stat = _floats(table["statistic"])
        expect = float(n) ** config["alpha"] * (1.0 - lmax)
        off = ~np.isclose(stat, expect, rtol=1e-12, atol=0.0)
        ks = summary["per_n"][0]["ks_distance"]
        checks.append(Check("statistic", off.sum(), int(off.sum())))
        checks.append(Check("summary-ks", 0 if ks is not None and math.isfinite(ks)
                            else stat.size, ks))
        if first_sighting(pool, config["master_seed"]):
            # n1 = n2 makes W and -W equal in law, so both edges follow the
            # same hard-edge limit and pool into one sample.
            pool.setdefault("edges", []).extend([stat, float(n) ** config["alpha"] * (1.0 + lmin)])
            pool["trials"] = pool.get("trials", 0) + stat.size

    def pooled_checks(self, pool: dict) -> list:
        from neumann_bounds.limits import LimitLaw

        sample = np.sort(np.concatenate(pool["edges"]))
        law = LimitLaw.bessel_hard_edge(2.0, 60)
        grid = np.linspace(0.0, sample[-1], 400)
        ks = ks_sorted(np.interp(sample, grid, np.asarray(law.cdf(grid), dtype=float)))
        return [Check("hard-edge-ks-pooled", 0 if ks < KS_BOUND else pool["trials"], ks)]


def first_sighting(pool: dict, master_seed: int) -> bool:
    """True the first time a batch is seen, so repeats do not enter the pool."""
    seen = pool.setdefault("seen", set())
    if master_seed in seen:
        return False
    seen.add(master_seed)
    return True


class ClosedFormUniform(RunWorkload):
    """Z_refined on the eigenvalues-only path; KS against Exp(1/2) per n."""

    speed_kind = "harness"

    def check_rows(self, config, table, summary, checks, facts, pool):
        n_col, stat = _ints(table["n"]), _floats(table["statistic"])
        for entry in summary["per_n"]:
            values = stat[n_col == entry["n"]]
            ks = exp_half_ks(values)
            agrees = entry["ks_distance"] is not None and abs(ks - entry["ks_distance"]) < 1e-9
            checks.append(Check("refined-ks", 0 if ks < KS_BOUND and agrees else values.size, ks))


class BesselTable(Workload):
    """``neumann-bounds limit-cdf --law bessel`` on a generated fine grid."""

    rate_name = "cdf_points_per_s"
    speed_kind = "fredholm"
    outputs = ("table.csv",)
    ORDER, QUAD, ROWS, SPOTS = 2.0, 40, 401, 4

    def batch(self, seed: int, index: int) -> dict:
        batch_seed = derived_seed(self.tag, seed, index)
        rng = np.random.default_rng(batch_seed)
        t_max = 24.0 + 2.0 * rng.random()
        return {"index": index, "seed": batch_seed, "t_max": t_max, "step": t_max / (self.ROWS - 1),
                "spots": rng.integers(1, self.ROWS, self.SPOTS), "ops": self.ROWS}

    def setup_spec(self, seed: int) -> dict:
        return {"law": {"order": self.ORDER, "quad": self.QUAD}}

    def argv(self, batch: dict, outdir: Path) -> list:
        outdir.mkdir(parents=True)
        return ["limit-cdf", "--law", "bessel", "--order", repr(self.ORDER),
                "--quad", str(self.QUAD), "--t-max", repr(batch["t_max"]),
                "--step", repr(batch["step"]), "--out", str(outdir / "table.csv")]

    def report_dir(self, outdir: Path) -> Path:
        return outdir

    def check(self, batch: dict, outdir: Path, pool: dict):
        from neumann_bounds.limits import fredholm_det

        table = read_csv_columns(outdir / "table.csv")
        t, cdf = _floats(table["t"]), _floats(table["cdf"])
        grid_ok = t.size == self.ROWS and np.allclose(
            t, np.arange(self.ROWS) * batch["step"], rtol=1e-12, atol=1e-12)
        checks = [Check("rows", 0 if grid_ok else self.ROWS)]
        if grid_ok:
            drops = int(np.sum(np.diff(cdf) < 0))
            checks.append(Check("cdf-monotone", drops, drops))
            worst = 0.0
            misses = 0
            for i in batch["spots"]:
                ref = min(1.0, max(0.0, 1.0 - fredholm_det(self.ORDER, 2.0 * t[i], 80)))
                gap = abs(cdf[i] - ref)
                worst = max(worst, gap)
                misses += gap > FREDHOLM_TOL
            checks.append(Check("cdf-spot-m80", misses, worst))
        return checks, {"bytes_written": 0, "steps": 0}


WORKLOADS = {w.name: w for w in (
    MeasuredHaar(
        "measured-haar", 1,
        {"ensemble": {"kind": "uniform-eig-haar", "n": 100}, "n_values": [100, 200],
         "trials": 5, "epsilon": EPSILON, "alpha": 1.0, "statistic": "k_measured",
         "rhs_mode": "random_unit_sphere"},
        traced_batch_s=0.7),
    JueEdge(
        "jue-edge", 2,
        {"ensemble": {"kind": "jue", "n": 200, "n1": 202, "n2": 202}, "n_values": [200],
         "trials": 25, "epsilon": EPSILON, "alpha": 2.0,
         "statistic": "extreme_eig_scaled", "rhs_mode": "random_unit_sphere"},
        traced_batch_s=1.1, min_batches=20),  # 500 trials: see JueEdge
    ClosedFormUniform(
        "closed-form-uniform", 3,
        {"ensemble": {"kind": "eigenvalues-only-uniform", "n": 1000},
         "n_values": [1000, 10000], "trials": 3000, "epsilon": EPSILON, "alpha": 1.0,
         "statistic": "Z_refined", "rhs_mode": "random_unit_sphere"},
        traced_batch_s=0.8),
    BesselTable("bessel-table", 4, traced_batch_s=1.0),
)}
