"""Benchmark of the neumann-bounds CLI, run in-process from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--record FILE]

With ``--trace 0`` a run repeats the workload's CLI command in batches for S
seconds of command time and reports the end-to-end metrics: ``setup_s``
(median over fresh interpreters of importing the package and parsing the
config or building the law), ``ops_per_s`` (median over batches of operations
per second of command time; an operation is a trial of ``run`` or a table row
of ``limit-cdf``) and ``peak_rss_mb``. Both timings are in reference seconds
(see speed.py); the details line also gives them in wall seconds. With
``--trace 1`` it runs a fixed number of batches with spans recorded around
calls into each module from outside the package, and reports the per-layer
split instead. Every run checks the outputs and exits 1 if a check fails; the
last line of standard output is the result object, the line before it the
details (quartiles and sample counts, checks, output digests, provenance).
``--workload all`` runs every workload at both trace settings, prints each
metric with its unit, and exits nonzero if any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "neumann_bounds"
SETUP_REPEATS = 5

# (module, attribute as the caller looks it up, span name "<layer>.<function>")
TRACE_POINTS = (
    ("cli", "run_experiment", "experiments.run_experiment"),
    ("cli", "emit_report", "experiments.emit_report"),
    ("cli", "export_cdf_table", "limits.export_cdf_table"),
    ("experiments", "trial_seed", "ensembles.trial_seed"),
    ("experiments", "draw", "ensembles.draw"),
    ("experiments", "bound_K", "iteration.bound_K"),
    ("experiments", "bound_Kstar", "iteration.bound_Kstar"),
    ("experiments", "iterate", "iteration.iterate"),
    ("experiments", "scaled_K", "iteration.scaled_K"),
    ("experiments", "refined_statistic", "iteration.refined_statistic"),
    ("experiments", "sharpness_rhs", "iteration.sharpness_rhs"),
    ("experiments", "symmetric_eig", "linalg.symmetric_eig"),
    ("experiments", "reference_law", "experiments.reference_law"),
    ("experiments", "ks_distance", "experiments.ks_distance"),
    ("experiments", "histogram", "experiments.histogram"),
    ("experiments", "numeric_pdf", "limits.numeric_pdf"),
    ("iteration", "symmetric_eig", "linalg.symmetric_eig"),
    ("iteration", "bound_K", "iteration.bound_K"),
    ("iteration", "bound_Kstar", "iteration.bound_Kstar"),
    ("ensembles", "inv_sqrt_psd", "linalg.inv_sqrt_psd"),
    ("linalg", "symmetric_eig", "linalg.symmetric_eig"),
    ("limits", "numeric_pdf", "limits.numeric_pdf"),
    ("limits", "jue_limit_cdf", "limits.jue_limit_cdf"),
    ("limits", "fredholm_det", "limits.fredholm_det"),
    ("limits", "LimitLaw.cdf", "limits.LimitLaw.cdf"),
)
LAYERS = ("cli", "experiments", "ensembles", "linalg", "iteration", "limits")


def _count_bessel_points(counters, args):
    law, t = args[0], args[1]
    if getattr(law, "kind", None) == "bessel-hard-edge":
        counters["cdf_points"] += int(np.size(t))


def install_trace(tracer) -> None:
    for module_name, attr, span_name in TRACE_POINTS:
        try:
            owner = importlib.import_module(f"neumann_bounds.{module_name}")
        except ImportError:
            tracer.absent.append(f"neumann_bounds.{module_name}.{attr}")
            continue
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None:
            tracer.absent.append(f"neumann_bounds.{module_name}.{attr}")
            continue
        count = _count_bessel_points if span_name == "limits.LimitLaw.cdf" else None
        tracer.wrap(owner, leaf, span_name, count=count)


def quartiles(values) -> dict:
    ordered = sorted(values)
    q1, median, q3 = (statistics.quantiles(ordered, n=4) if len(ordered) > 1
                      else ordered * 3)
    return {"median": median, "q1": q1, "q3": q3, "min": ordered[0],
            "max": ordered[-1], "samples": len(ordered)}


def measure_setup(workload, seed: int, speed) -> tuple:
    """Raw set-up seconds per fresh interpreter, and the same in reference seconds."""
    spec = json.dumps(workload.setup_spec(seed))
    raw, scaled = [], []
    before = speed()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), spec],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        after = speed()
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * 2.0 / (before + after))
        before = after
    return raw, scaled


class Run:
    """One benchmark run: batches of CLI commands, their checks and digests."""

    def __init__(self, workload, seed: int, workdir: Path):
        from neumann_bounds import cli

        self.cli, self.workload, self.seed, self.workdir = cli, workload, seed, workdir
        self.attempted = self.failed = 0
        self.walls, self.rates, self.checks, self.errors = [], [], {}, []
        self.slowdowns, self.scaled_rates, self._speed_after = [], [], None
        self.pool, self.facts = {}, {"bytes_written": 0, "steps": 0}
        self.digests, self.deterministic = {}, True
        self.batch_seeds, self._batches = [], {}

    def batch(self, index: int) -> dict:
        if index not in self._batches:
            self._batches[index] = self.workload.batch(self.seed, index)
            self.batch_seeds.append(self._batches[index]["seed"])
        return self._batches[index]

    def command(self, index: int, recorder=None, count_facts=True, speed=None) -> bool:
        """Run batch ``index`` once; returns False if the command raised.

        With ``speed`` (a SpeedProbe) the command is bracketed by two speed
        probes and its rate is also kept in reference seconds.
        """
        batch = self.batch(index)
        outdir = self.workdir / f"c{len(self.walls)}"
        argv = self.workload.argv(batch, outdir)
        self.attempted += batch["ops"]
        # The probe after one command also serves as the probe before the next.
        slowdown = (self._speed_after or speed()) if speed else 1.0
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                if recorder is None:
                    rc = self.cli.main(argv)
                else:
                    with recorder.span("cli.main"):
                        rc = self.cli.main(argv)
                wall = time.perf_counter() - start
        except (Exception, SystemExit) as exc:  # a failing command is a measured outcome
            self.failed += batch["ops"]
            self.errors.append(f"batch {index}: {type(exc).__name__}: {exc}")
            return False
        if speed:
            self._speed_after = speed()
            slowdown = (slowdown + self._speed_after) / 2.0
        self.walls.append(wall)
        self.slowdowns.append(slowdown)
        self.rates.append(batch["ops"] / wall)
        self.scaled_rates.append(batch["ops"] / wall * slowdown)
        failed = 0 if rc == 0 else batch["ops"]
        try:
            checks, facts = self.workload.check(batch, outdir, self.pool)
            digests = self._digest(outdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.errors.append(f"batch {index}: unreadable output: {exc}")
            checks, facts, digests = [], {}, None
            failed = batch["ops"]
        for c in checks:
            self._record(c)
            failed += c.failed_ops
        if index in self.digests and digests != self.digests[index]:
            self.deterministic = False
            failed = batch["ops"]
        self.digests.setdefault(index, digests)
        if count_facts:
            for key in self.facts:
                self.facts[key] += facts.get(key, 0)
        self.failed += min(failed, batch["ops"])
        shutil.rmtree(outdir, ignore_errors=True)
        return True

    def _digest(self, outdir: Path) -> dict:
        from workloads import file_digests
        return file_digests(self.workload.report_dir(outdir), self.workload.outputs)

    def _record(self, check) -> None:
        entry = self.checks.setdefault(check.name, {"runs": 0, "failed_ops": 0,
                                                    "values": []})
        entry["runs"] += 1
        entry["failed_ops"] += check.failed_ops
        if check.value is not None:
            entry["values"].append(check.value)

    def finish(self) -> None:
        if self.pool.get("trials"):
            for c in self.workload.pooled_checks(self.pool):
                self._record(c)
                self.failed = min(self.attempted, self.failed + c.failed_ops)

    def details(self) -> dict:
        checks = {}
        for name, entry in self.checks.items():
            values = entry.pop("values")
            checks[name] = dict(entry, worst=max(values) if values else None)
        return {
            "checks": checks, "errors": self.errors,
            "deterministic": self.deterministic,
            "digests_batch0": self.digests.get(0),
            "batch_seeds": self.batch_seeds,
            "fail_frac": self.failed / max(self.attempted, 1),
        }


def untraced(run: Run, seconds: float) -> tuple:
    from speed import SpeedProbe

    setup_raw, setup = measure_setup(run.workload, run.seed, SpeedProbe("interpreter"))
    speed = SpeedProbe(run.workload.speed_kind)
    # Batch 0 runs twice: the repeat checks byte-identical outputs.
    schedule = iter([0, 0])
    index = 0
    while sum(run.walls) < seconds or index + 1 < run.workload.min_batches:
        index = next(schedule, index + 1)
        if not run.command(index, speed=speed):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.finish()
    scaled = quartiles(run.scaled_rates) if run.rates else None
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": scaled["median"] if scaled else 0.0, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    name = run.workload.rate_name
    details = {"setup_s_samples": setup, "setup_wall_s_samples": setup_raw,
               name: scaled, f"{name}_wall": quartiles(run.rates) if run.rates else None,
               "slowdowns": run.slowdowns}
    return metrics, details


def traced(run: Run, seconds: float) -> tuple:
    from spans import SpanRecorder, Tracer

    batches = max(run.workload.min_batches, int(seconds / run.workload.traced_batch_s))
    # Batch 0 runs untraced twice first: the second, warm run is the
    # reference for the tracing overhead, and both for the digests.
    for _ in range(2):
        run.command(0, count_facts=False)
    untraced_wall = run.walls[-1] if run.walls else float("nan")
    recorder = SpanRecorder()
    tracer = Tracer(recorder)
    install_trace(tracer)
    try:
        for index in range(batches):
            if not run.command(index, recorder=recorder):
                break
    finally:
        tracer.unwrap()
    run.finish()
    overhead = run.walls[2] - untraced_wall if len(run.walls) > 2 else 0.0
    totals = recorder.totals()
    metrics = layer_metrics(totals, len(recorder.spans), tracer, run.facts, overhead)
    top = max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"]["value"])
    return metrics, {"traced_batches": batches, "top_self_layer": top,
                     "absent": tracer.absent, "spans": dict(sorted(totals.items()))}


def layer_metrics(totals: dict, span_count: int, tracer, facts: dict,
                  overhead: float) -> dict:
    def total(*names):
        return sum(totals.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, entry in totals.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + entry["self_s"]
    dets, points = calls("limits.fredholm_det"), tracer.counters["cdf_points"]
    iterate_s, draw_s = total("iteration.iterate"), total("ensembles.draw")
    values = {
        **{f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS},
        "experiments.harness_self_s": (
            totals.get("experiments.run_experiment", {}).get("self_s", 0.0), "s"),
        "experiments.report_self_s": (
            totals.get("experiments.emit_report", {}).get("self_s", 0.0), "s"),
        "experiments.ks_s": (total("experiments.ks_distance"), "s"),
        "experiments.histogram_s": (total("experiments.histogram"), "s"),
        "experiments.bytes_written": (facts["bytes_written"], "B"),
        "ensembles.draw_s": (draw_s, "s"),
        "ensembles.draw_calls": (calls("ensembles.draw"), "count"),
        "ensembles.draw_ms_per_call": (ratio(draw_s, calls("ensembles.draw"), 1e3), "ms"),
        "ensembles.trial_seed_s": (total("ensembles.trial_seed"), "s"),
        "linalg.symmetric_eig_calls": (calls("linalg.symmetric_eig"), "count"),
        "linalg.symmetric_eig_s": (total("linalg.symmetric_eig"), "s"),
        "linalg.inv_sqrt_psd_s": (total("linalg.inv_sqrt_psd"), "s"),
        "iteration.iterate_s": (iterate_s, "s"),
        "iteration.steps": (facts["steps"], "count"),
        "iteration.us_per_step": (ratio(iterate_s, facts["steps"], 1e6), "us"),
        "iteration.bound_s": (total("iteration.bound_K", "iteration.bound_Kstar"), "s"),
        "iteration.statistic_s": (
            total("iteration.scaled_K", "iteration.refined_statistic"), "s"),
        "limits.fredholm_dets": (dets, "count"),
        "limits.ms_per_det": (ratio(total("limits.fredholm_det"), dets, 1e3), "ms"),
        "limits.cdf_points": (points, "count"),
        "limits.memo_hit_frac": (1.0 - dets / points if points else 0.0, "frac"),
        "trace.overhead_s": (overhead, "s"),
        "trace.spans": (span_count, "count"),
        "trace.absent_names": (len(tracer.absent), "count"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def run_one(args) -> int:
    from provenance import provenance
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    run = Run(workload, args.seed, workdir)
    try:
        metrics, details = (traced if args.trace else untraced)(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = run.failed == 0 and not run.errors and run.deterministic
    details.update(run.details(), workload=workload.name,
                   seed=args.seed, seconds=args.seconds, trace=args.trace,
                   commands=len(run.walls), command_walls_s=run.walls,
                   provenance=provenance(ROOT, PACKAGE))
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                status = 1
            if len(lines) < 2:
                print(f"{name} trace={trace}: no result (exit {done.returncode})\n"
                      f"{done.stderr}")
                continue
            details, result = json.loads(lines[-2])["details"], json.loads(lines[-1])
            record["provenance"] = details.pop("provenance")
            record["workloads"].setdefault(name, {})[f"trace{trace}"] = {
                "result": result, "details": details}
            print(f"{name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="with --workload all: write every result to this JSON file")
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"no package source at {PACKAGE}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
