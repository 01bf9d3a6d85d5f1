"""Command-line entry points.

Four subcommands: ``sample`` (draw ensembles to CSV), ``run`` (full experiment
from a JSON config), ``limit-cdf`` (tabulate a limit law), and ``verify``
(run a named verification suite; exit status reflects the outcome).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .ensembles import KINDS, EnsembleSpec, draw
from .experiments import ExperimentConfig, emit_report, run_experiment
from .limits import LimitLaw, export_cdf_table
from .verify import SUITES, run_suite

# Short ``sample --ensemble`` names for the ensemble kinds; the kind names
# themselves are accepted too.
SAMPLE_KINDS = {"uniform": "uniform-eig-haar",
                "uniform-eigs": "eigenvalues-only-uniform", "jue": "jue"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neumann-bounds",
        description="Halting-time bounds for Neumann series iteration on "
                    "random symmetric matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw ensemble samples to CSV")
    p_sample.add_argument("--ensemble", required=True,
                          choices=sorted({*SAMPLE_KINDS, *KINDS}))
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--n1", type=int, default=None,
                          help="first block height for jue (default n+2)")
    p_sample.add_argument("--n2", type=int, default=None,
                          help="second block height for jue (default n+2)")
    p_sample.add_argument("--trials", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--bins", type=int, default=40)

    p_cdf = sub.add_parser("limit-cdf", help="tabulate a limit law CDF to CSV")
    p_cdf.add_argument("--law", required=True, choices=["exp", "bessel"])
    p_cdf.add_argument("--rate", type=float, default=0.5)
    p_cdf.add_argument("--order", type=float, default=2.0)
    p_cdf.add_argument("--quad", type=int, default=40)
    p_cdf.add_argument("--t-max", type=float, default=10.0)
    p_cdf.add_argument("--step", type=float, default=0.05)
    p_cdf.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=list(SUITES))
    p_verify.add_argument("--json", dest="json_out", default=None,
                          help="also write the report to this path")
    return parser


def _cmd_sample(args) -> int:
    spec = EnsembleSpec(SAMPLE_KINDS.get(args.ensemble, args.ensemble), args.n,
                        n1=args.n1, n2=args.n2, seed=args.seed)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial_index", "seed", "lambda_min", "lambda_max"])
        for index in range(args.trials):
            s = draw(spec, trial_index=index)
            writer.writerow([index, s.seed_used,
                             repr(s.lambda_min), repr(s.lambda_max)])
    print(f"wrote {args.trials} samples to {args.out}")
    return 0


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        config = ExperimentConfig.from_json(json.load(fh))
    rows = run_experiment(config)
    paths = emit_report(rows, config, Path(args.out), bins=args.bins)
    print(f"wrote {len(rows)} trials; summary at {paths['summary']}")
    return 0


def _cmd_limit_cdf(args) -> int:
    if args.law == "exp":
        law = LimitLaw.exponential(args.rate)
    else:
        law = LimitLaw.bessel_hard_edge(args.order, args.quad)
    rows = export_cdf_table(law, args.t_max, args.step, args.out)
    print(f"wrote {rows} rows to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite)
    payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
    print(payload)
    if args.json_out:
        Path(args.json_out).write_text(payload + "\n")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"sample": _cmd_sample, "run": _cmd_run,
                "limit-cdf": _cmd_limit_cdf, "verify": _cmd_verify}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
