"""Tests for the command-line interface (in-process via main())."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from neumann_bounds import (DomainError, EnsembleSpec, ExperimentConfig,
                            PreconditionError, fredholm_det, trial_seed)
from neumann_bounds.cli import main


class TestSample:
    def test_uniform_eigs_csv(self, tmp_path):
        out = tmp_path / "samples.csv"
        code = main(["sample", "--ensemble", "uniform-eigs", "--n", "50",
                     "--trials", "5", "--seed", "3", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == ["trial_index", "seed", "lambda_min", "lambda_max"]
        assert len(records) == 6
        for i, row in enumerate(records[1:]):
            assert int(row[0]) == i
            assert int(row[1]) == trial_seed(3, i)
            assert -1.0 < float(row[2]) <= float(row[3]) < 1.0

    def test_jue_uses_default_blocks(self, tmp_path):
        out = tmp_path / "jue.csv"
        assert main(["sample", "--ensemble", "jue", "--n", "12",
                     "--trials", "2", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 2
        for row in rows:
            assert float(row[2]) >= -1.0 - 1e-9
            assert float(row[3]) <= 1.0 + 1e-9

    def test_uniform_matrix_route(self, tmp_path):
        out = tmp_path / "u.csv"
        assert main(["sample", "--ensemble", "uniform", "--n", "20",
                     "--trials", "2", "--seed", "1", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(abs(float(r[3])) < 1.0 for r in rows)

    def test_block_heights_rejected_for_uniform_kinds(self, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(PreconditionError):
            main(["sample", "--ensemble", "uniform-eigs", "--n", "10",
                  "--n1", "3", "--out", str(out)])
        assert not out.exists()

    def test_kind_names_match_short_names(self, tmp_path):
        for short, kind in (("uniform-eigs", "eigenvalues-only-uniform"),
                            ("uniform", "uniform-eig-haar"), ("jue", "jue")):
            outs = [tmp_path / f"{name}.csv" for name in (short, kind)]
            for name, out in zip((short, kind), outs):
                assert main(["sample", "--ensemble", name, "--n", "8",
                             "--trials", "3", "--seed", "4", "--out", str(out)]) == 0
            assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_rejects_unknown_ensemble(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sample", "--ensemble", "goe", "--n", "5",
                  "--out", str(tmp_path / "x.csv")])


class TestRun:
    def test_end_to_end(self, tmp_path):
        config = ExperimentConfig(
            ensemble=EnsembleSpec("eigenvalues-only-uniform", 100),
            n_values=(100,), trials=50, alpha=1.0,
            statistic="extreme_eig_scaled", master_seed=7)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_json()))
        outdir = tmp_path / "report"
        code = main(["run", "--config", str(config_path),
                     "--out", str(outdir), "--bins", "8"])
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["per_n"][0]["trials"] == 50
        assert (outdir / "trials.csv").exists()
        assert (outdir / "histogram_n100.csv").exists()

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["run", "--config", str(tmp_path / "nope.json"),
                  "--out", str(tmp_path / "out")])


class TestLimitCdf:
    def test_exponential_table(self, tmp_path):
        out = tmp_path / "exp.csv"
        code = main(["limit-cdf", "--law", "exp", "--rate", "0.5",
                     "--t-max", "10", "--step", "0.05", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == ["t", "cdf", "pdf"]
        assert len(records) == 202  # 0.0 .. 10.0 inclusive, plus header
        cdfs = np.array([float(r[1]) for r in records[1:]])
        assert np.all(np.diff(cdfs) > 0)
        assert cdfs[-1] == pytest.approx(1 - np.exp(-5.0), rel=1e-12)

    def test_bessel_table(self, tmp_path):
        out = tmp_path / "bessel.csv"
        assert main(["limit-cdf", "--law", "bessel", "--order", "2",
                     "--quad", "30", "--t-max", "4", "--step", "0.5",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            records = list(csv.reader(fh))
        assert len(records) == 10
        assert float(records[1][1]) == 0.0  # CDF at t=0

    def test_bessel_table_matches_determinant(self, tmp_path):
        out = tmp_path / "edge.csv"
        assert main(["limit-cdf", "--law", "bessel", "--order", "2",
                     "--quad", "40", "--t-max", "25", "--step", "0.25",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            records = list(csv.reader(fh))[1:]
        for row in (records[3], records[20], records[57], records[100]):
            t = float(row[0])
            assert float(row[1]) == pytest.approx(
                1.0 - fredholm_det(2.0, 2.0 * t, 80), abs=1e-8)

    def test_bessel_single_point_rule_writes_nothing(self, tmp_path):
        out = tmp_path / "bad.csv"
        with pytest.raises(DomainError):
            main(["limit-cdf", "--law", "bessel", "--quad", "1",
                  "--out", str(out)])
        assert not out.exists()

    def test_rejects_unknown_law(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["limit-cdf", "--law", "gumbel", "--out",
                  str(tmp_path / "x.csv")])


class TestVerify:
    def test_fast_suite_passes_and_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["verify", "--suite", "lemma41",
                     "--json", str(report_path)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads(report_path.read_text())
        assert printed == on_disk
        assert on_disk["suite"] == "lemma41"
        assert on_disk["passed"] is True
        assert all(c["passed"] for c in on_disk["checks"])

    def test_rejects_unknown_suite(self):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "everything"])

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "neumann_bounds", "sample", "--ensemble",
         "uniform-eigs", "--n", "10", "--trials", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "wrote 1 samples" in proc.stdout
    assert out.exists()
