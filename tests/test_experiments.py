"""Tests for the experiment harness and empirical statistics."""

import csv
import dataclasses
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from neumann_bounds import (EXP_HALF_MEAN_LOG, DomainError,
                            EmpiricalDistribution, EnsembleSpec,
                            ExperimentConfig, LimitLaw, NumericalError,
                            PreconditionError, ReciprocalLaw, bound_K,
                            emit_report, experiments, histogram, ks_distance,
                            reference_law, run_experiment, scaled_K,
                            trial_seed)
from neumann_bounds.experiments import TRIALS_CSV_HEADER


def _uniform_config(**overrides):
    base = dict(
        ensemble=EnsembleSpec("eigenvalues-only-uniform", 50),
        n_values=(50,),
        trials=20,
        statistic="extreme_eig_scaled",
        alpha=1.0,
        master_seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestEmpiricalDistribution:
    def test_step_values(self):
        dist = EmpiricalDistribution.from_samples([3.0, 1.0, 2.0])
        assert dist.cdf(0.5) == 0.0
        assert dist.cdf(1.0) == pytest.approx(1 / 3)
        assert dist.cdf(2.0) == pytest.approx(2 / 3)
        assert dist.cdf(2.5) == pytest.approx(2 / 3)
        assert dist.cdf(3.0) == 1.0
        assert dist.cdf_left(1.0) == 0.0
        assert dist.cdf_left(2.0) == pytest.approx(1 / 3)

    def test_sorts_input(self):
        dist = EmpiricalDistribution.from_samples([3.0, 1.0, 2.0])
        npt.assert_array_equal(dist.samples, [1.0, 2.0, 3.0])
        assert dist.count == 3

    def test_vectorized_cdf(self):
        dist = EmpiricalDistribution.from_samples([1.0, 2.0])
        npt.assert_allclose(dist.cdf(np.array([0.0, 1.5, 5.0])), [0, 0.5, 1])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(DomainError):
            EmpiricalDistribution.from_samples([])
        with pytest.raises(DomainError):
            EmpiricalDistribution.from_samples([1.0, np.nan])
        with pytest.raises(DomainError):
            EmpiricalDistribution.from_samples([np.inf])


class TestKsDistance:
    def test_single_sample_at_median(self):
        dist = EmpiricalDistribution.from_samples([2 * math.log(2)])
        assert ks_distance(dist, lambda t: 1 - np.exp(-np.asarray(t) / 2)) \
            == pytest.approx(0.5, abs=1e-12)

    def test_self_comparison_is_zero(self):
        rng = np.random.default_rng(300)
        dist = EmpiricalDistribution.from_samples(rng.exponential(2.0, 50))
        assert ks_distance(dist, dist) == 0.0

    def test_hand_computed_value(self):
        dist = EmpiricalDistribution.from_samples([0.25, 0.5, 0.75])
        uniform01 = lambda t: np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        assert ks_distance(dist, uniform01) == pytest.approx(0.25, abs=1e-15)

    def test_matched_exponential_sample(self):
        rng = np.random.default_rng(301)
        dist = EmpiricalDistribution.from_samples(rng.exponential(2.0, 1000))
        law = LimitLaw.exponential(0.5)
        ks = ks_distance(dist, law)
        assert ks < 1.36 / math.sqrt(1000)
        # law object and plain callable agree exactly
        assert ks == ks_distance(dist, lambda t: law.cdf(t))

    def test_calibration_under_the_null(self):
        # 99% critical value: at most a stray failure in 100 replicates
        rng = np.random.default_rng(302)
        critical = 1.628 / math.sqrt(1000)
        failures = 0
        for _ in range(100):
            dist = EmpiricalDistribution.from_samples(rng.exponential(2.0, 1000))
            if ks_distance(dist, lambda t: 1 - np.exp(-np.asarray(t) / 2)) > critical:
                failures += 1
        assert failures <= 1

    def test_rejects_unusable_reference(self):
        dist = EmpiricalDistribution.from_samples([1.0])
        with pytest.raises(TypeError):
            ks_distance(dist, 3.14)


class TestHistogram:
    def test_uniform_densities(self):
        rng = np.random.default_rng(303)
        dist = EmpiricalDistribution.from_samples(rng.uniform(0, 1, 10_000))
        edges, densities = histogram(dist, 10)
        assert len(densities) == 10 and len(edges) == 11
        npt.assert_allclose(densities, 1.0, atol=0.1)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(304)
        dist = EmpiricalDistribution.from_samples(rng.exponential(1.0, 500))
        edges, densities = histogram(dist, 23)
        assert np.sum(densities * np.diff(edges)) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_sample_warns(self):
        dist = EmpiricalDistribution.from_samples([5.0, 5.0, 5.0])
        with pytest.warns(UserWarning, match="degenerate"):
            edges, densities = histogram(dist, 10)
        assert len(densities) == 1
        assert np.sum(densities * np.diff(edges)) == pytest.approx(1.0)
        assert edges[0] < 5.0 < edges[1]

    def test_rejects_zero_bins(self):
        dist = EmpiricalDistribution.from_samples([1.0, 2.0])
        with pytest.raises(DomainError):
            histogram(dist, 0)


class TestExperimentConfig:
    def test_json_round_trip(self):
        config = ExperimentConfig(
            ensemble=EnsembleSpec("jue", 20, n1=23, n2=24),
            n_values=(20, 40),
            trials=7,
            epsilon=1e-4,
            alpha=2.0,
            statistic="K_scaled",
            rhs_mode="basis_e1",
            master_seed=5,
            mean_log_xi=0.2,
        )
        assert ExperimentConfig.from_json(config.to_json()) == config

    def test_from_json_defaults(self):
        config = ExperimentConfig.from_json({
            "ensemble": {"kind": "eigenvalues-only-uniform", "n": 10},
            "n_values": [10],
            "trials": 3,
        })
        assert config.epsilon == 1e-3
        assert config.alpha == 1.0
        assert config.statistic == "K_reciprocal_scaled"
        assert config.rhs_mode == "random_unit_sphere"
        assert config.mean_log_xi is None

    def test_from_json_rejects_unknown_keys(self):
        data = {"ensemble": {"kind": "eigenvalues-only-uniform", "n": 10},
                "n_values": [10], "trials": 3, "trails": 7}
        with pytest.raises(DomainError, match="trails"):
            ExperimentConfig.from_json(data)

    def test_from_json_ensemble_and_missing_keys_are_domain_errors(self):
        data = {"ensemble": {"kind": "jue", "n": 10, "n_1": 30},
                "n_values": [10], "trials": 3}
        with pytest.raises(DomainError, match="n_1"):
            ExperimentConfig.from_json(data)
        data["ensemble"] = {"kind": "eigenvalues-only-uniform", "n": 10}
        for key in ("ensemble", "n_values", "trials"):
            partial = {k: v for k, v in data.items() if k != key}
            with pytest.raises(DomainError, match=key):
                ExperimentConfig.from_json(partial)

    def test_from_json_rejects_non_integral_sizes(self):
        base = {"ensemble": {"kind": "eigenvalues-only-uniform", "n": 10},
                "n_values": [10], "trials": 2}
        for key, value in (("n_values", [10.9]), ("n_values", [10, 20.5]),
                           ("trials", 2.9), ("master_seed", 0.5),
                           ("trials", "2")):
            with pytest.raises(DomainError, match=key):
                ExperimentConfig.from_json({**base, key: value})
        data = {**base, "ensemble": {"kind": "eigenvalues-only-uniform", "n": 10.7}}
        with pytest.raises(DomainError, match="'n'|n must"):
            ExperimentConfig.from_json(data)
        config = ExperimentConfig.from_json({**base, "n_values": [10.0], "trials": 2.0})
        assert config.n_values == (10,) and config.trials == 2

    def test_alpha_is_the_ensemble_edge_exponent(self):
        config = ExperimentConfig.from_json({
            "ensemble": {"kind": "jue", "n": 40}, "n_values": [40],
            "trials": 50, "statistic": "extreme_eig_scaled"})
        assert config.alpha == 2.0
        rows = run_experiment(config)
        dist = EmpiricalDistribution.from_samples([r.statistic for r in rows])
        assert ks_distance(dist, reference_law(config)) < 0.3
        with pytest.raises(DomainError, match="alpha"):
            ExperimentConfig(ensemble=EnsembleSpec("jue", 40), n_values=(40,),
                             trials=2, alpha=1.0)
        with pytest.raises(DomainError, match="alpha"):
            _uniform_config(alpha=2.0)

    def test_rejects_duplicate_n_values(self):
        with pytest.raises(DomainError, match="distinct"):
            _uniform_config(n_values=[100, 100])
        with pytest.raises(DomainError, match="distinct"):
            ExperimentConfig.from_json({
                "ensemble": {"kind": "eigenvalues-only-uniform", "n": 10},
                "n_values": [10, 20, 10], "trials": 3})

    def test_n_values_coerced_to_int_tuple(self):
        config = _uniform_config(n_values=[30.0, 60])
        assert config.n_values == (30, 60)

    def test_effective_mean_log_correction(self):
        assert _uniform_config().effective_mean_log_xi() == EXP_HALF_MEAN_LOG
        assert _uniform_config(mean_log_xi=0.25).effective_mean_log_xi() == 0.25

    def test_validation(self):
        with pytest.raises(DomainError):
            _uniform_config(trials=0)
        with pytest.raises(DomainError):
            _uniform_config(epsilon=0.5)
        with pytest.raises(DomainError):
            _uniform_config(alpha=0.0)
        with pytest.raises(DomainError):
            _uniform_config(statistic="median_k")
        with pytest.raises(DomainError):
            _uniform_config(rhs_mode="ones")
        with pytest.raises(DomainError):
            _uniform_config(master_seed=-3)
        with pytest.raises(PreconditionError):
            _uniform_config(statistic="k_measured")


class TestRunExperiment:
    def test_deterministic_replay(self):
        config = _uniform_config(n_values=(40, 60), trials=5)
        assert run_experiment(config) == run_experiment(config)

    def test_trial_bookkeeping(self):
        config = _uniform_config(n_values=(10, 15), trials=3)
        rows = run_experiment(config)
        assert [r.trial_index for r in rows] == list(range(6))
        assert [r.n for r in rows] == [10, 10, 10, 15, 15, 15]
        assert len({r.seed for r in rows}) == 6
        for row in rows:
            assert row.seed == trial_seed(99, row.trial_index)
            assert row.lambda_min <= row.lambda_max

    def test_extreme_eig_statistic_recomputable(self):
        jue = _uniform_config(ensemble=EnsembleSpec("jue", 10), n_values=(10,),
                              trials=3, alpha=2.0)
        for config in (_uniform_config(alpha=1.0), jue):
            for row in run_experiment(config):
                assert row.statistic == row.n ** config.alpha * (1.0 - row.lambda_max)
                assert row.k_eps is None and row.k_star_eps is None

    def test_closed_form_statistics_recomputable(self):
        for statistic in ("K_scaled", "K_reciprocal_scaled", "Z_refined"):
            config = _uniform_config(statistic=statistic, trials=5)
            for row in run_experiment(config):
                bnd = bound_K(row.lambda_min, row.lambda_max, config.epsilon)
                assert row.K_eps == bnd.value
                sk = scaled_K(bnd.value, row.n, 1.0, config.epsilon)
                if statistic == "K_scaled":
                    assert row.statistic == sk
                elif statistic == "K_reciprocal_scaled":
                    assert row.statistic == 1.0 / sk

    def test_measured_counts_pass_audit(self):
        config = ExperimentConfig(
            ensemble=EnsembleSpec("uniform-eig-haar", 12),
            n_values=(12,), trials=4, statistic="k_measured", master_seed=17)
        rows = run_experiment(config)
        for row in rows:
            assert 1 <= row.k_eps <= row.K_eps
            assert 1 <= row.k_star_eps <= row.K_star_eps
            assert not row.saturated
            assert row.statistic == float(row.k_eps)

    def test_measured_rhs_modes(self):
        for mode in ("basis_e1", "max_eigvec"):
            config = ExperimentConfig(
                ensemble=EnsembleSpec("uniform-eig-haar", 10),
                n_values=(10,), trials=2, statistic="k_measured",
                rhs_mode=mode, master_seed=23)
            rows = run_experiment(config)
            assert all(r.k_eps >= 1 for r in rows)

    def test_max_eigvec_failure_names_trial(self):
        # trial 9 draws three negative eigenvalues: no top eigenvector rhs
        config = ExperimentConfig(
            ensemble=EnsembleSpec("uniform-eig-haar", 3), n_values=(3,),
            trials=40, statistic="k_measured", rhs_mode="max_eigvec",
            master_seed=1)
        where = rf"\(trial 9, n=3, seed={trial_seed(1, 9)}\)"
        with pytest.raises(PreconditionError, match=rf"lambda_max.*{where}"):
            run_experiment(config)

    def test_audit_catches_counts_above_the_bound(self, monkeypatch):
        real = experiments.halting_counts

        def over_the_bound(dec, b, eps):
            result = real(dec, b, eps)
            k = bound_K(dec.lambda_min, dec.lambda_max, eps).value + 1
            return dataclasses.replace(result, k_eps=k)

        monkeypatch.setattr(experiments, "halting_counts", over_the_bound)
        config = ExperimentConfig(
            ensemble=EnsembleSpec("uniform-eig-haar", 12), n_values=(12,),
            trials=3, statistic="k_measured", master_seed=17)
        where = rf"\(trial 0, n=12, seed={trial_seed(17, 0)}\)"
        with pytest.raises(NumericalError, match=rf"k=\d+ > K=\d+ {where}"):
            run_experiment(config)

    def test_measured_trials_decompose_only_jue(self, monkeypatch):
        calls = []
        real = experiments.symmetric_eig
        monkeypatch.setattr(experiments, "symmetric_eig",
                            lambda m: calls.append(m) or real(m))
        for mode in ("random_unit_sphere", "basis_e1", "max_eigvec"):
            run_experiment(ExperimentConfig(
                ensemble=EnsembleSpec("uniform-eig-haar", 10), n_values=(10,),
                trials=3, statistic="k_measured", rhs_mode=mode, master_seed=23))
        assert calls == []
        for mode in ("random_unit_sphere", "max_eigvec"):
            run_experiment(ExperimentConfig(
                ensemble=EnsembleSpec("jue", 8), n_values=(8,), trials=2,
                statistic="k_measured", rhs_mode=mode, master_seed=31))
        assert len(calls) == 4

    def test_measured_on_jue(self):
        config = ExperimentConfig(
            ensemble=EnsembleSpec("jue", 8),
            n_values=(8,), trials=2, statistic="k_measured", master_seed=31)
        rows = run_experiment(config)
        assert all(isinstance(r.statistic, float) for r in rows)


class TestReferenceLaw:
    def test_uniform_maps_to_exponential(self):
        law = reference_law(_uniform_config())
        assert law.describe() == {"kind": "exponential", "rate": 0.5}

    def test_jue_maps_to_hard_edge_with_offset_order(self):
        config = ExperimentConfig(
            ensemble=EnsembleSpec("jue", 30),  # n1 = n2 = 32 by default
            n_values=(30,), trials=2, statistic="extreme_eig_scaled", alpha=2.0)
        law = reference_law(config, quad_size=50)
        assert law.describe() == {"kind": "bessel-hard-edge", "order": 2.0,
                                  "quad_size": 50}

    def test_scaled_bound_gets_reciprocal_law(self):
        law = reference_law(_uniform_config(statistic="K_scaled"))
        assert isinstance(law, ReciprocalLaw)
        assert law.describe()["base"] == {"kind": "exponential", "rate": 0.5}

    def test_measured_counts_have_no_law(self):
        config = ExperimentConfig(
            ensemble=EnsembleSpec("uniform-eig-haar", 10),
            n_values=(10,), trials=2, statistic="k_measured")
        assert reference_law(config) is None


class TestEmitReport:
    def test_file_layout(self, tmp_path):
        config = _uniform_config(n_values=(50, 80), trials=30)
        rows = run_experiment(config)
        paths = emit_report(rows, config, tmp_path)
        assert paths["trials"].exists() and paths["summary"].exists()
        assert (tmp_path / "histogram_n50.csv").exists()
        assert (tmp_path / "histogram_n80.csv").exists()

        with open(paths["trials"], newline="") as fh:
            records = list(csv.reader(fh))
        assert tuple(records[0]) == TRIALS_CSV_HEADER
        assert len(records) == 1 + len(rows)
        # closed-form path leaves the measured-count columns blank
        assert records[1][4] == "" and records[1][5] == ""
        assert int(records[1][9]) == rows[0].seed

    def test_summary_contents(self, tmp_path):
        config = _uniform_config(n_values=(60,), trials=40)
        rows = run_experiment(config)
        emit_report(rows, config, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"] == config.to_json()
        assert summary["empty"] is False
        assert summary["reference_law"] == {"kind": "exponential", "rate": 0.5}
        entry, = summary["per_n"]
        assert entry["n"] == 60 and entry["trials"] == 40
        assert entry["saturated_count"] == 0
        q = entry["quantiles"]
        assert q["q05"] <= q["q25"] <= q["q50"] <= q["q75"] <= q["q95"]
        assert 0.0 <= entry["ks_distance"] <= 1.0

    def test_refined_statistic_records_correction(self, tmp_path):
        config = _uniform_config(statistic="Z_refined", trials=10)
        emit_report(run_experiment(config), config, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mean_log_xi"] == EXP_HALF_MEAN_LOG

    def test_measured_counts_have_null_ks(self, tmp_path):
        config = ExperimentConfig(
            ensemble=EnsembleSpec("uniform-eig-haar", 10),
            n_values=(10,), trials=3, statistic="k_measured", master_seed=2)
        emit_report(run_experiment(config), config, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["reference_law"] is None
        assert summary["per_n"][0]["ks_distance"] is None

    def test_byte_for_byte_deterministic(self, tmp_path):
        config = _uniform_config(trials=15)
        rows = run_experiment(config)
        emit_report(rows, config, tmp_path / "a")
        emit_report(run_experiment(config), config, tmp_path / "b")
        for name in ("trials.csv", "summary.json", "histogram_n50.csv"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_empty_run(self, tmp_path):
        config = _uniform_config(n_values=())
        paths = emit_report([], config, tmp_path)
        summary = json.loads(paths["summary"].read_text())
        assert summary["empty"] is True and summary["per_n"] == []
        with open(paths["trials"], newline="") as fh:
            records = list(csv.reader(fh))
        assert len(records) == 1  # header only

    def test_histogram_file_is_a_density(self, tmp_path):
        config = _uniform_config(trials=60)
        emit_report(run_experiment(config), config, tmp_path, bins=12)
        with open(tmp_path / "histogram_n50.csv", newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == ["bin_left", "bin_right", "density", "reference_pdf"]
        mass = sum((float(r[1]) - float(r[0])) * float(r[2])
                   for r in records[1:])
        assert mass == pytest.approx(1.0, abs=1e-9)
        for r in records[1:]:
            if r[3]:
                assert float(r[3]) >= -1e-6
