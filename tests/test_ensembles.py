"""Tests for the random matrix samplers."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from neumann_bounds import (DimensionError, DomainError, EmpiricalDistribution,
                            EnsembleSpec, PreconditionError, draw, ks_distance,
                            sample_eigenvalues_only_uniform,
                            sample_haar_orthogonal, sample_jue_matrix,
                            sample_uniform_eig_matrix, symmetric_eig,
                            trial_seed)


def _two_sample_ks(a, b):
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


class TestHaarOrthogonal:
    def test_orthonormal_columns(self):
        for n in (1, 3, 10):
            q = sample_haar_orthogonal(n, 100 + n).entries
            npt.assert_allclose(q.T @ q, np.eye(n), atol=1e-10)

    def test_deterministic(self):
        npt.assert_array_equal(sample_haar_orthogonal(5, 7).entries,
                               sample_haar_orthogonal(5, 7).entries)

    def test_scalar_case_is_fair_sign(self):
        rng = np.random.default_rng(200)
        draws = np.array([sample_haar_orthogonal(1, rng).entries[0, 0]
                          for _ in range(10_000)])
        assert set(np.unique(draws)) == {-1.0, 1.0}
        # frequency of +1 within 3 sigma of 1/2
        assert abs(np.mean(draws > 0) - 0.5) < 3 * 0.5 / math.sqrt(10_000)

    def test_first_column_angle_uniform(self):
        rng = np.random.default_rng(201)
        angles = np.empty(1000)
        for i in range(1000):
            q = sample_haar_orthogonal(2, rng).entries
            angles[i] = math.atan2(q[1, 0], q[0, 0])
        dist = EmpiricalDistribution.from_samples(angles)
        ks = ks_distance(dist, lambda t: (np.asarray(t) + math.pi) / (2 * math.pi))
        assert ks < 0.05

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            sample_haar_orthogonal(0, 1)

    def test_rejects_bad_rng_argument(self):
        with pytest.raises(TypeError):
            sample_haar_orthogonal(3, "not-a-seed")


class TestUniformEigMatrix:
    def test_eigenvalues_match_construction(self):
        rng = np.random.default_rng(202)
        for _ in range(20):
            sample = sample_uniform_eig_matrix(12, rng)
            assert sample.matrix.symmetry == "symmetric"
            recomputed = symmetric_eig(sample.matrix).eigenvalues
            npt.assert_allclose(recomputed, sample.eigenvalues, atol=1e-9)

    def test_carries_its_construction_decomposition(self):
        sample = sample_uniform_eig_matrix(15, 206)
        dec = sample.decomposition
        assert dec.eigenvalues is sample.eigenvalues
        # draw order is lambda first, then the basis: the raw draw replays
        g = np.random.default_rng(206)
        lam = g.uniform(-1.0, 1.0, 15)
        npt.assert_array_equal(dec.eigenvalues, np.sort(lam))
        npt.assert_allclose(dec.basis.T @ dec.basis, np.eye(15), atol=1e-12)
        rebuilt = (dec.basis * dec.eigenvalues) @ dec.basis.T
        npt.assert_allclose(rebuilt, sample.matrix.entries, atol=1e-14)

    def test_only_the_haar_sampler_carries_a_decomposition(self):
        assert draw(EnsembleSpec("eigenvalues-only-uniform", 6, seed=1)).decomposition is None
        assert draw(EnsembleSpec("jue", 6, seed=1)).decomposition is None

    def test_spectrum_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(203)
        for _ in range(50):
            sample = sample_uniform_eig_matrix(30, rng)
            assert -1.0 < sample.lambda_min <= sample.lambda_max < 1.0

    def test_deterministic_and_replayable(self):
        first = sample_uniform_eig_matrix(9, 11)
        again = sample_uniform_eig_matrix(9, 11)
        npt.assert_array_equal(first.matrix.entries, again.matrix.entries)
        assert first.seed_used == again.seed_used == first.spec.seed == 11

    def test_generator_path_records_replayable_seed(self):
        sample = sample_uniform_eig_matrix(6, np.random.default_rng(12))
        replay = sample_uniform_eig_matrix(6, sample.seed_used)
        npt.assert_array_equal(sample.matrix.entries, replay.matrix.entries)
        npt.assert_array_equal(sample.eigenvalues, replay.eigenvalues)

    def test_random_entry_of_spectrum_is_uniform(self):
        # A uniformly chosen order statistic recovers the unordered marginal.
        rng = np.random.default_rng(204)
        picks = np.empty(1000)
        for i in range(1000):
            lam = sample_eigenvalues_only_uniform(100, rng).eigenvalues
            picks[i] = lam[rng.integers(0, 100)]
        ks = ks_distance(EmpiricalDistribution.from_samples(picks),
                         lambda t: np.clip((np.asarray(t) + 1) / 2, 0.0, 1.0))
        assert ks < 0.05

    @pytest.mark.slow
    def test_edge_gap_law_at_scale(self):
        # n = 10^3, 10^3 full-matrix draws; the scaled top gap follows Exp(1/2).
        rng = np.random.default_rng(205)
        gaps = np.empty(1000)
        for i in range(1000):
            sample = sample_uniform_eig_matrix(1000, rng)
            gaps[i] = 1000 * (1.0 - sample.lambda_max)
        ks = ks_distance(EmpiricalDistribution.from_samples(gaps),
                         lambda t: -np.expm1(-np.asarray(t) / 2))
        assert ks < 0.06


class TestEigenvaluesOnly:
    def test_sorted_and_matrix_free(self):
        sample = sample_eigenvalues_only_uniform(50, 31)
        assert sample.matrix is None
        assert np.all(np.diff(sample.eigenvalues) >= 0)
        assert sample.spec.kind == "eigenvalues-only-uniform"

    def test_top_eigenvalue_agrees_with_matrix_sampler(self):
        rng = np.random.default_rng(206)
        fast = np.array([sample_eigenvalues_only_uniform(100, rng).lambda_max
                         for _ in range(1000)])
        full = np.array([sample_uniform_eig_matrix(100, rng).lambda_max
                         for _ in range(1000)])
        assert _two_sample_ks(fast, full) < 0.05

    def test_top_eigenvalue_mean(self):
        rng = np.random.default_rng(207)
        n, draws = 100, 1000
        tops = np.array([sample_eigenvalues_only_uniform(n, rng).lambda_max
                         for _ in range(draws)])
        # max of n iid Uniform(-1,1): mean 1 - 2/(n+1), var 4n/((n+1)^2 (n+2))
        sigma_mean = math.sqrt(4 * n / ((n + 1) ** 2 * (n + 2)) / draws)
        assert abs(tops.mean() - (1 - 2 / (n + 1))) < 3 * sigma_mean


class TestJueMatrix:
    def test_spectrum_and_symmetry(self):
        rng = np.random.default_rng(208)
        for _ in range(20):
            sample = sample_jue_matrix(25, 27, 27, rng)
            w = sample.matrix.entries
            assert sample.matrix.symmetry == "hermitian"
            npt.assert_allclose(w, w.conj().T, atol=1e-10)
            assert sample.eigenvalues[0] >= -1.0 - 1e-9
            assert sample.eigenvalues[-1] <= 1.0 + 1e-9
            assert np.all(np.diff(sample.eigenvalues) >= 0)

    def test_eigenvalues_match_stored_matrix(self):
        sample = sample_jue_matrix(15, 17, 17, 77)
        recomputed = symmetric_eig(sample.matrix).eigenvalues
        npt.assert_allclose(recomputed, sample.eigenvalues, atol=1e-9)

    def test_deterministic_and_replayable(self):
        first = sample_jue_matrix(10, 12, 12, 5)
        again = sample_jue_matrix(10, 12, 12, 5)
        npt.assert_array_equal(first.matrix.entries, again.matrix.entries)
        replay = sample_jue_matrix(10, 12, 12, first.seed_used)
        npt.assert_array_equal(first.matrix.entries, replay.matrix.entries)

    def test_rejects_short_factors(self):
        with pytest.raises(PreconditionError):
            sample_jue_matrix(10, 8, 12, 0)

    def test_bulk_fraction_stable_in_n(self):
        # The bulk density has an n-free limit: the central mass should not
        # move between n=50 and n=100.
        rng = np.random.default_rng(209)
        fractions = []
        for n in (50, 100):
            counts = [np.mean(np.abs(sample_jue_matrix(n, n + 2, n + 2,
                                                       rng).eigenvalues) < 0.1)
                      for _ in range(100)]
            fractions.append(np.mean(counts))
        assert abs(fractions[0] - fractions[1]) < 0.2 * fractions[1]


class TestSpecAndSeeding:
    def test_json_round_trip(self):
        for spec in (EnsembleSpec("uniform-eig-haar", 40, seed=9),
                     EnsembleSpec("jue", 30, n1=33, n2=35, seed=2),
                     EnsembleSpec("eigenvalues-only-uniform", 5)):
            assert EnsembleSpec.from_json(spec.to_json()) == spec

    def test_from_json_rejects_missing_keys(self):
        with pytest.raises(DomainError, match="'n'"):
            EnsembleSpec.from_json({"kind": "jue"})
        with pytest.raises(DomainError, match="'kind'"):
            EnsembleSpec.from_json({"n": 10})

    def test_from_json_rejects_non_integral_sizes(self):
        for key, value in (("n", 10.7), ("n1", 12.5), ("n2", "12"),
                           ("seed", 1.5), ("n", True)):
            data = {"kind": "jue", "n": 10, key: value}
            with pytest.raises(DomainError, match=key):
                EnsembleSpec.from_json(data)
        spec = EnsembleSpec.from_json({"kind": "jue", "n": 10.0, "seed": 3.0})
        assert spec == EnsembleSpec("jue", 10, seed=3)

    def test_jue_defaults(self):
        spec = EnsembleSpec("jue", 10)
        assert spec.n1 == 12 and spec.n2 == 12

    def test_validation(self):
        with pytest.raises(PreconditionError):
            EnsembleSpec("goe", 10)
        with pytest.raises(DimensionError):
            EnsembleSpec("jue", 0)
        with pytest.raises(DomainError):
            EnsembleSpec("jue", 10, seed=-1)
        with pytest.raises(PreconditionError):
            EnsembleSpec("jue", 10, n1=8)
        with pytest.raises(PreconditionError):
            EnsembleSpec("uniform-eig-haar", 10, n1=12)

    def test_trial_seed_distinct_and_deterministic(self):
        seeds = {trial_seed(42, i) for i in range(100)}
        assert len(seeds) == 100
        assert trial_seed(42, 3) == trial_seed(42, 3)
        assert all(s >= 0 for s in seeds)
        with pytest.raises(DomainError):
            trial_seed(-1, 0)
        with pytest.raises(DomainError):
            trial_seed(0, -1)

    def test_draw_with_trial_index_derives_seed(self):
        spec = EnsembleSpec("uniform-eig-haar", 8, seed=42)
        sample = draw(spec, trial_index=5)
        assert sample.seed_used == trial_seed(42, 5)
        # the recorded spec replays the sample exactly
        replay = draw(sample.spec)
        npt.assert_array_equal(sample.matrix.entries, replay.matrix.entries)

    def test_draw_dispatches_all_kinds(self):
        assert draw(EnsembleSpec("eigenvalues-only-uniform", 6, seed=1)).matrix is None
        assert draw(EnsembleSpec("uniform-eig-haar", 6, seed=1)).matrix.symmetry == "symmetric"
        assert draw(EnsembleSpec("jue", 6, seed=1)).matrix.symmetry == "hermitian"
