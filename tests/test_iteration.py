"""Tests for the iteration, halting counts, and closed-form bounds."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from neumann_bounds import (EXP_HALF_MEAN_LOG, DivergenceError, DomainError,
                            EigenDecomposition, IterationProblem,
                            PreconditionError, bound_K, bound_Kstar,
                            halting_counts, iterate, refined_statistic,
                            sample_haar_orthogonal, scaled_K, sharpness_rhs,
                            symmetric_eig, tail_norm)
from neumann_bounds import iteration
from neumann_bounds.verify import literal_disagreements


def _unit(v):
    return v / np.linalg.norm(v)


class TestTailNorm:
    def test_two_point_spectrum(self):
        # max(0.25 / 1.5, 0.25 / 0.5) computed by hand
        assert tail_norm(-0.5, 0.5, 2) == 0.5

    def test_zero_spectrum(self):
        assert tail_norm(0.0, 0.0, 0) == 1.0
        assert tail_norm(0.0, 0.0, 3) == 0.0

    def test_matches_matrix_partial_sums(self):
        # Independent route: literally sum powers of a diagonal matrix.
        rng = np.random.default_rng(12)
        for _ in range(10):
            lam = rng.uniform(-0.9, 0.9, size=4)
            a = np.diag(lam)
            tail = np.zeros_like(a)
            power = np.linalg.matrix_power(a, 12)
            for _ in range(12, 800):
                tail += power
                power = power @ a
            brute = np.linalg.norm(tail, 2)
            assert tail_norm(lam.min(), lam.max(), 12) == pytest.approx(
                brute, abs=1e-10)

    def test_contraction_per_step(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            l1 = rng.uniform(-0.99, 0.99)
            ln = rng.uniform(l1, 0.99)
            r = max(abs(l1), abs(ln))
            for k in (0, 1, 5):
                bound = r * tail_norm(l1, ln, k)
                assert tail_norm(l1, ln, k + 1) <= bound * (1 + 1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tail_norm(-0.5, 1.0, 1)
        with pytest.raises(DomainError):
            tail_norm(0.5, -0.5, 1)  # lmin > lmax
        with pytest.raises(DomainError):
            tail_norm(-0.5, 0.5, -1)
        with pytest.raises(DomainError):
            tail_norm(-0.5, 0.5, 1.5)


class TestBoundK:
    def test_frozen_example(self):
        bnd = bound_K(-0.5, 0.5, 1e-3)
        assert bnd.value == 11
        assert bnd.k1 == pytest.approx(9.380821783940931, rel=1e-12)
        assert bnd.kn == pytest.approx(10.965784284662087, rel=1e-12)
        assert bnd.sigma == pytest.approx(0.03421571533791301, rel=1e-9)

    def test_boundary_tie_goes_to_direct_search(self):
        # tail_norm(0.5, 0.5, 2) = 0.5 is NOT < 0.49, so the bound is 3.
        assert bound_K(0.5, 0.5, 0.49).value == 3

    def test_zero_matrix(self):
        bnd = bound_K(0.0, 0.0, 1e-3)
        assert bnd.value == 1
        assert bnd.k1 == 0.0 and bnd.kn == 0.0

    def test_is_direct_search_minimum(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            ln = rng.uniform(-0.99, 0.99)
            l1 = rng.uniform(-0.99, ln)
            eps = 10.0 ** rng.uniform(-6, math.log10(0.49))
            k = bound_K(l1, ln, eps).value
            assert tail_norm(l1, ln, k) < eps
            if k > 0:
                assert tail_norm(l1, ln, k - 1) >= eps

    def test_monotone_in_epsilon(self):
        assert bound_K(-0.7, 0.8, 1e-4).value >= bound_K(-0.7, 0.8, 1e-3).value

    def test_sigma_in_unit_interval(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            ln = rng.uniform(-0.9, 0.9)
            l1 = rng.uniform(-0.9, ln)
            sigma = bound_K(l1, ln, 1e-3).sigma
            assert 0.0 <= sigma < 1.0

    def test_epsilon_domain(self):
        for eps in (0.0, 0.5, 0.7, -1e-3):
            with pytest.raises(DomainError):
                bound_K(-0.5, 0.5, eps)


class TestBoundKstar:
    def test_frozen_example(self):
        # 0.5^10 < 1e-3 <= 0.5^9
        assert bound_Kstar(-0.5, 0.5, 1e-3) == 10

    def test_zero_matrix(self):
        assert bound_Kstar(0.0, 0.0, 1e-3) == 1

    def test_is_direct_search_minimum(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            ln = rng.uniform(-0.99, 0.99)
            l1 = rng.uniform(-0.99, ln)
            eps = 10.0 ** rng.uniform(-6, math.log10(0.49))
            r = max(abs(l1), abs(ln))
            k = bound_Kstar(l1, ln, eps)
            assert k >= 1
            assert r ** k < eps
            assert r ** (k - 1) >= eps


class TestScaling:
    def test_scaled_value_matches_formula(self):
        log_scale = math.log(10.0) - math.log(1e-2) / 2.0
        expected = 800.0 / (2.0 * log_scale * 10.0 ** 2)
        assert scaled_K(800.0, 10, 2.0, 1e-2) == pytest.approx(expected, rel=1e-14)

    def test_zero_count(self):
        assert scaled_K(0.0, 100, 2.0, 1e-3) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            scaled_K(5.0, 1, 2.0, 1e-3)
        with pytest.raises(DomainError):
            scaled_K(5.0, 10, 0.0, 1e-3)
        with pytest.raises(DomainError):
            scaled_K(-1.0, 10, 2.0, 1e-3)

    def test_refined_reduces_to_reciprocal_without_correction(self):
        val = refined_statistic(321.0, 50, 2.0, 1e-3, mean_log_xi=0.0)
        assert val == pytest.approx(1.0 / scaled_K(321.0, 50, 2.0, 1e-3),
                                    rel=1e-12)

    def test_mean_log_constant(self):
        assert EXP_HALF_MEAN_LOG == pytest.approx(math.log(2.0) - np.euler_gamma)
        assert EXP_HALF_MEAN_LOG == pytest.approx(0.11593151565841242, abs=1e-15)

    def test_refined_rejects_nonpositive_count(self):
        with pytest.raises(DomainError):
            refined_statistic(0.0, 50, 2.0, 1e-3)


class TestIterate:
    def test_zero_matrix_halts_immediately(self):
        prob = IterationProblem(matrix=np.zeros((2, 2)),
                                rhs=np.array([1.0, 0.0]))
        res = iterate(prob)
        assert res.k_eps == 1 and res.k_star_eps == 1
        assert not res.saturated
        npt.assert_allclose(res.x, [1.0, 0.0])

    def test_frozen_diagonal_example(self):
        prob = IterationProblem(matrix=np.diag([0.5, -0.5]),
                                rhs=np.array([1.0, 0.0]), epsilon=1e-3)
        res = iterate(prob)
        assert res.k_eps == 11
        assert res.k_star_eps == 10
        npt.assert_allclose(res.x, [2.0, 0.0], atol=2e-3)

    def test_final_iterate_is_partial_sum(self):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((5, 5))
        a = (g + g.T) / 2
        a *= 0.8 / np.linalg.norm(a, 2)
        b = _unit(rng.standard_normal(5))
        res = iterate(IterationProblem(matrix=a, rhs=b, epsilon=1e-4))
        assert not res.saturated
        k = max(res.k_eps, res.k_star_eps)
        partial = np.zeros(5)
        term = b.copy()
        for _ in range(k):
            partial = partial + term
            term = a @ term
        # partial now holds sum_{i<k} A^i b, which is x_k by construction
        npt.assert_allclose(res.x, partial, atol=1e-10)

    def test_residual_trace_matches_halting_count(self):
        rng = np.random.default_rng(18)
        g = rng.standard_normal((6, 6))
        a = (g + g.T) / 2
        a *= 0.9 / np.linalg.norm(a, 2)
        b = _unit(rng.standard_normal(6))
        res = iterate(IterationProblem(matrix=a, rhs=b, epsilon=1e-3))
        # ||(I - A) x_k - b|| = ||x_k - x_{k+1}||, recomputed from the recursion
        residuals = []
        x = b.copy()
        for _ in range(res.k_star_eps):
            x_next = a @ x + b
            residuals.append(np.linalg.norm(x - x_next))
            x = x_next
        ks = res.k_star_eps
        assert residuals[ks - 1] < 1e-3
        assert all(r >= 1e-3 for r in residuals[:ks - 1])

    def test_counts_never_exceed_bounds(self):
        from neumann_bounds import sample_uniform_eig_matrix
        rng = np.random.default_rng(19)
        for trial in range(10):
            sample = sample_uniform_eig_matrix(8, rng)
            b = _unit(rng.standard_normal(8))
            res = iterate(IterationProblem(matrix=sample.matrix, rhs=b))
            assert res.k_eps <= bound_K(sample.lambda_min, sample.lambda_max,
                                        1e-3).value
            assert res.k_star_eps <= bound_Kstar(sample.lambda_min,
                                                 sample.lambda_max, 1e-3)

    def test_hermitian_input(self):
        from neumann_bounds import sample_jue_matrix
        sample = sample_jue_matrix(6, 8, 8, 20)
        b = np.zeros(6)
        b[0] = 1.0
        res = iterate(IterationProblem(matrix=sample.matrix, rhs=b))
        assert res.k_eps >= 1 and res.k_star_eps >= 1
        assert not res.saturated

    def test_saturation_reported_not_raised(self):
        prob = IterationProblem(matrix=np.diag([0.99]), rhs=np.array([1.0]),
                                epsilon=1e-3, max_iterations=3)
        res = iterate(prob)
        assert res.k_eps == 3 and res.k_star_eps == 3
        assert res.k_eps_saturated and res.k_star_saturated and res.saturated

    def test_divergent_spectrum(self):
        with pytest.raises(DivergenceError):
            iterate(IterationProblem(matrix=np.diag([1.0, 0.0]),
                                     rhs=np.array([1.0, 0.0])))

    def test_problem_validation(self):
        with pytest.raises(PreconditionError):
            IterationProblem(matrix=np.zeros((2, 2)), rhs=np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            IterationProblem(matrix=np.zeros((2, 2)),
                             rhs=np.array([1.0, 0.0]), epsilon=0.5)
        with pytest.raises(DomainError):
            IterationProblem(matrix=np.zeros((3, 3)), rhs=np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            IterationProblem(matrix=np.zeros((2, 2)),
                             rhs=np.array([1.0, 0.0]), max_iterations=0)


def _built_from(lam, seed):
    """(matrix, its construction decomposition, unit b), as the Haar sampler builds them."""
    lam = np.asarray(lam, dtype=float)
    rng = np.random.default_rng(seed)
    q = sample_haar_orthogonal(lam.size, rng).entries
    a = (q * lam) @ q.T
    order = np.argsort(lam)
    dec = EigenDecomposition(lam[order], q[:, order])
    return (a + a.T) / 2, dec, _unit(rng.standard_normal(lam.size))


class TestHaltingCounts:
    def test_frozen_diagonal_example(self):
        res = halting_counts(symmetric_eig(np.diag([0.5, -0.5])),
                             np.array([1.0, 0.0]), 1e-3)
        assert (res.k_eps, res.k_star_eps) == (11, 10)
        assert not res.saturated
        npt.assert_allclose(res.x, [2.0, 0.0], atol=2e-3)

    def test_zero_matrix_halts_immediately(self):
        res = halting_counts(symmetric_eig(np.zeros((2, 2))),
                             np.array([0.6, 0.8]), 1e-3)
        assert res.k_eps == 1 and res.k_star_eps == 1
        npt.assert_allclose(res.x, [0.6, 0.8])

    def test_matches_literal_loop_and_final_iterate(self):
        a, dec, b = _built_from(np.linspace(-0.9, 0.97, 9), 21)
        fast = halting_counts(dec, b, 1e-4)
        slow = iterate(IterationProblem(a, b, 1e-4))
        assert (fast.k_eps, fast.k_star_eps) == (slow.k_eps, slow.k_star_eps)
        npt.assert_allclose(fast.x, slow.x, atol=1e-10)

    def test_hermitian_decomposition(self):
        from neumann_bounds import sample_jue_matrix
        sample = sample_jue_matrix(6, 8, 8, 20)
        b = np.zeros(6)
        b[0] = 1.0
        fast = halting_counts(symmetric_eig(sample.matrix), b, 1e-3)
        slow = iterate(IterationProblem(sample.matrix, b))
        assert (fast.k_eps, fast.k_star_eps) == (slow.k_eps, slow.k_star_eps)

    def test_search_is_not_clamped_at_the_bound(self, monkeypatch):
        # A wrong (too small) K must not pin the count: the audit needs to see it.
        monkeypatch.setattr(iteration, "bound_K",
                            lambda lmin, lmax, eps: iteration.TailBound(3, 0.0, 0.0, 0.0))
        res = halting_counts(symmetric_eig(np.diag([0.5, -0.5])),
                             np.array([1.0, 0.0]), 1e-3)
        assert res.k_eps == 11 and not res.saturated

    def test_saturation_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(iteration, "bound_K",
                            lambda lmin, lmax, eps: iteration.TailBound(1, 0.0, 0.0, 0.0))
        monkeypatch.setattr(iteration, "bound_Kstar", lambda lmin, lmax, eps: 1)
        res = halting_counts(symmetric_eig(np.diag([0.99])), np.array([1.0]), 1e-3)
        assert res.k_eps == res.k_star_eps == 50
        assert res.k_eps_saturated and res.k_star_saturated

    def test_validation(self):
        dec = symmetric_eig(np.diag([0.5, 0.1]))
        with pytest.raises(DivergenceError):
            halting_counts(symmetric_eig(np.diag([1.0, 0.0])), np.array([1.0, 0.0]), 1e-3)
        with pytest.raises(PreconditionError):
            halting_counts(dec, np.array([1.0, 1.0]), 1e-3)
        with pytest.raises(DomainError):
            halting_counts(dec, np.array([1.0, 0.0]), 0.5)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(lam=st.lists(st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True),
                        min_size=2, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_property_equal_to_literal_loop_or_tie(self, lam, seed):
        a, dec, b = _built_from(lam, seed)
        counts = halting_counts(dec, b, 1e-3)
        assert not counts.saturated
        assert all(entry["tie"] for entry in literal_disagreements(a, b, 1e-3, counts))


class TestSharpness:
    def test_max_eig_alignment_attains_bound(self):
        a = np.diag([0.9, 0.1])
        dec = symmetric_eig(a)
        b = sharpness_rhs(dec)
        npt.assert_allclose(np.abs(b), [1.0, 0.0], atol=1e-12)
        res = iterate(IterationProblem(matrix=a, rhs=b, epsilon=1e-3))
        assert res.k_eps == bound_K(0.1, 0.9, 1e-3).value == 88

    def test_residual_bound_attained_on_dominant_branch(self):
        # b on the max-modulus branch makes the residual bound exact too.
        a = np.diag([0.9, 0.1, 0.2])
        b = sharpness_rhs(symmetric_eig(a))
        res = iterate(IterationProblem(matrix=a, rhs=b, epsilon=1e-3))
        assert res.k_star_eps == bound_Kstar(0.1, 0.9, 1e-3) == 66

    def test_needs_positive_top_eigenvalue(self):
        with pytest.raises(PreconditionError):
            sharpness_rhs(symmetric_eig(np.diag([-0.5, -0.1])))

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            sharpness_rhs(symmetric_eig(np.eye(2) * 0.5), which="smallest")
