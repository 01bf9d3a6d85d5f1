"""The halting check counts bound violations on its own, apart from the
audit inside ``run_experiment``; the spectral-vs-literal check catches wrong
counts and tells ties from disagreements."""

import dataclasses

import numpy as np

from neumann_bounds import (IterationProblem, NumericalError, TrialRow,
                            experiments, iterate, verify)


def _row(**overrides):
    row = TrialRow(trial_index=0, n=50, seed=1, lambda_min=-0.9,
                   lambda_max=0.9, k_eps=10, k_star_eps=10, K_eps=20,
                   K_star_eps=20, saturated=False, statistic=10.0)
    return dataclasses.replace(row, **overrides)


def test_halting_check_counts_violating_rows(monkeypatch):
    monkeypatch.setattr(verify, "run_experiment",
                        lambda config: [_row(), _row(k_eps=21)])
    result = verify.check_halting_bounds_uniform()
    assert not result.passed
    assert result.value == 1


def test_halting_check_counts_saturated_rows(monkeypatch):
    monkeypatch.setattr(verify, "run_experiment",
                        lambda config: [_row(saturated=True)])
    result = verify.check_halting_bounds_uniform()
    assert not result.passed
    assert result.value == 0 and result.detail["saturated"] == 1


def test_halting_check_fails_on_audit_error(monkeypatch):
    message = "halting bound violated: k=21 > K=20 (trial 3, n=50, seed=7)"

    def audit_fails(config):
        raise NumericalError(message)

    monkeypatch.setattr(verify, "run_experiment", audit_fails)
    result = verify.check_halting_bounds_uniform()
    assert not result.passed
    assert result.detail["audit_error"] == message


def test_spectral_counts_agree_with_the_literal_loop():
    result = verify.check_spectral_vs_literal()
    assert result.passed, result.detail
    assert result.value == 0 and result.detail["unexplained"] == []


def test_spectral_check_fails_on_a_wrong_count(monkeypatch):
    real = experiments.halting_counts

    def one_step_early(dec, b, eps):
        result = real(dec, b, eps)
        return dataclasses.replace(result, k_eps=result.k_eps - 1)

    monkeypatch.setattr(experiments, "halting_counts", one_step_early)
    result = verify.check_spectral_vs_literal(trials=3)
    assert not result.passed
    assert result.value == 9  # every trial of all three rhs modes
    assert {e["criterion"] for e in result.detail["unexplained"]} == {"k_eps"}


def test_disagreement_at_an_exact_tie_is_reported_as_a_tie():
    # ||x* - x_k|| = 0.5^(k-1) exactly, so at eps = 0.5^9 the literal loop
    # halts at k = 11; a count of 10 differs only by the tie at step 10.
    matrix, b, eps = np.diag([0.5]), np.array([1.0]), 0.5 ** 9
    counts = iterate(IterationProblem(matrix, b, eps))
    assert counts.k_eps == 11
    tie = verify.literal_disagreements(
        matrix, b, eps, dataclasses.replace(counts, k_eps=10))
    assert tie == [{"criterion": "k_eps", "spectral": 10, "literal": 11,
                    "literal_norm": eps, "tie": True}]
    miss = verify.literal_disagreements(
        matrix, b, eps, dataclasses.replace(counts, k_eps=9))
    assert [e["tie"] for e in miss] == [False]
