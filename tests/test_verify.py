"""The halting check counts bound violations on its own, apart from the
audit inside ``run_experiment``."""

import dataclasses

from neumann_bounds import NumericalError, TrialRow, verify


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
