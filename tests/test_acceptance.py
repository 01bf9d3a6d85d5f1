"""Acceptance gate: one test per advertised guarantee.

Each test delegates to the matching check in :mod:`neumann_bounds.verify`
(the same code the ``verify`` CLI subcommand runs) and prints a single
PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s`` to watch
them stream.  All checks use frozen seeds, so the module is deterministic.

Checks with a stated runtime budget assert it; the two hard-edge checks
share one 500-trial run (see ``conftest.jue_extremes``) whose sampling
cost is charged to both.
"""

from neumann_bounds import verify


def _report(result, label, budget=None, extra_elapsed=0.0):
    total = result.elapsed + extra_elapsed
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {label} ({result.name}): value={result.value:.6g} "
          f"threshold {result.threshold}  [{total:.2f}s]")
    assert result.passed, (result.name, result.value, result.threshold,
                           result.detail)
    if budget is not None:
        assert total < budget, (
            f"{result.name} took {total:.1f}s, budget {budget:.0f}s")


def test_criterion_01_tail_norm_matches_brute_force():
    _report(verify.check_tail_norm_brute_force(),
            "criterion-01 tail norm vs brute-force partial sums", budget=10.0)


def test_criterion_02_bound_matches_direct_search():
    _report(verify.check_bound_direct_search(),
            "criterion-02 closed-form bound vs direct search", budget=1.0)


def test_criterion_03_halting_times_within_bounds():
    _report(verify.check_halting_bounds_uniform(),
            "criterion-03 halting times never exceed bounds", budget=60.0)


def test_criterion_04_aligned_rhs_attains_bound():
    _report(verify.check_sharpness(),
            "criterion-04 top-eigenvector rhs attains the bound exactly")


def test_criterion_05_edge_gap_matches_exponential_law():
    _report(verify.check_edge_gap_exponential(),
            "criterion-05 scaled uniform edge gaps vs Exp(1/2)", budget=30.0)


def test_criterion_06_refined_statistic_converges_faster():
    _report(verify.check_refined_statistic(),
            "criterion-06 refined halting statistic vs Exp(1/2)", budget=60.0)


def test_criterion_07_fredholm_determinant_self_convergence():
    _report(verify.check_fredholm_determinant(),
            "criterion-07 Fredholm determinant oracle battery", budget=10.0)


def test_criterion_08_jue_edge_matches_bessel_law(jue_extremes):
    rows, sampling_time = jue_extremes
    _report(verify.check_jue_hard_edge(rows=rows),
            "criterion-08 scaled JUE edge gaps vs Bessel-kernel law",
            budget=900.0, extra_elapsed=sampling_time)


def test_criterion_09_log_gap_bound_holds():
    _report(verify.check_log_gap_bound(),
            "criterion-09 deterministic log-gap bound", budget=1.0)


def test_criterion_10_jue_bound_scaling_sane(jue_extremes):
    rows, sampling_time = jue_extremes
    _report(verify.check_jue_scaling(rows=rows),
            "criterion-10 reciprocal bound statistic vs hard-edge law",
            extra_elapsed=sampling_time)
