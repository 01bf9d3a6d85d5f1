"""Shared fixtures."""

import time

import pytest

from neumann_bounds import verify


@pytest.fixture(scope="session")
def jue_extremes():
    """The trial rows of one 500-trial JUE run (n=200), plus its cost.

    Sampling the matrix model dominates the hard-edge checks, and two
    acceptance tests consume the same rows, so they are drawn once per
    session.  Returns ``(rows, elapsed_seconds)`` so consumers can charge
    the sampling time against their runtime budgets.
    """
    start = time.perf_counter()
    rows = verify.jue_extreme_batch()
    return rows, time.perf_counter() - start
