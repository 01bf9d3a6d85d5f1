"""Tests for the quadrature, Bessel kernel, and limit-law evaluators.

The kernel and determinant tests lean on three independent oracles: mpmath
at 40 significant digits for pointwise kernel values, the closed form
det(I - J_0 on (0, s)) = exp(-s/4) for the order-0 determinant, and the
leading small-s term of 1 - det for orders >= 1. The batched determinant is
checked bitwise against one scalar call per interval length.
"""

import csv
import math

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import jv

from neumann_bounds import (DomainError, LimitLaw, ReciprocalLaw,
                            bessel_kernel, exp_cdf, export_cdf_table,
                            fredholm_det, jue_limit_cdf, numeric_pdf)
from neumann_bounds.limits import _mapped_rule, _nystrom


def _mp_kernel(order, u, v):
    """High-precision Bessel kernel via mpmath; v=u handled by a tiny offset."""
    with mpmath.workdps(40):
        uu, vv = mpmath.mpf(u), mpmath.mpf(v)
        if uu == vv:
            vv += mpmath.mpf(10) ** -25
        su, sv = mpmath.sqrt(uu), mpmath.sqrt(vv)

        def parts(x):
            a = mpmath.besselj(order, x)
            return a, x * mpmath.besselj(order - 1, x) - order * a

        a_u, b_u = parts(su)
        a_v, b_v = parts(sv)
        return float((a_u * b_v - a_v * b_u) / (2 * (uu - vv)))


class TestExpCdf:
    def test_median(self):
        assert exp_cdf(2 * math.log(2), 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_negative_support(self):
        assert exp_cdf(-3.0, 0.5) == 0.0
        npt.assert_array_equal(exp_cdf(np.array([-1.0, 0.0]), 1.0), [0.0, 0.0])

    def test_vectorized(self):
        t = np.array([0.5, 2.0, 7.0])
        npt.assert_allclose(exp_cdf(t, 0.5), 1 - np.exp(-t / 2), rtol=1e-14)

    def test_rejects_bad_rate(self):
        with pytest.raises(DomainError):
            exp_cdf(1.0, 0.0)


class TestGaussLegendre:
    """The Gauss-Legendre rule as mapped to (0, s) for the Nystrom matrices."""

    def test_weights_sum_to_interval_length(self):
        for m in (3, 8, 40, 80):
            for length in (2.0, 7.5):
                _, weights = _mapped_rule(length, m)
                assert weights.sum() == pytest.approx(length, abs=1e-12)

    def test_monomial_exactness(self):
        # an m-point rule integrates x^p exactly for p <= 2m-1
        for m, p in ((3, 5), (8, 15), (12, 23)):
            nodes, weights = _mapped_rule(2.0, m)
            assert np.sum(weights * nodes ** p) == pytest.approx(
                2.0 ** (p + 1) / (p + 1), rel=1e-10)

    def test_high_degree_monomial(self):
        nodes, weights = _mapped_rule(2.0, 40)
        assert np.sum(weights * nodes ** 38) == pytest.approx(
            2.0 ** 39 / 39.0, rel=1e-10)

    def test_smooth_integrand(self):
        nodes, weights = _mapped_rule(2.0, 20)
        assert np.sum(weights * np.cos(nodes)) == pytest.approx(
            math.sin(2.0), rel=1e-13)

    def test_rejects_empty_rule(self):
        for m in (0, 1):
            with pytest.raises(DomainError):
                fredholm_det(2.0, 1.0, m)


class TestTransplant:
    def test_exponential_integral(self):
        nodes, weights = _mapped_rule(2.0, 20)
        assert np.sum(weights * np.exp(nodes)) == pytest.approx(
            math.e ** 2 - 1, rel=1e-12)

    def test_geometry(self):
        nodes, weights = _mapped_rule(np.array([7.0, 0.5]), 15)
        assert nodes.shape == weights.shape == (2, 15)
        assert np.all(nodes > 0) and np.all(nodes < [[7.0], [0.5]])
        npt.assert_allclose(weights.sum(axis=1), [7.0, 0.5], atol=1e-12)

    def test_rejects_nonpositive_halfwidth(self):
        for bad in (0.0, np.array([1.0, 0.0]), np.array([np.nan])):
            with pytest.raises(DomainError):
                fredholm_det(2.0, bad)


class TestBesselKernel:
    def test_origin_values(self):
        assert bessel_kernel(0.0, 0.0, 0.0) == 0.25
        assert bessel_kernel(1.0, 0.0, 0.0) == 0.0
        assert bessel_kernel(2.0, 0.0, 0.0) == 0.0

    def test_symmetric_in_arguments(self):
        assert bessel_kernel(2.0, 1.3, 4.1) == bessel_kernel(2.0, 4.1, 1.3)

    def test_frozen_diagonal_value(self):
        assert bessel_kernel(2.0, 3.0, 3.0) == pytest.approx(
            0.008016618208199098, rel=1e-12)

    def test_diagonal_consistent_with_nearby_offdiagonal(self):
        gap = abs(bessel_kernel(2.0, 3.0, 3.0) - bessel_kernel(2.0, 3.0, 3.0 + 1e-8))
        assert gap < 1e-6

    def test_offdiagonal_approaches_diagonal_linearly(self):
        base = bessel_kernel(2.0, 3.0, 3.0)
        e1 = abs(bessel_kernel(2.0, 3.0, 3.0 + 1e-3) - base)
        e2 = abs(bessel_kernel(2.0, 3.0, 3.0 + 5e-4) - base)
        assert 1.5 < e1 / e2 < 2.5

    def test_matches_high_precision_oracle(self):
        for order in (0.0, 1.0, 2.0, 5.0):
            for u, v in ((0.3, 1.7), (2.0, 9.5), (10.0, 25.0)):
                npt.assert_allclose(bessel_kernel(order, u, v),
                                    _mp_kernel(order, u, v), atol=1e-12)

    def test_broadcast_matches_high_precision_oracle(self):
        # the (m, 1) x (1, m) call the Nystrom assembly makes, diagonal included
        u = np.array([0.0, 0.3, 2.0, 9.5, 25.0])
        for order in (0.0, 2.0):
            kern = bessel_kernel(order, u[:, None], u[None, :])
            ref = np.array([[_mp_kernel(order, a, b) for b in u] for a in u])
            assert kern.shape == (5, 5)
            npt.assert_allclose(kern, ref, atol=1e-11)

    def test_diagonal_matches_high_precision_limit(self):
        for order in (0.0, 1.0, 2.0, 5.0):
            for u in (0.5, 3.0, 12.0):
                npt.assert_allclose(bessel_kernel(order, u, u),
                                    _mp_kernel(order, u, u), atol=1e-11)

    def test_bessel_evaluator_accuracy(self):
        # the kernel's accuracy rests on J_a itself being good to ~1e-12
        xs = np.linspace(0.5, 30.0, 12)
        with mpmath.workdps(30):
            for order in range(11):
                ref = np.array([float(mpmath.besselj(order, x)) for x in xs])
                npt.assert_allclose(jv(order, xs), ref, atol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_kernel(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            bessel_kernel(2.0, -0.5, 1.0)


class TestBesselKernelOperator:
    """The stack of symmetrized Nystrom matrices behind fredholm_det."""

    def test_matrix_exactly_symmetric(self):
        mats = _nystrom(2.0, *_mapped_rule(np.array([10.0, 3.0]), 30))
        npt.assert_array_equal(mats, mats.transpose(0, 2, 1))

    def test_spectrum_in_unit_interval(self):
        (mat,) = _nystrom(2.0, *_mapped_rule(10.0, 40))
        lam = np.linalg.eigvalsh(mat)
        assert lam[0] > -1e-10
        assert lam[-1] < 1.0 + 1e-10

    def test_rule_covers_interval(self):
        nodes, weights = _mapped_rule(6.0, 25)
        assert np.all(nodes > 0) and np.all(nodes < 6.0)
        assert weights.sum() == pytest.approx(6.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            fredholm_det(-1.0, 1.0)
        with pytest.raises(DomainError):
            fredholm_det(2.0, 0.0)
        with pytest.raises(DomainError):
            fredholm_det(2.0, 1.0, quad_size=1)


class TestFredholmDet:
    def test_order_zero_closed_form(self):
        # det(I - J_0 on (0, s)) = exp(-s/4), an exact end-to-end oracle
        for s in (0.01, 0.5, 2.0, 10.0, 30.0):
            assert fredholm_det(0.0, s) == pytest.approx(
                math.exp(-s / 4), abs=1e-13)

    def test_small_interval_leading_term(self):
        # 1 - det ~ s^(a+1) / ((a+1) 4^(a+1) G(a+1) G(a+2)) as s -> 0
        for order in (1, 2):
            s = 0.1
            lead = s ** (order + 1) / ((order + 1) * 4.0 ** (order + 1)
                                       * math.gamma(order + 1)
                                       * math.gamma(order + 2))
            ratio = (1.0 - fredholm_det(order, s)) / lead
            assert 0.97 < ratio < 1.0

    def test_self_convergence(self):
        assert abs(fredholm_det(2.0, 5.0, 40) - fredholm_det(2.0, 5.0, 80)) < 1e-10

    def test_batched_equals_scalar_calls(self):
        # more points than one block, so block boundaries are crossed
        s = np.linspace(0.05, 40.0, 21)
        for order in (0.0, 2.0):
            for m in (40, 60):
                batched = fredholm_det(order, s, m)
                scalar = [fredholm_det(order, float(x), m) for x in s]
                assert isinstance(scalar[0], float)
                npt.assert_array_equal(batched, scalar)
        grid = s.reshape(3, 7)
        assert fredholm_det(2.0, grid).shape == (3, 7)

    def test_nonincreasing_in_interval_length(self):
        for order in (0.0, 2.0):
            vals = [fredholm_det(order, s) for s in np.arange(0.5, 30.5, 2.0)]
            assert np.all(np.diff(vals) <= 1e-12)
            assert all(0.0 < v <= 1.0 for v in vals)


class TestJueLimitCdf:
    def test_at_origin(self):
        assert jue_limit_cdf(0.0, 2.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            jue_limit_cdf(-0.5, 2.0)

    def test_nondecreasing(self):
        grid = np.arange(0.0, 25.5, 0.5)
        vals = jue_limit_cdf(grid, 2.0, quad_size=40)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] == 0.0 and vals[-1] <= 1.0

    def test_recorded_tail_value(self):
        # frozen by self-convergent m=80 evaluation (m=60 agrees to 1e-15)
        assert jue_limit_cdf(25.0, 2.0, quad_size=80) == pytest.approx(
            0.9828505477931911, abs=1e-9)
        assert jue_limit_cdf(30.0, 2.0, quad_size=80) > 0.99

    def test_array_input_matches_scalar(self):
        grid = np.array([0.5, 4.0])
        vals = jue_limit_cdf(grid, 2.0)
        npt.assert_array_equal(
            vals, [jue_limit_cdf(0.5, 2.0), jue_limit_cdf(4.0, 2.0)])


class TestLimitLawObjects:
    def test_exponential_law(self):
        law = LimitLaw.exponential(0.5)
        t = np.array([0.0, 1.0, 4.0])
        npt.assert_allclose(law.cdf(t), exp_cdf(t, 0.5))
        assert law.describe() == {"kind": "exponential", "rate": 0.5}

    def test_bessel_law(self):
        law = LimitLaw.bessel_hard_edge(2.0, quad_size=40)
        first = law.cdf(3.0)
        assert law.cdf(3.0) == first
        assert first == pytest.approx(jue_limit_cdf(3.0, 2.0, 40), abs=1e-15)
        assert law.cdf(-1.0) == 0.0
        assert law.describe() == {"kind": "bessel-hard-edge", "order": 2.0,
                                  "quad_size": 40}

    def test_validation(self):
        with pytest.raises(DomainError):
            LimitLaw("weibull")
        with pytest.raises(DomainError):
            LimitLaw.exponential(0.0)
        with pytest.raises(DomainError):
            LimitLaw.bessel_hard_edge(-2.0)
        with pytest.raises(DomainError):
            LimitLaw.bessel_hard_edge(2.0, quad_size=1)

    def test_reciprocal_of_exponential(self):
        rec = ReciprocalLaw(LimitLaw.exponential(0.5))
        for t in (0.1, 1.0, 10.0):
            assert rec.cdf(t) == pytest.approx(math.exp(-1.0 / (2 * t)),
                                               rel=1e-12)
        assert rec.cdf(0.0) == 0.0
        assert rec.describe()["base"] == {"kind": "exponential", "rate": 0.5}


class TestNumericPdf:
    def test_exponential_density(self):
        law = LimitLaw.exponential(0.5)
        assert numeric_pdf(law, 0.5, 1e-4) == pytest.approx(
            0.5 * math.exp(-0.25), abs=1e-8)

    def test_second_order_stencil(self):
        law = LimitLaw.exponential(0.5)
        exact = 0.5 * math.exp(-0.5)
        e1 = abs(numeric_pdf(law, 1.0, 2e-3) - exact)
        e2 = abs(numeric_pdf(law, 1.0, 1e-3) - exact)
        assert 3.0 < e1 / e2 < 5.0

    def test_array_arguments_match_scalar_calls(self):
        for law in (LimitLaw.exponential(0.5),
                    LimitLaw.bessel_hard_edge(2.0, quad_size=40)):
            t = np.array([0.5, 2.0, 10.0])
            h = np.array([1e-3, 0.25, 0.5])
            npt.assert_array_equal(numeric_pdf(law, t, h),
                                   [numeric_pdf(law, a, b) for a, b in zip(t, h)])
            npt.assert_array_equal(numeric_pdf(law, t, 1e-3),
                                   [numeric_pdf(law, a, 1e-3) for a in t])

    def test_hard_edge_density_nonnegative(self):
        law = LimitLaw.bessel_hard_edge(2.0, quad_size=40)
        for t in (0.5, 2.0, 10.0):
            assert numeric_pdf(law, t, 1e-3) >= -1e-6

    def test_domain_errors(self):
        law = LimitLaw.exponential(1.0)
        with pytest.raises(DomainError):
            numeric_pdf(law, 1.0, 0.0)
        with pytest.raises(DomainError):
            numeric_pdf(law, 1e-5, 1e-3)


class TestExportCdfTable:
    def test_table_layout(self, tmp_path):
        path = tmp_path / "exp.csv"
        rows = export_cdf_table(LimitLaw.exponential(0.5), 1.0, 0.1, path)
        assert rows == 11
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == ["t", "cdf", "pdf"]
        assert len(records) == 12
        assert records[1][2] == ""  # no centered stencil at t = 0
        ts = [float(r[0]) for r in records[1:]]
        cdfs = [float(r[1]) for r in records[1:]]
        npt.assert_allclose(ts, np.arange(0.0, 1.05, 0.1), atol=1e-12)
        assert np.all(np.diff(cdfs) > 0)
        pdfs = [float(r[2]) for r in records[2:]]
        assert all(p > 0 for p in pdfs)

    def test_deterministic_bytes(self, tmp_path):
        law = LimitLaw.exponential(2.0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_cdf_table(law, 2.0, 0.25, a)
        export_cdf_table(law, 2.0, 0.25, b)
        assert a.read_bytes() == b.read_bytes()

    def test_validation(self, tmp_path):
        with pytest.raises(DomainError):
            export_cdf_table(LimitLaw.exponential(1.0), 0.0, 0.1,
                             tmp_path / "x.csv")
        with pytest.raises(DomainError):
            export_cdf_table(LimitLaw.exponential(1.0), 1.0, -0.1,
                             tmp_path / "x.csv")
