"""Exact coefficient family and the truncated energy series."""

import math
from fractions import Fraction

import pytest

from qpotlab.coeffs import (
    CoefficientTable,
    SeriesDivergenceWarning,
    a2n,
    coefficient_table,
    sqrt_binomial_coeff,
    sqrt_binomial_series,
    truncated_energy,
)
from qpotlab.qpotential import electron_params, natural_params, proton_params


class TestA2n:
    def test_low_orders(self):
        assert a2n(0) == 1
        assert a2n(1) == Fraction(1, 2)
        assert a2n(2) == Fraction(-1, 8)
        assert a2n(3) == Fraction(1, 16)
        assert a2n(4) == Fraction(-5, 128)

    def test_matches_binomial_series_exactly(self):
        for n in range(80):
            assert a2n(n) == sqrt_binomial_coeff(n), n

    def test_signs_alternate(self):
        for n in range(1, 40):
            assert (a2n(n) > 0) == (n % 2 == 1)

    def test_magnitude_decreases(self):
        for n in range(1, 40):
            assert abs(a2n(n + 1)) < abs(a2n(n))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            a2n(-1)
        with pytest.raises(ValueError):
            sqrt_binomial_coeff(-2)


class TestCoefficientTable:
    def test_rows_report_match(self):
        rows = coefficient_table(10).rows()
        assert len(rows) == 11
        for n, frac, value, oracle, match in rows:
            assert match is True
            assert frac == oracle
            assert value == pytest.approx(float(Fraction(frac)))

    def test_rows_oracle_is_the_series_run_once(self):
        def restarted(n):  # the recurrence run from c_0 for every n
            c = Fraction(1)
            for k in range(n):
                c = c * (Fraction(1, 2) - k) / (k + 1)
            return c

        series = sqrt_binomial_series(60)
        assert series == [restarted(n) for n in range(61)]
        rows = coefficient_table(60).rows()
        assert [r[3] for r in rows] == [str(restarted(n)) for n in range(61)]
        assert all(r[4] is True for r in rows)
        sparse = CoefficientTable(((0, a2n(0)), (7, a2n(7)), (3, a2n(3)))).rows()
        assert [(r[0], r[3]) for r in sparse] == [(n, str(restarted(n))) for n in (0, 7, 3)]

    def test_validation_rejects_wrong_a2(self):
        with pytest.raises(ValueError, match="a_2 must be 1/2"):
            CoefficientTable(((1, Fraction(1, 3)),))

    def test_validation_rejects_broken_sign(self):
        with pytest.raises(ValueError, match="alternation"):
            CoefficientTable(((2, Fraction(1, 8)),))


class TestTruncatedEnergy:
    def test_converges_to_sqrt_inside_disc(self):
        p = natural_params()
        momentum = 0.3  # pc/eps0 = 0.3
        exact = math.sqrt(1.0 + momentum**2)
        val = truncated_energy(momentum, p, 40)
        assert val == pytest.approx(exact, rel=1e-12)

    def test_order_zero_is_rest_energy(self):
        p = electron_params()
        assert truncated_energy(100.0, p, 0) == p.rest_energy

    def test_order_two_adds_kinetic_term(self):
        p = electron_params()
        momentum = 500.0
        expected = p.rest_energy + momentum**2 / (2.0 * p.mass)
        assert truncated_energy(momentum, p, 1) == pytest.approx(expected)

    def test_divergence_warning_outside_disc(self):
        p = proton_params()
        with pytest.warns(SeriesDivergenceWarning):
            truncated_energy(2.0 * p.rest_energy, p, 6)

    def test_no_warning_inside_disc(self):
        import warnings

        p = electron_params()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            truncated_energy(0.1 * p.rest_energy, p, 6)
