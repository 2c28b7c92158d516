"""Stationarity residual construction, exact certification and the witness."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from qpotlab.elcheck import FAILS, PASSES, certify, euler_lagrange
from qpotlab.expr import (
    ONE,
    ExprSyntaxError,
    JetVariable,
    RationalFunction,
    parse_q_expression,
    polynomial_value,
    power,
    to_text,
    variables,
)
from qpotlab.expr import point as at
from qpotlab.serialize import json_text

R = JetVariable()


def _num(text, dim=1):
    q = parse_q_expression(text, dim)
    assert q.den == ONE
    return q.num


class TestResidualConstruction:
    def test_bohmian_flux_terms_cancel(self):
        # For Q2 the two contributions are -A R_xx and +D_x D_x (A R).
        res = euler_lagrange(parse_q_expression("A2 * lap(R) / R", 1), 1)
        assert [(v.name, p, k) for v, p, k in res.terms] == [
            ("R", _num("-A2 * R_xx"), 0),
            ("R_xx", _num("A2 * R_xx"), 0),
        ]
        assert (res.num, res.power) == ({}, 0)

    def test_family_residuals_vanish_symbolically(self):
        for text in (
            "A0",
            "A2 * lap(R) / R",
            "A4 * lap(lap(R)) / R",
            "A6 * lap(lap(lap(R))) / R",
        ):
            assert euler_lagrange(parse_q_expression(text, 1), 1).num == {}, text

    def test_gradient_counterexample_residual(self):
        # Q = C R_x / R  ->  residual -2 C R_x
        res = euler_lagrange(parse_q_expression("C * dx(R) / R", 1), 1)
        assert res.num == _num("-2 * C * R_x")

    def test_fisher_counterexample_residual(self):
        # Q = C R_x^2 / R^2  ->  residual -2 C R_xx - 2 C R_x^2 / R
        res = euler_lagrange(parse_q_expression("C * dx(R)^2 / R^2", 1), 1)
        assert res.num == _num("-2 * C * lap(R) - 2 * C * dx(R)^2 / R")

    def test_odd_order_sign(self):
        # single odd-order variable contributes with a minus sign:
        # -D_x(R^2 C) = -2 C R R_x
        res = euler_lagrange(parse_q_expression("C * dx(R)", 1), 1)
        assert [(v.name, p) for v, p, _ in res.terms] == [("R_x", _num("-2 * C * R * dx(R)"))]

    def test_dimension_guard(self):
        q = parse_q_expression("A2 * lap(R) / R", 2)
        with pytest.raises(ValueError, match="beyond dimension"):
            euler_lagrange(q, 1)

    def test_terms_are_over_powers_of_the_candidates_denominator(self):
        # Q = 1/D, D = R + R_x: d/dR gives -R^2 / D^2 and the R_x term
        # -D_x(-R^2 / D^2) = (2 R R_x D - 2 R^2 (R_x + R_xx)) / D^3
        q = parse_q_expression("1 / (R + dx(R))", 1)
        res = euler_lagrange(q, 1)
        assert res.den == q.den
        assert [(v.name, p, k) for v, p, k in res.terms] == [
            ("R", _num("-R^2"), 2),
            ("R_x", _num("2 * R * R_x * (R + R_x) - 2 * R^2 * (R_x + R_xx)"), 3),
        ]
        assert res.power == 3
        n = "-R^2 * (R + R_x) + 2 * R * R_x * (R + R_x) - 2 * R^2 * (R_x + R_xx)"
        assert res.num == _num(n)


class TestCertify:
    def test_family_passes_in_all_dimensions(self):
        for dim in (1, 2, 3):
            q = parse_q_expression("A2 * lap(R) / R", dim)
            report = certify(q, dim, trials=40, seed=7)
            assert report.verdict == PASSES
            assert report.max_abs_residual <= 1e-10

    def test_counterexamples_fail_loudly(self):
        for text in ("C * dx(R) / R", "C * dx(R)^2 / R^2"):
            q = parse_q_expression(text, 1)
            report = certify(q, 1, trials=40, seed=7)
            assert report.verdict == FAILS, text
            assert report.max_abs_residual > 1e-3

    def test_report_is_deterministic_in_seed(self):
        q = parse_q_expression("C * dx(R)^2 / R^2", 1)
        r1 = certify(q, 1, trials=30, seed=42)
        r2 = certify(q, 1, trials=30, seed=42)
        assert r1 == r2
        r3 = certify(q, 1, trials=30, seed=43)
        assert r3.max_abs_residual != r1.max_abs_residual

    def test_report_serialization(self):
        q = parse_q_expression("A2 * lap(R) / R", 1)
        report = certify(q, 1, trials=20, seed=1)
        payload = json.loads(json_text(asdict(report)))
        assert payload == {
            "candidate": to_text(q),
            "residual": "0",
            "verdict": PASSES,
            "numerator_terms": 0,
            "max_abs_residual": 0.0,
            "samples_used": 0,
            "seed": 1,
            "dimension": 1,
            "worst_trial": None,
        }

    def test_invalid_arguments(self):
        q = parse_q_expression("A2 * lap(R) / R", 1)
        with pytest.raises(ValueError):
            certify(q, 1, trials=0)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            certify(q, 1, seed=-1)

    def test_terms_evaluate_consistently(self):
        # Sum of per-index terms equals the assembled residual numerically.
        for text in ("C * dx(R)^2 / R^2", "A * dx(R) / (R + dx(R))^2"):
            res = euler_lagrange(parse_q_expression(text, 1), 1)
            jets = {R: 1.25, JetVariable((0,)): -0.75, JetVariable((0, 0)): 0.5,
                    JetVariable((0, 0, 0)): 0.125}
            point = at(jets, {"C": 3.0, "A": -1.5})
            d = polynomial_value(res.den, point)
            total = sum(polynomial_value(p, point) / d**k for _, p, k in res.terms)
            residual = polynomial_value(res.num, point) / d**res.power
            assert total == pytest.approx(residual, rel=1e-12)


# Passes at the residual's relative machine scale on floats: the sampled
# verdict called it stationary, although its residual is not zero.
FALSE_PASS = "A2 * lap(R) / R + 0.000000000000001 * C * dx(R)"


class TestExactness:
    def test_false_pass_candidate_fails(self):
        report = certify(parse_q_expression(FALSE_PASS, 1))  # the verify-el defaults
        assert report.verdict == FAILS
        assert report.numerator_terms == 1
        assert report.residual == "-1/500000000000000 * C * R * R_x"
        assert 0.0 < report.max_abs_residual < 1e-10

    @pytest.mark.parametrize(
        "text, dim, terms, verdict",
        [
            ("1 / (R + dx(R))", 1, 4, FAILS),
            ("A * dx(R)^2 / (R + dy(R))^2", 2, 16, FAILS),
            ("lap(R)^3 / R^2", 1, 3, FAILS),
            ("A12 * lap2(lap2(lap2(R))) / R", 3, 0, PASSES),
        ],
    )
    def test_numerator_decides(self, text, dim, terms, verdict):
        report = certify(parse_q_expression(text, dim), dim, trials=50, seed=2)
        assert (report.numerator_terms, report.verdict) == (terms, verdict)
        assert (report.max_abs_residual > 1e-3) == (verdict == FAILS)

    @pytest.mark.parametrize(
        "text, dim, num_terms, den_terms",
        [("1 / (R + dx(R))", 1, 4, 4), ("A * dx(R)^2 / (R + dy(R))^2", 2, 16, 7)],
    )
    def test_the_residual_is_over_a_power_of_d(self, text, dim, num_terms, den_terms):
        q = parse_q_expression(text, dim)
        report = certify(q, dim, trials=5)
        res = euler_lagrange(q, dim)
        assert (len(res.num), res.power, len(power(q.den, res.power))) == (num_terms, 3, den_terms)
        residual = parse_q_expression(report.residual, dim)
        assert residual == RationalFunction(res.num, power(q.den, 3))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_family_sums_cancel_exactly(self, dim):
        q = parse_q_expression("A2 * lap(R) / R + A4 * lap2(R) / R", dim)
        # every term is nonzero; their sum is exactly 0
        res = euler_lagrange(q, dim)
        assert all(p for _, p, _ in res.terms) and res.num == {}
        report = certify(q, dim)
        assert (report.verdict, report.residual, report.max_abs_residual) == (PASSES, "0", 0.0)

    def test_expand_folds_monomials_and_cross_multiplies_sums(self):
        q = parse_q_expression("C * R_x^2 / R^2", 1)
        assert q == parse_q_expression("C * R_x^2 * R^-2", 1) and len(q.num) == 1
        assert q.den == ONE
        q = parse_q_expression("1 / (R + R_x) + 1 / (R - R_x)", 1)
        assert q == RationalFunction(_num("2 * R"), _num("R^2 - R_x^2"))

    def test_a_denominator_that_expands_to_zero_is_refused(self):
        with pytest.raises(ExprSyntaxError, match="division by constant zero") as err:
            parse_q_expression("C / ((R + 1)^2 - R^2 - 2 * R - 1)", 1)
        assert err.value.offset == 2

    def test_rerun_is_byte_identical(self):
        for text in ("C * dx(R)^2 / R", "A * dx(R)^2 / (R + dy(R))^2"):
            q = parse_q_expression(text, 2)
            a, b = (json_text(asdict(certify(q, 2, trials=300, seed=9))) for _ in range(2))
            assert a == b


# The verify-el candidates of the benchmark's analysis workload.
BENCHMARK_CANDIDATES = (
    "A0",
    "A2 * lap(R) / R",
    "A4 * lap2(R) / R",
    "A6 * lap(lap2(R)) / R",
    "A8 * lap2(lap2(R)) / R",
    "A2 * lap(R) / R + A4 * lap2(R) / R",
    "C * dx(R)",
    "C * dx(R)^2 / R",
)


def _signed(d, size):
    return (-1.0, 1.0)[math.floor(2 * d)] * (0.5 + 1.5 * size)


def scalar_witness(q, dimension, checkpoints, seed):
    """The witness one trial at a time, on one ``rng.random(width)`` row per
    trial, evaluated on floats: the reference for the array path.  Gives
    (max relative residual, worst trial) of the first n trials of one run
    for each n in ``checkpoints``."""
    res = euler_lagrange(q, dimension)
    order, names = variables(res.den, *(p for _, p, _ in res.terms))
    order = sorted({R, *order})
    width = len(order) + 1 + 2 * len(names)
    rng = np.random.default_rng(seed)
    out, max_rel, worst = {}, 0.0, 0
    for trial in range(max(checkpoints)):
        row = rng.random(width).tolist()
        jets = [_signed(row[0], row[1])] + [-2.0 + 4.0 * d for d in row[2 : len(order) + 1]]
        symbols = [_signed(row[c], row[c + 1]) for c in range(len(order) + 1, width, 2)]
        point = at(dict(zip(order, jets)), dict(zip(names, symbols)))
        d = polynomial_value(res.den, point)
        powers = [1.0]
        while len(powers) <= res.power:
            powers.append(powers[-1] * d)
        scale = max(abs(polynomial_value(p, point) / powers[k]) for _, p, k in res.terms)
        value = abs(polynomial_value(res.num, point) / powers[res.power])
        rel = value / scale if scale > 0.0 else (0.0 if value == 0.0 else math.inf)
        if rel > max_rel:
            max_rel, worst = rel, trial
        if trial + 1 in checkpoints:
            out[trial + 1] = (max_rel, worst)
    return out


class TestSampling:
    def test_draws_follow_the_generator_stream(self):
        # certify draws all its rows in one block and the reference one row
        # at a time: both read the same doubles, whatever the split
        for width in (29, 56, 83):
            whole = np.random.default_rng(4).random((50, width))
            rng = np.random.default_rng(4)
            parts = [rng.random((n, width)) for n in (1, 17, 2, 30)]
            assert np.array_equal(np.concatenate(parts), whole)
            rng = np.random.default_rng(4)
            assert np.array_equal([rng.random(width) for _ in range(50)], whole)

    def test_reference_draws_give_the_same_reports(self):
        # A failing candidate's witness is the reference's, bit for bit.
        for text in BENCHMARK_CANDIDATES:
            for dim in (1, 2, 3):
                q = parse_q_expression(text, dim)
                for seed in (0, 5):
                    if certify(q, dim).passed():  # no witness is drawn
                        continue
                    reference = scalar_witness(q, dim, (1, 2, 7, 100, 300), seed)
                    for trials, (max_rel, worst) in reference.items():
                        got = certify(q, dim, trials=trials, seed=seed)
                        assert float.hex(got.max_abs_residual) == float.hex(max_rel)
                        assert got.worst_trial == worst, (text, dim, seed, trials)


class TestCertifyGolden:
    # float.hex of the witness and its worst trial, 300 trials.
    CASES = (
        ("C * dx(R)^2 / R", 3, 1, "0x1.ff97879aab51bp+0", 224),
        ("C * dx(R)", 1, 3, "0x1.0000000000000p+0", 0),
        ("1 / (R + dx(R))", 1, 0, "0x1.fdca3ed3aec8fp+0", 187),
        (FALSE_PASS, 1, 0, "0x1.76a252b678509p-44", 30),
    )

    @pytest.mark.parametrize("text, dim, seed, max_hex, worst", CASES)
    def test_reports_match(self, text, dim, seed, max_hex, worst):
        report = certify(parse_q_expression(text, dim), dim, trials=300, seed=seed)
        assert float.hex(report.max_abs_residual) == max_hex
        assert (report.worst_trial, report.samples_used) == (worst, 300)

    @pytest.mark.parametrize(
        "text, dim, seed",
        [
            ("A2 * lap(R) / R", 2, 1),
            ("A8 * lap2(lap2(R)) / R", 3, 1),
            ("C * dx(R)^2 / R", 3, 1),
        ],
    )
    def test_worst_trial_attains_the_maximum(self, text, dim, seed):
        q = parse_q_expression(text, dim)
        full = certify(q, dim, trials=300, seed=seed)
        payload = json.loads(json_text(asdict(full)))
        assert payload["worst_trial"] == full.worst_trial
        if full.passed():  # no witness is drawn
            assert (full.worst_trial, full.samples_used, full.max_abs_residual) == (None, 0, 0.0)
            return
        worst = full.worst_trial
        # The first worst_trial + 1 trials draw the same stream.
        upto = certify(q, dim, trials=worst + 1, seed=seed)
        assert upto.max_abs_residual == full.max_abs_residual
        assert upto.worst_trial == worst
        if worst > 0:
            before = certify(q, dim, trials=worst, seed=seed)
            assert before.max_abs_residual < full.max_abs_residual

    def test_worst_trial_is_the_first_to_attain_the_maximum(self):
        # Every trial of "C * dx(R)" gives exactly 1.0: one term, equal to
        # the residual.
        report = certify(parse_q_expression("C * dx(R)", 1), 1, trials=50, seed=1)
        assert report.max_abs_residual == 1.0
        assert report.worst_trial == 0
