"""Candidates as N/D: the normal form, the calculus, evaluation and parsing."""

import functools
import operator
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qpotlab import expr
from qpotlab.elcheck import euler_lagrange
from qpotlab.expr import (
    ONE,
    EvaluationError,
    ExprSyntaxError,
    JetVariable,
    RationalFunction,
    canonical_order,
    jet_variables,
    parse_q_expression,
    partial,
    point,
    polynomial_value,
    symbol_names,
    to_text,
    total,
    value_at,
    variables,
)

R = JetVariable()
R_x = JetVariable((0,))
R_xx = JetVariable((0, 0))
ZERO = RationalFunction({}, ONE)


def parse(text, dim=1):
    return parse_q_expression(text, dim)


class TestJetVariable:
    def test_axes_sorted_and_named(self):
        v = JetVariable((1, 0, 0))
        assert v.axes == (0, 0, 1)
        assert v.name == "R_xxy"
        assert v.order == 3

    def test_mixed_order_irrelevant(self):
        assert JetVariable((0, 1)) == JetVariable((1, 0))

    def test_promoted(self):
        assert JetVariable((0,)).promoted(0) == JetVariable((0, 0))
        assert JetVariable(()).name == "R"


class TestCanonicalForm:
    """N/D: monomial denominators fold into N, like terms collect, and
    constants fold exactly."""

    def test_quotient_power_collapse(self):
        assert parse("R^2 * (A / R)") == parse("A * R")

    def test_constant_folding(self):
        assert parse("2 * (1/4) * R") == RationalFunction({((R, 1),): Fraction(1, 2)}, ONE)

    def test_sum_collects_like_terms(self):
        assert parse("R_x + R_x - 2 * R_x") == ZERO

    def test_canonical_idempotent(self):
        for text in ("A4 * lap(lap(R)) / R + 3 * R_ignored", "C / (R + dx(R))^2 - R"):
            once = to_text(parse(text))
            assert to_text(parse(once)) == once

    def test_pow_of_pow(self):
        assert parse("(R^2)^3") == parse("R^6")
        assert parse("((R + R_x)^-2)^3") == parse("1 / (R + R_x)^6")

    def test_power_by_repeated_squaring(self, monkeypatch):
        # about 2 log2(64) products where 64 repeated ones would do, with
        # the same exact polynomial
        base = {((R, 1),): 1, ((R_x, 1),): 2}
        want = ONE
        for _ in range(64):
            want = expr.multiply(want, base)
        calls = []
        multiply = expr.multiply

        def counted(p, q):
            calls.append(1)
            return multiply(p, q)

        monkeypatch.setattr(expr, "multiply", counted)
        assert expr.power(base, 64) == want
        assert len(calls) <= 2 * 6

    def test_zero_base_negative_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError, match="zero base with nonpositive exponent") as err:
            parse("0^-1")
        assert err.value.offset == 1

    @pytest.mark.parametrize(
        "text, offset, message",
        [
            ("0^0", 1, "zero base with nonpositive exponent"),
            ("(R - R)^-1", 7, "zero base with nonpositive exponent"),
            ("R * (dx(A) + 0)^-2", 15, "zero base with nonpositive exponent"),
            ("1/((R+1)^2 - R^2 - 2*R - 1)", 1, "division by constant zero"),
            ("C * R / (R_x - dx(R))", 6, "division by constant zero"),
        ],
    )
    def test_identically_zero_is_refused_at_its_token(self, text, offset, message):
        with pytest.raises(ExprSyntaxError, match=message) as err:
            parse(text)
        assert err.value.offset == offset

    def test_a_zero_base_with_a_positive_exponent_is_zero(self):
        assert parse("(R - R)^3 + R^0") == parse("1")

    def test_a_monomial_denominator_folds_into_n(self):
        q = parse("C / (2 * R * R_x)")
        assert q == parse("1/2 * C * R^-1 * R_x^-1") and q.den == ONE and len(q.num) == 1
        assert parse("C / (R + R_x)") == RationalFunction(parse("C").num, parse("R + R_x").num)


class TestDerivatives:
    def test_product_rule(self):
        assert parse("dx(R * R_x)") == parse("R_x^2 + R * R_xx")

    def test_quotient_rule(self):
        assert parse("dx(R_x / R)") == parse("R_xx / R - R_x^2 / R^2")
        assert parse("dx(1 / (R + R_x))") == parse("-(R_x + R_xx) / (R + R_x)^2")

    def test_mixed_partials_commute(self):
        e = "A * dx(R)^2 / (R + dy(R)) + R * dy(R)"
        assert parse(f"dx(dy({e}))", 2) == parse(f"dy(dx({e}))", 2)

    def test_linearity(self):
        a, b = "A * lap(R) / R", "B * dx(R)^2"
        assert parse(f"dx({a} + {b})") == parse(f"dx({a}) + dx({b})")

    def test_partial_wrt_jet(self):
        # d/dR_x (A R_x^2 / R) = 2 A R_x / R
        assert partial(parse("A * R_x^2 / R").num, R_x) == parse("2 * A * R_x / R").num
        assert partial(parse("A * R_x^2 / R").num, R) == parse("-A * R_x^2 / R^2").num

    def test_laplacian_two_dimensional(self):
        assert parse("lap(R)", 2) == parse("R_xx + R_yy", 2)

    def test_symbol_derivative_vanishes(self):
        assert parse("dx(A)") == ZERO
        assert total(parse("A * B").num, 0) == {}


class TestEvaluation:
    def test_exact_rational(self):
        q = parse("A2 * lap(R) / R")
        val = value_at(q, {R: Fraction(2), R_xx: Fraction(3, 5)}, {"A2": Fraction(-7)})
        assert val == Fraction(-7) * Fraction(3, 5) / Fraction(2)
        assert isinstance(val, Fraction)

    def test_float_path(self):
        assert value_at(parse("0.5 * R^2"), {R: 3.0}) == pytest.approx(4.5)

    def test_unbound_symbol(self):
        with pytest.raises(EvaluationError, match="unbound constant 'A'"):
            value_at(parse("A * R"), {R: 1.0})

    def test_unbound_jet(self):
        with pytest.raises(EvaluationError, match="R_x"):
            value_at(parse("dx(R)"), {R: 1.0})

    def test_division_by_zero_at_point(self):
        with pytest.raises(EvaluationError, match="division by zero"):
            value_at(parse("lap(R) / R"), {R: 0, R_xx: Fraction(1)})


WORKLOAD = (
    "A0",
    "A2 * lap(R) / R",
    "A4 * lap2(R) / R",
    "A6 * lap(lap2(R)) / R",
    "A8 * lap2(lap2(R)) / R",
    "A2 * lap(R) / R + A4 * lap2(R) / R",
    "C * dx(R)",
    "C * dx(R)^2 / R",
)


def _same_bits(a: float, b: float) -> bool:
    return type(a) is float and float.hex(a) == float.hex(b)


def _reference(p, values):
    """The documented order, one term at a time, in Python floats: the
    coefficient times the positive-exponent factors, over the product of
    the negative-exponent ones."""
    out = None
    for m in canonical_order(p):
        ups = [values[v] for v, e in m for _ in range(e)]
        downs = [values[v] for v, e in m for _ in range(-e)]
        term = functools.reduce(operator.mul, ups, float(p[m]))
        if downs:
            term = term / functools.reduce(operator.mul, downs)
        out = term if out is None else out + term
    return 0.0 if out is None else out


def _polynomials(text, dim):
    """N of the candidate, each residual term's P_J, and the residual's N."""
    res = euler_lagrange(parse(text, dim), dim)
    polys = [parse(text, dim).num, *(p for _, p, _ in res.terms), res.num]
    return [p for p in polys if p]


def _draws(polys, draw):
    """A point giving R, every jet variable and every constant of the
    polynomials a value from ``draw()``."""
    jets, names = variables(*polys)
    return point({v: draw() for v in sorted({R, *jets})}, {n: draw() for n in names})


class TestCompileFloat:
    """polynomial_value on floats: the documented operation order, bit for
    bit, and the exact value at that point to rounding."""

    @pytest.mark.parametrize("dim", (1, 2, 3))
    @pytest.mark.parametrize("text", WORKLOAD)
    def test_matches_evaluate_on_residual_terms(self, text, dim):
        polys = _polynomials(text, dim)
        rng = np.random.default_rng(sum(map(ord, text)) + dim)

        def draw():
            return float(rng.uniform(-3.0, 3.0) * 2.0 ** rng.integers(-6, 7))

        for _ in range(200):
            values = _draws(polys, draw)
            exact = {v: Fraction(x) for v, x in values.items()}
            for p in polys:
                got = polynomial_value(p, values)
                assert _same_bits(got, _reference(p, values))
                size = sum(abs(polynomial_value({m: c}, exact)) for m, c in p.items())
                assert abs(Fraction(got) - polynomial_value(p, exact)) <= 1e-13 * size

    def test_constant_only_expression(self):
        q = parse("1/3 + 2/7 * 5")
        assert _same_bits(value_at(q, {R: 0.0}), float(Fraction(1, 3) + Fraction(10, 7)))
        assert value_at(q, {}) == Fraction(1, 3) + Fraction(10, 7)

    def test_negative_zero_jets(self):
        for text in ("R + R_x", "R * R_x", "-R", "0 + R", "R", "R_x^3"):
            p = parse(text).num
            for r in (-0.0, 0.0):
                values = {R: r, R_x: -0.0}
                assert _same_bits(polynomial_value(p, values), _reference(p, values)), (text, r)
            got = polynomial_value(p, {R: np.array([-0.0, 0.0]), R_x: np.array([-0.0, -0.0])})
            want = [_reference(p, {R: r, R_x: -0.0}) for r in (-0.0, 0.0)]
            got = np.broadcast_to(got, (2,))
            assert [float.hex(x) for x in got.tolist()] == [float.hex(x) for x in want]

    def test_zero_base_negative_exponent_raises(self):
        e = parse("lap(R) / R")
        for r in (0.0, -0.0):
            with pytest.raises(
                EvaluationError, match=r"^division by zero: R vanishes at this point$"
            ):
                value_at(e, {R: r, R_xx: 1.0})
        with pytest.raises(EvaluationError, match=r"^division by zero: D vanishes"):
            value_at(parse("R / (R + R_x)"), {R: 1.0, R_x: -1.0})

    def test_repeated_subtrees_give_the_same_bits(self):
        # repeated terms collect in N/D, so they cost one term and give the
        # bits of the collected form
        a = parse("R_x / R + R_xx / R + R_x / R")
        b = parse("2 * R_x / R + R_xx / R")
        assert a == b
        point = {R: 0.3, R_x: 1.7, R_xx: -2.9}
        assert _same_bits(value_at(a, point), value_at(b, point))


class TestCompileFloatOnArrays:
    """polynomial_value on arrays: each element has the bits of the value
    on floats at that element's point."""

    @pytest.mark.parametrize("dim", (1, 2, 3))
    @pytest.mark.parametrize("text", WORKLOAD + ("C * dx(R)^2 / R^2 - B * R^-3",))
    def test_each_element_is_the_float_result(self, text, dim):
        polys = _polynomials(text, dim)
        rng = np.random.default_rng(sum(map(ord, text)) + 10 * dim)
        n = 300
        arrays = _draws(polys, lambda: rng.uniform(-3.0, 3.0, n) * 2.0 ** rng.integers(-6, 7, n))
        for p in polys:
            with np.errstate(all="ignore"):
                got = np.broadcast_to(polynomial_value(p, arrays), (n,))
            assert got.dtype == np.float64
            for i in range(n):
                want = polynomial_value(p, {v: float(x[i]) for v, x in arrays.items()})
                text = to_text(RationalFunction(p, ONE))
                assert float.hex(float(got[i])) == float.hex(want), (text, i)

    def test_fraction_meets_an_array_on_the_right(self):
        # rational coefficients meet arrays as float(c), as they meet
        # floats; never an object array
        texts = ("R + 1/3", "R * 1/10", "(R_x / 7 + 2/3)^-3", "(R + 1/3)^2 * R_x * (-5/11)")
        arrays = {
            R: np.array([-0.0, 0.0, 0.1, -1.5, 3.0]),
            R_x: np.array([0.7, -0.0, 2.5, -0.2, 1e-3]),
        }
        for text in texts:
            q = parse(text)
            got = value_at(q, arrays)
            assert got.dtype == np.float64, text
            want = [value_at(q, {v: float(x[i]) for v, x in arrays.items()}) for i in range(5)]
            assert [float.hex(x) for x in got.tolist()] == [float.hex(x) for x in want]

    def test_powers_are_repeated_products(self):
        x = float.fromhex("0x1.0044df100f038p-3")
        got = polynomial_value({((R, 3),): 1, ((R, -2),): 1}, {R: np.array([x])})
        assert float.hex(float(got[0])) == float.hex(1.0 * x * x * x + 1.0 / (x * x))

    def test_zero_base_raises_and_the_point_names_it(self):
        e = parse("C * lap(R) / dx(R)")
        r_x = np.array([0.5, -1.5, 0.0, 2.0])  # zero at point 2
        arrays = {R: np.ones(4), R_x: r_x, R_xx: np.full(4, 3.0)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                got = value_at(e, arrays, {"C": np.full(4, 2.0)})
        assert np.isfinite(got).tolist() == [True, True, False, True]
        for i in range(4):
            at = {R: 1.0, R_x: float(r_x[i]), R_xx: 3.0}
            if i != 2:
                assert value_at(e, at, {"C": 2.0}) == got[i]
                continue
            with pytest.raises(
                EvaluationError, match=r"^division by zero: R_x vanishes at this point$"
            ):
                value_at(e, at, {"C": 2.0})

    def test_constant_expression_gives_its_float(self):
        e = parse("1/3 + 2/7")
        assert _same_bits(value_at(e, {R: np.zeros(3)}), float(Fraction(13, 21)))


class TestParser:
    def test_bohmian_roundtrip(self):
        assert to_text(parse("A2 * lap(R) / R")) == "A2 * R_xx / R"

    def test_decimal_literals_exact(self):
        assert parse("0.125 * R") == RationalFunction({((R, 1),): Fraction(1, 8)}, ONE)

    def test_nested_functions(self):
        assert jet_variables(parse("lap(lap(lap(R)))")) == frozenset({JetVariable((0,) * 6)})

    def test_lap2_equals_double_lap(self):
        assert parse("lap2(R)", 2) == parse("lap(lap(R))", 2)

    def test_lap_expands_over_dimension(self):
        assert jet_variables(parse("lap(R)", 3)) == frozenset(
            {JetVariable((0, 0)), JetVariable((1, 1)), JetVariable((2, 2))}
        )

    def test_unary_minus_and_subtraction(self):
        assert parse("-R + 2 * R - R") == ZERO

    def test_power_binds_tighter_than_times(self):
        assert parse("2 * R^3") == RationalFunction({((R, 3),): 2}, ONE)

    def test_negative_exponent(self):
        assert parse("R^-1") == RationalFunction({((R, -1),): 1}, ONE)

    def test_unknown_function_rejected(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier 'sin'"):
            parse("sin(R)")

    def test_bare_identifier_is_symbol(self):
        q = parse("alpha * R")
        assert symbol_names(q) == {"alpha"} and jet_variables(q) == {R}

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError, match="non-integer exponent"):
            parse("R^1.5")

    def test_symbolic_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError, match="expected integer exponent"):
            parse("R^n")

    def test_truncated_input_reports_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("A2 * lap(R / ")
        assert "byte offset" in str(err.value)
        assert err.value.offset == 13

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError, match="unexpected character"):
            parse("R @ R")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError, match="trailing input"):
            parse("R R")

    def test_axis_beyond_dimension(self):
        with pytest.raises(ExprSyntaxError, match="exceeds dimension"):
            parse("dy(R)")

    def test_jet_names_parse_directly(self):
        assert parse("R_xx / R") == parse("lap(R) / R")
        assert parse("R_yx", 2) == RationalFunction({((JetVariable((0, 1)), 1),): 1}, ONE)

    def test_jet_name_beyond_dimension(self):
        with pytest.raises(ExprSyntaxError, match="exceeds dimension"):
            parse("R_y")

    def test_division_by_zero_literal(self):
        with pytest.raises(ExprSyntaxError, match="division by constant zero"):
            parse("R / 0")


class TestPrinting:
    def test_negative_powers_render_as_quotient(self):
        assert to_text(parse("A4 * lap(lap(R)) / R")) == "A4 * R_xxxx / R"

    def test_subtraction_folding(self):
        assert to_text(parse("R_a - R_b")) == "R_a - R_b"  # two symbols

    def test_sums_print_in_lexicographic_order(self):
        assert to_text(parse("1 / (dx(R) + R)^2")) == "1 / (R^2 + 2 * R * R_x + R_x^2)"
        assert to_text(parse("-R_x / (3 * R * R_y)", 2)) == "-1/3 * R_x / (R * R_y)"

    def test_roundtrip_through_parser(self):
        texts = [
            "A2 * lap(R) / R",
            "C * dx(R)^2 / R^2",
            "A4 * lap(lap(R)) / R + A2 * lap(R) / R",
            "-2 * C * R_x",
            "(A * R_x - 1/3) / (R + R_x)^2",
            "-1 / (R - R_x)",
        ]
        for text in texts:
            q = parse(text)
            assert parse(to_text(q)) == q, text
