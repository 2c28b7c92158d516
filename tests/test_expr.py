"""Jet-space expression algebra: structure, derivatives, evaluation, parsing."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from qpotlab.elcheck import el_residual_terms
from qpotlab.expr import (
    Const,
    EvaluationError,
    ExprSyntaxError,
    Jet,
    JetPoint,
    JetVariable,
    Pow,
    Prod,
    Sym,
    ZERO,
    Sum,
    canonical,
    compile_float,
    evaluate,
    evaluate_exact,
    jet_variables,
    laplacian_expr,
    make_pow,
    make_prod,
    make_sum,
    parse_q_expression,
    partial_wrt_jet,
    pow_exact,
    quotient,
    symbol_names,
    to_text,
    total_derivative,
)

R = Jet(JetVariable())
R_x = Jet(JetVariable((0,)))
R_xx = Jet(JetVariable((0, 0)))


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
    def test_quotient_power_collapse(self):
        # R^2 * (A / R) -> A * R
        e = make_prod((make_pow(R, 2), quotient(Sym("A"), R)))
        assert canonical(e) == make_prod((Sym("A"), R))

    def test_constant_folding(self):
        e = make_prod((Const(Fraction(2)), Const(Fraction(1, 4)), R))
        assert e == make_prod((Const(Fraction(1, 2)), R))

    def test_sum_collects_like_terms(self):
        e = make_sum((R_x, R_x, make_prod((Const(Fraction(-2)), R_x))))
        assert e == ZERO

    def test_canonical_idempotent(self):
        e = parse_q_expression("A4 * lap(lap(R)) / R + 3 * R_ignored", 1)
        assert canonical(e) == canonical(canonical(e))

    def test_pow_of_pow(self):
        assert make_pow(make_pow(R, 2), 3) == Pow(R, 6)

    def test_zero_base_negative_exponent_rejected(self):
        with pytest.raises(Exception):
            make_pow(ZERO, -1)


class TestDerivatives:
    def test_product_rule(self):
        e = make_prod((R, R_x))
        d = canonical(total_derivative(e, 0))
        expected = canonical(make_sum((make_pow(R_x, 2), make_prod((R, R_xx)))))
        assert d == expected

    def test_quotient_rule(self):
        # D_x(R_x / R) = R_xx/R - R_x^2/R^2
        d = canonical(total_derivative(quotient(R_x, R), 0))
        expected = canonical(
            make_sum(
                (
                    quotient(R_xx, R),
                    make_prod((Const(Fraction(-1)), make_pow(R_x, 2), make_pow(R, -2))),
                )
            )
        )
        assert d == expected

    def test_mixed_partials_commute(self):
        e = parse_q_expression("A * dx(R)^2 / R + R * dy(R)", 2)
        dxy = canonical(total_derivative(total_derivative(e, 0), 1))
        dyx = canonical(total_derivative(total_derivative(e, 1), 0))
        assert dxy == dyx

    def test_linearity(self):
        a = parse_q_expression("A * lap(R) / R", 1)
        b = parse_q_expression("B * dx(R)^2", 1)
        lhs = canonical(total_derivative(make_sum((a, b)), 0))
        rhs = canonical(
            make_sum((total_derivative(a, 0), total_derivative(b, 0)))
        )
        assert lhs == rhs

    def test_partial_wrt_jet(self):
        # d/dR_x (A R_x^2 / R) = 2 A R_x / R
        e = make_prod((Sym("A"), make_pow(R_x, 2), make_pow(R, -1)))
        d = canonical(partial_wrt_jet(e, JetVariable((0,))))
        expected = make_prod(
            (Const(Fraction(2)), Sym("A"), R_x, make_pow(R, -1))
        )
        assert d == expected

    def test_laplacian_two_dimensional(self):
        lap = canonical(laplacian_expr(R, 2))
        assert lap == make_sum((R_xx, Jet(JetVariable((1, 1)))))

    def test_symbol_derivative_vanishes(self):
        assert total_derivative(Sym("A"), 0) == ZERO


class TestEvaluation:
    def test_exact_rational(self):
        q = parse_q_expression("A2 * lap(R) / R", 1)
        point = JetPoint(
            {JetVariable(): Fraction(2), JetVariable((0, 0)): Fraction(3, 5)}
        )
        val = evaluate_exact(q, point, {"A2": Fraction(-7)})
        assert val == Fraction(-7) * Fraction(3, 5) / Fraction(2)
        assert isinstance(val, Fraction)

    def test_float_path(self):
        q = parse_q_expression("0.5 * R^2", 1)
        point = JetPoint({JetVariable(): 3.0})
        assert evaluate(q, point) == pytest.approx(4.5)

    def test_unbound_symbol(self):
        q = parse_q_expression("A * R", 1)
        with pytest.raises(EvaluationError, match="unbound constant 'A'"):
            evaluate(q, JetPoint({JetVariable(): 1.0}))

    def test_unbound_jet(self):
        q = parse_q_expression("dx(R)", 1)
        with pytest.raises(EvaluationError, match="R_x"):
            evaluate(q, JetPoint({JetVariable(): 1.0}))

    def test_division_by_zero_at_point(self):
        q = parse_q_expression("lap(R) / R", 1)
        point = JetPoint({JetVariable(): 0, JetVariable((0, 0)): Fraction(1)})
        with pytest.raises(EvaluationError, match="division by zero"):
            evaluate_exact(q, point)


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


def _compiled_and_reference(e, variables, names, jets, symbols):
    point = JetPoint(dict(zip(variables, jets)))
    reference = evaluate(e, point, dict(zip(names, symbols)))
    return compile_float(e, variables, names)(jets, symbols), reference


class TestCompileFloat:
    @pytest.mark.parametrize("dim", (1, 2, 3))
    @pytest.mark.parametrize("text", WORKLOAD)
    def test_matches_evaluate_on_residual_terms(self, text, dim):
        q = parse_q_expression(text, dim)
        terms = [t for _, t in el_residual_terms(q, dim)]
        exprs = [q, canonical(make_sum(terms)), *terms]
        variables = sorted(
            set().union(*map(jet_variables, exprs)) | {JetVariable()},
            key=lambda v: (v.order, v.axes),
        )
        names = sorted(set().union(*map(symbol_names, exprs)))
        compiled = [compile_float(e, variables, names) for e in exprs]
        rng = np.random.default_rng(sum(map(ord, text)) + dim)
        for _ in range(200):
            jets = [
                float(rng.uniform(-3.0, 3.0) * 2.0 ** rng.integers(-6, 7))
                for _ in variables
            ]
            symbols = [float(rng.uniform(-2.0, 2.0)) for _ in names]
            point = JetPoint(dict(zip(variables, jets)))
            consts = dict(zip(names, symbols))
            for e, fn in zip(exprs, compiled):
                assert _same_bits(fn(jets, symbols), evaluate(e, point, consts))

    def test_default_order_is_sorted_variables_and_names(self):
        e = parse_q_expression("B * R_x + A * R_xx / R", 1)
        fn = compile_float(e)
        jets, symbols = [1.5, -0.25, 3.0], [0.75, -2.0]  # R, R_x, R_xx; A, B
        point = JetPoint({R.var: 1.5, R_x.var: -0.25, R_xx.var: 3.0})
        assert _same_bits(fn(jets, symbols), evaluate(e, point, {"A": 0.75, "B": -2.0}))

    def test_constant_only_expression(self):
        e = Sum((Const(Fraction(1, 3)), Prod((Const(Fraction(2, 7)), Const(5)))))
        assert _same_bits(compile_float(e)([], []), evaluate(e, JetPoint({})))
        assert compile_float(e)([], []) == float(Fraction(1, 3) + Fraction(10, 7))

    def test_exact_prefix_is_folded_and_later_constants_rounded(self):
        # 1/3 + 1/7 is folded exactly before R enters; the trailing 1/11 is
        # added as float(1/11), as the tree walk does.
        e = Sum((Const(Fraction(1, 3)), Const(Fraction(1, 7)), R, Const(Fraction(1, 11))))
        for r in (1e-17, -0.47619047619047616, 3.0, 1e16):
            got, want = _compiled_and_reference(e, [R.var], [], [r], [])
            assert _same_bits(got, want)
            assert got == float(Fraction(10, 21)) + r + float(Fraction(1, 11))
        p = Prod((Const(Fraction(1, 3)), Const(Fraction(3, 5)), R, Const(Fraction(1, 7))))
        got, want = _compiled_and_reference(p, [R.var], [], [0.1], [])
        assert _same_bits(got, want)

    def test_negative_zero_jets(self):
        cases = (
            Sum((R, R_x)),  # 0.0 + -0.0 + -0.0 = 0.0
            Prod((R, R_x)),  # 1.0 * -0.0 * -0.0 = 0.0
            Prod((Const(-1), R)),  # -1.0 * -0.0 = 0.0
            Sum((Const(0), R)),
            R,
            Pow(R_x, 3),
        )
        for e in cases:
            for r in (-0.0, 0.0):
                got, want = _compiled_and_reference(e, [R.var, R_x.var], [], [r, -0.0], [])
                assert _same_bits(got, want), (to_text(e), r)

    def test_zero_base_negative_exponent_raises(self):
        e = parse_q_expression("lap(R) / R", 1)
        fn = compile_float(e, [R.var, R_xx.var], [])
        for r in (0.0, -0.0):
            point = JetPoint({R.var: r, R_xx.var: 1.0})
            with pytest.raises(EvaluationError) as want:
                evaluate(e, point)
            with pytest.raises(EvaluationError) as got:
                fn([r, 1.0], [])
            assert str(got.value) == str(want.value)

    def test_overflow_raises_as_evaluate_does(self):
        e = Pow(R, 3)
        with pytest.raises(OverflowError):
            evaluate(e, JetPoint({R.var: 1e200}))
        with pytest.raises(OverflowError):
            compile_float(e)([1e200], [])

    def test_unbound_names_rejected_at_compile_time(self):
        e = parse_q_expression("A * R_x", 1)
        with pytest.raises(EvaluationError, match="unbound constant 'A'"):
            compile_float(e, [R.var, R_x.var], [])
        with pytest.raises(EvaluationError, match="R_x"):
            compile_float(e, [R.var], ["A"])
        with pytest.raises(EvaluationError, match="division by zero"):
            compile_float(Prod((R, Pow(Const(0), -1))))

    def test_repeated_subtrees_give_the_same_bits(self):
        inv = Pow(R, -1)
        e = Sum((Prod((inv, R_x)), Prod((inv, R_xx)), Prod((inv, R_x))))
        got, want = _compiled_and_reference(
            e, [R.var, R_x.var, R_xx.var], [], [0.3, 1.7, -2.9], []
        )
        assert _same_bits(got, want)


# Points where numpy's power and Python's float ** round differently.
POWER_DISAGREES = ((float.fromhex("-0x1.a29cc1d3d98c0p+1"), 2),
                   (float.fromhex("0x1.0044df100f038p-3"), -1))


class TestCompileFloatOnArrays:
    @pytest.mark.parametrize("dim", (1, 2, 3))
    @pytest.mark.parametrize("text", WORKLOAD + ("C * dx(R)^2 / R^2 - B * R^-3",))
    def test_each_element_is_the_float_result(self, text, dim):
        q = parse_q_expression(text, dim)
        terms = [t for _, t in el_residual_terms(q, dim)]
        exprs = [q, canonical(make_sum(terms)), *terms]
        variables = sorted(
            set().union(*map(jet_variables, exprs)) | {JetVariable()},
            key=lambda v: (v.order, v.axes),
        )
        names = sorted(set().union(*map(symbol_names, exprs)))
        rng = np.random.default_rng(sum(map(ord, text)) + 10 * dim)
        n = 300
        jets = [rng.uniform(-3.0, 3.0, n) * 2.0 ** rng.integers(-6, 7, n) for _ in variables]
        jets[0][:2] = [x for x, _ in POWER_DISAGREES]  # R^2 and R^-1 disagree there
        symbols = [rng.uniform(-2.0, 2.0, n) for _ in names]
        for e in exprs:
            fn = compile_float(e, variables, names)
            with np.errstate(all="ignore"):
                got = np.broadcast_to(fn(jets, symbols), (n,))
            for i in range(n):
                want = fn([float(j[i]) for j in jets], [float(s[i]) for s in symbols])
                assert float.hex(float(got[i])) == float.hex(want), (to_text(e), i)

    def test_power_is_the_float_power(self):
        for x, k in POWER_DISAGREES:
            assert np.power(np.array([x]), k)[0] != x**k
            got = compile_float(Pow(R, k))([np.array([x, 0.5])], [])
            assert got.tolist() == [x**k, 0.5**k]
            assert pow_exact(np.array([[x]]), k).tolist() == [[x**k]]
            assert type(pow_exact(x, k)) is float and pow_exact(x, k) == x**k

    def test_zero_base_raises_and_the_point_names_it(self):
        e = parse_q_expression("C * lap(R) / dx(R)", 1)
        variables, names = [R.var, R_x.var, R_xx.var], ["C"]
        fn = compile_float(e, variables, names)
        r_x = np.array([0.5, -1.5, 0.0, 2.0])  # zero at point 2
        jets = [np.ones(4), r_x, np.full(4, 3.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroDivisionError):
                with np.errstate(all="ignore"):
                    fn(jets, [np.full(4, 2.0)])
        point = JetPoint({R.var: 1.0, R_x.var: 0.0, R_xx.var: 3.0})
        with pytest.raises(EvaluationError) as want:
            evaluate(e, point, {"C": 2.0})
        for i in range(4):
            if i != 2:
                fn([1.0, float(r_x[i]), 3.0], [2.0])
        with pytest.raises(EvaluationError) as got:
            fn([1.0, 0.0, 3.0], [2.0])
        assert str(got.value) == str(want.value)

    def test_constant_expression_gives_its_float(self):
        e = Sum((Const(Fraction(1, 3)), Const(Fraction(2, 7))))
        assert compile_float(e)([np.zeros(3)], []) == float(Fraction(13, 21))


class TestParser:
    def test_bohmian_roundtrip(self):
        q = parse_q_expression("A2 * lap(R) / R", 1)
        assert to_text(q) == "A2 * R_xx / R"

    def test_decimal_literals_exact(self):
        e = parse_q_expression("0.125 * R", 1)
        assert e == make_prod((Const(Fraction(1, 8)), R))

    def test_nested_functions(self):
        q = parse_q_expression("lap(lap(lap(R)))", 1)
        assert jet_variables(q) == frozenset({JetVariable((0,) * 6)})

    def test_lap2_equals_double_lap(self):
        assert parse_q_expression("lap2(R)", 2) == parse_q_expression(
            "lap(lap(R))", 2
        )

    def test_lap_expands_over_dimension(self):
        q = parse_q_expression("lap(R)", 3)
        assert jet_variables(q) == frozenset(
            {JetVariable((0, 0)), JetVariable((1, 1)), JetVariable((2, 2))}
        )

    def test_unary_minus_and_subtraction(self):
        e = parse_q_expression("-R + 2 * R - R", 1)
        assert e == ZERO

    def test_power_binds_tighter_than_times(self):
        e = parse_q_expression("2 * R^3", 1)
        assert e == make_prod((Const(Fraction(2)), make_pow(R, 3)))

    def test_negative_exponent(self):
        assert parse_q_expression("R^-1", 1) == make_pow(R, -1)

    def test_unknown_function_rejected(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier 'sin'"):
            parse_q_expression("sin(R)", 1)

    def test_bare_identifier_is_symbol(self):
        q = parse_q_expression("alpha * R", 1)
        assert Sym("alpha") in (
            q.factors if isinstance(q, Prod) else (q,)
        )

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError, match="non-integer exponent"):
            parse_q_expression("R^1.5", 1)

    def test_symbolic_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError, match="expected integer exponent"):
            parse_q_expression("R^n", 1)

    def test_truncated_input_reports_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_q_expression("A2 * lap(R / ", 1)
        assert "byte offset" in str(err.value)
        assert err.value.offset == 13

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError, match="unexpected character"):
            parse_q_expression("R @ R", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError, match="trailing input"):
            parse_q_expression("R R", 1)

    def test_axis_beyond_dimension(self):
        with pytest.raises(ExprSyntaxError, match="exceeds dimension"):
            parse_q_expression("dy(R)", 1)

    def test_jet_names_parse_directly(self):
        assert parse_q_expression("R_xx / R", 1) == parse_q_expression(
            "lap(R) / R", 1
        )
        assert parse_q_expression("R_yx", 2) == Jet(JetVariable((0, 1)))

    def test_jet_name_beyond_dimension(self):
        with pytest.raises(ExprSyntaxError, match="exceeds dimension"):
            parse_q_expression("R_y", 1)

    def test_division_by_zero_literal(self):
        with pytest.raises(ExprSyntaxError, match="division by constant zero"):
            parse_q_expression("R / 0", 1)


class TestPrinting:
    def test_negative_powers_render_as_quotient(self):
        q = parse_q_expression("A4 * lap(lap(R)) / R", 1)
        assert to_text(q) == "A4 * R_xxxx / R"

    def test_subtraction_folding(self):
        e = parse_q_expression("R_a - R_b", 1)  # two symbols
        assert to_text(e) == "R_a - R_b"

    def test_roundtrip_through_parser(self):
        texts = [
            "A2 * lap(R) / R",
            "C * dx(R)^2 / R^2",
            "A4 * lap(lap(R)) / R + A2 * lap(R) / R",
            "-2 * C * R_x",
        ]
        for text in texts:
            q = parse_q_expression(text, 1)
            again = parse_q_expression(to_text(q), 1)
            assert again == q, text
