"""Stationarity residual construction and randomized certification."""

import json
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from qpotlab import elcheck
from qpotlab.elcheck import (
    FAILS,
    FAMILY_NAMES,
    PASSES,
    _Draws,
    _poly_profile,
    build_el_residual,
    certify,
    el_residual_terms,
)
from qpotlab.expr import (
    Const,
    Jet,
    JetPoint,
    JetVariable,
    Sym,
    ZERO,
    canonical,
    evaluate,
    make_prod,
    make_sum,
    parse_q_expression,
    to_text,
)
from qpotlab.serialize import json_text

R_x = Jet(JetVariable((0,)))
R_xx = Jet(JetVariable((0, 0)))


class TestResidualConstruction:
    def test_bohmian_flux_terms_cancel(self):
        # For Q2 the two contributions are -A R_xx and +D_x D_x (A R).
        q = parse_q_expression("A2 * lap(R) / R", 1)
        terms = el_residual_terms(q, 1)
        assert [v.name for v, _ in terms] == ["R", "R_xx"]
        t_r = canonical(terms[0][1])
        t_rxx = canonical(terms[1][1])
        assert canonical(make_sum((t_r, t_rxx))) == ZERO

    def test_family_residuals_vanish_symbolically(self):
        for text in (
            "A0",
            "A2 * lap(R) / R",
            "A4 * lap(lap(R)) / R",
            "A6 * lap(lap(lap(R))) / R",
        ):
            assert build_el_residual(parse_q_expression(text, 1), 1) == ZERO, text

    def test_gradient_counterexample_residual(self):
        # Q = C R_x / R  ->  residual -2 C R_x
        q = parse_q_expression("C * dx(R) / R", 1)
        res = build_el_residual(q, 1)
        assert res == make_prod((Const(Fraction(-2)), Sym("C"), R_x))

    def test_fisher_counterexample_residual(self):
        # Q = C R_x^2 / R^2  ->  residual -2 C R_xx - 2 C R_x^2 / R
        q = parse_q_expression("C * dx(R)^2 / R^2", 1)
        res = build_el_residual(q, 1)
        expected = parse_q_expression("-2 * C * lap(R) - 2 * C * dx(R)^2 / R", 1)
        assert res == expected

    def test_odd_order_sign(self):
        # single odd-order variable contributes with a minus sign
        q = parse_q_expression("C * dx(R)", 1)
        terms = dict(
            (v.name, t) for v, t in el_residual_terms(q, 1)
        )
        # -D_x(R^2 C) = -2 C R R_x
        expected = parse_q_expression("-2 * C * R * dx(R)", 1)
        assert canonical(terms["R_x"]) == expected

    def test_dimension_guard(self):
        q = parse_q_expression("A2 * lap(R) / R", 2)
        with pytest.raises(ValueError, match="beyond dimension"):
            el_residual_terms(q, 1)


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

    def test_resampling_reported(self):
        # Zero-offset profiles occasionally wander below |R| = 0.1; the
        # polynomial family triggers redraws which must be counted.
        q = parse_q_expression("A2 * lap(R) / R", 1)
        report = certify(q, 1, trials=200, seed=0)
        assert report.resamples >= 0
        assert report.samples_used == 200

    def test_report_serialization(self):
        q = parse_q_expression("A2 * lap(R) / R", 1)
        report = certify(q, 1, trials=20, seed=1)
        payload = json.loads(json_text(asdict(report)))
        assert payload["verdict"] == PASSES
        assert payload["candidate"] == to_text(canonical(q))
        assert payload["samples_used"] == 20
        assert payload["seed"] == 1

    def test_invalid_arguments(self):
        q = parse_q_expression("A2 * lap(R) / R", 1)
        with pytest.raises(ValueError):
            certify(q, 1, trials=0)
        with pytest.raises(ValueError):
            certify(q, 1, tol=0.0)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            certify(q, 1, seed=-1)

    def test_terms_evaluate_consistently(self):
        # Sum of per-index terms equals the assembled residual numerically.
        q = parse_q_expression("C * dx(R)^2 / R^2", 1)
        terms = el_residual_terms(q, 1)
        residual = build_el_residual(q, 1)
        point = JetPoint(
            {
                JetVariable(): 1.25,
                JetVariable((0,)): -0.75,
                JetVariable((0, 0)): 0.5,
                JetVariable((0, 0, 0)): 0.125,
            }
        )
        consts = {"C": 3.0}
        total = sum(evaluate(t, point, consts) for _, t in terms)
        assert total == pytest.approx(evaluate(residual, point, consts), rel=1e-12)


# (low, high) of the 14 integer draws of one polynomial profile, in order
POLY_BOUNDS = [(-9, 10), (1, 5)] * 6 + [(-6, 7), (1, 4)]

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


class ScalarDraws:
    """The sampler's draws as scalar Generator calls: the reference for
    ``elcheck._Draws``."""

    def __init__(self, rng):
        self.rng = rng

    def sign(self):
        return (-1.0, 1.0)[int(self.rng.integers(0, 2))]

    def uniform(self, low, high):
        return float(self.rng.uniform(low, high))

    def poly(self):
        return [int(self.rng.integers(lo, hi)) for lo, hi in POLY_BOUNDS]


def _poly_profile_oracle(rng, max_order):
    """The polynomial family in exact rationals, drawing as the sampler does."""
    coeffs = [
        Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
        for _ in range(6)
    ]
    x0 = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
    derivs = []
    for j in range(max_order + 1):
        val = Fraction(0)
        for k in range(j, 6):
            val += coeffs[k] * math.perm(k, j) * x0 ** (k - j)
        derivs.append(float(val))
    return derivs


class TestSampling:
    def test_poly_profile_matches_fraction_oracle(self):
        for seed in range(300):
            max_order = seed % 12
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _poly_profile(_Draws(fast), max_order)
            want = _poly_profile_oracle(slow, max_order)
            assert [float.hex(v) for v in got] == [float.hex(v) for v in want]
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_poly_draws_match_scalar_draws(self):
        # the sampler with its 14 scalar rng.integers calls, in draw order
        def oracle(rng, max_order):
            scaled = []
            for _ in range(6):
                num = int(rng.integers(-9, 10))
                scaled.append(num * (12 // int(rng.integers(1, 5))))
            p, q = int(rng.integers(-6, 7)), int(rng.integers(1, 4))
            powers = [p**m * q ** (5 - m) for m in range(6)]
            return [
                sum(scaled[k] * math.perm(k, j) * powers[k - j] for k in range(j, 6))
                / (12 * q**5)
                for j in range(max_order + 1)
            ]

        for seed in range(500):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = _Draws(fast)
            for draw in range(3):
                max_order = (seed + draw) % 12
                got, want = _poly_profile(draws, max_order), oracle(slow, max_order)
                assert [float.hex(v) for v in got] == [float.hex(v) for v in want]
                assert draws.uniform(0.5, 2.0) == slow.uniform(0.5, 2.0)
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_sign_draw_consumes_the_choice_stream(self):
        fast, slow = np.random.default_rng(11), np.random.default_rng(11)
        draws = _Draws(fast)
        for i in range(20_000):
            assert draws.sign() == float(slow.choice((-1.0, 1.0)))
            if i % 3 == 0:  # interleave the other draws the sampler makes
                assert draws.uniform(0.5, 2.0) == slow.uniform(0.5, 2.0)
            if i % 5 == 0:
                assert fast.integers(-9, 10) == slow.integers(-9, 10)
        assert fast.bit_generator.state == slow.bit_generator.state

    def test_draws_follow_the_generator_stream(self):
        # The sampler's order: a sign, then each (low, high) pair the
        # profiles and the symbols draw from, then one polynomial profile.
        pairs = [(1.0, 2.0), (0.3, 1.0), (0.5, 2.0), (0.0, 2.0 * math.pi),
                 (-1.0, 1.0), (0.5, 1.5), (0.7, 1.5)]
        for seed in range(20):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = _Draws(fast)
            for _ in range(500):
                assert draws.sign() == float(slow.choice((-1.0, 1.0)))
                for low, high in pairs:
                    assert draws.uniform(low, high) == slow.uniform(low, high)
                assert draws.poly() == [int(slow.integers(lo, hi)) for lo, hi in POLY_BOUNDS]
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_reference_draws_give_the_same_reports(self, monkeypatch):
        real = {
            (text, dim, seed): certify(parse_q_expression(text, dim), dim, trials=100, seed=seed)
            for text in BENCHMARK_CANDIDATES
            for dim in (1, 2, 3)
            for seed in (0, 5)
        }
        monkeypatch.setattr(elcheck, "_Draws", ScalarDraws)
        for (text, dim, seed), report in real.items():
            assert certify(parse_q_expression(text, dim), dim, trials=100, seed=seed) == report


class TestCertifyGolden:
    # max_abs_residual (as float.hex) and redraw counts of the Fraction-based
    # sampler and tree-walk evaluator, 300 trials at the default tolerance.
    CASES = (
        ("A2 * lap(R) / R", 2, 1, "0x1.0edbb0828f3f0p-52", 7),
        ("A8 * lap2(lap2(R)) / R", 3, 1, "0x1.07e48f8a4d0dep-51", 6),
        ("C * dx(R)^2 / R", 3, 1, "0x1.fb6fb34328570p+0", 6),
        ("A2 * lap(R) / R + A4 * lap2(R) / R", 1, 2, "0x1.b4c1fe99f4f79p-52", 2),
        ("C * dx(R)", 1, 3, "0x1.0000000000000p+0", 7),
        ("A4 * lap2(R) / R", 3, 3, "0x1.c9467a26415a7p-52", 1),
        ("A6 * lap(lap2(R)) / R", 2, 2, "0x1.7bbe7102506ebp-52", 5),
    )

    @pytest.mark.parametrize("text, dim, seed, max_hex, resamples", CASES)
    def test_reports_match(self, text, dim, seed, max_hex, resamples):
        report = certify(parse_q_expression(text, dim), dim, trials=300, seed=seed)
        assert float.hex(report.max_abs_residual) == max_hex
        assert report.resamples == resamples

    @pytest.mark.parametrize("text, dim, seed", [c[:3] for c in CASES[:3]])
    def test_worst_trial_attains_the_maximum(self, text, dim, seed):
        q = parse_q_expression(text, dim)
        full = certify(q, dim, trials=300, seed=seed)
        worst = full.worst_trial
        # The first worst_trial + 1 trials draw the same stream.
        upto = certify(q, dim, trials=worst + 1, seed=seed)
        assert upto.max_abs_residual == full.max_abs_residual
        assert upto.worst_trial == worst
        if worst > 0:
            before = certify(q, dim, trials=worst, seed=seed)
            assert before.max_abs_residual < full.max_abs_residual
        assert full.worst_families == tuple(
            FAMILY_NAMES[(worst + axis) % 3] for axis in range(dim)
        )
        payload = json.loads(json_text(asdict(full)))
        assert payload["worst_trial"] == worst
        assert payload["worst_families"] == list(full.worst_families)

    def test_worst_trial_is_the_first_to_attain_the_maximum(self):
        # Every trial of a 1-D family member gives exactly 0.0.
        report = certify(parse_q_expression("A2 * lap(R) / R", 1), 1, trials=50, seed=1)
        assert report.max_abs_residual == 0.0
        assert report.worst_trial == 0
        assert report.worst_families == ("poly",)
