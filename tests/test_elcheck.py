"""Stationarity residual construction and randomized certification."""

import json
import math
import warnings
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from qpotlab import elcheck
from qpotlab.elcheck import (
    FAILS,
    FAMILY_NAMES,
    PASSES,
    ResidualReport,
    _poly_profile,
    certify,
    el_residual,
    el_residual_terms,
)
from qpotlab.expr import (
    Const,
    EvaluationError,
    Jet,
    JetPoint,
    JetVariable,
    Sym,
    ZERO,
    canonical,
    evaluate,
    jet_variables,
    make_prod,
    make_sum,
    parse_q_expression,
    symbol_names,
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
            assert el_residual(parse_q_expression(text, 1), 1)[1] == ZERO, text

    def test_gradient_counterexample_residual(self):
        # Q = C R_x / R  ->  residual -2 C R_x
        q = parse_q_expression("C * dx(R) / R", 1)
        _, res = el_residual(q, 1)
        assert res == make_prod((Const(Fraction(-2)), Sym("C"), R_x))

    def test_fisher_counterexample_residual(self):
        # Q = C R_x^2 / R^2  ->  residual -2 C R_xx - 2 C R_x^2 / R
        q = parse_q_expression("C * dx(R)^2 / R^2", 1)
        _, res = el_residual(q, 1)
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

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_is_refused(self, tol):
        # nan would fail an exact 0.0 residual and inf pass a residual of 1.0
        for text in ("A2 * lap(R) / R", "C * dx(R)"):
            with pytest.raises(ValueError, match=f"^tol must be positive and finite, got {tol}$"):
                certify(parse_q_expression(text, 1), 1, tol=tol)

    def test_terms_evaluate_consistently(self):
        # Sum of per-index terms equals the assembled residual numerically.
        q = parse_q_expression("C * dx(R)^2 / R^2", 1)
        terms, residual = el_residual(q, 1)
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

AXIS_WIDTH = 27  # doubles per axis in a sample row: poly 14, sine 7, gauss 6


def _bounded(d, low, high):
    """The integer in [low, high) a double d draws."""
    return low + math.floor((high - low) * d)


def _sign(d):
    return (-1.0, 1.0)[math.floor(2 * d)]


def _uniform(d, low, high):
    return low + (high - low) * d


def _poly_ints(block):
    return [_bounded(d, lo, hi) for (lo, hi), d in zip(POLY_BOUNDS, block[0:14])]


def _poly_profile_oracle(block, max_order):
    """The polynomial family in exact rationals, on an axis block's integers."""
    ints = _poly_ints(block)
    coeffs = [Fraction(num, den) for num, den in zip(ints[0:12:2], ints[1:12:2])]
    x0 = Fraction(ints[12], ints[13])
    derivs = []
    for j in range(max_order + 1):
        val = Fraction(0)
        for k in range(j, 6):
            val += coeffs[k] * math.perm(k, j) * x0 ** (k - j)
        derivs.append(float(val))
    return derivs


def _poly_profile_scalar(block, max_order):
    ints = _poly_ints(block)
    scaled = [num * (12 // d) for num, d in zip(ints[0:12:2], ints[1:12:2])]
    p, q = ints[12], ints[13]
    powers = [p**m * q ** (5 - m) for m in range(6)]
    return [
        sum(scaled[k] * math.perm(k, j) * powers[k - j] for k in range(j, 6)) / (12 * q**5)
        for j in range(max_order + 1)
    ]


def _sine_profile_scalar(block, max_order):
    d = block[14:21]
    b = _sign(d[0]) * _uniform(d[1], 1.0, 2.0)
    a = _sign(d[2]) * _uniform(d[3], 0.3, 1.0)
    k = _uniform(d[4], 0.5, 2.0)
    phase = _uniform(d[5], 0.0, 2.0 * math.pi) + _uniform(d[6], -1.0, 1.0) * k
    derivs = [b + a * math.sin(phase)]
    for j in range(1, max_order + 1):
        derivs.append(a * k**j * math.sin(phase + j * math.pi / 2.0))
    return derivs


def _gauss_profile_scalar(block, max_order):
    d = block[21:27]
    b = _sign(d[0]) * _uniform(d[1], 1.0, 2.0)
    a = _sign(d[2]) * _uniform(d[3], 0.5, 1.5)
    s2 = _uniform(d[4], 0.7, 1.5) ** 2
    u = _uniform(d[5], -1.0, 1.0)
    g = [a * math.exp(-(u**2) / (2.0 * s2))]
    for j in range(max_order):
        prev = g[j - 1] if j >= 1 else 0.0
        g.append(-(u / s2) * g[j] - (j / s2) * prev)
    g[0] += b
    return g


SCALAR_FAMILIES = (
    _poly_profile_scalar,
    _sine_profile_scalar,
    _gauss_profile_scalar,
)


def scalar_certify(q, dimension, trials, seed):
    """certify one trial at a time, on one ``rng.random(width)`` row per
    sample attempt and evaluate on floats: the reference for
    the bulk sampler.  ``trials`` is a count, or a tuple of counts for the
    reports of those first trials of one run (a shorter run draws the same
    stream up to its end)."""
    checkpoints = trials if isinstance(trials, tuple) else (trials,)
    reports = {}
    q = canonical(q)
    terms, residual = el_residual(q, dimension)
    variables = set(jet_variables(q)) | {JetVariable(())}
    names = set(symbol_names(q)) | set(symbol_names(residual))
    for _, t in terms:
        variables |= set(jet_variables(t))
        names |= set(symbol_names(t))
    variables |= set(jet_variables(residual))
    order = sorted(variables, key=lambda v: (v.order, v.axes))
    names = sorted(names)
    counts = [tuple(v.axes.count(axis) for axis in range(dimension)) for v in order]
    needed = [max(c[axis] for c in counts) for axis in range(dimension)]
    rng = np.random.default_rng(seed)
    width = AXIS_WIDTH * dimension + 2 * len(names)
    max_rel, worst, resamples = 0.0, 0, 0
    for trial in range(max(checkpoints)):
        for _ in range(200):
            row = rng.random(width).tolist()
            profiles = [
                SCALAR_FAMILIES[(trial + axis) % 3](row[AXIS_WIDTH * axis :], n)
                for axis, n in enumerate(needed)
            ]
            jets = []
            for count in counts:
                val = 1.0
                for profile, c in zip(profiles, count):
                    val *= profile[c]
                jets.append(val)
            if abs(jets[0]) >= 0.1:
                break
            resamples += 1
        else:
            raise RuntimeError("could not draw a well-conditioned jet sample")
        symbols = [
            _sign(row[c]) * _uniform(row[c + 1], 0.5, 2.0)
            for c in range(AXIS_WIDTH * dimension, width, 2)
        ]
        point = JetPoint(dict(zip(order, jets)))
        constants = dict(zip(names, symbols))
        scale = 0.0
        for _, t in terms:
            scale = max(scale, abs(evaluate(t, point, constants)))
        value = abs(evaluate(residual, point, constants))
        rel = value / scale if scale > 0.0 else (0.0 if value == 0.0 else math.inf)
        if rel > max_rel:
            max_rel, worst = rel, trial
        if trial + 1 in checkpoints:
            reports[trial + 1] = ResidualReport(
                candidate=to_text(q),
                residual=to_text(residual),
                verdict=PASSES if max_rel <= 1e-10 else FAILS,
                max_abs_residual=max_rel,
                tolerance=1e-10,
                samples_used=trial + 1,
                resamples=resamples,
                seed=seed,
                dimension=dimension,
                worst_trial=worst,
                worst_families=tuple(FAMILY_NAMES[(worst + a) % 3] for a in range(dimension)),
            )
    return reports if isinstance(trials, tuple) else reports[trials]


class TestSampling:
    def test_poly_profile_matches_fraction_oracle(self):
        for seed in range(300):
            max_order = seed % 12
            block = np.random.default_rng(seed).random(AXIS_WIDTH)
            got = [float(v[0]) for v in _poly_profile(block[None, :14], max_order)]
            want = _poly_profile_oracle(block.tolist(), max_order)
            assert [float.hex(v) for v in got] == [float.hex(v) for v in want]

    def test_poly_draws_match_scalar_draws(self):
        # the bulk decode against floor((high - low) d) one double at a time,
        # at the ends of [0, 1) too: 0 draws low, the largest double high - 1
        edges = np.array([[0.0] * 14, [np.nextafter(1.0, 0.0)] * 14])
        assert [_poly_ints(row) for row in edges.tolist()] == [
            [lo for lo, _ in POLY_BOUNDS],
            [hi - 1 for _, hi in POLY_BOUNDS],
        ]
        for seed in range(200):
            rows = np.random.default_rng(seed).random((3, 14))
            rows = np.concatenate((rows, edges, np.full((1, 14), 0.5)))
            max_order = seed % 12
            got = np.array(_poly_profile(rows, max_order)).T.tolist()
            want = [_poly_profile_scalar(row, max_order) for row in rows.tolist()]
            assert [[float.hex(v) for v in r] for r in got] == [
                [float.hex(v) for v in r] for r in want
            ]

    def test_draws_follow_the_generator_stream(self):
        # certify draws a round of rows at a time and the reference one row
        # at a time: both read the same doubles, whatever the split
        for width in (29, 56, 83):
            whole = np.random.default_rng(4).random((50, width))
            rng = np.random.default_rng(4)
            parts = [rng.random((n, width)) for n in (1, 17, 2, 30)]
            assert np.array_equal(np.concatenate(parts), whole)
            rng = np.random.default_rng(4)
            assert np.array_equal([rng.random(width) for _ in range(50)], whole)

    def test_reference_draws_give_the_same_reports(self):
        for text in BENCHMARK_CANDIDATES:
            for dim in (1, 2, 3):
                q = parse_q_expression(text, dim)
                for seed in (0, 5):
                    reference = scalar_certify(q, dim, (1, 2, 7, 100, 300), seed)
                    for trials, want in reference.items():
                        got = certify(q, dim, trials=trials, seed=seed)
                        assert got == want, (text, dim, seed, trials)
                        assert float.hex(got.max_abs_residual) == float.hex(
                            want.max_abs_residual
                        )

    def test_a_trial_gives_up_after_200_rows(self, monkeypatch):
        rows = []

        def flat(draws, max_order):  # |R| = 0 on every row
            rows.append(len(draws))
            return [np.zeros(len(draws))] * (max_order + 1)

        monkeypatch.setattr(elcheck, "_FAMILIES", (flat,) * 3)
        with pytest.raises(RuntimeError, match="could not draw a well-conditioned jet sample"):
            certify(parse_q_expression("A2 * lap(R) / R", 1), 1, trials=1, seed=0)
        assert sum(rows) == 3 * 200  # each row is checked in each of the three phases

    def test_zero_base_raises_the_reference_error(self):
        # "C * R / dx(R)" divides by R_x, an exact zero of some polynomial samples
        q = parse_q_expression("C * R / dx(R)", 1)
        raised = 0
        for seed in range(40):
            try:
                want = scalar_certify(q, 1, 300, seed)
            except EvaluationError as err:
                raised += 1
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(EvaluationError) as got:
                        certify(q, 1, trials=300, seed=seed)
                assert str(got.value) == str(err)
            else:
                assert certify(q, 1, trials=300, seed=seed) == want
        assert raised > 0


class TestCertifyGolden:
    # max_abs_residual (as float.hex) and skipped-row counts of the row
    # sampler, 300 trials at the default tolerance.
    CASES = (
        ("A2 * lap(R) / R", 2, 1, "0x1.05459378b5cccp-52", 3),
        ("A8 * lap2(lap2(R)) / R", 3, 1, "0x1.6d3ef7ec39232p-51", 7),
        ("C * dx(R)^2 / R", 3, 1, "0x1.e26501bdd2b88p+0", 7),
        ("A2 * lap(R) / R + A4 * lap2(R) / R", 1, 2, "0x1.79e692058010ap-52", 7),
        ("C * dx(R)", 1, 3, "0x1.0000000000000p+0", 3),
        ("A4 * lap2(R) / R", 3, 3, "0x1.2525e66b25605p-51", 2),
        ("A6 * lap(lap2(R)) / R", 2, 2, "0x1.7caa4cf68984ap-52", 5),
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
