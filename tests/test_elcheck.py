"""Stationarity residual construction and randomized certification."""

import json
import math
import warnings
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from qpotlab.elcheck import (
    _BLOCK,
    _POLY_HIGH,
    _POLY_LOW,
    FAILS,
    FAMILY_NAMES,
    PASSES,
    ResidualReport,
    _poly_profile,
    _Stream,
    build_el_residual,
    certify,
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
    compile_float,
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

POLY = list(_POLY_HIGH - _POLY_LOW)  # the bounded draws of one polynomial profile
SIGN, DOUBLE = 2, 0
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


class ScalarDraws:
    """The sampler's draws as scalar Generator calls: the reference for
    ``elcheck._Stream``."""

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


def _poly_profile_scalar(draws, max_order):
    ints = draws.poly()
    scaled = [num * (12 // d) for num, d in zip(ints[0:12:2], ints[1:12:2])]
    p, q = ints[12], ints[13]
    powers = [p**m * q ** (5 - m) for m in range(6)]
    return [
        sum(scaled[k] * math.perm(k, j) * powers[k - j] for k in range(j, 6)) / (12 * q**5)
        for j in range(max_order + 1)
    ]


def _sine_profile_scalar(draws, max_order):
    b = draws.sign() * draws.uniform(1.0, 2.0)
    a = draws.sign() * draws.uniform(0.3, 1.0)
    k = draws.uniform(0.5, 2.0)
    phase = draws.uniform(0.0, 2.0 * math.pi) + draws.uniform(-1.0, 1.0) * k
    derivs = [b + a * math.sin(phase)]
    for j in range(1, max_order + 1):
        derivs.append(a * k**j * math.sin(phase + j * math.pi / 2.0))
    return derivs


def _gauss_profile_scalar(draws, max_order):
    b = draws.sign() * draws.uniform(1.0, 2.0)
    a = draws.sign() * draws.uniform(0.5, 1.5)
    s2 = draws.uniform(0.7, 1.5) ** 2
    u = draws.uniform(-1.0, 1.0)
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
    """certify one trial at a time, on scalar Generator draws and the float
    path of compile_float: the reference for the bulk sampler.  ``trials``
    is a count, or a tuple of counts for the reports of those first trials
    of one run (a shorter run draws the same stream up to its end)."""
    checkpoints = trials if isinstance(trials, tuple) else (trials,)
    reports = {}
    q = canonical(q)
    terms = el_residual_terms(q, dimension)
    residual = canonical(make_sum(tuple(t for _, t in terms)))
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
    term_fns = [compile_float(t, order, names) for _, t in terms]
    residual_fn = compile_float(residual, order, names)
    draws = ScalarDraws(np.random.default_rng(seed))
    max_rel, worst, resamples = 0.0, 0, 0
    for trial in range(max(checkpoints)):
        for _ in range(200):
            profiles = [
                SCALAR_FAMILIES[(trial + axis) % 3](draws, n)
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
        symbols = [draws.sign() * draws.uniform(0.5, 2.0) for _ in names]
        scale = 0.0
        for fn in term_fns:
            scale = max(scale, abs(fn(jets, symbols)))
        value = abs(residual_fn(jets, symbols))
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


def _state(state):
    """A PCG64 state, with its kept half only when it has one (numpy leaves
    the last one in place)."""
    return state["state"], state["has_uint32"], state["uinteger"] if state["has_uint32"] else None


def _replay(stream, start):
    """The state of a PCG64 started at ``start`` (a state dict), advanced by
    the reader's consumed outputs and holding its kept half."""
    bg = np.random.PCG64(0)
    bg.state = start
    bg.advance(stream.consumed)
    state = bg.state
    state["has_uint32"] = int(stream.half is not None)
    state["uinteger"] = stream.half or 0
    return _state(state)


def _reader(rng):
    """A reader on ``rng``'s bit generator and the state it starts from."""
    return _Stream(rng.bit_generator), rng.bit_generator.state


def _read(stream, codes):
    """Read and commit a whole program."""
    values = stream.read(np.array(codes, dtype=np.int64))
    stream.skip(len(codes))
    return values


def _crafted_rng(words_before, word):
    """A Generator whose raw output number ``words_before`` is ``word``:
    PCG64 outputs rotr(hi ^ lo, hi >> 58) of its stepped 128-bit state, so a
    state with hi = 0 and lo = word outputs ``word``; the state is stepped
    back by the inverse of the LCG multiplier."""
    bg = np.random.PCG64(7)
    state = bg.state
    inc = state["state"]["inc"]
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    s = word
    for _ in range(words_before + 1):
        s = ((s - inc) * inverse) % (1 << 128)
    state["state"]["state"] = s
    state["has_uint32"] = 0
    bg.state = state
    return np.random.Generator(bg)


def _check_choice_stream(kept):
    """Signs, doubles and 19-value draws interleaved the way the sampler
    draws them, from a state with or without a kept high half, read in
    chunks that cross random_raw blocks."""
    fast, slow = np.random.default_rng(11), np.random.default_rng(11)
    if kept:
        assert fast.integers(0, 2) == slow.integers(0, 2)
    stream, start = _reader(fast)
    assert (stream.half is not None) == kept
    codes, want = [], []
    for i in range(20_000):
        codes.append(SIGN)
        want.append(float(slow.choice((-1.0, 1.0))))
        if i % 3 == 0:
            codes.append(DOUBLE)
            want.append(slow.uniform(0.5, 2.0))
        if i % 5 == 0:
            codes.append(19)
            want.append(int(slow.integers(-9, 10)))
    got = []
    for chunk in np.array_split(np.array(codes), 7):
        got.extend(_read(stream, chunk).tolist())
    assert stream.consumed > 2 * _BLOCK
    for code, g, w in zip(codes, got, want):
        if code == SIGN:
            assert 2.0 * g - 1.0 == w
        elif code == DOUBLE:
            assert 0.5 + 1.5 * g == w
        else:
            assert g - 9 == w
    assert _replay(stream, start) == _state(slow.bit_generator.state)


class TestSampling:
    def test_poly_profile_matches_fraction_oracle(self):
        for seed in range(300):
            max_order = seed % 12
            slow = np.random.default_rng(seed)
            stream, start = _reader(np.random.default_rng(seed))
            got = [float(v[0]) for v in _poly_profile(_read(stream, POLY)[None, :], max_order)]
            want = _poly_profile_oracle(slow, max_order)
            assert [float.hex(v) for v in got] == [float.hex(v) for v in want]
            assert _replay(stream, start) == _state(slow.bit_generator.state)

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
            slow = np.random.default_rng(seed)
            stream, start = _reader(np.random.default_rng(seed))
            values = _read(stream, (POLY + [DOUBLE]) * 3).reshape(3, 15)
            for draw in range(3):
                max_order = (seed + draw) % 12
                got = [float(v[0]) for v in _poly_profile(values[draw : draw + 1, :14], max_order)]
                want = oracle(slow, max_order)
                assert [float.hex(v) for v in got] == [float.hex(v) for v in want]
                assert 0.5 + 1.5 * values[draw, 14] == slow.uniform(0.5, 2.0)
            assert _replay(stream, start) == _state(slow.bit_generator.state)

    def test_sign_draw_consumes_the_choice_stream(self):
        _check_choice_stream(kept=False)

    def test_draws_follow_the_generator_stream(self):
        # The sampler's order: a sign, then each (low, high) pair the
        # profiles and the symbols draw from, then one polynomial profile.
        pairs = [(1.0, 2.0), (0.3, 1.0), (0.5, 2.0), (0.0, 2.0 * math.pi),
                 (-1.0, 1.0), (0.5, 1.5), (0.7, 1.5)]
        program = [SIGN] + [DOUBLE] * len(pairs) + POLY
        for seed in range(20):
            slow = np.random.default_rng(seed)
            stream, start = _reader(np.random.default_rng(seed))
            values = _read(stream, program * 500).reshape(500, len(program))
            for row in values:
                assert 2.0 * row[0] - 1.0 == float(slow.choice((-1.0, 1.0)))
                for (low, high), d in zip(pairs, row[1:8]):
                    assert low + (high - low) * d == slow.uniform(low, high)
                ints = (row[8:].astype(np.int64) + _POLY_LOW).tolist()
                assert ints == slow.integers(_POLY_LOW, _POLY_HIGH).tolist()
            assert _replay(stream, start) == _state(slow.bit_generator.state)

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


class TestStream:
    def test_sign_draws_after_a_kept_half(self):
        _check_choice_stream(kept=True)

    def test_read_keeps_the_state_and_skip_moves_it(self):
        stream, start = _reader(np.random.default_rng(3))
        program = np.array([SIGN, DOUBLE, 19, 4, SIGN, DOUBLE])
        first = stream.read(program)
        assert (stream.consumed, stream.half) == (0, None)
        assert stream.read(program).tolist() == first.tolist()
        stream.skip(3)  # the sign and the 19 share an output, the double takes one
        assert stream.consumed == 2 and stream.half is None
        twin = np.random.default_rng(3)
        twin.integers(0, 2), twin.uniform(), twin.integers(0, 19)
        assert _replay(stream, start) == _state(twin.bit_generator.state)
        assert stream.read(program[3:]).tolist() == first[3:].tolist()

    @pytest.mark.parametrize("code, low", [(19, -9), (13, -6), (3, 1)])
    @pytest.mark.parametrize("words_before", (0, 1, _BLOCK + 3))
    @pytest.mark.parametrize("word", (0, 0x8000_0000_0000_0000, 0x1234_5678_0000_0000))
    def test_lemire_rejection_draws_again(self, code, low, words_before, word):
        # A zero low half is below 2**32 mod n for n = 19, 13 and 3, so the
        # draw rejects it and takes the high half; word 0 rejects both.
        assert _crafted_rng(words_before, word).bit_generator.random_raw(words_before + 1)[-1] == word
        slow = _crafted_rng(words_before, word)
        stream, start = _reader(_crafted_rng(words_before, word))
        got = _read(stream, [DOUBLE] * words_before + [code, SIGN, code, DOUBLE])
        for _ in range(words_before):
            slow.uniform()
        want = [
            int(slow.integers(low, low + code)) - low,
            int(slow.integers(0, 2)),
            int(slow.integers(low, low + code)) - low,
            slow.uniform(),
        ]
        assert got[words_before:].tolist() == want
        assert _replay(stream, start) == _state(slow.bit_generator.state)


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
