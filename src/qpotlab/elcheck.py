"""Stationarity certification for candidate potential expressions.

A candidate Q(R, dR, d2R, ...) is *stationary* when the density-weighted
Euler-Lagrange expression

    Sigma_J (-1)^|J| D_J ( R^2 dQ/dR_J )

vanishes identically, the sum running over the distinct canonical
multi-indices J whose jet variables actually appear in Q (J = () meaning
R itself).  The residual is formed symbolically; certification then
evaluates it on randomized smooth jet samples and compares against the
magnitude of the individual Euler-Lagrange terms, so the reported number
is a relative one.  The report names the trial with the largest relative
residual and the profile family of each axis there.

Sample jets come from three closed-form families per axis — rational
polynomials, offset sinusoids, and offset Gaussians — combined as tensor
products in higher dimension.  Polynomial derivatives are exact: integer
numerators over one common denominator, rounded once.  Samples with
|R| < 0.1 are redrawn so quotient forms stay well conditioned; the redraw
count is reported.

The draws are those the Generator methods ``integers`` and ``uniform``
make on ``np.random.default_rng(seed)``, in the same order, so the stream,
and with it every report, is theirs.  They are decoded in bulk from the
bit generator's raw 64-bit outputs (:class:`_Stream`): every draw is a
closed form of PCG64's outputs, ``next_uint32`` halves with Lemire's
bounded draw (its rejection loop included) or ``next_double``.  Trial t
draws axis a's profile from family (t + a) mod 3, so the draw program
repeats every three trials; all the trials still to go are decoded at
once, and a sample with |R| < 0.1 starts a new round from the stream state
after it.  The profiles are array functions over the trials; ``sin``,
``exp`` and ``**`` run element by element on Python floats, since numpy's
may round differently from the C library.

Each residual term and the residual are compiled once per :func:`certify`
call by :func:`expr.compile_float` and evaluated once, on arrays holding
every trial; each element is the value of the exact-rational
:func:`expr.evaluate` at that trial, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import (
    Expression,
    Jet,
    JetVariable,
    canonical,
    compile_float,
    is_zero,
    jet_variables,
    make_pow,
    make_prod,
    make_sum,
    negate,
    partial_wrt_jet,
    pow_exact,
    symbol_names,
    to_text,
    total_derivative,
)

PASSES = "passes"
FAILS = "fails"


def _check_dimension(q: Expression, dimension: int) -> None:
    if dimension not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2, or 3")
    for v in jet_variables(q):
        if any(axis >= dimension for axis in v.axes):
            raise ValueError(
                f"{v.name} differentiates along an axis beyond dimension {dimension}"
            )


def el_residual_terms(
    q: Expression, dimension: int = 1
) -> list[tuple[JetVariable, Expression]]:
    """The per-multi-index contributions (-1)^|J| D_J(R^2 dQ/dR_J),
    one per jet variable appearing in Q, in canonical variable order."""
    q = canonical(q)
    _check_dimension(q, dimension)
    r_squared = make_pow(Jet(JetVariable(())), 2)
    terms = []
    for v in sorted(jet_variables(q), key=lambda v: (v.order, v.axes)):
        dq = partial_wrt_jet(q, v)
        if is_zero(dq):
            continue
        t = make_prod((r_squared, dq))
        for axis in v.axes:
            t = total_derivative(t, axis)
        if v.order % 2 == 1:
            t = negate(t)
        terms.append((v, canonical(t)))
    return terms


def build_el_residual(q: Expression, dimension: int = 1) -> Expression:
    """Canonical form of the summed Euler-Lagrange residual."""
    terms = el_residual_terms(q, dimension)
    return canonical(make_sum(tuple(t for _, t in terms)))


@dataclass(frozen=True)
class ResidualReport:
    candidate: str
    residual: str
    verdict: str
    max_abs_residual: float
    tolerance: float
    samples_used: int
    resamples: int
    seed: int
    dimension: int
    worst_trial: int
    worst_families: tuple[str, ...]  # profile family of each axis at worst_trial

    def passed(self) -> bool:
        return self.verdict == PASSES


# --------------------------------------------------------------------------
# Randomized jet samples
# --------------------------------------------------------------------------


# Bounds of the 14 draws of one polynomial profile, in draw order: six
# (numerator in [-9, 9], denominator in [1, 4]) pairs, then p in [-6, 6] and
# q in [1, 3]: rng.integers(_POLY_LOW, _POLY_HIGH).
_POLY_LOW = np.array([-9, 1] * 6 + [-6, 1])
_POLY_HIGH = np.array([10, 5] * 6 + [7, 4])

_DEGREES = np.arange(6)


def _falling(max_order: int) -> tuple[np.ndarray, np.ndarray]:
    """[k, j] = k (k-1) ... (k-j+1), the j-th derivative factor of x^k (0 for
    j > k), and max(k - j, 0), the power of x it multiplies, for k <= 5 and
    j <= max_order."""
    j = np.arange(max_order + 1)
    factors = np.array([[math.perm(k, i) for i in j] for k in _DEGREES])
    return factors, np.maximum(_DEGREES[:, None] - j, 0)


# _Stream takes raw outputs from its bit generator at least this many at a time.
_BLOCK = 4096
# _THRESHOLD[n] = 2**32 mod n: Lemire's draw of n values rejects below it
# (n < 20 covers every program here).
_THRESHOLD = np.array([0] + [(1 << 32) % n for n in range(1, 20)], dtype=np.uint64)


class _Stream:
    """The draws of ``rng.integers`` and ``rng.uniform`` on one PCG64 stream,
    decoded in bulk from its raw 64-bit outputs (``random_raw``).

    A draw program is an integer array of codes: 0 is a double, the one
    ``rng.uniform(low, high)`` scales to ``low + (high - low) * double``;
    n > 0 is Lemire's bounded draw of one of n values, the draw
    ``rng.integers(low, low + n)`` shifts by ``low`` (n = 2 is a sign).

    * A double is ``(raw >> 11) * 2**-53`` of a fresh output.
    * A bounded draw takes PCG64's ``next_uint32``: the low half of a fresh
      output, whose high half is kept for the next ``next_uint32`` (doubles
      leave it kept).  It forms m = u32 * n and, while the low 32 bits of m
      are below 2**32 mod n, draws again; its value is m >> 32.

    ``consumed`` (outputs taken) and ``half`` (the kept high half, or None)
    are the stream's state: a PCG64 advanced by ``consumed`` and holding
    ``half`` is where the Generator's own calls would have left it.  The
    reader owns its bit generator, which runs ahead of ``consumed``: it
    holds every output a read has decoded, taken in blocks.
    """

    def __init__(self, bit_generator):
        state = bit_generator.state
        self._bit_generator = bit_generator
        self._words = np.empty(0, np.uint64)
        self.consumed = 0
        self.half = state["uinteger"] if state["has_uint32"] else None
        self._runs = []  # the last read: (first draw, state, decoded run)

    def read(self, codes: np.ndarray) -> np.ndarray:
        """The values of the draws ``codes`` (each n < 20) from the current
        state, as floats: a bounded draw's integer in [0, n), a double in
        [0, 1).  The state stays; :meth:`skip` moves it past a prefix."""
        state = (self.consumed, self.half)
        self._runs, values, offset = [], [], 0
        while True:
            run = self._decode(codes[offset:], *state)
            reject = run[-1]
            k = int(np.argmax(reject)) if reject.any() else reject.size
            self._runs.append((offset, state, run))
            values.append(run[0][:k])
            if offset + k == codes.size:
                return np.concatenate(values)
            # Lemire's rejection: the draw took one uint32 and draws again
            state = self._state_after(state, run, k)
            offset += k

    def skip(self, count: int) -> None:
        """Move the state past the first ``count`` draws of the last read."""
        if count:
            offset, state, run = next(r for r in reversed(self._runs) if r[0] < count)
            self.consumed, self.half = self._state_after(state, run, count - 1 - offset)

    @staticmethod
    def _state_after(state, run, i):
        """The state after draw ``i`` of a run decoded from ``state``."""
        _, end, word, bounded, low, _ = run
        taken = np.flatnonzero(bounded[: i + 1])
        if taken.size == 0:
            return int(end[i]), state[1]
        j = taken[-1]  # the last 32-bit draw keeps the high half of a fresh output
        return int(end[i]), int(word[j] >> 32) if low[j] else None

    def _decode(self, codes, consumed, half):
        """The draws ``codes`` from state (``consumed``, ``half``), each
        bounded draw taking one uint32: (values, outputs consumed after each
        draw, the output each draw read, which are bounded, which took a
        fresh low half, which Lemire's rule rejects)."""
        bounded = codes > 0
        # the bounded draws alternate between a fresh output's low half and
        # the high half it kept, the first one taking a half kept before
        low = bounded & ((np.cumsum(bounded) & 1) == int(half is None))
        fresh = low | ~bounded
        end = np.cumsum(fresh)
        end += consumed
        need = end[-1] + 1 if end.size else 1  # one more keeps index -1 valid
        if need > self._words.size:
            more = self._bit_generator.random_raw(max(need - self._words.size, _BLOCK))
            self._words = np.concatenate((self._words, more))
        # a high half is in the output of the last low half before it
        word = self._words[np.where(fresh, end, np.maximum.accumulate(np.where(low, end, 0))) - 1]
        u32 = np.where(low, word & 0xFFFFFFFF, word >> 32)
        if half is not None and bounded.any():
            u32[np.argmax(bounded)] = half
        m = u32 * codes.astype(np.uint64)
        value = np.where(bounded, m >> 32, (word >> 11) * 2.0**-53)
        reject = bounded & ((m & 0xFFFFFFFF) < _THRESHOLD[codes])
        return value, end, word, bounded, low, reject


def _sign(v):
    """(-1.0, 1.0)[v] for the bounded draws v of two values."""
    return 2.0 * v - 1.0


def _uniform(d, low: float, high: float):
    """``rng.uniform(low, high)`` from its doubles ``d``."""
    return low + (high - low) * d


def _per_element(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` on each element as a Python float: numpy's ``exp`` and ``sin``
    need not round as the C library does."""
    return np.array([fn(v) for v in x.tolist()])


def _poly_profile(draws: np.ndarray, max_order: int) -> list[np.ndarray]:
    """Degree-5 polynomial with rational coefficients n_k/d_k (d_k <= 4) at a
    rational point p/q (q <= 3), derivatives exact; one row of ``draws``
    (the 14 bounded draws) per sample.

    Each derivative is an integer numerator over the common denominator
    12 q^5 (|numerator| < 1e9, exact in int64); the one division is
    correctly rounded, so the float is the one the exact rational rounds to.
    """
    ints = draws.astype(np.int64) + _POLY_LOW
    scaled = ints[:, 0:12:2] * (12 // ints[:, 1:12:2])
    p, q = ints[:, 12:13], ints[:, 13:14]
    powers = p**_DEGREES * q ** (5 - _DEGREES)  # x0^m * q^5, m = 0..5
    factors, shift = _falling(max_order)
    # numerator j = sum_k scaled_k k!/(k-j)! x0^(k-j) q^5
    numerators = (scaled[:, :, None] * factors * powers[:, shift]).sum(axis=1)
    return list((numerators / (12 * q**5)).T)


def _sine_profile(draws: np.ndarray, max_order: int) -> list[np.ndarray]:
    """b + a sin(k x + phi); the offset keeps the profile away from zero."""
    b = _sign(draws[:, 0]) * _uniform(draws[:, 1], 1.0, 2.0)
    a = _sign(draws[:, 2]) * _uniform(draws[:, 3], 0.3, 1.0)
    k = _uniform(draws[:, 4], 0.5, 2.0)
    phase = _uniform(draws[:, 5], 0.0, 2.0 * math.pi) + _uniform(draws[:, 6], -1.0, 1.0) * k
    derivs = [b + a * _per_element(math.sin, phase)]
    for j in range(1, max_order + 1):
        shifted = _per_element(math.sin, phase + j * math.pi / 2.0)
        derivs.append(a * pow_exact(k, j) * shifted)
    return derivs


def _gauss_profile(draws: np.ndarray, max_order: int) -> list[np.ndarray]:
    """b + a exp(-(x-c)^2 / 2 sigma^2), derivatives by the two-term
    recurrence g^(j+1) = -((x-c)/s^2) g^(j) - (j/s^2) g^(j-1)."""
    b = _sign(draws[:, 0]) * _uniform(draws[:, 1], 1.0, 2.0)
    a = _sign(draws[:, 2]) * _uniform(draws[:, 3], 0.5, 1.5)
    s2 = pow_exact(_uniform(draws[:, 4], 0.7, 1.5), 2)
    u = _uniform(draws[:, 5], -1.0, 1.0)  # x - c at the sample point
    g = [a * _per_element(math.exp, -pow_exact(u, 2) / (2.0 * s2))]
    for j in range(max_order):
        prev = g[j - 1] if j >= 1 else 0.0
        g.append(-(u / s2) * g[j] - (j / s2) * prev)
    g[0] = g[0] + b
    return g


_FAMILIES = (_poly_profile, _sine_profile, _gauss_profile)
FAMILY_NAMES = ("poly", "sine", "gauss")
# The draw program of each family's profile, and of one symbol
# (sign * uniform(0.5, 2.0)).
_PROGRAMS = (
    _POLY_HIGH - _POLY_LOW,
    np.array([2, 0, 2, 0, 0, 0, 0]),  # sign, uniform, sign, four uniforms
    np.array([2, 0, 2, 0, 0, 0]),  # sign, uniform, sign, three uniforms
)
_SYMBOL_PROGRAM = np.array([2, 0])


def _trial_programs(dimension: int, n_symbols: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For a trial t with t mod 3 = c, entry c: the trial's draw program
    (axis a's profile, of family (t + a) mod 3, axis by axis, then the
    symbols) and where each axis's draws begin, the sample's end last."""
    out = []
    for c in range(3):
        parts = [_PROGRAMS[(c + axis) % 3] for axis in range(dimension)]
        bounds = np.cumsum([0] + [p.size for p in parts])
        out.append((np.concatenate(parts + [_SYMBOL_PROGRAM] * n_symbols), bounds))
    return out


def _program(layouts, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws of trials 0 .. count - 1, one after the other, and where
    each trial's begin; the draws of trials first .. count - 1 are the
    suffix from ``starts[first]``."""
    sizes = np.array([codes.size for codes, _ in layouts])[np.arange(count) % 3]
    starts = np.cumsum(sizes) - sizes
    period = np.concatenate([codes for codes, _ in layouts])
    return np.tile(period, -(-count // 3))[: starts[-1] + sizes[-1]], starts


def _profiles(values, starts, first, layouts, needed) -> list[np.ndarray]:
    """profiles[a][j][i]: the j-th derivative of axis a's profile in trial
    first + i, whose draws begin at ``values[starts[i]]``.  One call per
    family and order covers every axis that draws them."""
    n = starts.size
    out = [np.empty((order + 1, n)) for order in needed]
    groups: dict[tuple[int, int], list] = {}
    for axis, order in enumerate(needed):
        for c, (_, bounds) in enumerate(layouts):
            rows = np.arange((c - first) % 3, n, 3)
            groups.setdefault(((c + axis) % 3, order), []).append((axis, rows, bounds[axis]))
    for (family, order), members in groups.items():
        begin = np.concatenate([starts[rows] + offset for _, rows, offset in members])
        draws = values[begin[:, None] + np.arange(_PROGRAMS[family].size)]
        derivs = np.array(_FAMILIES[family](draws, order))
        done = 0
        for axis, rows, _ in members:
            out[axis][:, rows] = derivs[:, done : done + rows.size]
            done += rows.size
    return out


def _tensor(profiles: list[np.ndarray], count: tuple[int, ...]) -> np.ndarray:
    """The tensor-product jet with ``count[a]`` derivatives along axis a."""
    val = 1.0
    for profile, c in zip(profiles, count):
        val = val * profile[c]
    return val


def _draw_samples(stream: _Stream, layouts, trials: int, dimension: int):
    """The draws of every trial, a sample with |R| < 0.1 redrawn (at most
    200 tries a trial); each trial's start in them; the redraw count.

    Each round decodes all the trials still to go, keeps those before the
    first rejected sample and goes on from the stream state after it."""
    codes, starts = _program(layouts, trials)
    kept = []
    first = resamples = tries = 0
    origin = (0,) * dimension
    while True:
        begin = starts[first]
        values = stream.read(codes[begin:])
        rest = starts[first:] - begin
        r = _tensor(_profiles(values, rest, first, layouts, origin), origin)
        rejected = np.flatnonzero(np.abs(r) < 0.1)
        if rejected.size == 0:
            kept.append(values)
            return np.concatenate(kept), starts, resamples
        bad = int(rejected[0])
        tries = tries + 1 if bad == 0 else 1
        if tries == 200:
            raise RuntimeError("could not draw a well-conditioned jet sample")
        kept.append(values[: rest[bad]])
        stream.skip(rest[bad] + layouts[(first + bad) % 3][1][-1])
        resamples += 1
        first += bad


def _raise_first_error(fns, jets, symbols, trials: int) -> None:
    """Evaluate ``fns`` trial by trial on floats, in the order certify
    takes them, so the first failing trial raises its own error."""
    jet_rows = np.array(jets).T.tolist()
    symbol_rows = np.array(symbols).reshape(len(symbols), trials).T.tolist()
    for jet_row, symbol_row in zip(jet_rows, symbol_rows):
        for fn in fns:
            fn(jet_row, symbol_row)


def certify(
    q: Expression,
    dimension: int = 1,
    trials: int = 100,
    tol: float = 1e-10,
    seed: int = 0,
) -> ResidualReport:
    """Evaluate the Euler-Lagrange residual of ``q`` on randomized jet
    samples and report the worst relative magnitude seen."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    q = canonical(q)
    terms = el_residual_terms(q, dimension)
    residual = canonical(make_sum(tuple(t for _, t in terms)))

    variables = set(jet_variables(q)) | {JetVariable(())}
    for _, t in terms:
        variables |= set(jet_variables(t))
    variables |= set(jet_variables(residual))
    order = sorted(variables, key=lambda v: (v.order, v.axes))  # R first
    counts = [tuple(v.axes.count(axis) for axis in range(dimension)) for v in order]
    needed = [max(c[axis] for c in counts) for axis in range(dimension)]
    names = set(symbol_names(q)) | set(symbol_names(residual))
    for _, t in terms:
        names |= set(symbol_names(t))
    names = sorted(names)
    term_fns = [compile_float(t, order, names) for _, t in terms]
    residual_fn = compile_float(residual, order, names)

    stream = _Stream(np.random.default_rng(seed).bit_generator)
    layouts = _trial_programs(dimension, len(names))
    values, starts, resamples = _draw_samples(stream, layouts, trials, dimension)
    profiles = _profiles(values, starts, 0, layouts, needed)
    jets = [_tensor(profiles, count) for count in counts]
    symbol_starts = starts + np.array([b[-1] for _, b in layouts])[np.arange(trials) % 3]
    symbols = [
        _sign(values[symbol_starts + 2 * i]) * _uniform(values[symbol_starts + 2 * i + 1], 0.5, 2.0)
        for i in range(len(names))
    ]
    with np.errstate(all="ignore"):
        try:
            scale = np.zeros(trials)
            for fn in term_fns:
                scale = np.fmax(scale, np.abs(fn(jets, symbols)))  # NaN never wins
            value = np.abs(residual_fn(jets, symbols))
        except ArithmeticError:
            _raise_first_error([*term_fns, residual_fn], jets, symbols, trials)
            raise
        rel = np.where(scale > 0.0, value / scale, np.where(value == 0.0, 0.0, math.inf))
    rel = np.where(rel > 0.0, rel, 0.0)  # nor here: a NaN is never the worst
    worst = int(np.argmax(rel))  # the first trial attaining the maximum
    max_rel = float(rel[worst])

    return ResidualReport(
        candidate=to_text(q),
        residual=to_text(residual),
        verdict=PASSES if max_rel <= tol else FAILS,
        max_abs_residual=max_rel,
        tolerance=tol,
        samples_used=trials,
        resamples=resamples,
        seed=seed,
        dimension=dimension,
        worst_trial=worst,
        worst_families=tuple(
            FAMILY_NAMES[(worst + axis) % len(_FAMILIES)] for axis in range(dimension)
        ),
    )
