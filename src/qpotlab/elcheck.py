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
numerators over one common denominator, rounded once.  Trial t gives axis
a the family (t + a) mod 3.

Each sample attempt is one row of ``rng.random`` on
``np.random.default_rng(seed)``.  The row holds one 27-double block per
axis (polynomial 14, sine 7, Gaussian 6, whichever family the axis takes),
then two doubles per symbol.  A draw of one of n values is floor(n d), a
sign is floor(2 d), and a uniform draw on [low, high) is
low + (high - low) d.  Trials take rows in order, and a row whose |R| is
below 0.1 is skipped, so quotient forms stay well conditioned; the skip
count is reported.  The first n trials of any run are a run of n trials.
The profiles are array functions over the trials; ``sin``, ``exp`` and
``**`` run element by element on Python floats, since numpy's may round
differently from the C library.

Each residual term and the residual are evaluated once per :func:`certify`
call by :func:`expr.evaluate`, on arrays holding every trial; each element
is the value :func:`expr.evaluate` gives at that trial on floats, bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import (
    Expression,
    Jet,
    JetPoint,
    JetVariable,
    canonical,
    evaluate,
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


def el_residual(
    q: Expression, dimension: int = 1
) -> tuple[list[tuple[JetVariable, Expression]], Expression]:
    """:func:`el_residual_terms` and the canonical form of their sum, the
    Euler-Lagrange residual."""
    terms = el_residual_terms(q, dimension)
    return terms, canonical(make_sum(tuple(t for _, t in terms)))


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


# Each axis of a sample row has one block of doubles: the polynomial
# profile's 14, then the sine's 7 and the Gaussian's 6, so the layout does
# not depend on the family a trial gives the axis.
_FAMILY_COLUMNS = ((0, 14), (14, 21), (21, 27))
_AXIS_WIDTH = 27

# The 14 integers of one polynomial profile: six (numerator in [-9, 9],
# denominator in [1, 4]) pairs, then p in [-6, 6] and q in [1, 3].
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


def _bounded(d, n):
    """The draw of one of n values, floor(n d), from the doubles ``d``."""
    return np.floor(n * d)


def _sign(d):
    """-1.0 or 1.0, the bounded draw of two values from the doubles ``d``."""
    return 2.0 * _bounded(d, 2) - 1.0


def _uniform(d, low: float, high: float):
    """A uniform draw on [low, high) from the doubles ``d``."""
    return low + (high - low) * d


def _per_element(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` on each element as a Python float: numpy's ``exp`` and ``sin``
    need not round as the C library does."""
    return np.array([fn(v) for v in x.tolist()])


def _poly_profile(draws: np.ndarray, max_order: int) -> list[np.ndarray]:
    """Degree-5 polynomial with rational coefficients n_k/d_k (d_k <= 4) at a
    rational point p/q (q <= 3), derivatives exact; one row of ``draws``
    (the 14 doubles) per sample.

    Each derivative is an integer numerator over the common denominator
    12 q^5 (|numerator| < 1e9, exact in int64); the one division is
    correctly rounded, so the float is the one the exact rational rounds to.
    """
    ints = _bounded(draws, _POLY_HIGH - _POLY_LOW).astype(np.int64) + _POLY_LOW
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


def _profiles(rows: np.ndarray, phases: np.ndarray, needed) -> list[np.ndarray]:
    """profiles[a][j][i]: the j-th derivative of axis a's profile in row i,
    of family (phases[i] + a) mod 3, up to order ``needed[a]``."""
    out = []
    for axis, order in enumerate(needed):
        derivs = np.empty((order + 1, len(rows)))
        families = (phases + axis) % len(_FAMILIES)
        for family, (begin, end) in enumerate(_FAMILY_COLUMNS):
            picked = np.flatnonzero(families == family)
            block = rows[picked, _AXIS_WIDTH * axis + begin : _AXIS_WIDTH * axis + end]
            derivs[:, picked] = _FAMILIES[family](block, order)
        out.append(derivs)
    return out


def _tensor(profiles: list[np.ndarray], count: tuple[int, ...]) -> np.ndarray:
    """The tensor-product jet with ``count[a]`` derivatives along axis a."""
    val = 1.0
    for profile, c in zip(profiles, count):
        val = val * profile[c]
    return val


def _draw_rows(rng, trials: int, dimension: int, width: int):
    """The rows trials 0 .. trials - 1 take, and the count of rows skipped.

    Trial t takes the next row of ``rng.random`` whose |R| is at least 0.1
    with the families of phase t mod 3 (at most 200 tries a trial).  Each
    round draws one row for every trial still to go; as ``rng.random``
    fills rows from one stream, the rows are those of any other split."""
    origin = (0,) * dimension
    kept, skipped, tries, t = [], 0, 0, 0
    while t < trials:
        rows = rng.random((trials - t, width))
        phases = np.repeat(np.arange(len(_FAMILIES)), len(rows))  # each row in each phase
        r = _tensor(_profiles(np.tile(rows, (len(_FAMILIES), 1)), phases, origin), origin)
        ok = (np.abs(r) >= 0.1).reshape(len(_FAMILIES), -1).tolist()
        taken = []
        for i in range(len(rows)):
            if ok[t % len(_FAMILIES)][i]:
                taken.append(i)
                t, tries = t + 1, 0
            else:
                tries += 1
                if tries == 200:
                    raise RuntimeError("could not draw a well-conditioned jet sample")
        skipped += len(rows) - len(taken)
        kept.append(rows[taken])
    return np.concatenate(kept), skipped


def _raise_first_error(exprs, point: JetPoint, constants: dict, trials: int) -> None:
    """Evaluate ``exprs`` trial by trial on floats, in the order certify
    takes them, so the first failing trial raises its own error."""
    for i in range(trials):
        at = JetPoint({v: float(x[i]) for v, x in point.values.items()})
        values = {name: float(x[i]) for name, x in constants.items()}
        for e in exprs:
            evaluate(e, at, values)


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
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    q = canonical(q)
    terms, residual = el_residual(q, dimension)

    variables, names = set(jet_variables(q)) | {JetVariable(())}, set(symbol_names(q))
    for _, t in terms:  # the residual's jets and symbols are among these
        variables |= set(jet_variables(t))
        names |= set(symbol_names(t))
    order = sorted(variables, key=lambda v: (v.order, v.axes))  # R first
    counts = [tuple(v.axes.count(axis) for axis in range(dimension)) for v in order]
    needed = [max(c[axis] for c in counts) for axis in range(dimension)]
    names = sorted(names)

    width = _AXIS_WIDTH * dimension + 2 * len(names)
    rows, resamples = _draw_rows(np.random.default_rng(seed), trials, dimension, width)
    profiles = _profiles(rows, np.arange(trials) % len(_FAMILIES), needed)
    columns = _AXIS_WIDTH * dimension + 2 * np.arange(len(names))
    point = JetPoint({v: _tensor(profiles, count) for v, count in zip(order, counts)})
    constants = {
        name: _sign(rows[:, c]) * _uniform(rows[:, c + 1], 0.5, 2.0)
        for name, c in zip(names, columns)
    }
    with np.errstate(all="ignore"):
        try:
            scale = np.zeros(trials)
            for _, t in terms:
                scale = np.fmax(scale, np.abs(evaluate(t, point, constants)))  # NaN never wins
            value = np.abs(evaluate(residual, point, constants))
        except ArithmeticError:
            _raise_first_error([t for _, t in terms] + [residual], point, constants, trials)
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
