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

The draws come from ``np.random.default_rng(seed)``.  The scalar ones are
taken through its bit generator's ctypes interface (``next_uint32`` for a
sign, ``next_double`` for a uniform), in the closed forms numpy's own
``integers(0, 2)`` and ``uniform`` apply to those outputs, so the stream,
and with it every report, is the one the Generator methods give.

Each residual term and the residual are compiled once per :func:`certify`
call by :func:`expr.compile_float`, so a trial does only float work; the
values are those of the exact-rational :func:`expr.evaluate`, bit for bit.
"""

from __future__ import annotations

import functools
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
# q in [1, 3].  One call with array bounds gives the values and generator
# state of 14 scalar rng.integers calls in this order.
_POLY_LOW = np.array([-9, 1] * 6 + [-6, 1])
_POLY_HIGH = np.array([10, 5] * 6 + [7, 4])

# _FALLING[k][j] = k (k-1) ... (k-j+1), the j-th derivative factor of x^k.
_FALLING = tuple(tuple(math.perm(k, j) for j in range(k + 1)) for k in range(6))


class _Draws:
    """The scalar draws of the sampler, on the stream of one Generator.

    ``sign`` and ``uniform`` call the bit generator's ``next_uint32`` and
    ``next_double`` through its ctypes interface and apply the closed forms
    of the Generator methods, so they return the values and consume the bits
    that ``rng.choice((-1.0, 1.0))`` and ``rng.uniform(low, high)`` would,
    without their per-call argument handling.  ``poly`` is the one array
    draw of a polynomial profile and goes through the Generator itself.
    The ctypes calls bypass the Generator's lock, so the Generator must be
    this object's alone; :func:`certify` makes one per call.
    """

    __slots__ = ("_rng", "_next_uint32", "_next_double")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng  # owns the state the ctypes calls point at
        iface = rng.bit_generator.ctypes
        self._next_uint32 = functools.partial(iface.next_uint32, iface.state)
        self._next_double = functools.partial(iface.next_double, iface.state)

    def sign(self) -> float:
        """-1.0 or 1.0: ``rng.integers(0, 2)`` is Lemire's bounded draw of
        range 2, the top bit of one 32-bit output; it never rejects."""
        return (-1.0, 1.0)[self._next_uint32() >> 31]

    def uniform(self, low: float, high: float) -> float:
        """``rng.uniform(low, high)``: low + (high - low) * next_double."""
        return low + (high - low) * self._next_double()

    def poly(self) -> list[int]:
        """The 14 integer draws of one polynomial profile, in draw order."""
        return self._rng.integers(_POLY_LOW, _POLY_HIGH).tolist()


def _poly_profile(draws: _Draws, max_order: int) -> list[float]:
    """Degree-5 polynomial with rational coefficients n_k/d_k (d_k <= 4) at a
    rational point p/q (q <= 3), derivatives exact.

    Each derivative is an integer numerator over the common denominator
    12 q^5; the one int / int division is correctly rounded, so the float is
    the one the exact rational rounds to.
    """
    ints = draws.poly()
    scaled = [num * (12 // d) for num, d in zip(ints[0:12:2], ints[1:12:2])]
    p, q = ints[12], ints[13]
    powers = [p**m * q ** (5 - m) for m in range(6)]  # x0^m * q^5
    den = 12 * q**5
    return [
        sum(scaled[k] * _FALLING[k][j] * powers[k - j] for k in range(j, 6)) / den
        for j in range(max_order + 1)
    ]


def _sine_profile(draws: _Draws, max_order: int) -> list[float]:
    """b + a sin(k x + phi); the offset keeps the profile away from zero."""
    b = draws.sign() * draws.uniform(1.0, 2.0)
    a = draws.sign() * draws.uniform(0.3, 1.0)
    k = draws.uniform(0.5, 2.0)
    phase = draws.uniform(0.0, 2.0 * math.pi) + draws.uniform(-1.0, 1.0) * k
    derivs = [b + a * math.sin(phase)]
    for j in range(1, max_order + 1):
        derivs.append(a * k**j * math.sin(phase + j * math.pi / 2.0))
    return derivs


def _gauss_profile(draws: _Draws, max_order: int) -> list[float]:
    """b + a exp(-(x-c)^2 / 2 sigma^2), derivatives by the two-term
    recurrence g^(j+1) = -((x-c)/s^2) g^(j) - (j/s^2) g^(j-1)."""
    b = draws.sign() * draws.uniform(1.0, 2.0)
    a = draws.sign() * draws.uniform(0.5, 1.5)
    s2 = draws.uniform(0.7, 1.5) ** 2
    u = draws.uniform(-1.0, 1.0)  # x - c at the sample point
    g = [a * math.exp(-(u**2) / (2.0 * s2))]
    for j in range(max_order):
        prev = g[j - 1] if j >= 1 else 0.0
        g.append(-(u / s2) * g[j] - (j / s2) * prev)
    g[0] += b
    return g


_FAMILIES = (_poly_profile, _sine_profile, _gauss_profile)
FAMILY_NAMES = ("poly", "sine", "gauss")


def _sample_point(
    draws: _Draws,
    trial: int,
    needed: list[int],
    counts: list[tuple[int, ...]],
) -> tuple[list[float], bool]:
    """One tensor-product jet sample, one value per entry of ``counts`` (the
    per-axis derivative counts of each variable, R first); flags |R| < 0.1
    for redraw."""
    profiles = [
        _FAMILIES[(trial + axis) % len(_FAMILIES)](draws, order)
        for axis, order in enumerate(needed)
    ]
    values = []
    for count in counts:
        val = 1.0
        for profile, c in zip(profiles, count):
            val *= profile[c]
        values.append(val)
    return values, abs(values[0]) < 0.1


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

    draws = _Draws(np.random.default_rng(seed))
    max_rel = 0.0
    worst = 0
    resamples = 0
    for trial in range(trials):
        for _ in range(200):
            jets, reject = _sample_point(draws, trial, needed, counts)
            if not reject:
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
