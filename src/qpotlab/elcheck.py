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

Each residual term and the residual are compiled once per :func:`certify`
call by :func:`expr.compile_float`, so a trial does only float work; the
values are those of the exact-rational :func:`expr.evaluate`, bit for bit.
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


def _sign(rng: np.random.Generator) -> float:
    """-1.0 or 1.0 with the draw ``rng.choice((-1.0, 1.0))`` makes."""
    return (-1.0, 1.0)[int(rng.integers(0, 2))]


# Bounds of the 14 draws of one polynomial profile, in draw order: six
# (numerator in [-9, 9], denominator in [1, 4]) pairs, then p in [-6, 6] and
# q in [1, 3].  One call with array bounds gives the values and generator
# state of 14 scalar rng.integers calls in this order.
_POLY_LOW = np.array([-9, 1] * 6 + [-6, 1])
_POLY_HIGH = np.array([10, 5] * 6 + [7, 4])


def _poly_profile(rng: np.random.Generator, max_order: int) -> list[float]:
    """Degree-5 polynomial with rational coefficients n_k/d_k (d_k <= 4) at a
    rational point p/q (q <= 3), derivatives exact.

    Each derivative is an integer numerator over the common denominator
    12 q^5; the one int / int division is correctly rounded, so the float is
    the one the exact rational rounds to.
    """
    draws = rng.integers(_POLY_LOW, _POLY_HIGH).tolist()
    scaled = [num * (12 // d) for num, d in zip(draws[0:12:2], draws[1:12:2])]
    p, q = draws[12], draws[13]
    powers = [p**m * q ** (5 - m) for m in range(6)]  # x0^m * q^5
    den = 12 * q**5
    return [
        sum(scaled[k] * math.perm(k, j) * powers[k - j] for k in range(j, 6)) / den
        for j in range(max_order + 1)
    ]


def _sine_profile(rng: np.random.Generator, max_order: int) -> list[float]:
    """b + a sin(k x + phi); the offset keeps the profile away from zero."""
    b = _sign(rng) * float(rng.uniform(1.0, 2.0))
    a = _sign(rng) * float(rng.uniform(0.3, 1.0))
    k = float(rng.uniform(0.5, 2.0))
    phase = float(rng.uniform(0.0, 2.0 * math.pi) + rng.uniform(-1.0, 1.0) * k)
    derivs = [b + a * math.sin(phase)]
    for j in range(1, max_order + 1):
        derivs.append(a * k**j * math.sin(phase + j * math.pi / 2.0))
    return derivs


def _gauss_profile(rng: np.random.Generator, max_order: int) -> list[float]:
    """b + a exp(-(x-c)^2 / 2 sigma^2), derivatives by the two-term
    recurrence g^(j+1) = -((x-c)/s^2) g^(j) - (j/s^2) g^(j-1)."""
    b = _sign(rng) * float(rng.uniform(1.0, 2.0))
    a = _sign(rng) * float(rng.uniform(0.5, 1.5))
    s2 = float(rng.uniform(0.7, 1.5)) ** 2
    u = float(rng.uniform(-1.0, 1.0))  # x - c at the sample point
    g = [a * math.exp(-(u**2) / (2.0 * s2))]
    for j in range(max_order):
        prev = g[j - 1] if j >= 1 else 0.0
        g.append(-(u / s2) * g[j] - (j / s2) * prev)
    g[0] += b
    return g


_FAMILIES = (_poly_profile, _sine_profile, _gauss_profile)
FAMILY_NAMES = ("poly", "sine", "gauss")


def _sample_point(
    rng: np.random.Generator,
    trial: int,
    needed: list[int],
    counts: list[tuple[int, ...]],
) -> tuple[list[float], bool]:
    """One tensor-product jet sample, one value per entry of ``counts`` (the
    per-axis derivative counts of each variable, R first); flags |R| < 0.1
    for redraw."""
    profiles = [
        _FAMILIES[(trial + axis) % len(_FAMILIES)](rng, order)
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

    rng = np.random.default_rng(seed)
    max_rel = 0.0
    worst = 0
    resamples = 0
    for trial in range(trials):
        for _ in range(200):
            jets, reject = _sample_point(rng, trial, needed, counts)
            if not reject:
                break
            resamples += 1
        else:
            raise RuntimeError("could not draw a well-conditioned jet sample")
        symbols = [_sign(rng) * float(rng.uniform(0.5, 2.0)) for _ in names]
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
