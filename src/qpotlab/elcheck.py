"""Stationarity certification for candidate potentials held as N/D.

A candidate Q(R, dR, d2R, ...) is *stationary* when the density-weighted
Euler-Lagrange expression

    Sigma_J (-1)^|J| D_J ( R^2 dQ/dR_J )

vanishes identically, the sum running over the distinct canonical
multi-indices J whose jet variables appear in Q = N/D (J = () meaning R
itself).  :func:`euler_lagrange` forms each term exactly as P_J / D^k_J
over the candidate's own D: dQ/dR_J and D_axis act on N and D monomial by
monomial (:func:`expr.partial`, :func:`expr.total`), and the quotient rule
is used only where D != 1, raising k_J by one where D depends on the
variable or axis.  The terms are summed over D^k, k the largest k_J, to
N / D^k.  The verdict is ``passes`` iff N has no terms: there is no
tolerance and no sampling.  N = 0 is exact for every smooth R with R != 0:
every finite jet is the jet of its Taylor polynomial at a point, so a
polynomial that vanishes in independent jet coordinates vanishes for every
R (Olver, *Applications of Lie Groups to Differential Equations*, 1986,
ch. 4).

A failing candidate is sized by a float witness on ``trials`` independent
jet points.  One ``rng.random((trials, width))`` block on
``np.random.default_rng(seed)`` gives each jet variable of the P_J and D
its draws, in canonical variable order: R two doubles, for +-U[0.5, 2], so
no point is ever skipped; every other jet coordinate one, for U[-2, 2];
then each symbol two, for +-U[0.5, 2].  A sign is floor(2 d) and a uniform
draw on [low, high) is low + (high - low) d.  Each term P_J / D^k_J and the
residual N / D^k are evaluated once, on arrays holding every trial, by
:func:`expr.polynomial_value`, with D^k the product of k factors D; the
witness is the largest |residual| / max |term|, at the first trial that
reaches it.  The first n trials of any run are a run of n trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import (
    ONE,
    R,
    JetVariable,
    Polynomial,
    RationalFunction,
    add,
    jet_variables,
    multiply,
    partial,
    point,
    polynomial_value,
    power,
    to_text,
    total,
    variables,
)

PASSES = "passes"
FAILS = "fails"


def _check_dimension(q: RationalFunction, dimension: int) -> None:
    if dimension not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2, or 3")
    for v in jet_variables(q):
        if any(axis >= dimension for axis in v.axes):
            raise ValueError(
                f"{v.name} differentiates along an axis beyond dimension {dimension}"
            )


@dataclass(frozen=True)
class Residual:
    """The Euler-Lagrange residual of N/D: each term as (R_J, P_J, k_J),
    in canonical variable order, meaning P_J / D^k_J; their sum is
    ``num`` / D^``power``."""

    den: Polynomial
    terms: tuple[tuple[JetVariable, Polynomial, int], ...]
    num: Polynomial
    power: int


def euler_lagrange(q: RationalFunction, dimension: int = 1) -> Residual:
    """The terms (-1)^|J| D_J(R^2 dQ/dR_J), one per jet variable of Q, and
    their sum, exactly."""
    _check_dimension(q, dimension)
    n, d = q
    slopes = [total(d, axis) for axis in range(dimension)]
    terms = []
    for v in sorted(jet_variables(q)):
        p, k = partial(n, v), 0
        if d != ONE:
            dd = partial(d, v)
            p, k = (add(multiply(p, d), multiply(n, dd), -1), 2) if dd else (p, 1)
        if not p:
            continue
        p = multiply(p, {((R, 2),): 1})
        for axis in v.axes:  # D_axis(P / D^k) by the quotient rule
            if k and slopes[axis]:
                p = add(multiply(total(p, axis), d), multiply(p, slopes[axis]), -k)
                k += 1
            else:
                p = total(p, axis)
        if v.order % 2:
            p = {m: -c for m, c in p.items()}
        terms.append((v, p, k))
    top = max((k for *_, k in terms), default=0)
    num: Polynomial = {}
    for _, p, k in terms:
        num = add(num, multiply(p, power(d, top - k)))
    return Residual(d, tuple(terms), num, top)


# --------------------------------------------------------------------------
# Certification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    candidate: str
    residual: str  # N/D, "0" for a pass
    verdict: str
    numerator_terms: int
    max_abs_residual: float  # the witness; 0.0 for a pass
    samples_used: int  # 0 for a pass
    seed: int
    dimension: int
    worst_trial: int | None  # None for a pass

    def passed(self) -> bool:
        return self.verdict == PASSES


def _signed(d: np.ndarray, size: np.ndarray) -> np.ndarray:
    """+-U[0.5, 2]: the sign from the doubles ``d``, the size from ``size``."""
    return (2.0 * np.floor(2.0 * d) - 1.0) * (0.5 + 1.5 * size)


def _witness(res: Residual, trials: int, seed: int) -> tuple[float, int]:
    """The largest |residual| / max |term| over ``trials`` random jet
    points, and the first trial that reaches it."""
    jets, names = variables(res.den, *(p for _, p, _ in res.terms))
    jets = sorted({R, *jets})  # R first
    rows = np.random.default_rng(seed).random((trials, len(jets) + 1 + 2 * len(names)))
    draws = {R: _signed(rows[:, 0], rows[:, 1])}
    for column, v in enumerate(jets[1:], start=2):
        draws[v] = -2.0 + 4.0 * rows[:, column]
    first = len(jets) + 1
    constants = {
        name: _signed(rows[:, first + 2 * i], rows[:, first + 2 * i + 1])
        for i, name in enumerate(names)
    }
    values = point(draws, constants)
    with np.errstate(all="ignore"):
        d = polynomial_value(res.den, values)
        powers = [1.0]
        for _ in range(res.power):
            powers.append(powers[-1] * d)
        scale = np.zeros(trials)
        for _, p, k in res.terms:
            term = polynomial_value(p, values) / powers[k]
            scale = np.fmax(scale, np.abs(term))  # NaN never wins
        value = np.abs(polynomial_value(res.num, values) / powers[res.power])
        # a zero scale with a nonzero residual is infinitely bad; a NaN
        # residual (inf - inf where the terms overflow) never is
        rel = np.where(scale > 0.0, value / scale, np.where(value > 0.0, math.inf, 0.0))
    rel = np.where(rel > 0.0, rel, 0.0)  # nor here: a NaN is never the worst
    worst = int(np.argmax(rel))  # the first trial attaining the maximum
    return float(rel[worst]), worst


def certify(
    q: RationalFunction, dimension: int = 1, trials: int = 100, seed: int = 0
) -> ResidualReport:
    """Decide whether ``q`` is stationary from its exact Euler-Lagrange
    residual; size a failing candidate by its float witness on ``trials``
    jet points drawn from ``seed``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    res = euler_lagrange(q, dimension)
    text, max_rel, worst = "0", 0.0, None
    if res.num:
        text = to_text(RationalFunction(res.num, power(res.den, res.power)))
        max_rel, worst = _witness(res, trials, seed)
    return ResidualReport(
        candidate=to_text(q),
        residual=text,
        verdict=FAILS if res.num else PASSES,
        numerator_terms=len(res.num),
        max_abs_residual=max_rel,
        samples_used=trials if res.num else 0,
        seed=seed,
        dimension=dimension,
        worst_trial=worst,
    )
