"""Stationarity certification for candidate potential expressions.

A candidate Q(R, dR, d2R, ...) is *stationary* when the density-weighted
Euler-Lagrange expression

    Sigma_J (-1)^|J| D_J ( R^2 dQ/dR_J )

vanishes identically, the sum running over the distinct canonical
multi-indices J whose jet variables actually appear in Q (J = () meaning
R itself).  The residual is formed symbolically, with exact rational
coefficients, and :func:`expand` writes it as N/D, where N and D are
Laurent polynomials with ``Fraction`` coefficients in the symbols and the
jet variables.  The verdict is ``passes`` iff N has no terms: there is no
tolerance and no sampling.  N = 0 is exact for every smooth R with R != 0:
every finite jet is the jet of its Taylor polynomial at a point, so a
polynomial that vanishes in independent jet coordinates vanishes for every
R (Olver, *Applications of Lie Groups to Differential Equations*, 1986,
ch. 4).

A failing candidate is sized by a float witness on ``trials`` independent
jet points.  One ``rng.random((trials, width))`` block on
``np.random.default_rng(seed)`` gives each jet variable of the residual
terms its draws, in canonical variable order: R two doubles, for
+-U[0.5, 2], so no point is ever skipped; every other jet coordinate one,
for U[-2, 2]; then each symbol two, for +-U[0.5, 2].  A sign is
floor(2 d) and a uniform draw on [low, high) is low + (high - low) d.
Each residual term and the residual are evaluated once, on arrays holding
every trial, by :func:`expr.evaluate`; the witness is the largest
|residual| / max |term|, at the first trial that reaches it.  The first n
trials of any run are a run of n trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .expr import (
    Const,
    EvaluationError,
    Expression,
    Jet,
    JetPoint,
    JetVariable,
    Prod,
    Sum,
    Sym,
    canonical,
    evaluate,
    is_zero,
    jet_variables,
    make_pow,
    make_prod,
    make_sum,
    negate,
    partial_wrt_jet,
    quotient,
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


# --------------------------------------------------------------------------
# Expansion to N/D
# --------------------------------------------------------------------------

# A Laurent polynomial maps each monomial to its nonzero Fraction
# coefficient; a monomial is a frozenset of (leaf, exponent) pairs, one per
# Sym or Jet leaf, with nonzero exponents.
Polynomial = dict[frozenset, Fraction]

_ONE: Polynomial = {frozenset(): Fraction(1)}


def _monomial_product(a: frozenset, b: frozenset, power: int = 1) -> frozenset:
    """The monomial a * b^power."""
    exponents = dict(a)
    for leaf, e in b:
        exponents[leaf] = exponents.get(leaf, 0) + power * e
    return frozenset((leaf, e) for leaf, e in exponents.items() if e)


def _add(p: Polynomial, q: Polynomial) -> Polynomial:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _multiply(p: Polynomial, q: Polynomial) -> Polynomial:
    out: dict[frozenset, Fraction] = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = _monomial_product(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _power(p: Polynomial, exponent: int) -> Polynomial:
    out = _ONE
    for _ in range(exponent):
        out = _multiply(out, p)
    return out


def expand(e: Expression) -> tuple[Polynomial, Polynomial]:
    """``e`` as N/D, N and D Laurent polynomials over the rationals in the
    symbols and the jet variables; D is 1 or has at least two terms.

    Constants, symbols and jets are leaves; sums add and products multiply.
    A negative power of a monomial folds into negative exponents, and a
    negative power of a sum becomes a factor of D.  Sums whose D differ
    are cross-multiplied.  A negative power of an expression that expands
    to 0 raises :class:`EvaluationError`.
    """
    if isinstance(e, Const):
        return ({frozenset(): e.value} if e.value else {}), _ONE
    if isinstance(e, (Sym, Jet)):
        return {frozenset(((e, 1),)): Fraction(1)}, _ONE
    if isinstance(e, Sum):
        n, d = {}, _ONE
        for t in e.terms:
            tn, td = expand(t)
            if td == d:
                n = _add(n, tn)
            else:
                n, d = _add(_multiply(n, td), _multiply(tn, d)), _multiply(d, td)
        return n, d
    if isinstance(e, Prod):
        n, d = _ONE, _ONE
        for f in e.factors:
            fn, fd = expand(f)
            n, d = _multiply(n, fn), _multiply(d, fd)
        return n, d
    n, d = expand(e.base)
    if e.exponent > 0:
        return _power(n, e.exponent), _power(d, e.exponent)
    if not n:
        raise EvaluationError(f"division by zero: {to_text(e.base)} is identically 0")
    if len(n) > 1:
        return _power(d, -e.exponent), _power(n, -e.exponent)
    ((m, c),) = n.items()
    inverse = {_monomial_product(frozenset(), m, -1): 1 / c}
    return _multiply(_power(d, -e.exponent), _power(inverse, -e.exponent)), _ONE


def _expression(p: Polynomial) -> Expression:
    """The canonical expression of a Laurent polynomial."""
    return make_sum(
        make_prod((Const(c), *(make_pow(leaf, e) for leaf, e in m))) for m, c in p.items()
    )


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


def _witness(
    terms: list[tuple[JetVariable, Expression]],
    residual: Expression,
    trials: int,
    seed: int,
) -> tuple[float, int]:
    """The largest |residual| / max |term| over ``trials`` random jet
    points, and the first trial that reaches it."""
    variables, names = {JetVariable(())}, set()
    for _, t in terms:  # the residual's jets and symbols are among these
        variables |= jet_variables(t)
        names |= symbol_names(t)
    order = sorted(variables, key=lambda v: (v.order, v.axes))  # R first
    names = sorted(names)
    rows = np.random.default_rng(seed).random((trials, len(order) + 1 + 2 * len(names)))
    values = {order[0]: _signed(rows[:, 0], rows[:, 1])}
    for column, v in enumerate(order[1:], start=2):
        values[v] = -2.0 + 4.0 * rows[:, column]
    first = len(order) + 1
    constants = {
        name: _signed(rows[:, first + 2 * i], rows[:, first + 2 * i + 1])
        for i, name in enumerate(names)
    }
    point = JetPoint(values)
    with np.errstate(all="ignore"):
        scale = np.zeros(trials)
        for _, t in terms:
            scale = np.fmax(scale, np.abs(evaluate(t, point, constants)))  # NaN never wins
        value = np.abs(evaluate(residual, point, constants))
        rel = np.where(scale > 0.0, value / scale, np.where(value == 0.0, 0.0, math.inf))
    rel = np.where(rel > 0.0, rel, 0.0)  # nor here: a NaN is never the worst
    worst = int(np.argmax(rel))  # the first trial attaining the maximum
    return float(rel[worst]), worst


def certify(
    q: Expression, dimension: int = 1, trials: int = 100, seed: int = 0
) -> ResidualReport:
    """Decide whether ``q`` is stationary from its exact Euler-Lagrange
    residual; size a failing candidate by its float witness on ``trials``
    jet points drawn from ``seed``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    q = canonical(q)
    terms, residual = el_residual(q, dimension)
    numerator, denominator = expand(residual)
    text, max_rel, worst = "0", 0.0, None
    if numerator:
        text = to_text(quotient(_expression(numerator), _expression(denominator)))
        max_rel, worst = _witness(terms, residual, trials, seed)
    return ResidualReport(
        candidate=to_text(q),
        residual=text,
        verdict=FAILS if numerator else PASSES,
        numerator_terms=len(numerator),
        max_abs_residual=max_rel,
        samples_used=trials if numerator else 0,
        seed=seed,
        dimension=dimension,
        worst_trial=worst,
    )
