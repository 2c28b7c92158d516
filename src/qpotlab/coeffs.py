"""Exact-rational coefficient series for the even-order potential family.

The dimensionless coefficients a_{2n} weight the even-order terms of the
complete quantum potential.  Their defining closed form,

    a_{2n} = (-1)^(n+1) * 1/(2n-1) * 1/2^(2n) * (2n)!/(n!)^2,

is exactly the Maclaurin coefficient of x^n in (1+x)^(1/2), which is what
identifies the truncated potential series with the relativistic energy
operator  eps0 * sqrt(1 + (pc/eps0)^2).  Everything here is big-integer
exact; floats appear only in :func:`truncated_energy`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction


class SeriesDivergenceWarning(UserWarning):
    """Emitted when the energy series is evaluated outside |pc/eps0| < 1."""


def a2n(n: int) -> Fraction:
    """Coefficient a_{2n} of the order-2n potential term, as an exact rational.

    a2n(0) = 1 (rest-energy term), a2n(1) = 1/2, a2n(2) = -1/8, and the signs
    alternate as (-1)^(n+1) from n = 1 on.
    """
    if n < 0:
        raise ValueError(f"order index must be nonnegative, got {n}")
    sign = (-1) ** (n + 1)
    return Fraction(sign * math.comb(2 * n, n), (2 * n - 1) * 4**n)


def sqrt_binomial_series(max_n: int) -> list[Fraction]:
    """Coefficients of x^0..x^max_n in the Maclaurin series of (1+x)^(1/2).

    Computed by the recurrence c_0 = 1, c_{k+1} = c_k * (1/2 - k)/(k + 1),
    independently of :func:`a2n`; the two agree exactly for every n.
    """
    if max_n < 0:
        raise ValueError(f"series index must be nonnegative, got {max_n}")
    series = [Fraction(1)]
    for k in range(max_n):
        series.append(series[-1] * (Fraction(1, 2) - k) / (k + 1))
    return series


def sqrt_binomial_coeff(n: int) -> Fraction:
    """Coefficient of x^n in the Maclaurin series of (1+x)^(1/2)
    (the last entry of :func:`sqrt_binomial_series`)."""
    return sqrt_binomial_series(n)[n]


@dataclass(frozen=True)
class CoefficientTable:
    """Table of (n, a_{2n}) entries for n = 0..max_n.

    Construction checks the family's defining properties: a_2 = 1/2 exactly
    and alternating signs from n = 1 on.
    """

    entries: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        for n, value in self.entries:
            if n == 1 and value != Fraction(1, 2):
                raise ValueError(f"a_2 must be 1/2 exactly, got {value}")
            if n >= 1 and (value > 0) != (n % 2 == 1):
                raise ValueError(f"sign of a_{2*n} breaks the alternation rule")

    def rows(self) -> list[tuple[int, str, float, str, bool]]:
        """CSV-ready rows: (n, exact fraction, float value, oracle, match).

        The oracle column is :func:`sqrt_binomial_series`, run once up to the
        largest n, so the table costs O(max_n) rational operations.
        """
        oracle = sqrt_binomial_series(max((n for n, _ in self.entries), default=0))
        return [
            (n, str(value), float(value), str(oracle[n]), value == oracle[n])
            for n, value in self.entries
        ]


def coefficient_table(max_n: int) -> CoefficientTable:
    """Build the coefficient table for n = 0..max_n."""
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    return CoefficientTable(tuple((n, a2n(n)) for n in range(max_n + 1)))


def truncated_energy(p_momentum: float, params, max_half_order: int) -> float:
    """Partial sum  sum_{n <= max_half_order} a_{2n} * eps0 * (pc/eps0)^(2n),
    i.e. truncation after the order-2n term with 2n = 2*max_half_order.

    ``params`` supplies ``rest_energy`` and ``c``.  For |pc/eps0| < 1 this
    converges to eps0*sqrt(1+(pc/eps0)^2); outside that disc the series
    diverges and a :class:`SeriesDivergenceWarning` is emitted (the partial
    sum is still returned).
    """
    if max_half_order < 0:
        raise ValueError(f"max_half_order must be nonnegative, got {max_half_order}")
    eps0 = params.rest_energy
    x = (p_momentum * params.c / eps0) ** 2
    if x >= 1.0:
        warnings.warn(
            f"energy series evaluated at (pc/eps0)^2 = {x:g} >= 1: "
            "partial sums do not converge",
            SeriesDivergenceWarning,
            stacklevel=2,
        )
    total = Fraction(0)
    for n in range(max_half_order + 1):
        total = total + a2n(n) * x**n
    return float(eps0 * total)
