"""Physical parameters and grid evaluation of the even-order potential family.

The order-2n member of the family is

    Q_{2n}[R] = a_{2n} * (-1)^n * eps0 * (hbar/(m c))^(2n) * (lap^n R) / R,

with eps0 = m c^2.  For n = 1 with the relativistic coefficient a_2 = 1/2
this is exactly the Bohmian quantum potential -(hbar^2/2m) lap(R)/R; n = 0
gives the rest energy eps0.  A :class:`QuantumPotentialSpec` selects which
orders are present and with which coefficients (exact-rational dimensionless
a_{2n}, or explicit dimensional A_{2n} multiplying lap^n R / R directly).

The orders >= 2 act as one operator, the Laplacian series sum A_2n lap^n
with symbol sum A_2n (-k^2)^n: :func:`eval_complete_q` applies it once and
:func:`expectation` is the one split-form energy sum, shared by the energy
functional and the perturbative shifts.  Division by R diverges at nodes, so
the quotient is zeroed where |R| falls below ``regularization_floor *
max|R|``.  The order-0 term is R/R = 1 identically and is never floored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import numpy as np

from . import serialize
from .coeffs import a2n
from .grid import GridFunction, inner, laplacian_series, power_laplacian

#: CODATA fine-structure constant.
FINE_STRUCTURE = 7.2973525693e-3

#: hbar*c in eV*Angstrom.
_HBARC_EV_ANGSTROM = 1973.269804
#: electron and proton rest energies in eV.
_ELECTRON_REST_EV = 510998.95
_PROTON_REST_EV = 938272088.16


@dataclass(frozen=True)
class PhysicalParams:
    """Unit system: hbar, mass, and c; everything else derives from these."""

    hbar: float
    mass: float
    c: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0 or self.mass <= 0 or self.c <= 0:
            raise ValueError("hbar, mass and c must all be positive")

    @property
    def rest_energy(self) -> float:
        """eps0 = m c^2 (recomputed, never stored)."""
        return self.mass * self.c**2

    @property
    def compton_wavelength(self) -> float:
        """lambda_c = 2 pi hbar / (m c) (recomputed, never stored)."""
        return 2.0 * math.pi * self.hbar / (self.mass * self.c)


def electron_params() -> PhysicalParams:
    """Electron in eV/Angstrom units with c = 1."""
    return PhysicalParams(hbar=_HBARC_EV_ANGSTROM, mass=_ELECTRON_REST_EV, c=1.0)


def proton_params() -> PhysicalParams:
    """Proton in eV/Angstrom units with c = 1."""
    return PhysicalParams(hbar=_HBARC_EV_ANGSTROM, mass=_PROTON_REST_EV, c=1.0)


def natural_params(c: float = 1.0) -> PhysicalParams:
    """Dimensionless units hbar = m = 1 with configurable c."""
    return PhysicalParams(hbar=1.0, mass=1.0, c=c)


UNIT_PRESETS = {
    "electron": electron_params,
    "proton": proton_params,
    "natural": natural_params,
}


def params_by_name(name: str, c: float = 1.0) -> PhysicalParams:
    try:
        factory = UNIT_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown units preset {name!r}; expected one of {sorted(UNIT_PRESETS)}"
        ) from None
    return factory(c) if name == "natural" else factory()


# --------------------------------------------------------------------------
# Potential specification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QTerm:
    """One term of the potential family.

    Exactly one of ``a`` (dimensionless exact rational, combined with the
    (-1)^n eps0 (hbar/mc)^(2n) prefactor) or ``A`` (explicit dimensional
    coefficient of lap^n R / R) is set.  ``source`` records which choice was
    made; relativistic-sourced coefficients must equal a2n(n) exactly.
    """

    order: int
    a: Fraction | None = None
    A: float | None = None
    source: str = "explicit"

    def __post_init__(self):
        if self.order < 0 or self.order % 2 != 0:
            raise ValueError(f"term order must be even and >= 0, got {self.order}")
        if (self.a is None) == (self.A is None):
            raise ValueError("exactly one of a (rational) or A (dimensional) required")
        if self.a is not None:
            object.__setattr__(self, "a", Fraction(self.a))
        if self.source == "relativistic" and self.a != a2n(self.order // 2):
            raise ValueError(
                f"relativistic-sourced a_{self.order} must equal "
                f"{a2n(self.order // 2)}, got {self.a}"
            )

    @classmethod
    def relativistic(cls, order: int) -> "QTerm":
        return cls(order=order, a=a2n(order // 2), source="relativistic")

    @classmethod
    def rational(cls, order: int, a: Fraction) -> "QTerm":
        return cls(order=order, a=Fraction(a), source="explicit")

    @classmethod
    def dimensional(cls, order: int, A: float) -> "QTerm":
        return cls(order=order, A=float(A), source="explicit")


@dataclass(frozen=True)
class QuantumPotentialSpec:
    """A truncated potential: which even orders are present, with coefficients."""

    terms: tuple[QTerm, ...]
    regularization_floor: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(sorted(self.terms, key=lambda t: t.order)))
        orders = [t.order for t in self.terms]
        if len(set(orders)) != len(orders):
            raise ValueError(f"duplicate term orders in {orders}")
        if not 0 <= self.regularization_floor < 1:
            raise ValueError("regularization_floor must lie in [0, 1)")

    @classmethod
    def relativistic(cls, max_order: int, floor: float = 1e-8) -> "QuantumPotentialSpec":
        """All relativistic-coefficient terms of order 0, 2, ..., max_order."""
        if max_order < 0 or max_order % 2 != 0:
            raise ValueError(f"max_order must be even and >= 0, got {max_order}")
        terms = tuple(QTerm.relativistic(k) for k in range(0, max_order + 1, 2))
        return cls(terms, floor)

    @property
    def truncation_order(self) -> int:
        return max((t.order for t in self.terms), default=0)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(t.order for t in self.terms)

    def has_order(self, order: int) -> bool:
        return any(t.order == order for t in self.terms)

    def term(self, order: int) -> QTerm:
        for t in self.terms:
            if t.order == order:
                return t
        raise KeyError(f"spec has no order-{order} term (orders: {self.orders})")

    def without_order(self, order: int) -> "QuantumPotentialSpec":
        return QuantumPotentialSpec(
            tuple(t for t in self.terms if t.order != order), self.regularization_floor
        )


def dimensional_coefficient(term: QTerm, params: PhysicalParams) -> float:
    """A_{2n} such that the term is A_{2n} * (lap^n R)/R."""
    if term.A is not None:
        return term.A
    n = term.order // 2
    scale = (params.hbar / (params.mass * params.c)) ** term.order
    return float(term.a) * (-1.0) ** n * params.rest_energy * scale


def validate_order2(spec: QuantumPotentialSpec, params: PhysicalParams) -> None:
    """Reject an order-2 term whose coefficient is not -hbar^2/2m.

    The order-2 term is the kinetic operator itself, and the evolution and
    the assembled eigenproblem apply it as such, so any other coefficient
    would be silently ignored.
    """
    if not spec.has_order(2):
        return
    c2 = params.hbar**2 / (2.0 * params.mass)
    A2 = dimensional_coefficient(spec.term(2), params)
    if abs(A2 + c2) > 1e-12 * c2:
        raise ValueError(
            f"order-2 coefficient {A2!r} conflicts with the kinetic operator "
            f"-hbar^2/2m = {-c2!r}"
        )


# --------------------------------------------------------------------------
# Grid evaluation
# --------------------------------------------------------------------------


def eval_q2n(
    R: GridFunction,
    n: int,
    params: PhysicalParams,
    spec: QuantumPotentialSpec,
) -> GridFunction:
    """Evaluate the order-2n term on a grid function.

    ``n`` is the half-order (n=1 is the Bohmian term); the spec must contain
    an order-2n term, which is evaluated as a one-term spec.
    """
    one = QuantumPotentialSpec((spec.term(2 * n),), spec.regularization_floor)
    return eval_complete_q(R, params, one)


def eval_complete_q(
    R: GridFunction,
    params: PhysicalParams,
    spec: QuantumPotentialSpec,
    method: str | None = None,
) -> GridFunction:
    """Pointwise sum of every term in the spec (zero field for an empty spec):
    one Laplacian series sum A_2n lap^n R, floored and divided by R once, plus
    the unfloored order-0 constant.  The grid picks the Laplacian backend
    (see :func:`grid.laplacian_series`); ``method='fd'`` selects finite
    differences on a uniform Dirichlet grid."""
    coeffs = {t.order // 2: dimensional_coefficient(t, params) for t in spec.terms}
    constant = coeffs.pop(0, 0.0)
    out = np.zeros(R.grid.n)
    if coeffs:
        D = laplacian_series(R, coeffs, method).values
        r = R.values
        mask = np.abs(r) <= spec.regularization_floor * float(np.max(np.abs(r)))
        np.divide(D, r, out=out, where=~mask)
    return GridFunction(R.grid, out + constant)


def expectation(
    R: GridFunction,
    params: PhysicalParams,
    spec: QuantumPotentialSpec,
    method: str | None = None,
) -> float:
    """sum_2n A_2n <lap^p R, lap^q R>, p = ceil(n/2), q = n - p: the Hermitian
    split form of sum A_2n <R, lap^n R> (equal by parts for fields vanishing
    at the boundary, better behaved near the hydrogen cusp).  When p == q
    one Laplacian power serves both sides."""
    total = 0.0
    for t in spec.terms:
        n = t.order // 2
        p = (n + 1) // 2
        q = n - p
        left = R if p == 0 else power_laplacian(R, p, method)
        right = left if q == p else R if q == 0 else power_laplacian(R, q, method)
        total += dimensional_coefficient(t, params) * inner(left, right)
    return total


# --------------------------------------------------------------------------
# Scale ratios for box modes
# --------------------------------------------------------------------------


def scale_ratio(L: float, params: PhysicalParams) -> float:
    """(lambda_c / 2L)^2 — the square of Compton wavelength over box size."""
    return (params.compton_wavelength / (2.0 * L)) ** 2


def term_ratio(L: float, tau: int, n: int, params: PhysicalParams) -> float:
    """Analytic ratio Q_{2(n+1)}/Q_{2n} on box mode tau:
    (a_{2(n+1)}/a_{2n}) * tau^2 * (lambda_c/2L)^2.
    """
    if tau < 1:
        raise ValueError(f"mode index tau must be >= 1, got {tau}")
    if L <= 0:
        raise ValueError(f"box length must be positive, got {L}")
    return float(a2n(n + 1) / a2n(n)) * tau**2 * scale_ratio(L, params)


def term_ratio_on_grid(
    L: float,
    tau: int,
    n: int,
    params: PhysicalParams,
    points: int = 257,
) -> float:
    """Grid cross-check of :func:`term_ratio`: quotient of evaluated terms.

    Both terms are spatially constant on an exact box mode (spectral
    backend), so the quotient is read off at the point of largest |R|.
    """
    from .grid import Grid

    g = Grid.uniform(0.0, L, points)
    R = GridFunction(g, np.sin(tau * np.pi * g.points / L))
    spec = QuantumPotentialSpec(
        (QTerm.relativistic(2 * n), QTerm.relativistic(2 * n + 2))
    )
    lo = eval_q2n(R, n, params, spec).values
    hi = eval_q2n(R, n + 1, params, spec).values
    idx = int(np.argmax(np.abs(R.values)))
    return float(hi[idx] / lo[idx])


# --------------------------------------------------------------------------
# Spec files (key = value text)
# --------------------------------------------------------------------------


def _order(token: str, key: str) -> int:
    """An order written as ``token`` in config key ``key``."""
    try:
        return int(token)
    except ValueError:
        raise serialize.ConfigError(
            f"key '{key}': expected an integer order, got {token.strip()!r}"
        ) from None


def spec_from_config(cfg: Mapping[str, str]) -> tuple[QuantumPotentialSpec, PhysicalParams]:
    """Build (spec, params) from parsed key-value configuration.

    Keys: ``units`` (electron|proton|natural, default electron), ``c``
    (natural units only), ``floor``, and either ``source = relativistic``
    with ``max_order`` or an explicit ``orders`` list, or ``source =
    explicit`` with per-order coefficients ``a_<order> = <fraction>`` /
    ``A_<order> = <float>``.  Only the keys that apply are read.
    """
    units = serialize.get(cfg, "units", str, "electron")
    cval = serialize.get(cfg, "c", float, 1.0) if units == "natural" else 1.0
    params = params_by_name(units, cval)
    floor = serialize.get(cfg, "floor", float, 1e-8)
    source = serialize.get(cfg, "source", str, "relativistic")
    if source == "relativistic":
        orders = serialize.get(cfg, "orders", str, None)
        if orders is None:
            max_order = serialize.get(cfg, "max_order", int, 4)
            return QuantumPotentialSpec.relativistic(max_order, floor), params
        terms = tuple(
            QTerm.relativistic(_order(tok, "orders"))
            for tok in orders.split(",")
            if tok.strip()
        )
        return QuantumPotentialSpec(terms, floor), params
    if source != "explicit":
        raise serialize.ConfigError(f"key 'source': unknown value {source!r}")
    terms = []
    for key in cfg:
        if key.startswith("a_"):
            order = _order(key[2:], key)
            text = serialize.get(cfg, key)
            try:
                a = Fraction(text)
            except (ValueError, ZeroDivisionError):
                raise serialize.ConfigError(
                    f"key '{key}': expected a fraction, got {text!r}"
                ) from None
            terms.append(QTerm.rational(order, a))
        elif key.startswith("A_"):
            order = _order(key[2:], key)
            terms.append(QTerm.dimensional(order, serialize.get(cfg, key, float)))
    if not terms:
        raise serialize.ConfigError(
            "explicit spec needs at least one a_<order> or A_<order> key"
        )
    return QuantumPotentialSpec(tuple(terms), floor), params


def load_spec(path: str | Path) -> tuple[QuantumPotentialSpec, PhysicalParams]:
    return spec_from_config(serialize.load_config(path))

