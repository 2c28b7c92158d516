"""Stationary states and the energy shifts induced by higher-order terms.

Base eigenstates (particle in a box; the hydrogen 1s and 2s states, l = 0,
at the physical fine-structure constant ``qpotential.FINE_STRUCTURE``)
have a spatially constant phase, so first-order perturbation theory for an
order-2n term reduces to the real integral

    dE = A_{2n} * integral( R0 * lap^n R0 ) dmu,

which :func:`qpotential.expectation_operator` evaluates as the quadratic
form of the term's symbol, from :func:`qpotential.hierarchy_symbol` like
every evaluation of the hierarchy, on the power spectrum of R0.  Hydrogen
is the same 1-D Dirichlet problem as the box: its field is the reduced
radial function sqrt(4 pi) r R on [0, r_max], whose second derivative is
sqrt(4 pi) r lap R and whose square integrates to the 3-D norm.  Box modes
diagonalize the hierarchy, so the box closed forms are that symbol at k =
tau pi / L, and the levels of the linear eigenproblem with V = 0 are the
symbol plus the kinetic c2 k^2; the hydrogen closed forms are the textbook
shifts and their share inside the band.  The order-4 shift is the kinetic
relativistic correction; :func:`relativistic_reference_shift` recomputes
it through a deliberately separate code path (its own transform pair on
the shared DST-I, band cut and quadrature) as a cross-check oracle.

:func:`solve_modified_eigenproblem` solves the linear stationary equation
including the order-4 operator nonperturbatively, on the same symbol: in
the sine basis it is diagonal plus V.  With V = 0 the levels are the
diagonal itself; otherwise each unperturbed level is tracked from its sine
mode by shift-invert iteration whose solves are preconditioned MINRES on
DST-I products, so no matrix larger than the block of the lowest sine
modes is formed and no full spectrum is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .grid import DIRICHLET, Grid, GridError, GridFunction, SineTransform
from .qpotential import (
    FINE_STRUCTURE,
    PhysicalParams,
    QuantumPotentialSpec,
    QTerm,
    band_edge,
    expectation_operator,
    hierarchy_symbol,
    validate_order2,
)


@dataclass(frozen=True)
class StationaryState:
    """A normalized real eigenstate with constant phase."""

    R0: GridFunction
    E0: float
    label: str

    def __post_init__(self):
        if not self.R0.is_normalized(tol=1e-8):
            raise ValueError(f"state {self.label!r} is not normalized")


@dataclass(frozen=True)
class ShiftResult:
    """Perturbative shift vs. the independent reference path."""

    state: str
    delta_E: float
    delta_E_reference: float
    relative_gap: float


# --------------------------------------------------------------------------
# Base eigenstates
# --------------------------------------------------------------------------


def box_eigenstate(
    L: float, tau: int, grid_points: int, params: PhysicalParams
) -> StationaryState:
    """Mode tau of the box on [0, L]: R0 = sqrt(2/L) sin(tau pi x / L)."""
    if tau < 1:
        raise ValueError(f"mode index tau must be >= 1, got {tau}")
    g = Grid.uniform(0.0, L, grid_points)
    values = math.sqrt(2.0 / L) * np.sin(tau * np.pi * g.points / L)
    R0 = GridFunction(g, values).normalized()
    E0 = (tau * math.pi * params.hbar / L) ** 2 / (2.0 * params.mass)
    return StationaryState(R0=R0, E0=E0, label=f"box tau={tau}")


def bohr_radius(params: PhysicalParams) -> float:
    """a = hbar / (m c alpha) with alpha = ``FINE_STRUCTURE``."""
    return params.hbar / (params.mass * params.c * FINE_STRUCTURE)


def hydrogen_default_grid(params: PhysicalParams, points: int = 4096) -> Grid:
    """Dirichlet grid on [0, 40 a] for the reduced radial field: ``points``
    radii at r > 0 plus the wall node at r = 0.

    Its sine modes must reach the band edge m c / hbar (pi points / 40 a
    >= m c / hbar, 1745 radii at the physical alpha), else the band
    projection would cut modes the grid does not have; a coarser grid
    raises GridError naming the minimum.
    """
    a = bohr_radius(params)
    r_max = 40.0 * a
    band = band_edge(params)
    if math.pi * points / r_max < band:
        need = math.ceil(band * r_max / math.pi)
        raise GridError(
            f"{points} radii on [0, 40 a] do not resolve the band edge m c / hbar; "
            f"at least {need} are needed"
        )
    return Grid.uniform(0.0, r_max, points + 1)


def hydrogen_radial_state(
    n: int, params: PhysicalParams, grid: Grid | None = None
) -> StationaryState:
    """Analytic hydrogen s state (n = 1 or 2) as its reduced radial field
    sqrt(4 pi) r R(r), normalized on a Dirichlet grid that starts at r = 0."""
    if n not in (1, 2):
        raise ValueError(f"unsupported state n={n}: only 1s and 2s")
    if grid is None:
        grid = hydrogen_default_grid(params)
    if grid.boundary != DIRICHLET or grid.points[0] != 0.0:
        raise GridError("hydrogen states need a Dirichlet grid starting at r = 0")
    a = bohr_radius(params)
    r = grid.points
    if n == 1:
        R = np.exp(-r / a) / math.sqrt(math.pi * a**3)
    else:
        R = (2.0 - r / a) * np.exp(-r / (2.0 * a)) / math.sqrt(32.0 * math.pi * a**3)
    R0 = GridFunction(grid, math.sqrt(4.0 * math.pi) * r * R).normalized()
    E0 = -0.5 * params.rest_energy * FINE_STRUCTURE**2 / n**2
    return StationaryState(R0=R0, E0=E0, label=f"hydrogen {n}s")


# --------------------------------------------------------------------------
# Perturbative shifts
# --------------------------------------------------------------------------


def _shift_term(order: int, spec: QuantumPotentialSpec | None) -> QTerm:
    """The spec's order-``order`` term, else the relativistic one."""
    if order < 0 or order % 2 != 0:
        raise ValueError(f"order must be even and >= 0, got {order}")
    if spec is not None and spec.has_order(order):
        return spec.term(order)
    return QTerm.relativistic(order)


def perturbative_shift(
    state: StationaryState,
    order: int,
    params: PhysicalParams,
    spec: QuantumPotentialSpec | None = None,
) -> float:
    """First-order shift from the order-``order`` term: the quadratic form
    of its symbol on the state.

    The coefficient comes from the spec's matching term when given, else
    from the relativistic coefficient family.
    """
    term = QuantumPotentialSpec((_shift_term(order, spec),))
    return expectation_operator(state.R0.grid, params, term)(state.R0.values)


def relativistic_reference_shift(state: StationaryState, params: PhysicalParams) -> float:
    """Kinetic relativistic correction -<p^4>/(8 m^3 c^2) for constant-phase
    states, computed with code independent of the potential-evaluation path.
    """
    band = params.mass * params.c / params.hbar
    lap = _reference_laplacian(state.R0, band)
    integral = np.trapezoid(lap**2, state.R0.grid.points)
    return float(-(params.hbar**4) / (8.0 * params.mass**3 * params.c**2) * integral)


def _reference_laplacian(f: GridFunction, band: float) -> np.ndarray:
    """Second derivative by its own DST-I pair, with the sine modes above
    ``band`` cut."""
    g = f.grid
    if g.boundary != DIRICHLET:
        raise GridError("reference shift supports Dirichlet grids only")
    interior = f.values[1:-1]
    m = interior.size
    length = float(g.points[-1] - g.points[0])
    sine = SineTransform(m)
    coef = sine(interior, sine.ortho)
    k = np.arange(1, m + 1) * np.pi / length
    coef[k > band] = 0.0
    out = np.zeros(g.n)
    sine(-(k**2) * coef, sine.ortho, out=out[1:-1])
    return out


def compare_shifts(
    state: StationaryState,
    params: PhysicalParams,
    spec: QuantumPotentialSpec | None = None,
) -> ShiftResult:
    """Order-4 shift through both code paths, with their relative gap."""
    de = perturbative_shift(state, 4, params, spec)
    ref = relativistic_reference_shift(state, params)
    gap = abs(de - ref) / abs(ref) if ref != 0 else math.inf
    return ShiftResult(state.label, de, ref, gap)


def box_shift_closed_form(
    L: float,
    tau: int,
    order: int,
    params: PhysicalParams,
    spec: QuantumPotentialSpec | None = None,
) -> float:
    """Exact first-order shift for a box mode: the term's
    :func:`qpotential.hierarchy_symbol` at k = tau pi / L.

    The sine mode is an exact eigenfunction of every Laplacian power
    (lap^n R0 = (-k^2)^n R0), so the order-2n shift is A_2n (-k^2)^n with
    the term's dimensional coefficient.  For the relativistic family this
    equals a_2n eps0 (pc/eps0)^2n — the matching term of the energy
    expansion with pc = tau pi hbar c / L — inside the band, and zero for
    an order >= 2 above it, where that expansion diverges.
    """
    if tau < 1:
        raise ValueError(f"mode index tau must be >= 1, got {tau}")
    term = QuantumPotentialSpec((_shift_term(order, spec),))
    return float(hierarchy_symbol(term, params, tau * math.pi / L))


def hydrogen_shift_closed_form(n: int, params: PhysicalParams) -> float:
    """Textbook momentum-quartic correction for s states:
    -eps0 alpha^4 / (2 n^4) * (2n - 3/4); -5/8 eps0 alpha^4 for 1s,
    -13/128 eps0 alpha^4 for 2s."""
    if n not in (1, 2):
        raise ValueError(f"unsupported principal quantum number {n}: only 1 or 2")
    return -params.rest_energy * FINE_STRUCTURE**4 / (2.0 * n**4) * (2.0 * n - 0.75)


# Antiderivatives of the band integrands of :func:`hydrogen_band_fraction`,
# sin^6 (1s) and 64 sin^6 cos^2 2theta (2s), as (coefficient of theta,
# coefficients of sin 2theta, sin 4theta, ...).
_BAND_ANTIDERIVATIVES = {
    1: (5.0 / 16.0, (-15.0 / 64.0, 3.0 / 64.0, -1.0 / 192.0)),
    2: (13.0, (-23.0 / 2.0, 4.0, -17.0 / 12.0, 3.0 / 8.0, -1.0 / 20.0)),
}


def hydrogen_band_fraction(n: int) -> float:
    """Share of <p^4> inside the band |k| <= m c / hbar for the 1s or 2s
    state, a function of alpha alone: the projected order-4 shift is
    :func:`hydrogen_shift_closed_form` times it.

    <p^4> integrates k^6 |phi(k)|^2 dk, with |phi|^2 proportional to
    (1 + x^2)^-4 for 1s (x = k a) and to (x^2 - 1)^2 (1 + x^2)^-6 for 2s
    (x = 2 k a); the band is x <= n / alpha.  With x = tan(theta) the
    integrands become sin^6 theta and sin^6 theta cos^2 2 theta.  The tail
    above the band is O(alpha): 1.4865e-2 (1s), 1.1435e-2 (2s).
    """
    if n not in _BAND_ANTIDERIVATIVES:
        raise ValueError(f"unsupported principal quantum number {n}: only 1 or 2")
    linear, harmonics = _BAND_ANTIDERIVATIVES[n]

    def antiderivative(theta: float) -> float:
        return linear * theta + sum(
            c * math.sin(2 * j * theta) for j, c in enumerate(harmonics, start=1)
        )

    return antiderivative(math.atan(n / FINE_STRUCTURE)) / antiderivative(math.pi / 2)


# --------------------------------------------------------------------------
# Nonperturbative linear eigenproblem
# --------------------------------------------------------------------------

_MAX_TRACKING_ITERATIONS = 30
# Each tracking step solves (H - lam) z = y only to this residual, relative
# to |y|, in at most this many iterations: the Rayleigh quotient, not the
# inner solve, carries the accuracy.
_INNER_RTOL = 1e-2
_MAX_INNER_ITERATIONS = 200


def _minres(
    apply: Callable[[np.ndarray], np.ndarray],
    precondition: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
) -> np.ndarray:
    """x with apply(x) ~ b for a symmetric, possibly indefinite ``apply``:
    MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12 (1975) 617) with the
    symmetric positive definite ``precondition``, from x = 0 until
    |b - apply(x)| <= ``_INNER_RTOL`` |b|.

    The residual is updated alongside x, at no extra ``apply``.  It is
    judged in the plain norm, not the preconditioner's: near an eigenvalue
    the preconditioner weighs one direction so heavily that its norm would
    accept x ~ precondition(b) and leave the rest of the residual as it is.
    """
    x = np.zeros_like(b)
    w = w_prev = Aw = Aw_prev = np.zeros_like(b)
    residual = b.copy()
    r = r_prev = b
    z = precondition(b)
    beta = beta0 = math.sqrt(float(b @ z))
    beta_prev = dbar = eps_next = 0.0
    cs, sn, phibar = -1.0, 0.0, beta0
    stop = _INNER_RTOL * float(np.linalg.norm(b))
    for it in range(_MAX_INNER_ITERATIONS):
        # Lanczos step: the next basis vector v and the tridiagonal alpha, beta
        v = z / beta
        Av = apply(v)
        y = Av - (beta / beta_prev) * r_prev if it else Av.copy()
        alpha = float(v @ y)
        y -= (alpha / beta) * r
        r_prev, r = r, y
        z = precondition(r)
        beta_prev, beta = beta, math.sqrt(float(r @ z))
        # the previous Givens rotation on the new column, then the next one
        eps_prev, delta = eps_next, cs * dbar + sn * alpha
        gbar = sn * dbar - cs * alpha
        eps_next, dbar = sn * beta, -cs * beta
        gamma = math.hypot(gbar, beta)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w_prev, w = w, (v - eps_prev * w_prev - delta * w) / gamma
        Aw_prev, Aw = Aw, (Av - eps_prev * Aw_prev - delta * Aw) / gamma
        x += phi * w
        residual -= phi * Aw
        if np.linalg.norm(residual) <= stop:
            break
    return x


class _ProjectedOperator:
    """H = S diag(d) S + diag(V) on the interior nodes, held in the sine
    basis: c -> d c + S (V S c), where sine mode j is the unit vector e_j.

    ``precondition(r, lam)`` approximates |H - lam|^-1: exactly on the
    Galerkin block B of H on the ``low`` lowest modes (|B - lam|^-1 through
    B's eigendecomposition, done once, on first use) and by
    1 / |d_j + mean(V) - lam| above them.
    """

    def __init__(self, d: np.ndarray, V: np.ndarray, low: int):
        self.d, self.V, self.low = d, V, low
        self.h_max = float(np.max(np.abs(d)) + np.max(np.abs(V)))
        self._above = d[low:] + float(np.mean(V))
        self._sine = SineTransform(d.size)

    def __call__(self, c: np.ndarray) -> np.ndarray:
        return self.d * c + self.transform(self.V * self.transform(c))

    def transform(self, c: np.ndarray) -> np.ndarray:
        """S c: the orthonormal DST-I, which is its own inverse."""
        return self._sine(c, self._sine.ortho)

    @cached_property
    def _block(self) -> tuple[np.ndarray, np.ndarray]:
        m = self.d.size
        modes = np.outer(np.arange(1, m + 1) * (np.pi / (m + 1)), np.arange(1, self.low + 1))
        np.sin(modes, out=modes)
        modes *= math.sqrt(2.0 / (m + 1))
        B = modes.T @ (self.V[:, None] * modes)
        B[np.diag_indices(self.low)] += self.d[: self.low]
        return np.linalg.eigh(B)

    def precondition(self, r: np.ndarray, lam: float) -> np.ndarray:
        floor = np.finfo(float).eps * self.h_max
        levels, Q = self._block
        out = np.empty_like(r)
        low = self.low
        out[:low] = Q @ ((r[:low] @ Q) / np.maximum(np.abs(levels - lam), floor))
        out[low:] = r[low:] / np.maximum(np.abs(self._above - lam), floor)
        return out


def _track_level(H: _ProjectedOperator, tau: int, tol: float) -> tuple[float, np.ndarray]:
    """Eigenpair of H continuing sine mode ``tau`` (the unit vector
    e_tau of the sine basis).

    Rayleigh-quotient iteration from e_tau, each step one inexact
    shift-invert solve by :func:`_minres` with H shifted by the current
    Rayleigh quotient, until the residual |H y - lam y| is at most ``tol``.
    The result is accepted only when y_tau^2 > 1/2: eigenvectors are
    orthonormal, so at most one of them can overlap a unit vector that
    much.  It is then the eigenvector of largest overlap, and distinct
    modes can never select the same one.  Returns (lam, y) with y_tau > 0.
    """
    y = np.zeros(H.d.size)
    y[tau - 1] = 1.0
    for _ in range(_MAX_TRACKING_ITERATIONS):
        Hy = H(y)
        lam = float(y @ Hy)
        residual = float(np.linalg.norm(Hy - lam * y))
        if residual <= tol:
            break
        z = _minres(lambda v: H(v) - lam * v, lambda r: H.precondition(r, lam), y)
        y = z / np.linalg.norm(z)
    overlap = float(y[tau - 1])
    if residual > tol or overlap**2 <= 0.5:
        raise RuntimeError(
            f"no continuation of mode tau={tau}: overlap^2 {overlap**2:.3g} with "
            f"the sine mode (needs > 0.5), residual {residual:.3g} (tol {tol:.3g})"
        )
    return lam, math.copysign(1.0, overlap) * y


def solve_modified_eigenproblem(
    V: GridFunction,
    spec: QuantumPotentialSpec,
    params: PhysicalParams,
    count: int,
) -> list[tuple[float, GridFunction]]:
    """Eigenpairs of  -hbar^2/2m lap + A4 lap^2 + V (+ A0)  for the first
    ``count`` modes, tracked by mode rather than sorted by energy.

    With the relativistic A4 < 0 the truncated quartic operator is
    unbounded below: modes beyond k* = sqrt(c2/|A4|) ~ mc/hbar dive to
    large negative energies, so "the lowest eigenvalues" is dominated by
    unphysical short-wavelength artifacts of the truncation.  What is
    well defined is the continuation of each unperturbed level, so the
    solver returns modes tau = 1..count.

    On the interior nodes the operator is H = S diag(d) S + diag(V), with S
    the orthonormal DST-I and d = sigma + c2 k^2 at the sine modes k_j = j
    pi / L: sigma from :func:`qpotential.hierarchy_symbol` for the spec's
    orders 0 and 4 (its order 2 is the kinetic c2 k^2, which acts at every
    mode).  With V identically zero the sine modes diagonalize H and the
    levels are d.
    Otherwise each level is tracked from its sine mode by shift-invert
    (Rayleigh-quotient) iteration with inexact preconditioned MINRES solves,
    to a residual of 64 eps (max|d| + max|V|); the eigenvector is accepted
    only when its squared overlap with the normalized sine mode exceeds
    1/2, which makes it the unique eigenvector of largest overlap.  A level
    with no such continuation (for example when V mixes the sine modes
    strongly) raises RuntimeError naming tau.  Eigenfunctions are
    normalized over the grid measure and signed so that their overlap with
    the sine mode is positive.
    """
    g = V.grid
    if g.boundary != DIRICHLET:
        raise GridError("eigenproblem requires a Dirichlet grid")
    m = g.n - 2
    if count < 1 or count > m:
        raise ValueError(f"count must be in [1, {m}], got {count}")
    validate_order2(spec, params)
    if spec.truncation_order > 4:
        raise ValueError(
            f"the eigensolver caps at order 4; spec has order {spec.truncation_order}"
        )
    k = g.modes
    d = hierarchy_symbol(spec.without_order(2), params, k)
    d += params.hbar**2 / (2.0 * params.mass) * k**2
    if not np.any(V.values):
        x = g.points - g.points[0]
        modes = [np.sin(tau * np.pi * x / g.length) for tau in range(1, count + 1)]
        return [(float(e), GridFunction(g, mode).normalized()) for e, mode in zip(d, modes)]
    H = _ProjectedOperator(d, V.values[1:-1], min(m, max(64, 4 * count)))
    tol = 64.0 * np.finfo(float).eps * H.h_max
    out = []
    for tau in range(1, count + 1):
        energy, coef = _track_level(H, tau, tol)
        full = np.zeros(g.n)
        full[1:-1] = H.transform(coef)
        out.append((energy, GridFunction(g, full).normalized()))
    return out
