"""Stationary states and the energy shifts induced by higher-order terms.

Base eigenstates (particle in a box; the hydrogen 1s and 2s radial
states, l = 0, at the physical fine-structure constant
``qpotential.FINE_STRUCTURE``) have a spatially constant phase, so
first-order perturbation theory for an order-2n term reduces to the real
integral

    dE = A_{2n} * integral( R0 * lap^n R0 ) dmu,

evaluated by :func:`qpotential.expectation` in the Hermitian split form,
projected onto the band |k| <= m c / hbar like every evaluation of the
hierarchy.  Box modes diagonalize every Laplacian power, so the box closed
forms (band-limited the same way) and the spectral eigenvalues are
``grid.laplacian_symbol`` at k = tau pi / L.  The
order-4 shift is the kinetic relativistic correction;
:func:`relativistic_reference_shift` recomputes it through a deliberately
separate code path (its own transforms, stencils and quadrature) as a
cross-check oracle.

:func:`solve_modified_eigenproblem` solves the linear stationary equation
including the order-4 operator nonperturbatively.  Its finite-difference
path assembles the 9-banded operator in LAPACK band storage and tracks
each unperturbed level from its sine mode by shift-invert iteration with
banded solves; no dense matrix is formed and no full spectrum is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .grid import (
    DIRICHLET,
    RADIAL_LOG,
    UNIFORM,
    Grid,
    GridError,
    GridFunction,
    laplacian_symbol,
)
from .qpotential import (
    FINE_STRUCTURE,
    PhysicalParams,
    QuantumPotentialSpec,
    QTerm,
    band_edge,
    dimensional_coefficient,
    expectation,
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


def hydrogen_default_grid(params: PhysicalParams, points: int = 2048) -> Grid:
    """Log-radial grid resolving the cusp region: r in [1e-4 a, 50 a]."""
    a = bohr_radius(params)
    return Grid.radial_log(1e-4 * a, 50.0 * a, points)


def hydrogen_radial_state(
    n: int, params: PhysicalParams, grid: Grid | None = None
) -> StationaryState:
    """Analytic hydrogen s states (n = 1 or 2) on a radial grid."""
    if n not in (1, 2):
        raise ValueError(f"unsupported state n={n}: only 1s and 2s")
    if grid is None:
        grid = hydrogen_default_grid(params)
    if grid.kind != RADIAL_LOG:
        raise GridError("hydrogen states require a radial-log grid")
    a = bohr_radius(params)
    r = grid.points
    if n == 1:
        values = np.exp(-r / a) / math.sqrt(math.pi * a**3)
    else:
        values = (2.0 - r / a) * np.exp(-r / (2.0 * a)) / math.sqrt(32.0 * math.pi * a**3)
    R0 = GridFunction(grid, values).normalized()
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
    """First-order shift from the order-``order`` term, Hermitian split form.

    The coefficient comes from the spec's matching term when given, else
    from the relativistic coefficient family.
    """
    term = QuantumPotentialSpec((_shift_term(order, spec),))
    return expectation(state.R0, params, term)


def relativistic_reference_shift(state: StationaryState, params: PhysicalParams) -> float:
    """Kinetic relativistic correction -<p^4>/(8 m^3 c^2) for constant-phase
    states, computed with code independent of the potential-evaluation path.
    """
    lap = _reference_laplacian(state.R0)
    g = state.R0.grid
    if g.kind == RADIAL_LOG:
        integral = np.trapezoid(lap**2 * 4.0 * np.pi * g.points**2, g.points)
    else:
        integral = np.trapezoid(lap**2, g.points)
    return float(-(params.hbar**4) / (8.0 * params.mass**3 * params.c**2) * integral)


# One-sided 4th-order stencils for the reference path, written out explicitly
# (the main grid module generates its weights; keeping these literal makes the
# two paths independent).
_REF_D1_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_REF_D1_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
_REF_D2_EDGE0 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0
_REF_D2_EDGE1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / 12.0


def _reference_laplacian(f: GridFunction) -> np.ndarray:
    g = f.grid
    if g.kind == UNIFORM and g.boundary == DIRICHLET:
        interior = f.values[1:-1]
        m = interior.size
        length = float(g.points[-1] - g.points[0])
        coef = scipy.fft.dst(interior, type=1, norm="ortho")
        k = np.arange(1, m + 1) * np.pi / length
        out = np.zeros(g.n)
        out[1:-1] = scipy.fft.idst(-(k**2) * coef, type=1, norm="ortho")
        return out
    if g.kind != RADIAL_LOG:
        raise GridError("reference shift supports uniform Dirichlet and radial grids")
    r = g.points
    u = r * f.values
    dt = math.log(r[1] / r[0])
    n = u.size
    u_t = np.empty(n)
    u_tt = np.empty(n)
    u_t[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * dt)
    u_tt[2:-2] = (
        -u[:-4] + 16.0 * u[1:-3] - 30.0 * u[2:-2] + 16.0 * u[3:-1] - u[4:]
    ) / (12.0 * dt**2)
    u_t[0] = np.dot(_REF_D1_EDGE0, u[:5]) / dt
    u_t[1] = np.dot(_REF_D1_EDGE1, u[:5]) / dt
    u_t[-1] = -np.dot(_REF_D1_EDGE0, u[-5:][::-1]) / dt
    u_t[-2] = -np.dot(_REF_D1_EDGE1, u[-5:][::-1]) / dt
    u_tt[0] = np.dot(_REF_D2_EDGE0, u[:6]) / dt**2
    u_tt[1] = np.dot(_REF_D2_EDGE1, u[:6]) / dt**2
    u_tt[-1] = np.dot(_REF_D2_EDGE0, u[-6:][::-1]) / dt**2
    u_tt[-2] = np.dot(_REF_D2_EDGE1, u[-6:][::-1]) / dt**2
    return (u_tt - u_t) / r**3


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
    """Exact first-order shift for a box mode.

    The sine mode is an exact eigenfunction of every Laplacian power
    (lap^n R0 = (-k^2)^n R0, k = tau pi / L), so the order-2n shift is
    A_2n (-k^2)^n with the term's dimensional coefficient.  For the
    relativistic family this equals a_2n eps0 (pc/eps0)^2n — the matching
    term of the energy expansion with pc = tau pi hbar c / L.  Like
    :func:`qpotential.expectation`, it is zero for an order >= 2 and a mode
    above the band edge k = m c / hbar, where that expansion diverges; the
    order-0 term is no Laplacian power and is never projected.
    """
    if tau < 1:
        raise ValueError(f"mode index tau must be >= 1, got {tau}")
    A = dimensional_coefficient(_shift_term(order, spec), params)
    k = tau * math.pi / L
    if order and k > band_edge(params):
        return 0.0
    return float(laplacian_symbol({order // 2: A}, k))


def hydrogen_shift_closed_form(n: int, params: PhysicalParams) -> float:
    """Textbook momentum-quartic correction for s states:
    -eps0 alpha^4 / (2 n^4) * (2n - 3/4); -5/8 eps0 alpha^4 for 1s,
    -13/128 eps0 alpha^4 for 2s."""
    if n not in (1, 2):
        raise ValueError(f"unsupported principal quantum number {n}: only 1 or 2")
    return -params.rest_energy * FINE_STRUCTURE**4 / (2.0 * n**4) * (2.0 * n - 0.75)


# --------------------------------------------------------------------------
# Nonperturbative linear eigenproblem
# --------------------------------------------------------------------------

# Half-bandwidth of the assembled operator: the 4th-order stencil reaches
# two nodes, its square four.
_BAND = 4
_MAX_TRACKING_ITERATIONS = 30


def _operator_coefficients(
    spec: QuantumPotentialSpec, params: PhysicalParams
) -> dict[int, float]:
    """{n: c_n} of the assembled operator sum c_n lap^n, c_1 = -hbar^2/2m;
    validates the order cap and that any order-2 term matches c_1 exactly."""
    validate_order2(spec, params)
    top = spec.truncation_order
    if top > 4:
        raise ValueError(f"assembled-matrix path caps at order 4; spec has order {top}")
    coeffs = {t.order // 2: dimensional_coefficient(t, params) for t in spec.terms}
    return {0: 0.0, 2: 0.0, **coeffs, 1: -params.hbar**2 / (2.0 * params.mass)}


def _banded_operator(g: Grid, coeffs: dict[int, float], V_int: np.ndarray) -> np.ndarray:
    """c_1 M2 + c_2 M2^2 + diag(V_int) + c_0 on the interior nodes, in LAPACK
    band storage with ``_BAND`` sub- and superdiagonals:
    ``ab[_BAND + i - j, j] = H[i, j]`` (the layout of
    ``scipy.linalg.solve_banded``).

    M2 is the 4th-order Laplacian stencil with zero walls; the ghost node
    across a wall reflects to minus the first interior node, which adds 1
    to the corner diagonal entries.  M2^2 is formed diagonal by diagonal.
    This is the unprojected operator: unlike the spectral path of
    :func:`solve_modified_eigenproblem`, it applies no band limit.
    """
    m = g.n - 2
    M2 = np.zeros((5, m))  # the same layout: M2[2 + i - j, j]
    for d, w in ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0)):
        M2[2 - d, max(0, d) : m + min(0, d)] = w
    M2[2, 0] += 1.0
    M2[2, m - 1] += 1.0
    M2 /= 12.0 * g.spacing**2
    ab = np.zeros((2 * _BAND + 1, m))
    ab[_BAND - 2 : _BAND + 3] = coeffs[1] * M2
    # (M2 M2)[i, j] = sum_k M2[i, k] M2[k, j] with k - i = a, j - k = b
    for a in range(-2, 3):
        for b in range(-2, 3):
            lo, hi = max(0, b), m + min(0, b)
            ab[_BAND - a - b, lo:hi] += (
                coeffs[2] * M2[2 - a, lo - b : hi - b] * M2[2 - b, lo:hi]
            )
    ab[_BAND] += V_int + coeffs[0]
    return ab


def _track_level(
    ab: np.ndarray, target: np.ndarray, tol: float, tau: int
) -> tuple[float, np.ndarray]:
    """Eigenpair of the banded H continuing the unit vector ``target``.

    Rayleigh-quotient iteration from the target, each step one banded
    solve with H shifted by the current Rayleigh quotient, until the
    residual |H y - lam y| is at most ``tol``.  The result is accepted only
    when (y . target)^2 > 1/2: eigenvectors are orthonormal, so at most one
    of them can overlap a unit vector that much.  It is then the
    eigenvector of largest overlap, and distinct (orthogonal) targets can
    never select the same one.  Returns (lam, y) with y . target > 0.
    """
    m = target.size
    y = target
    for _ in range(_MAX_TRACKING_ITERATIONS):
        Hy = scipy.linalg.blas.dgbmv(m, m, _BAND, _BAND, 1.0, ab, y)
        lam = float(y @ Hy)
        residual = float(np.linalg.norm(Hy - lam * y))
        if residual <= tol:
            break
        shifted = ab.copy()
        shifted[_BAND] -= lam
        z = scipy.linalg.solve_banded((_BAND, _BAND), shifted, y, check_finite=False)
        y = z / np.linalg.norm(z)
    overlap = float(y @ target)
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
    well defined is the continuation of each unperturbed level, so both
    paths return modes tau = 1..count.

    V picks the path.  With V identically zero the sine modes diagonalize
    the operator exactly (spectral path), projected onto the band like
    :func:`box_shift_closed_form`: above k = m c / hbar the order >= 4 terms
    vanish.  Otherwise the finite-difference operator, the unprojected
    one, is assembled in band storage and each level is tracked from
    its sine mode by shift-invert (Rayleigh-quotient) iteration; the
    eigenvector is accepted only when its squared overlap
    with the normalized sine mode exceeds 1/2, which makes it the unique
    eigenvector of largest overlap.  A level with no such continuation (for
    example when V mixes the sine modes strongly) raises RuntimeError
    naming tau.  Eigenfunctions are normalized over the grid measure and
    signed so that their overlap with the sine mode is positive.
    """
    g = V.grid
    if g.kind != UNIFORM or g.boundary != DIRICHLET:
        raise GridError("eigenproblem requires a uniform Dirichlet grid")
    if count < 1 or count > g.n - 2:
        raise ValueError(f"count must be in [1, {g.n - 2}], got {count}")
    coeffs = _operator_coefficients(spec, params)
    L = g.length
    x0 = float(g.points[0])
    if not np.any(V.values):
        k = np.arange(1, count + 1) * np.pi / L
        above_band = {n: c for n, c in coeffs.items() if n <= 1}  # orders 0, 2
        energies = np.where(
            k > band_edge(params),
            laplacian_symbol(above_band, k),
            laplacian_symbol(coeffs, k),
        )
        modes = [np.sin(tau * np.pi * (g.points - x0) / L) for tau in range(1, count + 1)]
        return [
            (float(e), GridFunction(g, mode).normalized())
            for e, mode in zip(energies, modes)
        ]
    ab = _banded_operator(g, coeffs, V.values[1:-1])
    h_max = float(np.max(np.abs(ab)))
    m = ab.shape[1]
    for d in range(1, _BAND + 1):
        # superdiagonal d, H[i, i + d], against subdiagonal d, H[i + d, i]
        asym = np.max(np.abs(ab[_BAND - d, d:] - ab[_BAND + d, : m - d]))
        if asym > 1e-12 * max(1.0, h_max):
            raise RuntimeError(f"non-symmetric operator assembly (defect {asym:g})")
    tol = 64.0 * np.finfo(float).eps * h_max
    x_int = g.points[1:-1] - x0
    out = []
    for tau in range(1, count + 1):
        target = np.sin(tau * np.pi * x_int / L)
        energy, vec = _track_level(ab, target / np.linalg.norm(target), tol, tau)
        full = np.zeros(g.n)
        full[1:-1] = vec
        out.append((energy, GridFunction(g, full).normalized()))
    return out
