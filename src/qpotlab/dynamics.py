"""Time evolution under the modified nonlinear wave equation.

The evolution is

    i hbar dpsi/dt = ( -hbar^2/2m lap + V + W[|psi|] ) psi,

where W collects every potential-family term except the order-2 one (that
term *is* the kinetic operator: for the amplitude R = |psi| the Bohmian
term reproduces -hbar^2/2m lap acting through the polar decomposition).
Since W depends on |psi| the equation is nonlinear whenever any order
other than 0 and 2 is present.

Integration is Strang splitting: half-step phase rotation by V + W, full
kinetic step, then the closing half-step rotation by V + W with W
evaluated from the updated amplitude.  A phase rotation leaves |psi|
unchanged, so that closing W is also the next step's opening W: a run of
N steps evaluates W N + 1 times, and the closing half-rotation of one step
and the opening one of the next are applied as one full rotation
exp(-i (V + W) dt / hbar) (Bao, Jin & Markowich, J. Comput. Phys. 175
(2002) 487).  The rotation is split into its two halves only at stored
frames, so a stored frame is psi after the closing half-rotation.  Each
rotation is cos + i sin of one real phase, bit for bit the complex
exponential (:func:`_phase_rotation`).  The finite-value and norm checks
run on psi after every step's rotation.
Rotations by a real W and the unitary kinetic step conserve the norm to
roundoff.

The grid's boundary picks the kinetic step, and nothing else can: the
Fourier exponential (:data:`SPLIT_STEP`) on periodic grids, unitary
Crank-Nicolson (:data:`CRANK_NICOLSON`) on Dirichlet grids, where psi is
zeroed at both ends before the first step.  The two names are only the
labels a run reports.

Near wavefunction nodes the higher-order terms diverge; they are zeroed
below the amplitude floor and clamped at the fixed cap
1e3 * eps0 * (lambda_c/L)^4, with clamp events counted and reported.

:func:`evolve` returns every stored frame, and its ``on_frame`` callback
also receives each one, with its step and time, as soon as the loop has
made it.  The CLI hands frames to its frame writer this way, so that they
are formatted while the loop goes on; the callback changes no number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

from . import kernels
from .grid import (
    DIRICHLET,
    PERIODIC,
    UNIFORM,
    Grid,
    GridError,
    GridFunction,
    gradient,
    integrate,
)
from .qpotential import (
    PhysicalParams,
    QuantumPotentialSpec,
    dimensional_coefficient,
    eval_complete_q,
    expectation,
    validate_order2,
)

SPLIT_STEP = "split-step-spectral"
CRANK_NICOLSON = "crank-nicolson-fd"

# Guidance velocities are zeroed where |psi| <= VELOCITY_FLOOR * max|psi|.
VELOCITY_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class WaveField:
    """A complex field psi on a grid; R = |psi| and the phase derive from it."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.points.shape:
            raise GridError("wave field length does not match its grid")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_amplitude(cls, R: GridFunction, phase: float = 0.0) -> "WaveField":
        return cls(R.grid, R.values * np.exp(1j * phase))

    @classmethod
    def gaussian(
        cls, grid: Grid, center: float, width: float, k0: float = 0.0
    ) -> "WaveField":
        """Normalized packet exp(-(x-c)^2/(4 w^2) + i k0 x); w is the
        position standard deviation of |psi|^2."""
        x = grid.points
        vals = np.exp(-((x - center) ** 2) / (4.0 * width**2) + 1j * k0 * x)
        return cls(grid, vals).normalized()

    def amplitude(self) -> GridFunction:
        return GridFunction(self.grid, np.abs(self.values))

    def normalized(self) -> "WaveField":
        n = norm(self)
        if n <= 0:
            raise GridError("cannot normalize a zero field")
        return WaveField(self.grid, self.values / math.sqrt(n))


def norm(psi: WaveField) -> float:
    """Integral of |psi|^2 over the grid measure."""
    return integrate(GridFunction(psi.grid, np.abs(psi.values) ** 2))


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    steps: int
    store_every: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.store_every < 1:
            raise ValueError("store_every must be >= 1")


@dataclass
class EvolutionResult:
    """Stored frames plus per-frame diagnostics and the clamp-event count,
    summed over the steps + 1 W evaluations of the run."""

    frames: list[WaveField]
    times: np.ndarray
    step_indices: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    clamp_count: int


def _method(g: Grid) -> str:
    """Laplacian backend of the evolution: the grid's Fourier transform on
    periodic grids, and on Dirichlet ones finite differences, the one
    override of the grid's rule (see :func:`grid.laplacian_series`)."""
    return "spectral" if g.boundary == PERIODIC else "fd"


class _ExtraPotential:
    """Evaluator for W = sum of non-kinetic terms, with floor and clamp.

    The clamp guards against the near-node divergence of the quotient
    terms (order >= 4); the constant order-0 term is a bounded global
    phase and is added after clamping.
    """

    def __init__(self, grid, spec, params, q_cap):
        self.grid = grid
        self.params = params
        self.q_cap = q_cap
        self.constant = sum(
            dimensional_coefficient(t, params) for t in spec.terms if t.order == 0
        )
        self.spec = spec.without_order(0).without_order(2)
        self.method = _method(grid)

    def __call__(self, absvals: np.ndarray) -> tuple[np.ndarray, int]:
        if not self.spec.terms:
            return np.full(self.grid.n, self.constant), 0
        Rf = GridFunction(self.grid, absvals)
        spikes = eval_complete_q(Rf, self.params, self.spec, self.method).values
        clamps = int(np.count_nonzero(np.abs(spikes) > self.q_cap))
        if clamps:
            spikes = np.clip(spikes, -self.q_cap, self.q_cap)
        return self.constant + spikes, clamps


class _KineticStep:
    """Full-dt kinetic propagator of a uniform grid: the Fourier exponential
    on periodic grids, Crank-Nicolson on Dirichlet ones."""

    def __init__(self, grid: Grid, params: PhysicalParams, dt: float):
        c2 = params.hbar**2 / (2.0 * params.mass)
        self.periodic = grid.boundary == PERIODIC
        if self.periodic:
            self.phase = np.exp(-1j * (c2 * grid.wavenumbers**2 / params.hbar) * dt)
            return
        m = grid.n - 2
        h = grid.spacing
        alpha = 1j * dt / (2.0 * params.hbar)
        self.h_diag = -c2 * (-2.0 / h**2)
        self.h_off = -c2 * (1.0 / h**2)
        off = np.full(m - 1, alpha * self.h_off, np.complex128)
        self.factors = kernels.factor_tridiagonal(
            off, np.full(m, 1.0 + alpha * self.h_diag, np.complex128), off
        )
        self.alpha = alpha

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        if self.periodic:
            return scipy.fft.ifft(scipy.fft.fft(psi) * self.phase)
        inner_vals = psi[1:-1]
        rhs = (1.0 - self.alpha * self.h_diag) * inner_vals
        rhs[1:] -= self.alpha * self.h_off * inner_vals[:-1]
        rhs[:-1] -= self.alpha * self.h_off * inner_vals[1:]
        out = np.zeros_like(psi)
        out[1:-1] = kernels.solve_tridiagonal(self.factors, rhs)
        return out


def _phase_rotation(potential: np.ndarray, scale: float) -> np.ndarray:
    """exp(-1j * potential * scale), bit for bit, as cos + i sin of one real
    phase written into the real and imaginary views of one complex buffer.

    The complex product leaves a +0.0 phase where potential * scale is zero,
    so theta += 0.0 turns -0.0 into +0.0 before sin keeps its sign.
    """
    theta = potential * -scale
    theta += 0.0
    rot = np.empty(theta.shape, np.complex128)
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    return rot


def evolve(
    psi0: WaveField,
    V: GridFunction,
    spec: QuantumPotentialSpec,
    params: PhysicalParams,
    cfg: EvolutionConfig,
    *,
    on_frame: Callable[[int, float, WaveField], None] | None = None,
) -> EvolutionResult:
    """Propagate psi0 for cfg.steps steps of cfg.dt, storing every
    ``store_every``-th frame (plus the initial and final ones).

    ``on_frame(step, time, frame)`` is called with each stored frame as
    soon as the loop has made it, so a caller can write frames while the
    loop goes on; an exception it raises stops the run.

    Aborts with RuntimeError on NaN/overflow or if the norm drifts by more
    than 1e-4 relative (signals dt too large or node blow-up).
    """
    g = psi0.grid
    if g.kind != UNIFORM:
        raise GridError("evolution runs on uniform grids")
    if not V.grid.same_as(g):
        raise GridError("potential grid does not match the field grid")
    validate_order2(spec, params)
    q_cap = 1e3 * params.rest_energy * (params.compton_wavelength / g.length) ** 4
    extra = _ExtraPotential(g, spec, params, q_cap)
    kinetic = _KineticStep(g, params, cfg.dt)
    hbar = params.hbar

    psi = psi0.values.copy()
    if g.boundary == DIRICHLET:
        psi[0] = 0.0
        psi[-1] = 0.0

    def rotation(W: np.ndarray, fraction: float) -> np.ndarray:
        return _phase_rotation(V.values + W, fraction * cfg.dt / hbar)

    # psi is zero at both ends of a Dirichlet grid, so h * sum |psi|^2 is
    # the grid quadrature on either boundary
    norm0 = g.spacing * np.vdot(psi, psi).real
    W, clamp_count = extra(np.abs(psi))
    frames: list[WaveField] = []
    times: list[float] = []
    steps_stored: list[int] = []

    def store(step: int) -> None:
        frame = WaveField(g, psi.copy())
        frames.append(frame)
        times.append(step * cfg.dt)
        steps_stored.append(step)
        if on_frame is not None:
            on_frame(step, times[-1], frame)

    store(0)

    psi *= rotation(W, 0.5)
    for step in range(1, cfg.steps + 1):
        psi = kinetic(psi)
        W, clamps = extra(np.abs(psi))
        clamp_count += clamps
        stored = step % cfg.store_every == 0 or step == cfg.steps
        # the closing half-rotation of this step and the opening one of the
        # next use the same W: one full rotation, split only at stored frames
        psi *= rotation(W, 0.5 if stored else 1.0)

        if not np.all(np.isfinite(psi.view(np.float64))):
            raise RuntimeError(f"non-finite field at step {step} (dt too large?)")
        nrm = g.spacing * np.vdot(psi, psi).real
        if abs(nrm - norm0) > 1e-4 * norm0:
            raise RuntimeError(
                f"norm drifted to {nrm:.6g} at step {step}; aborting"
            )
        if stored:
            store(step)
            if step < cfg.steps:
                psi *= rotation(W, 0.5)

    energies = np.array(
        [energy_functional(f, V, spec, params) for f in frames], dtype=np.float64
    )
    norms = np.array([norm(f) for f in frames], dtype=np.float64)
    return EvolutionResult(
        frames=frames,
        times=np.asarray(times),
        step_indices=np.asarray(steps_stored),
        norms=norms,
        energies=energies,
        clamp_count=clamp_count,
    )


# --------------------------------------------------------------------------
# Derived fields: velocity, force, energy
# --------------------------------------------------------------------------


def _complex_gradient(g: Grid, values: np.ndarray) -> np.ndarray:
    re = gradient(GridFunction(g, values.real)).values
    im = gradient(GridFunction(g, values.imag)).values
    return re + 1j * im


def bohmian_velocity(psi: WaveField, params: PhysicalParams) -> GridFunction:
    """Guidance velocity v = (hbar/m) Im(grad psi / psi); zero where |psi| is
    at most ``VELOCITY_FLOOR * max|psi|``."""
    vals = psi.values
    dpsi = _complex_gradient(psi.grid, vals)
    dens = np.abs(vals) ** 2
    mask = np.abs(vals) <= VELOCITY_FLOOR * float(np.max(np.abs(vals)))
    v = np.zeros(psi.grid.n)
    np.divide(
        (params.hbar / params.mass) * np.imag(dpsi * np.conj(vals)),
        dens,
        out=v,
        where=~mask,
    )
    return GridFunction(psi.grid, v)


def quantum_force(
    R: GridFunction,
    V: GridFunction,
    spec: QuantumPotentialSpec,
    params: PhysicalParams,
) -> GridFunction:
    """Newtonian force -grad(V + Q[R]) along the grid, with the derivative
    backend of the evolution: transforms on periodic grids, finite
    differences on Dirichlet and radial ones.  The order-0 term is a
    constant (eps0 for a relativistic spec): it exerts no force, but its
    rounding would, so it is dropped before differentiating."""
    q = eval_complete_q(R, params, spec.without_order(0), _method(R.grid))
    total = GridFunction(R.grid, V.values + q.values)
    return GridFunction(R.grid, -gradient(total).values)


def energy_functional(
    psi: WaveField,
    V: GridFunction,
    spec: QuantumPotentialSpec,
    params: PhysicalParams,
) -> float:
    """Conserved energy: kinetic + potential + non-kinetic family terms.

    The kinetic integrand hbar^2/2m |grad psi|^2 carries both the amplitude
    and phase gradients (the order-2 term); every other term adds its
    split-form expectation A_{2n} <lap^p R, lap^q R>, p + q = n (order 0
    gives A0 * norm).
    """
    g = psi.grid
    dpsi = _complex_gradient(g, psi.values)
    c2 = params.hbar**2 / (2.0 * params.mass)
    dens = np.abs(psi.values) ** 2
    total = integrate(
        GridFunction(g, c2 * np.abs(dpsi) ** 2 + V.values * dens)
    )
    total += expectation(psi.amplitude(), params, spec.without_order(2), _method(g))
    return float(total)


# --------------------------------------------------------------------------
# Trajectories
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """Per-seed positions at every stored frame time."""

    seeds: np.ndarray
    times: np.ndarray
    paths: np.ndarray  # shape (n_frames, n_seeds)
    exited: np.ndarray  # bool per seed: hit a Dirichlet wall and froze

    def endpoints(self) -> np.ndarray:
        return self.paths[-1]


def sample_from_density(
    R0: GridFunction,
    count: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Draw seed positions distributed as R0^2 by stratified inverse-CDF
    sampling.

    One draw falls in each equal-probability stratum (jittered when an rng
    is supplied, midpoints otherwise), which removes the N^(-1/2) histogram
    noise of iid sampling while keeping the marginal distribution exactly
    proportional to R0^2.  Periodic grids include the
    wrap cell [x_{n-1}, x0 + L).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    pts = R0.grid.points
    w = R0.values**2
    if R0.grid.boundary == PERIODIC:
        pts = np.append(pts, pts[0] + R0.grid.length)
        w = np.append(w, w[0])
    cell = 0.5 * (w[1:] + w[:-1]) * np.diff(pts)
    cdf = np.concatenate(([0.0], np.cumsum(cell)))
    if cdf[-1] <= 0:
        raise GridError("cannot sample from a zero density")
    cdf /= cdf[-1]
    jitter = rng.random(count) if rng is not None else np.full(count, 0.5)
    u = (np.arange(count) + jitter) / count
    return np.interp(u, cdf, pts)


def integrate_trajectories(
    evolution: EvolutionResult,
    seeds: np.ndarray,
    params: PhysicalParams,
    substeps: int = 1,
) -> TrajectorySet:
    """RK4 advection of seeds through the stored frames' guidance velocity,
    linearly interpolated in space and time."""
    frames = evolution.frames
    if len(frames) < 2:
        raise ValueError("need at least two stored frames")
    g = frames[0].grid
    dts = np.diff(evolution.times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0):
        raise ValueError("stored frames must be uniformly spaced in time")
    seeds = np.asarray(seeds, dtype=np.float64)
    periodic = g.boundary == PERIODIC
    x0 = float(g.points[0])
    xmax = float(g.points[-1])
    if periodic:
        seeds = x0 + np.mod(seeds - x0, g.length)
    elif np.any((seeds < x0) | (seeds > xmax)):
        raise ValueError("seeds must lie inside the grid")
    vframes = np.stack([bohmian_velocity(f, params).values for f in frames])
    paths, exited = kernels.advect_seeds(
        vframes,
        x0,
        float(g.spacing),
        float(dts[0]),
        seeds,
        substeps=substeps,
        periodic=periodic,
        length=float(g.length),
    )
    return TrajectorySet(
        seeds=seeds, times=evolution.times, paths=paths, exited=exited.astype(bool)
    )
