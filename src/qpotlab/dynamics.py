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
N steps builds W's operator once (:func:`qpotential.complete_q_operator`,
which resolves its coefficients, band-limited symbol and floor) and
applies it N + 1 times, and the closing half-rotation of one step
and the opening one of the next are applied as one full rotation
exp(-i (V + W) dt / hbar) (Bao, Jin & Markowich, J. Comput. Phys. 175
(2002) 487).  The rotation is split into its two halves only at stored
frames, so a stored frame is psi after the closing half-rotation.  Each
rotation is cos + i sin of one real phase, bit for bit the complex
exponential (:func:`_phase_rotation`).  The finite-value and norm checks
run on psi after every step's rotation; both read the one norm sum the
step computes, which is non-finite whenever any value of psi is.
Rotations by a real W and the unitary kinetic step conserve the norm to
roundoff.

The kinetic step is one rule on both grids (:data:`SPLIT_STEP`, the label
a run reports): the :func:`grid.series_operator` of the exact exponential
exp(-i hbar k^2 dt / 2m) at the grid's own transform modes, the Fourier
modes on periodic grids and the sine (DST-I) modes on Dirichlet grids,
where psi is zeroed at both ends before the first step.  W and the
energy take the same transforms, and both read the hierarchy's one symbol
sigma, projected onto the band |k| <= m c / hbar where it converges
(:func:`qpotential.hierarchy_symbol`): W applies it
(:func:`qpotential.complete_q_operator`), and the energy is a quadratic
form on one forward transform of a frame (:func:`energy_operator`, built
once per run).  The kinetic c2 k^2 is never projected.  W's quotient
terms are zeroed where |psi| falls below the amplitude floor.  States with
nodes are out of scope: R = |psi| has a kink at a node, and the W built
from it does not reproduce the signed field's dynamics.

:func:`evolve` returns every stored frame, as views of the rows of one
(frames, points) block, and its ``on_frame`` callback also receives each
one, with its step and time, as soon as the loop has made it.  The CLI
hands frames to its frame writer this way, so that they are formatted
while the loop goes on; the callback changes no number.
:func:`integrate_trajectories` computes each frame's guidance velocity
when the advection reaches that frame, so no (frames, points) velocity
array is built.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .grid import (
    DIRICHLET,
    PERIODIC,
    Grid,
    GridError,
    GridFunction,
    gradient,
    integrate,
    quadratic_form,
    series_operator,
)
from .qpotential import (
    PhysicalParams,
    QuantumPotentialSpec,
    complete_q_operator,
    hierarchy_symbol,
    require_resolved,
    validate_order2,
)

SPLIT_STEP = "split-step-spectral"

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
        position standard deviation of |psi|^2, and must be positive and
        finite."""
        if not 0.0 < width < math.inf:
            raise GridError(f"packet width must be positive and finite, got {width!r}")
        x = grid.points
        vals = np.exp(-((x - center) ** 2) / (4.0 * width**2) + 1j * k0 * x)
        return cls(grid, vals).normalized()

    def amplitude(self) -> GridFunction:
        return GridFunction(self.grid, np.abs(self.values))

    def normalized(self) -> "WaveField":
        n = norm(self)
        if not math.isfinite(n):
            raise GridError(f"cannot normalize a field with non-finite norm {n}")
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
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        for name in ("steps", "store_every"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class EvolutionResult:
    """Stored frames plus per-frame diagnostics.  The frames :func:`evolve`
    returns are views of the rows of one (frames, points) block, which is
    freed as a unit; frame f was stored after ``step_indices[f]`` steps of
    ``dt``."""

    frames: list[WaveField]
    times: np.ndarray
    step_indices: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    dt: float


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

    The stored frames are the rows of one complex array of shape
    (stored frames, points), allocated before the loop: each frame's
    values are a view of its row.  ``on_frame(step, time, frame)`` is
    called with each stored frame, that same view, as soon as the loop has
    made it, so a caller can write frames while the loop goes on; an
    exception it raises stops the run.

    Raises RuntimeError, before the first step, on a psi0 with a
    non-finite value, and aborts with it on NaN/overflow or if the norm
    drifts by more than 1e-4 relative (signals dt too large or node
    blow-up).
    """
    g = psi0.grid
    if not V.grid.same_as(g):
        raise GridError("potential grid does not match the field grid")
    if not np.all(np.isfinite(psi0.values)):
        raise RuntimeError("non-finite initial field psi0: refused before the first step")
    validate_order2(spec, params)
    # W: every term of the spec but the kinetic order 2, built once
    extra = complete_q_operator(g, params, spec.without_order(2))
    hbar = params.hbar
    c2 = hbar**2 / (2.0 * params.mass)
    kinetic = series_operator(g, np.exp(-1j * (c2 * g.modes**2 / hbar) * cfg.dt))

    psi = psi0.values.copy()
    if g.boundary == DIRICHLET:
        psi[0] = 0.0
        psi[-1] = 0.0

    def rotation(W: np.ndarray, fraction: float) -> np.ndarray:
        return _phase_rotation(V.values + W, fraction * cfg.dt / hbar)

    # psi is zero at both ends of a Dirichlet grid, so h * sum |psi|^2 is
    # the grid quadrature on either boundary
    norm0 = g.spacing * np.vdot(psi, psi).real
    W = extra(np.abs(psi))
    rows = 1 + cfg.steps // cfg.store_every + (cfg.steps % cfg.store_every != 0)
    block = np.empty((rows, g.n), np.complex128)
    frames: list[WaveField] = []
    times: list[float] = []
    steps_stored: list[int] = []

    def store(step: int) -> None:
        values = block[len(frames)]
        values[:] = psi
        frame = WaveField(g, values)
        frames.append(frame)
        times.append(step * cfg.dt)
        steps_stored.append(step)
        if on_frame is not None:
            on_frame(step, times[-1], frame)

    store(0)

    psi *= rotation(W, 0.5)
    for step in range(1, cfg.steps + 1):
        psi = kinetic(psi)
        W = extra(np.abs(psi))
        stored = step % cfg.store_every == 0 or step == cfg.steps
        # the closing half-rotation of this step and the opening one of the
        # next use the same W: one full rotation, split only at stored frames
        psi *= rotation(W, 0.5 if stored else 1.0)

        # a non-finite value anywhere in psi makes the norm non-finite
        nrm = g.spacing * np.vdot(psi, psi).real
        if not math.isfinite(nrm):
            raise RuntimeError(f"non-finite field at step {step} (dt too large?)")
        if abs(nrm - norm0) > 1e-4 * norm0:
            raise RuntimeError(
                f"norm drifted to {nrm:.6g} at step {step}; aborting"
            )
        if stored:
            store(step)
            if step < cfg.steps:
                psi *= rotation(W, 0.5)

    energy = energy_operator(g, V, spec, params)
    energies = np.array([energy(f.values) for f in frames], dtype=np.float64)
    norms = np.array([norm(f) for f in frames], dtype=np.float64)
    return EvolutionResult(
        frames=frames,
        times=np.asarray(times),
        step_indices=np.asarray(steps_stored),
        norms=norms,
        energies=energies,
        dt=cfg.dt,
    )


# --------------------------------------------------------------------------
# Derived fields: velocity, energy
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


def energy_operator(
    g: Grid,
    V: GridFunction,
    spec: QuantumPotentialSpec,
    params: PhysicalParams,
) -> Callable[[np.ndarray], float]:
    """The map from psi values on ``g`` to the conserved energy: kinetic +
    potential + non-kinetic family terms.

    One :func:`grid.quadratic_form` of the rows Re psi, Im psi and R =
    |psi| takes one forward transform per frame: c2 k^2 on the first two
    is the kinetic energy hbar^2/2m integral |grad psi|^2 (the order-2
    term, amplitude and phase gradients alike), and the
    :func:`qpotential.hierarchy_symbol` of the spec without its order 2 on
    R is every other term (order 0 gives A0 * norm).  The potential term
    is the grid quadrature of V |psi|^2.  Both symbols are resolved once,
    here, so one map serves every frame of a run."""
    rest = spec.without_order(2)
    require_resolved(g, rest)
    k = g.modes
    kinetic = params.hbar**2 / (2.0 * params.mass) * k**2
    family = hierarchy_symbol(rest, params, k)
    form = quadratic_form(g, np.stack((kinetic, kinetic, family)))

    def energy(values: np.ndarray) -> float:
        amplitude = np.abs(values)
        forms = form(np.stack((values.real, values.imag, amplitude)))
        return float(np.sum(forms) + integrate(GridFunction(g, V.values * amplitude**2)))

    return energy


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
    if not math.isfinite(cdf[-1]):
        raise GridError("cannot sample from a non-finite density")
    if cdf[-1] <= 0:
        raise GridError("cannot sample from a zero density")
    cdf /= cdf[-1]
    jitter = rng.random(count) if rng is not None else np.full(count, 0.5)
    u = (np.arange(count) + jitter) / count
    return np.interp(u, cdf, pts)


class _VelocityRows:
    """The guidance-velocity rows of stored frames, each computed when it
    is read."""

    def __init__(self, frames: list[WaveField], params: PhysicalParams):
        self.frames = frames
        self.params = params

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, f: int) -> np.ndarray:
        return bohmian_velocity(self.frames[f], self.params).values


def integrate_trajectories(
    evolution: EvolutionResult,
    seeds: np.ndarray,
    params: PhysicalParams,
    substeps: int = 1,
) -> TrajectorySet:
    """RK4 advection of seeds through the stored frames' guidance velocity,
    linearly interpolated in space and time.

    Each frame's velocity row is computed with :func:`bohmian_velocity`
    when the advection reaches that frame, so the working memory is a few
    rows of points besides the (frames, seeds) paths.  Each stored interval
    lasts its step count times ``dt``: the last one is shorter when
    ``store_every`` does not divide ``steps``.
    """
    frames = evolution.frames
    if len(frames) < 2:
        raise ValueError("need at least two stored frames")
    g = frames[0].grid
    if not all(f.grid.same_as(g) for f in frames):
        raise GridError("stored frames must all lie on one grid")
    intervals = np.diff(evolution.step_indices) * evolution.dt
    if not np.all(intervals > 0):
        raise ValueError(f"frame intervals must be positive, got {intervals}")
    seeds = np.asarray(seeds, dtype=np.float64)
    if not np.all(np.isfinite(seeds)):
        raise ValueError("seeds must be finite")
    periodic = g.boundary == PERIODIC
    x0 = float(g.points[0])
    xmax = float(g.points[-1])
    if periodic:
        seeds = x0 + np.mod(seeds - x0, g.length)
    elif np.any((seeds < x0) | (seeds > xmax)):
        raise ValueError("seeds must lie inside the grid")
    paths, exited = kernels.advect_seeds(
        _VelocityRows(frames, params),
        x0,
        float(g.spacing),
        intervals,
        seeds,
        substeps=substeps,
        periodic=periodic,
        length=float(g.length),
    )
    return TrajectorySet(
        seeds=seeds, times=evolution.times, paths=paths, exited=exited.astype(bool)
    )
