"""Wave fields, nonlinear evolution, derived fields, and trajectories."""

import math
import tracemalloc

import numpy as np
import pytest

from qpotlab import dynamics, grid
from qpotlab.dynamics import (
    EvolutionConfig,
    EvolutionResult,
    TrajectorySet,
    WaveField,
    bohmian_velocity,
    energy_operator,
    evolve,
    integrate_trajectories,
    norm,
    sample_from_density,
)
from qpotlab.grid import (
    DIRICHLET,
    PERIODIC,
    Grid,
    GridError,
    GridFunction,
    gradient,
    integrate,
    series_operator,
)
from qpotlab.qpotential import (
    QTerm,
    QuantumPotentialSpec,
    band_edge,
    complete_q_operator,
    dimensional_coefficient,
    electron_params,
)
from qpotlab.spectra import (
    box_eigenstate,
    hydrogen_default_grid,
    hydrogen_radial_state,
    perturbative_shift,
)

ELECTRON = electron_params()
SPEC2 = QuantumPotentialSpec((QTerm.relativistic(2),))
SPEC24 = QuantumPotentialSpec((QTerm.relativistic(2), QTerm.relativistic(4)))


def periodic_grid(n=128, L=1.0):
    return Grid.uniform(0.0, L, n, PERIODIC)


def dirichlet_grid(n=257, L=1.0):
    return Grid.uniform(0.0, L, n)


def plane_wave(g, mode):
    k = 2.0 * np.pi * mode / g.length
    return WaveField(g, np.exp(1j * k * g.points)).normalized(), k


def zero_potential(g):
    return GridFunction(g, np.zeros(g.n))


def patch_w_builder(monkeypatch, edit=None):
    """Wrap every W operator that evolve builds.  Returns one list per
    build, which grows by one entry per application; ``edit(count, W)``
    may change the count-th W (1-based) of a build before evolve sees it."""
    builds = []
    original = dynamics.complete_q_operator

    def build(*args):
        apply = original(*args)
        applied = []
        builds.append(applied)

        def counted(r):
            applied.append(1)
            W = apply(r)
            if edit is not None:
                edit(len(applied), W)
            return W

        return counted

    monkeypatch.setattr(dynamics, "complete_q_operator", build)
    return builds


class TestWaveField:
    def test_shape_mismatch(self):
        g = periodic_grid()
        with pytest.raises(GridError):
            WaveField(g, np.zeros(g.n + 1, dtype=complex))

    def test_from_amplitude_phase(self):
        g = dirichlet_grid(65)
        R = GridFunction(g, np.sin(np.pi * g.points))
        psi = WaveField.from_amplitude(R, phase=0.5)
        assert np.allclose(np.abs(psi.values), np.abs(R.values))
        body = psi.values[1:-1]
        assert np.allclose(np.angle(body), 0.5)

    def test_gaussian_normalized_with_requested_width(self):
        g = periodic_grid(512, 4.0)
        w = 0.2
        psi = WaveField.gaussian(g, center=2.0, width=w, k0=3.0)
        assert norm(psi) == pytest.approx(1.0, rel=1e-10)
        dens = np.abs(psi.values) ** 2
        x = g.points
        mean = np.trapezoid(x * dens, x)
        var = np.trapezoid((x - mean) ** 2 * dens, x)
        assert math.sqrt(var) == pytest.approx(w, rel=1e-6)

    @pytest.mark.parametrize("width", [0.0, -0.05, math.inf, math.nan])
    def test_gaussian_width_must_be_positive_and_finite(self, width):
        # refused before any arithmetic: a negative width would mirror the
        # positive packet, inf would give a flat field, 0 a divide warning
        message = f"packet width must be positive and finite, got {width!r}"
        with pytest.raises(GridError, match=message):
            WaveField.gaussian(periodic_grid(64), center=0.5, width=width)

    def test_amplitude_drops_phase(self):
        g = periodic_grid()
        psi, _ = plane_wave(g, 2)
        R = psi.amplitude()
        assert np.allclose(R.values, np.abs(psi.values))

    def test_normalize_zero_field(self):
        g = periodic_grid()
        with pytest.raises(GridError):
            WaveField(g, np.zeros(g.n, dtype=complex)).normalized()


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_normalize_nonfinite_field(self, bad):
        g = periodic_grid()
        vals = np.ones(g.n, dtype=complex)
        vals[3] = bad
        with pytest.raises(GridError, match="non-finite"):
            WaveField(g, vals).normalized()


class TestEvolutionConfig:
    def test_defaults(self):
        cfg = EvolutionConfig(dt=1e-6, steps=10)
        assert cfg.store_every == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0, "steps": 1},
            {"dt": 1e-6, "steps": 0},
            {"dt": -1e-6, "steps": 1},
            {"dt": 1e-6, "steps": 1, "store_every": 0},
            {"dt": 1e-6, "steps": -5},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EvolutionConfig(**kwargs)


class TestEvolveLinear:
    def test_plane_wave_exact_phase(self):
        g = periodic_grid(128)
        psi0, k = plane_wave(g, 3)
        cfg = EvolutionConfig(dt=1e-6, steps=50)
        res = evolve(psi0, zero_potential(g), SPEC2, ELECTRON, cfg)
        T = 50 * 1e-6
        expected_phase = -ELECTRON.hbar * k**2 / (2.0 * ELECTRON.mass) * T
        # periodic quadrature: h * sum covers the wrap cell exactly
        overlap = g.spacing * np.sum(np.conj(psi0.values) * res.frames[-1].values)
        got = np.angle(overlap)
        assert abs((got - expected_phase + np.pi) % (2 * np.pi) - np.pi) < 1e-9
        assert abs(abs(overlap) - norm(psi0)) < 1e-12

    def test_norm_conserved(self):
        g = periodic_grid(128)
        psi0, _ = plane_wave(g, 2)
        cfg = EvolutionConfig(dt=1e-6, steps=100, store_every=20)
        res = evolve(psi0, zero_potential(g), SPEC2, ELECTRON, cfg)
        assert np.max(np.abs(res.norms - res.norms[0])) < 1e-12

    def test_order0_is_pure_gauge(self):
        # a constant term only rotates the global phase
        g = periodic_grid(128)
        psi0, _ = plane_wave(g, 1)
        spec02 = QuantumPotentialSpec((QTerm.relativistic(0), QTerm.relativistic(2)))
        cfg = EvolutionConfig(dt=1e-8, steps=20)
        res = evolve(psi0, zero_potential(g), spec02, ELECTRON, cfg)
        base = evolve(psi0, zero_potential(g), SPEC2, ELECTRON, cfg)
        T = 20 * 1e-8
        gauge = np.exp(-1j * ELECTRON.rest_energy * T / ELECTRON.hbar)
        assert np.allclose(
            res.frames[-1].values, gauge * base.frames[-1].values, atol=1e-10
        )

    def test_dirichlet_box_mode_turns_only_its_phase(self):
        g = dirichlet_grid(257)
        R = GridFunction(g, np.sin(np.pi * g.points)).normalized()
        psi0 = WaveField.from_amplitude(R)
        cfg = EvolutionConfig(dt=1e-7, steps=50)
        res = evolve(psi0, zero_potential(g), SPEC2, ELECTRON, cfg)
        assert np.max(np.abs(res.norms - res.norms[0])) < 1e-12
        # the sine mode is an exact eigenvector of the kinetic step, so the
        # final frame is psi0 turned by exp(-i c2 k^2 t / hbar)
        c2 = ELECTRON.hbar**2 / (2.0 * ELECTRON.mass)
        turn = np.exp(-1j * c2 * np.pi**2 * res.times[-1] / ELECTRON.hbar)
        diff = res.frames[-1].values - turn * psi0.values
        assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(psi0.values))

    def test_stored_frame_bookkeeping(self):
        g = periodic_grid(64)
        psi0, _ = plane_wave(g, 1)
        # the last step is stored whether store_every divides it or not
        for steps, stored in ((25, [0, 10, 20, 25]), (3, [0, 3])):
            cfg = EvolutionConfig(dt=1e-7, steps=steps, store_every=10)
            res = evolve(psi0, zero_potential(g), SPEC2, ELECTRON, cfg)
            assert list(res.step_indices) == stored
            assert res.times[-1] == pytest.approx(steps * 1e-7)
            assert len(res.frames) == len(res.norms) == len(res.energies) == len(stored)
            # the frames are the rows of one block, with no row left unwritten
            block = res.frames[0].values.base
            assert block.shape == (len(stored), g.n)
            assert all(f.values.base is block for f in res.frames)
            assert np.max(np.abs(res.norms - 1.0)) < 1e-12


class TestEvolveValidation:
    def test_potential_grid_mismatch(self):
        g = periodic_grid(64)
        other = periodic_grid(128)
        psi0, _ = plane_wave(g, 1)
        with pytest.raises(GridError):
            evolve(
                psi0, zero_potential(other), SPEC2, ELECTRON,
                EvolutionConfig(dt=1e-6, steps=1),
            )

    def test_order2_coefficient_conflict(self):
        from fractions import Fraction

        g = periodic_grid(64)
        psi0, _ = plane_wave(g, 1)
        bad = QuantumPotentialSpec((QTerm.rational(2, Fraction(1, 3)),))
        with pytest.raises(ValueError, match="kinetic"):
            evolve(
                psi0, zero_potential(g), bad, ELECTRON,
                EvolutionConfig(dt=1e-6, steps=1),
            )

    def test_nonfinite_field_aborts(self):
        g = periodic_grid(64)
        vals = np.ones(g.n, dtype=complex)
        vals[5] = np.nan
        psi0 = WaveField(g, vals)
        with pytest.raises(RuntimeError, match="non-finite"):
            evolve(
                psi0, zero_potential(g), SPEC2, ELECTRON,
                EvolutionConfig(dt=1e-6, steps=1),
            )


    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_nonfinite_initial_field_is_refused_before_the_first_step(self, boundary):
        g = Grid.uniform(0.0, 1.0, 65, boundary)
        vals = np.ones(g.n, dtype=complex)
        vals[5] = np.inf
        frames = []
        with pytest.raises(RuntimeError, match="initial field psi0"):
            evolve(
                WaveField(g, vals), zero_potential(g), SPEC2, ELECTRON,
                EvolutionConfig(dt=1e-6, steps=1),
                on_frame=lambda step, time, frame: frames.append(step),
            )
        assert frames == []


class TestEvolveNonlinear:
    def test_quartic_term_changes_dynamics(self):
        # nuclear regime: Compton wavelength comparable to the box, so the
        # quartic term moves the field visibly within a few steps
        from qpotlab.qpotential import proton_params

        p = proton_params()
        g = dirichlet_grid(257, L=1e-5)
        x = g.points / g.length
        R = GridFunction(g, np.sin(np.pi * x) + 0.5 * np.sin(2.0 * np.pi * x)).normalized()
        psi0 = WaveField.from_amplitude(R)
        cfg = EvolutionConfig(dt=2e-9, steps=40)
        with_q = evolve(psi0, zero_potential(g), SPEC24, p, cfg)
        without = evolve(psi0, zero_potential(g), SPEC2, p, cfg)
        diff = np.max(np.abs(with_q.frames[-1].values - without.frames[-1].values))
        scale = np.max(np.abs(without.frames[-1].values))
        assert diff / scale > 1e-6
        assert np.max(np.abs(with_q.norms - with_q.norms[0])) < 1e-6 * with_q.norms[0]

    def test_energy_functional_conserved(self):
        g = dirichlet_grid(257)
        x = g.points
        R = GridFunction(
            g, np.sin(np.pi * x) + 0.5 * np.sin(2.0 * np.pi * x)
        ).normalized()
        psi0 = WaveField.from_amplitude(R)
        cfg = EvolutionConfig(dt=2e-9, steps=40, store_every=10)
        res = evolve(psi0, zero_potential(g), SPEC24, ELECTRON, cfg)
        drift = np.max(np.abs(res.energies - res.energies[0]))
        assert drift / abs(res.energies[0]) < 1e-4

    def test_one_w_evaluation_per_step(self, monkeypatch):
        # W's operator is built once per run, and the closing W of each
        # step is the next step's opening W
        builds = patch_w_builder(monkeypatch)
        g = dirichlet_grid(129)
        R = GridFunction(g, np.sin(np.pi * g.points)).normalized()
        psi0 = WaveField.from_amplitude(R)
        cfg = EvolutionConfig(dt=2e-9, steps=10)
        evolve(psi0, zero_potential(g), SPEC24, ELECTRON, cfg)
        assert [len(applied) for applied in builds] == [cfg.steps + 1]


    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_two_transform_pairs_per_step(self, monkeypatch, boundary):
        # each step takes one pair for the kinetic step and one for W (on
        # Dirichlet grids each DST-I is one rfft), and no transform buffer
        # is allocated in the loop
        names = ("fft", "ifft", "rfft", "irfft")
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        built = []

        class Counted(grid.SineTransform):
            def __init__(self, *shape):
                built.append(shape)
                super().__init__(*shape)

        monkeypatch.setattr(grid, "SineTransform", Counted)
        g = periodic_grid(64) if boundary == PERIODIC else dirichlet_grid(65)
        psi0 = WaveField.gaussian(g, center=0.5, width=0.1)
        totals = []
        for steps in (4, 9):
            calls.update(dict.fromkeys(names, 0))
            built.clear()
            cfg = EvolutionConfig(dt=1e-7, steps=steps, store_every=steps)
            evolve(psi0, zero_potential(g), SPEC24, ELECTRON, cfg)
            totals.append((dict(calls), len(built)))
        (short, short_built), (long, long_built) = totals
        per_step = {name: (long[name] - short[name]) / 5 for name in names}
        if boundary == PERIODIC:
            assert per_step == dict.fromkeys(names, 1)
        else:
            assert per_step == {"fft": 0, "ifft": 0, "rfft": 4, "irfft": 0}
        assert long_built == short_built


def strang_reference(psi0, V, spec, params, cfg):
    """The unfused Strang loop: every step opens and closes with its own
    half-rotation by V + W.  Returns the stored frames."""
    g = psi0.grid
    extra = complete_q_operator(g, params, spec.without_order(2))
    c2 = params.hbar**2 / (2.0 * params.mass)
    kinetic = series_operator(g, np.exp(-1j * (c2 * g.modes**2 / params.hbar) * cfg.dt))
    psi = psi0.values.copy()
    if g.boundary == DIRICHLET:
        psi[0] = psi[-1] = 0.0
    W = extra(np.abs(psi))
    frames = [WaveField(g, psi.copy())]
    for step in range(1, cfg.steps + 1):
        psi = psi * np.exp(-1j * (V.values + W) * cfg.dt / (2.0 * params.hbar))
        psi = kinetic(psi)
        W = extra(np.abs(psi))
        psi = psi * np.exp(-1j * (V.values + W) * cfg.dt / (2.0 * params.hbar))
        if step % cfg.store_every == 0 or step == cfg.steps:
            frames.append(WaveField(g, psi.copy()))
    return frames


class TestFusedRotation:
    """One full rotation between kinetic steps, split into halves only at
    stored frames, gives the frames and energies of the unfused loop."""

    SPEC02 = QuantumPotentialSpec((QTerm.relativistic(0), QTerm.relativistic(2)))

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    @pytest.mark.parametrize("store_every", [1, 3, 10])
    def test_matches_unfused_strang_loop(self, boundary, store_every):
        g = periodic_grid(128) if boundary == PERIODIC else dirichlet_grid(129)
        psi0 = WaveField.gaussian(g, center=0.45, width=0.08, k0=20.0)
        # harmonic well, about 1e5 eV at the walls
        V = GridFunction(g, 4e5 * (g.points - 0.5) ** 2)
        cfg = EvolutionConfig(dt=2e-2, steps=10, store_every=store_every)
        res = evolve(psi0, V, self.SPEC02, ELECTRON, cfg)
        ref = strang_reference(psi0, V, self.SPEC02, ELECTRON, cfg)
        assert len(res.frames) == len(ref)
        for got, want in zip(res.frames, ref):
            scale = np.max(np.abs(want.values))
            assert np.max(np.abs(got.values - want.values)) <= 1e-12 * scale
        energy = energy_operator(g, V, self.SPEC02, ELECTRON)
        ref_energies = [energy(f.values) for f in ref]
        assert np.allclose(res.energies, ref_energies, rtol=1e-12, atol=0)
        # the packet moves, so the test is not one of global phases
        moved = np.abs(ref[-1].values) - np.abs(ref[0].values)
        assert np.max(np.abs(moved)) > 0.05 * np.max(np.abs(ref[0].values))

    @pytest.mark.parametrize("store_every", [1, 5])
    def test_nan_in_w_stops_at_its_step(self, monkeypatch, store_every):
        def turns_nan(count, W):
            if count == 5:  # the W of step 4
                W[7] = np.nan

        patch_w_builder(monkeypatch, turns_nan)
        g = periodic_grid(64)
        psi0, _ = plane_wave(g, 1)
        cfg = EvolutionConfig(dt=1e-7, steps=10, store_every=store_every)
        with pytest.raises(RuntimeError, match="non-finite field at step 4 "):
            evolve(psi0, zero_potential(g), SPEC24, ELECTRON, cfg)


class TestOnFrame:
    """on_frame sees every stored frame as the loop makes it, with the step
    and time that the result records, and can stop the run."""

    @staticmethod
    def start(boundary):
        g = periodic_grid(64) if boundary == PERIODIC else dirichlet_grid(65)
        return WaveField.gaussian(g, center=0.5, width=0.08, k0=20.0), zero_potential(g)

    # store_every 5 divides the 10 steps; 4 does not, so the last frame is
    # step 10 after step 8
    @pytest.mark.parametrize("store_every", [5, 4])
    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_sees_the_stored_frames(self, boundary, store_every):
        psi0, V = self.start(boundary)
        seen = []
        cfg = EvolutionConfig(dt=1e-7, steps=10, store_every=store_every)
        res = evolve(
            psi0, V, SPEC24, ELECTRON, cfg,
            on_frame=lambda step, t, frame: seen.append((step, t, frame.values.copy())),
        )
        assert [s for s, _, _ in seen] == res.step_indices.tolist()
        assert [t for _, t, _ in seen] == res.times.tolist()
        assert [v.tobytes() for _, _, v in seen] == [f.values.tobytes() for f in res.frames]
        assert res.step_indices[-1] == 10

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_exception_stops_the_run(self, monkeypatch, boundary):
        class Stop(Exception):
            pass

        def stop_after_first(step, t, frame):
            if step > 0:
                raise Stop(step)

        builds = patch_w_builder(monkeypatch)
        psi0, V = self.start(boundary)
        cfg = EvolutionConfig(dt=1e-7, steps=10, store_every=3)
        with pytest.raises(Stop) as exc:
            evolve(psi0, V, SPEC24, ELECTRON, cfg, on_frame=stop_after_first)
        assert exc.value.args == (3,)
        # no step after the raising frame
        assert [len(applied) for applied in builds] == [3 + 1]


class TestPhaseRotation:
    """cos + i sin of one real phase is np.exp of the complex phase, bit
    for bit, from zero through |theta| of 1e12."""

    @staticmethod
    def assert_same_bits(potential, scale):
        got = dynamics._phase_rotation(potential, scale)
        want = np.exp(-1j * potential * scale)
        assert got.dtype == np.complex128
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("scale", [1e-6 / ELECTRON.hbar, 0.5, 3.7e3])
    def test_wide_theta_range(self, scale):
        rng = np.random.default_rng(17)
        magnitude = 10.0 ** rng.uniform(-20.0, 12.0, 200_000)
        theta = rng.choice((-1.0, 1.0), magnitude.size) * magnitude
        self.assert_same_bits(theta / scale, scale)

    def test_zero_and_tiny_phases(self):
        values = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0])
        for scale in (0.5, 1e-300, 5e-324):
            self.assert_same_bits(values, scale)

    def test_workload_potentials(self):
        # W about the electron rest energy, as in the benchmark's evolves
        rng = np.random.default_rng(18)
        W = 5.11e5 + rng.uniform(-2e3, 2e3, 4096)
        for fraction in (0.5, 1.0):
            self.assert_same_bits(W, fraction * 1e-6 / ELECTRON.hbar)


class TestDerivedFields:
    def test_plane_wave_velocity(self):
        g = periodic_grid(128)
        psi, k = plane_wave(g, 4)
        v = bohmian_velocity(psi, ELECTRON)
        expected = ELECTRON.hbar * k / ELECTRON.mass
        assert np.allclose(v.values, expected, rtol=1e-9)

    def test_real_field_has_zero_velocity(self):
        g = dirichlet_grid(129)
        R = GridFunction(g, np.sin(np.pi * g.points)).normalized()
        psi = WaveField.from_amplitude(R)
        v = bohmian_velocity(psi, ELECTRON)
        assert np.max(np.abs(v.values)) < 1e-12

    @pytest.mark.parametrize("n", [257, 1025, 4096])
    def test_dirichlet_packet_velocity(self, n):
        # the sine-series gradient gives a moving packet with zeroed walls
        # its group velocity hbar k0 / m wherever |psi| is resolved
        # (measured: at most 2e-11 relative; 4th-order differences gave
        # 2.8e-4 / 1.1e-6 / 4.2e-9)
        g = dirichlet_grid(n)
        k0 = 50.0
        vals = WaveField.gaussian(g, 0.5, 0.05, k0).values
        vals[[0, -1]] = 0.0
        psi = WaveField(g, vals)
        v = bohmian_velocity(psi, ELECTRON).values
        amplitude = np.abs(psi.values)
        resolved = amplitude > 1e-3 * np.max(amplitude)
        want = ELECTRON.hbar * k0 / ELECTRON.mass
        assert np.max(np.abs(v[resolved] - want)) <= 1e-10 * want

    def test_energy_matches_eigenvalue_on_mode(self):
        g = dirichlet_grid(513)
        R = GridFunction(g, np.sin(np.pi * g.points)).normalized()
        psi = WaveField.from_amplitude(R)
        E = energy_operator(g, zero_potential(g), SPEC2, ELECTRON)(psi.values)
        expected = (np.pi * ELECTRON.hbar) ** 2 / (2.0 * ELECTRON.mass)
        assert E == pytest.approx(expected, rel=1e-6)


class TestEnergyFunctional:
    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_one_forward_transform_per_frame(self, monkeypatch, boundary):
        # Re psi, Im psi and |psi| share one transform; no gradient and no
        # inverse transform is taken
        g = Grid.uniform(0.0, 1.0, 128, boundary)
        frames = [WaveField.gaussian(g, c, 0.05, 20.0).values for c in (0.4, 0.5)]
        energy = energy_operator(g, zero_potential(g), QuantumPotentialSpec.relativistic(6), ELECTRON)
        names = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fftn", "rfftn")
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)

        def no_gradient(*args):
            raise AssertionError("the energy took a gradient")

        monkeypatch.setattr(grid, "gradient", no_gradient)
        monkeypatch.setattr(dynamics, "gradient", no_gradient)
        for values in frames:
            energy(values)
        assert calls == {name: 2 if name == "rfft" else 0 for name in names}


# --------------------------------------------------------------------------
# Oracle for the quadratic forms: the split form they replaced, sum A_2n
# <lap^p R, lap^q R> (p = ceil(n/2), q = n - p) by one series_operator per
# power and the trapezoid rule, and a kinetic energy from the gradient of
# psi.  Both are the same integrals under the grid's quadrature (Parseval),
# so they differ by roundoff only.
# --------------------------------------------------------------------------


def split_form(g, params, spec, R):
    band, k = band_edge(params), g.modes
    total = 0.0
    for t in spec.terms:
        n = t.order // 2
        p = (n + 1) // 2
        lap = {
            m: series_operator(g, np.where(np.abs(k) <= band, (-(k**2)) ** m, 0.0))(R)
            if m
            else R
            for m in (p, n - p)
        }
        total += dimensional_coefficient(t, params) * integrate(GridFunction(g, lap[p] * lap[n - p]))
    return total


def split_form_energy(g, V, spec, params, values):
    c2 = params.hbar**2 / (2.0 * params.mass)
    re, im = (gradient(GridFunction(g, part)).values for part in (values.real, values.imag))
    density = np.abs(values) ** 2
    total = integrate(GridFunction(g, c2 * (re**2 + im**2) + V.values * density))
    return total + split_form(g, params, spec.without_order(2), np.abs(values))


class TestSplitFormOracle:
    @pytest.mark.parametrize("orders", [(0, 2, 4), (0, 2, 4, 6)])
    @pytest.mark.parametrize("n", [4096, 4097])
    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_energy(self, boundary, n, orders):
        # measured: at most 5.0e-15 of the energy above the rest term, one
        # ulp of the ~5.2e5 eV total; the bound, 3e-14, leaves a margin of 6
        g = Grid.uniform(0.0, 1.0, n, boundary)
        values = WaveField.gaussian(g, 0.5, 0.05, 50.0).values
        if boundary == DIRICHLET:
            values[[0, -1]] = 0.0
        V = GridFunction(g, 2e3 * np.cos(2.0 * np.pi * g.points) ** 2)
        spec = QuantumPotentialSpec(tuple(QTerm.relativistic(k) for k in orders))
        got = energy_operator(g, V, spec, ELECTRON)(values)
        want = split_form_energy(g, V, spec, ELECTRON, values)
        assert abs(got - want) <= 3e-14 * abs(want - ELECTRON.rest_energy)

    @pytest.mark.parametrize("order", [0, 2, 4, 6])
    def test_shifts(self, order):
        # the 4097-point box and hydrogen 1s / 2s on 8192 radii; measured:
        # at most 3.0e-15 relative (2s, order 0); the bound, 2e-14, leaves a
        # margin of 6
        states = [box_eigenstate(1.0, tau, 4097, ELECTRON) for tau in (1, 2, 3)]
        radial = hydrogen_default_grid(ELECTRON, 8192)
        states += [hydrogen_radial_state(m, ELECTRON, radial) for m in (1, 2)]
        term = QuantumPotentialSpec((QTerm.relativistic(order),))
        for state in states:
            got = perturbative_shift(state, order, ELECTRON)
            want = split_form(state.R0.grid, ELECTRON, term, state.R0.values)
            assert abs(got - want) <= 2e-14 * abs(want), state.label


class TestSampling:
    def setup_method(self):
        self.g = Grid.uniform(0.0, 1.0, 513)
        self.R = GridFunction(self.g, np.sin(np.pi * self.g.points)).normalized()

    def test_stratified_deterministic_without_rng(self):
        a = sample_from_density(self.R, 100)
        b = sample_from_density(self.R, 100)
        assert np.array_equal(a, b)

    def test_stratified_matches_density(self):
        seeds = sample_from_density(self.R, 2000)
        # empirical CDF against the analytic CDF of 2 sin^2(pi x)
        xs = np.sort(seeds)
        analytic = xs - np.sin(2.0 * np.pi * xs) / (2.0 * np.pi)
        empirical = (np.arange(xs.size) + 0.5) / xs.size
        assert np.max(np.abs(empirical - analytic)) < 5e-3

    def test_jitter_reproducible_by_seed(self):
        a = sample_from_density(self.R, 64, np.random.default_rng(7))
        b = sample_from_density(self.R, 64, np.random.default_rng(7))
        c = sample_from_density(self.R, 64, np.random.default_rng(8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_density(self):
        flat = GridFunction(self.g, np.zeros(self.g.n))
        with pytest.raises(GridError):
            sample_from_density(flat, 10)
        holed = self.R.values.copy()
        holed[100] = np.nan
        with pytest.raises(GridError, match="non-finite"):
            sample_from_density(GridFunction(self.g, holed), 10)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_from_density(self.R, 0)

    def test_periodic_wrap_cell_is_sampled(self):
        # A packet centred on the wrap point: the cell [x_{n-1}, x0 + L)
        # holds about a quarter of the trapezoid density.
        g = periodic_grid(64)
        h = g.spacing
        d = np.mod(g.points - (1.0 - 0.5 * h) + 0.5, 1.0) - 0.5
        R = GridFunction(g, np.exp(-(d**2) / (4.0 * h**2)))
        w = R.values**2
        wrap_share = 0.5 * (w[-1] + w[0]) * h / integrate(GridFunction(g, w))
        assert wrap_share > 0.2
        seeds = sample_from_density(R, 10_000, np.random.default_rng(3))
        assert np.all((seeds >= 0.0) & (seeds < 1.0))
        share = np.mean(seeds >= g.points[-1])
        assert share == pytest.approx(wrap_share, abs=2e-4)


def _plane_wave_evolution(n=128, mode=2, steps=40, dt=1e-6):
    g = periodic_grid(n)
    psi0, k = plane_wave(g, mode)
    cfg = EvolutionConfig(dt=dt, steps=steps, store_every=10)
    res = evolve(psi0, zero_potential(g), SPEC2, ELECTRON, cfg)
    return g, res, ELECTRON.hbar * k / ELECTRON.mass


class TestTrajectories:
    def test_ballistic_transport_on_plane_wave(self):
        g, res, v = _plane_wave_evolution()
        seeds = np.array([0.1, 0.45, 0.8])
        traj = integrate_trajectories(res, seeds, ELECTRON, substeps=2)
        T = res.times[-1]
        expected = np.mod(seeds + v * T, g.length)
        got = np.mod(traj.endpoints(), g.length)
        wrapped_err = np.abs((got - expected + 0.5) % 1.0 - 0.5)
        assert np.max(wrapped_err) < 1e-6
        assert not traj.exited.any()

    def test_periodic_seeds_wrapped(self):
        g, res, _ = _plane_wave_evolution(steps=10)
        traj = integrate_trajectories(res, np.array([1.3, -0.2]), ELECTRON)
        assert np.all((traj.seeds >= 0.0) & (traj.seeds < 1.0))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="seeds must be finite"):
                integrate_trajectories(res, np.array([0.5, bad]), ELECTRON)

    def test_dirichlet_seeds_bounds_checked(self):
        g = dirichlet_grid(129)
        R = GridFunction(g, np.sin(np.pi * g.points)).normalized()
        psi0 = WaveField.from_amplitude(R)
        cfg = EvolutionConfig(dt=1e-8, steps=10, store_every=5)
        res = evolve(psi0, zero_potential(g), SPEC2, ELECTRON, cfg)
        with pytest.raises(ValueError, match="seeds"):
            integrate_trajectories(res, np.array([1.5]), ELECTRON)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="seeds must be finite"):
                integrate_trajectories(res, np.array([0.5, bad]), ELECTRON)

    def test_real_field_trajectories_static(self):
        g = dirichlet_grid(129)
        R = GridFunction(g, np.sin(np.pi * g.points)).normalized()
        psi0 = WaveField.from_amplitude(R)
        cfg = EvolutionConfig(dt=1e-8, steps=10, store_every=5)
        res = evolve(psi0, zero_potential(g), SPEC2, ELECTRON, cfg)
        seeds = np.array([0.25, 0.5, 0.75])
        traj = integrate_trajectories(res, seeds, ELECTRON)
        # stationary state: velocity stays ~0 and seeds do not move
        assert np.max(np.abs(traj.endpoints() - seeds)) < 1e-6

    def test_exit_freezes_at_wall(self):
        g = dirichlet_grid(129)
        k = 40.0 * np.pi
        vals = np.exp(1j * k * g.points)
        frames = [WaveField(g, vals), WaveField(g, vals), WaveField(g, vals)]
        v = ELECTRON.hbar * k / ELECTRON.mass
        T = 2.0 * (0.2 / v)  # long enough for a seed at 0.9 to cross x = 1
        res = EvolutionResult(
            frames=frames,
            times=np.array([0.0, T / 2, T]),
            step_indices=np.array([0, 1, 2]),
            norms=np.ones(3),
            energies=np.zeros(3),
            dt=T / 2,
        )
        traj = integrate_trajectories(res, np.array([0.9, 0.1]), ELECTRON, substeps=4)
        assert traj.exited[0] and not traj.exited[1]
        assert traj.endpoints()[0] == pytest.approx(1.0, abs=1e-9)

    def test_needs_two_frames(self):
        g = periodic_grid(64)
        psi, _ = plane_wave(g, 1)
        res = EvolutionResult(
            frames=[psi],
            times=np.array([0.0]),
            step_indices=np.array([0]),
            norms=np.ones(1),
            energies=np.zeros(1),
            dt=1e-6,
        )
        with pytest.raises(ValueError, match="two stored frames"):
            integrate_trajectories(res, np.array([0.5]), ELECTRON)

    @pytest.mark.parametrize("steps", [[0, 1, 1], [0, 2, 1]], ids=["repeated", "decreasing"])
    def test_needs_positive_frame_intervals(self, steps):
        g = periodic_grid(64)
        psi, _ = plane_wave(g, 1)
        res = EvolutionResult(
            frames=[psi, psi, psi],
            times=1e-6 * np.array(steps),
            step_indices=np.array(steps),
            norms=np.ones(3),
            energies=np.zeros(3),
            dt=1e-6,
        )
        with pytest.raises(ValueError, match="intervals must be positive"):
            integrate_trajectories(res, np.array([0.5]), ELECTRON)

    def test_last_interval_shorter_when_store_every_does_not_divide_steps(self):
        # 300 steps stored every 7: 42 intervals of 7 steps, then one of 6
        g = periodic_grid(128)
        psi0, k = plane_wave(g, 2)
        cfg = EvolutionConfig(dt=1e-6, steps=300, store_every=7)
        res = evolve(psi0, zero_potential(g), SPEC2, ELECTRON, cfg)
        assert res.step_indices[-2:].tolist() == [294, 300]
        seeds = np.array([0.1, 0.45, 0.8])
        traj = integrate_trajectories(res, seeds, ELECTRON)
        v = ELECTRON.hbar * k / ELECTRON.mass
        assert traj.paths[-1] - traj.paths[-2] == pytest.approx(
            np.full(3, v * 6 * cfg.dt), rel=1e-6
        )
        assert traj.paths[-2] - traj.paths[-3] == pytest.approx(
            np.full(3, v * 7 * cfg.dt), rel=1e-6
        )
        assert traj.endpoints() - seeds == pytest.approx(np.full(3, v * 300 * cfg.dt), rel=1e-6)

    def test_frames_on_another_grid(self):
        g = periodic_grid(64)
        psi, _ = plane_wave(g, 1)
        # the same size on another length, and another size
        for other in (periodic_grid(64, L=2.0), periodic_grid(128)):
            moved, _ = plane_wave(other, 1)
            res = EvolutionResult(
                frames=[psi, moved, psi],
                times=np.array([0.0, 1e-6, 2e-6]),
                step_indices=np.array([0, 1, 2]),
                norms=np.ones(3),
                energies=np.zeros(3),
                dt=1e-6,
            )
            with pytest.raises(GridError, match="one grid"):
                integrate_trajectories(res, np.array([0.5]), ELECTRON)

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_working_memory_is_rows_of_points(self, boundary):
        """Each frame's velocity row is computed when the advection reaches
        it: over 201 frames of 2048 points the traced peak is the paths plus
        a few dozen rows of points, where a (frames, points) velocity array
        with its wrapped copy would take about 400 rows."""
        g = Grid.uniform(0.0, 1.0, 2048, boundary)
        psi = WaveField.gaussian(g, center=0.5, width=0.05, k0=40.0)
        n = 201
        res = EvolutionResult(
            frames=[psi] * n,
            times=np.arange(n) * 1e-6,
            step_indices=np.arange(n),
            norms=np.ones(n),
            energies=np.zeros(n),
            dt=1e-6,
        )
        seeds = np.linspace(0.3, 0.7, 8)
        integrate_trajectories(res, seeds, ELECTRON)  # warm-up
        tracemalloc.start()
        try:
            traj = integrate_trajectories(res, seeds, ELECTRON)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < traj.paths.nbytes + 32 * g.n * 8

    def test_trajectory_set_shapes(self):
        g, res, _ = _plane_wave_evolution(steps=20)
        seeds = sample_from_density(
            GridFunction(g, np.abs(res.frames[0].values)), 8
        )
        traj = integrate_trajectories(res, seeds, ELECTRON)
        assert traj.paths.shape == (len(res.frames), 8)
        assert traj.times.shape == res.times.shape
        assert isinstance(traj, TrajectorySet)
