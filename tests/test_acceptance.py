"""End-to-end acceptance gate.

Nine numbered criteria (1-8 and 10), each with a hard tolerance and a time
budget.
Every test prints one verdict line (run pytest with -s to see them live).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft

from qpotlab.coeffs import a2n, sqrt_binomial_coeff
from qpotlab.dynamics import (
    EvolutionConfig,
    WaveField,
    evolve,
    integrate_trajectories,
    norm,
    sample_from_density,
)
from qpotlab.elcheck import certify
from qpotlab.expr import parse_q_expression
from qpotlab.grid import DIRICHLET, PERIODIC, Grid, GridFunction, integrate
from qpotlab.qpotential import (
    QTerm,
    QuantumPotentialSpec,
    dimensional_coefficient,
    electron_params,
    proton_params,
    scale_ratio,
    term_ratio,
    term_ratio_on_grid,
)
from qpotlab.spectra import (
    box_eigenstate,
    box_shift_closed_form,
    compare_shifts,
    hydrogen_band_fraction,
    hydrogen_radial_state,
    hydrogen_shift_closed_form,
    perturbative_shift,
    solve_modified_eigenproblem,
)

ELECTRON = electron_params()
PROTON = proton_params()


def _verdict(number: int, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {word} - {detail}")


def _energy_drift(res) -> float:
    """Largest relative change of the stored frames' energy."""
    return float(np.max(np.abs(res.energies - res.energies[0])) / abs(res.energies[0]))


class TestAcceptance:
    def test_1_coefficient_family_identity(self):
        """a_2n equals the square-root binomial coefficient, exactly, for n <= 50."""
        t0 = time.perf_counter()
        mismatches = [
            n for n in range(51) if a2n(n) != sqrt_binomial_coeff(n)
        ]
        expected_low = [
            Fraction(1),
            Fraction(1, 2),
            Fraction(-1, 8),
            Fraction(1, 16),
            Fraction(-5, 128),
        ]
        low_ok = [a2n(n) for n in range(5)] == expected_low
        elapsed = time.perf_counter() - t0
        ok = not mismatches and low_ok
        _verdict(
            1,
            ok,
            f"exact rational identity for n=0..50 "
            f"({len(mismatches)} mismatches), low orders "
            f"{'match' if low_ok else 'MISMATCH'} [{elapsed:.2f}s]",
        )
        assert ok
        assert elapsed < 1.0

    def test_2_stationarity_certification(self):
        """Family members certify stationary (residual <= 1e-10, exactly 0
        since the verdict is exact); counterexamples fail >1e-3."""
        t0 = time.perf_counter()
        family = [
            "A0",
            "A2 * lap(R) / R",
            "A4 * lap2(R) / R",
            "A6 * lap(lap2(R)) / R",
        ]
        family_worst = 0.0
        family_terms = []
        family_ok = True
        for text in family:
            rep = certify(parse_q_expression(text, 1), 1, trials=100)
            family_worst = max(family_worst, rep.max_abs_residual)
            family_terms.append(rep.numerator_terms)
            family_ok = family_ok and rep.passed() and rep.max_abs_residual <= 1e-10
        counter_ok = True
        counter_residuals = []
        for text in ("C * dx(R)", "C * dx(R)^2 / R"):
            rep = certify(parse_q_expression(text, 1), 1, trials=100)
            counter_residuals.append(rep.max_abs_residual)
            counter_ok = counter_ok and (not rep.passed()) and (
                rep.max_abs_residual > 1e-3
            )
        elapsed = time.perf_counter() - t0
        ok = family_ok and counter_ok
        _verdict(
            2,
            ok,
            f"family numerator terms {family_terms}, residuals <= {family_worst:.2e} "
            f"(tol 1e-10), counterexample residuals "
            f"{', '.join(f'{r:.2e}' for r in counter_residuals)} (> 1e-3) "
            f"[{elapsed:.2f}s]",
        )
        assert ok
        assert elapsed < 10.0

    def test_3_box_shift_two_paths(self):
        """Quartic box shift: quadrature and tracked eigenvalue both match the
        closed form to 1e-10 relative."""
        t0 = time.perf_counter()
        st = box_eigenstate(1.0, 1, 513, ELECTRON)
        closed = box_shift_closed_form(1.0, 1, 4, ELECTRON)
        de = perturbative_shift(st, 4, ELECTRON)
        rel_quad = abs(de - closed) / abs(closed)

        spec24 = QuantumPotentialSpec(
            (QTerm.relativistic(2), QTerm.relativistic(4))
        )
        V0 = GridFunction(st.R0.grid, np.zeros(st.R0.grid.n))
        pairs = solve_modified_eigenproblem(V0, spec24, ELECTRON, 1)
        rel_eig = abs((pairs[0][0] - st.E0) - closed) / abs(closed)
        elapsed = time.perf_counter() - t0
        ok = rel_quad <= 1e-10 and rel_eig <= 1e-10
        _verdict(
            3,
            ok,
            f"shift {closed:.6e} eV; quadrature gap {rel_quad:.2e}, "
            f"eigenvalue gap {rel_eig:.2e} (tol 1e-10) [{elapsed:.2f}s]",
        )
        assert ok
        assert elapsed < 5.0

    def test_4_hydrogen_shifts(self):
        """1s and 2s quartic shifts within 2% of the analytic values and
        within 2e-4 of the band-projected analytic values (``proj``; the
        resolution study of ``tests/test_spectra.py`` gives 1.5e-4 at the
        default 4096 radii); the two quadrature paths agree to 1e-6."""
        t0 = time.perf_counter()
        details = []
        ok = True
        for n in (1, 2):
            st = hydrogen_radial_state(n, ELECTRON)
            de = perturbative_shift(st, 4, ELECTRON)
            exact = hydrogen_shift_closed_form(n, ELECTRON)
            rel = abs(de - exact) / abs(exact)
            projected = exact * hydrogen_band_fraction(n)
            rel_proj = abs(de - projected) / abs(projected)
            gap = compare_shifts(st, ELECTRON).relative_gap
            ok = ok and rel <= 2e-2 and rel_proj <= 2e-4 and gap <= 1e-6
            details.append(f"{n}s rel {rel:.2e} proj {rel_proj:.2e} gap {gap:.2e}")
        elapsed = time.perf_counter() - t0
        _verdict(
            4,
            ok,
            "; ".join(details) + f" (tol 2e-2 / 2e-4 / 1e-6) [{elapsed:.2f}s]",
        )
        assert ok
        assert elapsed < 30.0

    def test_5_regime_ratios(self):
        """Successive-term ratio: grid quotient matches the analytic value to
        1e-3 in both regimes, with the expected orders of magnitude."""
        t0 = time.perf_counter()
        cases = (
            ("atomic", ELECTRON, 1.0, 1e-5, 1e-3),
            ("nuclear", PROTON, 1e-5, 1e-2, 1.0),
        )
        details = []
        ok = True
        for label, params, L, lo, hi in cases:
            analytic = term_ratio(L, 1, 1, params)
            on_grid = term_ratio_on_grid(L, 1, 1, params)
            gap = abs(on_grid - analytic) / abs(analytic)
            in_window = lo < abs(analytic) < hi
            ok = ok and gap <= 1e-3 and in_window
            details.append(
                f"{label} |ratio| {abs(analytic):.2e} "
                f"(scale {scale_ratio(L, params):.2e}), grid gap {gap:.2e}"
            )
        elapsed = time.perf_counter() - t0
        _verdict(5, ok, "; ".join(details) + f" (tol 1e-3) [{elapsed:.2f}s]")
        assert ok
        assert elapsed < 5.0

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_6_linear_limit(self, boundary):
        """With only the constant and kinetic terms the solver reproduces the
        exact linear propagator of its grid's modes (Fourier on the periodic
        grid, sine on the Dirichlet one), and the norm drifts below 1e-8.
        Both: L2 error below 1e-11; periodic also overlap deficit below
        1e-8.  The overlap deficit alone is blind to a phase error: a
        kinetic phase off by a factor 1 + 1e-5 reads L2 error 5.4e-8 on the
        periodic case, against 1.3e-13 for the exact phase.

        The Dirichlet bound comes from a dt and resolution study of this
        packet, orders 0, 2 and T = 1e-3 (k0 = 50 and 200; 1024 and 4096
        points; 1000 steps of 1e-6 and 10,000 of 1e-7): the L2 error is
        1.1e-13 to 1.3e-13 at 1000 steps and 9.5e-13 to 1.2e-12 at 10,000,
        roundoff that grows with the step count.  A 3-point Crank-Nicolson
        step reads 1.5e-6 here (2.5e-4 at k0 = 200), the same at dt / 10,
        while its overlap deficit is 3.5e-13: only the L2 error sees the
        stencil's dispersion."""
        t0 = time.perf_counter()
        g = Grid.uniform(0.0, 1.0, 1024, boundary)
        psi0 = WaveField.gaussian(g, center=0.5, width=0.05, k0=50.0)
        spec02 = QuantumPotentialSpec(
            (QTerm.relativistic(0), QTerm.relativistic(2))
        )
        steps, dt = 1000, 1e-6
        cfg = EvolutionConfig(dt=dt, steps=steps, store_every=steps)
        V = GridFunction(g, np.zeros(g.n))
        res = evolve(psi0, V, spec02, ELECTRON, cfg)

        T = steps * dt
        c2 = ELECTRON.hbar**2 / (2.0 * ELECTRON.mass)
        if boundary == PERIODIC:
            k = 2.0 * np.pi * scipy.fft.fftfreq(g.n, d=g.spacing)
            ref = scipy.fft.ifft(
                scipy.fft.fft(psi0.values)
                * np.exp(-1j * c2 * k**2 * T / ELECTRON.hbar)
            )
        else:
            k = np.arange(1, g.n - 1) * np.pi / g.length
            ref = np.zeros(g.n, np.complex128)
            ref[1:-1] = scipy.fft.idst(
                np.exp(-1j * c2 * k**2 * T / ELECTRON.hbar)
                * scipy.fft.dst(psi0.values[1:-1], type=1),
                type=1,
            )
        ref *= np.exp(-1j * ELECTRON.rest_energy * T / ELECTRON.hbar)
        final = res.frames[-1].values
        overlap = abs(g.spacing * np.sum(np.conj(ref) * final))
        deficit = abs(1.0 - overlap)
        l2 = math.sqrt(integrate(GridFunction(g, np.abs(final - ref) ** 2)))
        drift = float(np.max(np.abs(res.norms - res.norms[0])))
        elapsed = time.perf_counter() - t0
        if boundary == PERIODIC:
            ok = deficit < 1e-8 and l2 < 1e-11 and drift < 1e-8
            judged = "overlap deficit < 1e-8, L2 error < 1e-11"
        else:
            ok = l2 < 1e-11 and drift < 1e-8
            judged = "L2 error < 1e-11"
        _verdict(
            6,
            ok,
            f"{boundary}, {steps} steps: L2 error {l2:.2e}, overlap deficit "
            f"{deficit:.2e}, norm drift {drift:.2e} ({judged}, norm drift "
            f"< 1e-8) [{elapsed:.2f}s]",
        )
        assert ok
        assert elapsed < 60.0

    def test_7_nonlinearity_witness(self):
        """The quartic term visibly changes nuclear-regime dynamics (witness
        > 1e-6) while atomic-regime dynamics stay linear (witness < 1e-10)."""
        t0 = time.perf_counter()

        def witness(params, L):
            g = Grid.uniform(0.0, L, 1024)
            x = g.points / L
            vals = np.sin(np.pi * x) + 1j * np.sin(2.0 * np.pi * x)
            psi0 = WaveField(g, vals).normalized()
            V = GridFunction(g, np.zeros(g.n))
            cfg = EvolutionConfig(
                dt=2e-9, steps=1000, store_every=1000
            )
            spec24 = QuantumPotentialSpec(
                (QTerm.relativistic(2), QTerm.relativistic(4))
            )
            spec2 = QuantumPotentialSpec((QTerm.relativistic(2),))
            a = evolve(psi0, V, spec24, params, cfg)
            b = evolve(psi0, V, spec2, params, cfg)
            diff = a.frames[-1].values - b.frames[-1].values
            return (
                math.sqrt(integrate(GridFunction(g, np.abs(diff) ** 2))),
                _energy_drift(a),
            )

        w_nuc, drift_nuc = witness(PROTON, 1e-5)
        w_atom, drift_atom = witness(ELECTRON, 1.0)
        elapsed = time.perf_counter() - t0
        ok = w_nuc > 1e-6 and w_atom < 1e-10
        _verdict(
            7,
            ok,
            f"nuclear witness {w_nuc:.3e} (> 1e-6, energy drift {drift_nuc:.2e}), "
            f"atomic witness {w_atom:.3e} (< 1e-10, energy drift {drift_atom:.2e}) "
            f"[{elapsed:.2f}s]",
        )
        assert ok
        assert elapsed < 120.0

    def test_8_trajectory_equivariance(self):
        """Transporting density-sampled seeds along the guidance velocity
        reproduces the evolved density: histogram L1 error below 0.02."""
        t0 = time.perf_counter()
        g = Grid.uniform(0.0, 1.0, 1024, PERIODIC)
        psi0 = WaveField.gaussian(g, center=0.35, width=0.06, k0=40.0)
        spec2 = QuantumPotentialSpec((QTerm.relativistic(2),))
        cfg = EvolutionConfig(dt=2e-7, steps=400, store_every=8)
        V = GridFunction(g, np.zeros(g.n))
        res = evolve(psi0, V, spec2, ELECTRON, cfg)

        seeds = sample_from_density(psi0.amplitude(), 10_000)
        traj = integrate_trajectories(res, seeds, ELECTRON, substeps=4)
        ends = np.mod(traj.endpoints(), 1.0)

        bins = 64
        edges = np.linspace(0.0, 1.0, bins + 1)
        hist, _ = np.histogram(ends, bins=edges)
        p_traj = hist / hist.sum()
        dens = np.abs(res.frames[-1].values) ** 2
        p_field = np.array(
            [
                np.sum(dens[(g.points >= lo) & (g.points < hi)])
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
        )
        p_field = p_field / p_field.sum()
        l1 = float(np.sum(np.abs(p_traj - p_field)))
        elapsed = time.perf_counter() - t0
        ok = l1 < 0.02
        _verdict(
            8,
            ok,
            f"10000 seeds, 64 bins: histogram L1 distance {l1:.4f} "
            f"(tol 0.02) [{elapsed:.2f}s]",
        )
        assert ok
        assert elapsed < 60.0

    def test_10_exact_box_mode(self):
        """The box mode psi0 = sin(pi x / L) is an exact solution of the
        nonlinear evolution, psi(t) = exp(-i E t / hbar) psi0 with E = eps0 +
        sigma(k), since lap^n R / R = (-k^2)^n.  Orders 0, 2, 4, 1000 steps on
        1024 points; the final frame's L2 error is below 1e-10 (atomic) and
        1e-6 (nuclear).

        The kinetic step applies the exact exponential on the sine modes, so
        the error left is roundoff: 1.28e-13 (atomic) and 3.56e-14
        (nuclear) here.  A Crank-Nicolson step on the 3-point stencil left
        its dispersion, (hbar/2m) (k^2 - 4 sin^2(kh/2) / h^2) t: 1.50e-11
        and 1.64e-7, which the bounds, set about 6x above it, still admit.
        A state with a node (tau = 2) is out of scope: R = |psi| has a kink
        there."""
        t0 = time.perf_counter()
        spec = QuantumPotentialSpec.relativistic(4)

        def error(params, L, dt):
            g = Grid.uniform(0.0, L, 1024)
            psi0 = WaveField(g, np.sin(np.pi * g.points / L).astype(complex)).normalized()
            cfg = EvolutionConfig(dt=dt, steps=1000, store_every=1000)
            res = evolve(psi0, GridFunction(g, np.zeros(g.n)), spec, params, cfg)
            k = np.pi / L
            E = sum(
                dimensional_coefficient(t, params) * (-(k**2)) ** (t.order // 2)
                for t in spec.terms
            )
            exact = np.exp(-1j * E * res.times[-1] / params.hbar) * psi0.values
            diff = res.frames[-1].values - exact
            return math.sqrt(integrate(GridFunction(g, np.abs(diff) ** 2)))

        e_atom = error(ELECTRON, 1.0, 1e-6)
        e_nuc = error(PROTON, 1e-5, 2e-9)
        elapsed = time.perf_counter() - t0
        ok = e_atom < 1e-10 and e_nuc < 1e-6
        _verdict(
            10,
            ok,
            f"L2 error against exp(-iEt/hbar) psi0: atomic {e_atom:.3e} (< 1e-10), "
            f"nuclear {e_nuc:.3e} (< 1e-6) [{elapsed:.2f}s]",
        )
        assert ok
        assert elapsed < 30.0
