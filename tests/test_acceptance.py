"""End-to-end acceptance gate.

Eight numbered criteria, each with a hard tolerance and a time budget.
Every test prints one verdict line (run pytest with -s to see them live).
"""

import math
import time
from fractions import Fraction

import numpy as np
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
from qpotlab.grid import PERIODIC, Grid, GridFunction, integrate
from qpotlab.qpotential import (
    QTerm,
    QuantumPotentialSpec,
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
        """Family members certify stationary at 1e-10; counterexamples fail >1e-3."""
        t0 = time.perf_counter()
        family = [
            "A0",
            "A2 * lap(R) / R",
            "A4 * lap2(R) / R",
            "A6 * lap(lap2(R)) / R",
        ]
        family_worst = 0.0
        family_ok = True
        for text in family:
            rep = certify(parse_q_expression(text, 1), 1, trials=100, tol=1e-10)
            family_worst = max(family_worst, rep.max_abs_residual)
            family_ok = family_ok and rep.passed()
        counter_ok = True
        counter_best = math.inf
        for text in ("C * dx(R)", "C * dx(R)^2 / R"):
            rep = certify(parse_q_expression(text, 1), 1, trials=100, tol=1e-10)
            counter_best = min(counter_best, rep.max_abs_residual)
            counter_ok = counter_ok and (not rep.passed()) and (
                rep.max_abs_residual > 1e-3
            )
        elapsed = time.perf_counter() - t0
        ok = family_ok and counter_ok
        _verdict(
            2,
            ok,
            f"family residuals <= {family_worst:.2e} (tol 1e-10), "
            f"counterexample residuals >= {counter_best:.2e} (> 1e-3) "
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
        """1s and 2s quartic shifts within 2% of the analytic values; the two
        quadrature paths agree to 1e-6."""
        t0 = time.perf_counter()
        details = []
        ok = True
        for n in (1, 2):
            st = hydrogen_radial_state(n, ELECTRON)
            de = perturbative_shift(st, 4, ELECTRON)
            exact = hydrogen_shift_closed_form(n, ELECTRON)
            rel = abs(de - exact) / abs(exact)
            gap = compare_shifts(st, ELECTRON).relative_gap
            ok = ok and rel <= 2e-2 and gap <= 1e-6
            details.append(f"{n}s rel {rel:.2e} gap {gap:.2e}")
        elapsed = time.perf_counter() - t0
        _verdict(
            4,
            ok,
            "; ".join(details) + f" (tol 2e-2 / 1e-6) [{elapsed:.2f}s]",
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

    def test_6_linear_limit(self):
        """With only the constant and kinetic terms the solver reproduces the
        exact linear propagator: overlap deficit and norm drift below 1e-8."""
        t0 = time.perf_counter()
        g = Grid.uniform(0.0, 1.0, 1024, PERIODIC)
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
        k = 2.0 * np.pi * scipy.fft.fftfreq(g.n, d=g.spacing)
        ref = scipy.fft.ifft(
            scipy.fft.fft(psi0.values) * np.exp(-1j * c2 * k**2 * T / ELECTRON.hbar)
        ) * np.exp(-1j * ELECTRON.rest_energy * T / ELECTRON.hbar)
        overlap = abs(g.spacing * np.sum(np.conj(ref) * res.frames[-1].values))
        deficit = abs(1.0 - overlap)
        drift = float(np.max(np.abs(res.norms - res.norms[0])))
        elapsed = time.perf_counter() - t0
        ok = deficit < 1e-8 and drift < 1e-8
        _verdict(
            6,
            ok,
            f"{steps} steps: overlap deficit {deficit:.2e}, norm drift "
            f"{drift:.2e} (tol 1e-8) [{elapsed:.2f}s]",
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
                a.clamp_count,
            )

        w_nuc, clamps_nuc = witness(PROTON, 1e-5)
        w_atom, clamps_atom = witness(ELECTRON, 1.0)
        elapsed = time.perf_counter() - t0
        ok = w_nuc > 1e-6 and w_atom < 1e-10
        _verdict(
            7,
            ok,
            f"nuclear witness {w_nuc:.3e} (> 1e-6, {clamps_nuc} clamp events), "
            f"atomic witness {w_atom:.3e} (< 1e-10, {clamps_atom} clamps) "
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
