"""Stationary states, perturbative shifts, closed forms, and the eigensolver."""

import math
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from qpotlab.grid import Grid, GridError, GridFunction
from qpotlab.qpotential import (
    FINE_STRUCTURE,
    QTerm,
    QuantumPotentialSpec,
    electron_params,
    natural_params,
    proton_params,
)
from qpotlab import spectra
from qpotlab.spectra import (
    StationaryState,
    bohr_radius,
    box_eigenstate,
    box_shift_closed_form,
    compare_shifts,
    hydrogen_default_grid,
    hydrogen_radial_state,
    hydrogen_shift_closed_form,
    perturbative_shift,
    relativistic_reference_shift,
    solve_modified_eigenproblem,
)

ELECTRON = electron_params()
# A uniform potential: nonzero, so the eigensolver takes its FD path.
OFFSET = 3.7


class TestBoxEigenstate:
    def test_ground_energy_electron_angstrom(self):
        st = box_eigenstate(1.0, 1, 513, ELECTRON)
        # hbar^2 pi^2 / (2 m L^2) for an electron in a 1-angstrom box
        expected = (math.pi * ELECTRON.hbar) ** 2 / (2.0 * ELECTRON.mass)
        assert st.E0 == pytest.approx(expected, rel=1e-14)
        assert st.E0 == pytest.approx(37.6030162387, rel=1e-9)

    def test_normalized(self):
        st = box_eigenstate(2.0, 3, 257, ELECTRON)
        assert st.R0.is_normalized()

    def test_energy_scales_with_mode(self):
        e1 = box_eigenstate(1.0, 1, 129, ELECTRON).E0
        e3 = box_eigenstate(1.0, 3, 129, ELECTRON).E0
        assert e3 == pytest.approx(9.0 * e1, rel=1e-12)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            box_eigenstate(1.0, 0, 129, ELECTRON)

    def test_unnormalized_state_rejected(self):
        g = Grid.uniform(0.0, 1.0, 65)
        bad = GridFunction(g, 3.0 * np.sin(np.pi * g.points))
        with pytest.raises(ValueError, match="not normalized"):
            StationaryState(R0=bad, E0=1.0, label="bad")


class TestHydrogenStates:
    def test_bohr_radius(self):
        a = bohr_radius(ELECTRON)
        assert a == pytest.approx(0.529177, rel=1e-5)

    def test_1s_energy(self):
        st = hydrogen_radial_state(1, ELECTRON)
        assert st.E0 == pytest.approx(-13.6057, rel=1e-4)

    def test_2s_energy_quarter(self):
        e1 = hydrogen_radial_state(1, ELECTRON).E0
        e2 = hydrogen_radial_state(2, ELECTRON).E0
        assert e2 == pytest.approx(e1 / 4.0, rel=1e-12)

    def test_states_normalized(self):
        for n in (1, 2):
            st = hydrogen_radial_state(n, ELECTRON)
            assert st.R0.is_normalized()

    def test_2s_has_radial_node(self):
        st = hydrogen_radial_state(2, ELECTRON)
        assert np.min(st.R0.values) < 0 < np.max(st.R0.values)

    def test_unsupported_states(self):
        with pytest.raises(ValueError):
            hydrogen_radial_state(3, ELECTRON)

    def test_requires_radial_grid(self):
        g = Grid.uniform(0.0, 10.0, 257)
        with pytest.raises(GridError):
            hydrogen_radial_state(1, ELECTRON, grid=g)

    def test_default_grid_spans_cusp_to_tail(self):
        g = hydrogen_default_grid(ELECTRON, points=512)
        a = bohr_radius(ELECTRON)
        assert g.points[0] == pytest.approx(1e-4 * a)
        assert g.points[-1] == pytest.approx(50.0 * a)


class TestPerturbativeShift:
    def test_order0_is_constant_coefficient(self):
        st = box_eigenstate(1.0, 1, 257, ELECTRON)
        assert perturbative_shift(st, 0, ELECTRON) == pytest.approx(
            ELECTRON.rest_energy
        )

    def test_order2_reproduces_kinetic_energy(self):
        st = box_eigenstate(1.0, 1, 513, ELECTRON)
        # the order-2 term is the kinetic operator itself, so its expectation
        # on a box mode is the unperturbed energy
        assert perturbative_shift(st, 2, ELECTRON) == pytest.approx(st.E0, rel=1e-10)

    def test_order4_box_matches_closed_form(self):
        st = box_eigenstate(1.0, 1, 513, ELECTRON)
        de = perturbative_shift(st, 4, ELECTRON)
        closed = box_shift_closed_form(1.0, 1, 4, ELECTRON)
        assert abs(de - closed) / abs(closed) < 1e-12
        assert de == pytest.approx(-0.0013835516005, rel=1e-9)

    @pytest.mark.parametrize("tau, inside", [(1, True), (2, False)])
    def test_modes_above_the_band_shift_by_zero(self, tau, inside):
        # proton box of 1e-5 angstrom: lambda k = 0.66 tau, so tau = 2 lies
        # above the band edge k = m c / hbar and both shift paths drop its
        # order-4 shift; the order-0 term is no Laplacian power and stays
        proton = proton_params()
        st = box_eigenstate(1e-5, tau, 513, proton)
        rest = box_shift_closed_form(1e-5, tau, 0, proton)
        assert rest == proton.rest_energy
        assert perturbative_shift(st, 0, proton) == pytest.approx(rest, rel=1e-12)
        de = perturbative_shift(st, 4, proton)
        closed = box_shift_closed_form(1e-5, tau, 4, proton)
        if inside:
            assert closed < 0 and abs(de - closed) / abs(closed) < 1e-10
        else:
            # the unprojected reference path still sees the mode's shift;
            # the quadrature keeps only roundoff leaked into lower modes
            unprojected = relativistic_reference_shift(st, proton)
            assert closed == 0.0 and abs(de) < 1e-12 * abs(unprojected)

    def test_order6_box_matches_closed_form(self):
        st = box_eigenstate(1.0, 2, 513, ELECTRON)
        de = perturbative_shift(st, 6, ELECTRON)
        closed = box_shift_closed_form(1.0, 2, 6, ELECTRON)
        assert abs(de - closed) / abs(closed) < 1e-10

    def test_spec_coefficient_override(self):
        st = box_eigenstate(1.0, 1, 257, ELECTRON)
        spec = QuantumPotentialSpec((QTerm.dimensional(4, -2.0),))
        de = perturbative_shift(st, 4, ELECTRON, spec)
        k = math.pi
        assert de == pytest.approx(-2.0 * k**4, rel=1e-10)

    def test_odd_order_rejected(self):
        st = box_eigenstate(1.0, 1, 129, ELECTRON)
        with pytest.raises(ValueError):
            perturbative_shift(st, 3, ELECTRON)


class TestClosedForms:
    def test_box_energy_expansion_consistency(self):
        # a_2n eps0 (pc/eps0)^{2n} with pc = tau pi hbar c / L
        pc = math.pi * ELECTRON.hbar * ELECTRON.c
        eps0 = ELECTRON.rest_energy
        expected = float(Fraction(-1, 8)) * eps0 * (pc / eps0) ** 4
        assert box_shift_closed_form(1.0, 1, 4, ELECTRON) == pytest.approx(
            expected, rel=1e-14
        )

    def test_box_order2_is_nonrelativistic_energy(self):
        st = box_eigenstate(1.0, 1, 129, ELECTRON)
        assert box_shift_closed_form(1.0, 1, 2, ELECTRON) == pytest.approx(
            st.E0, rel=1e-14
        )

    def test_box_validation(self):
        with pytest.raises(ValueError):
            box_shift_closed_form(1.0, 0, 4, ELECTRON)
        with pytest.raises(ValueError):
            box_shift_closed_form(1.0, 1, 3, ELECTRON)

    def test_hydrogen_prefactors(self):
        eps0 = ELECTRON.rest_energy
        a4 = FINE_STRUCTURE**4
        assert hydrogen_shift_closed_form(1, ELECTRON) == pytest.approx(
            -5.0 / 8.0 * eps0 * a4, rel=1e-14
        )
        assert hydrogen_shift_closed_form(2, ELECTRON) == pytest.approx(
            -13.0 / 128.0 * eps0 * a4, rel=1e-14
        )

    def test_hydrogen_validation(self):
        with pytest.raises(ValueError):
            hydrogen_shift_closed_form(3, ELECTRON)


class TestReferencePath:
    def test_box_two_paths_agree(self):
        st = box_eigenstate(1.0, 1, 513, ELECTRON)
        res = compare_shifts(st, ELECTRON)
        assert res.relative_gap < 1e-8
        assert res.delta_E < 0

    def test_hydrogen_two_paths_agree(self):
        for n in (1, 2):
            st = hydrogen_radial_state(n, ELECTRON)
            res = compare_shifts(st, ELECTRON)
            assert res.relative_gap < 1e-8

    def test_hydrogen_shift_near_analytic(self):
        for n in (1, 2):
            st = hydrogen_radial_state(n, ELECTRON)
            de = perturbative_shift(st, 4, ELECTRON)
            exact = hydrogen_shift_closed_form(n, ELECTRON)
            assert abs(de - exact) / abs(exact) < 5e-3

    def test_reference_shift_sign(self):
        st = box_eigenstate(1.0, 1, 257, ELECTRON)
        assert relativistic_reference_shift(st, ELECTRON) < 0

    def test_shift_result_serializes(self):
        st = box_eigenstate(1.0, 1, 257, ELECTRON)
        d = asdict(compare_shifts(st, ELECTRON))
        assert set(d) == {"state", "delta_E", "delta_E_reference", "relative_gap"}


class TestEigenproblem:
    def setup_method(self):
        self.g = Grid.uniform(0.0, 1.0, 257)
        self.V0 = GridFunction(self.g, np.zeros(self.g.n))
        self.spec24 = QuantumPotentialSpec(
            (QTerm.relativistic(2), QTerm.relativistic(4))
        )

    def test_spectral_energies_and_order(self):
        pairs = solve_modified_eigenproblem(self.V0, self.spec24, ELECTRON, 4)
        c2 = ELECTRON.hbar**2 / (2.0 * ELECTRON.mass)
        A4 = float(Fraction(-1, 8)) * ELECTRON.rest_energy * (
            ELECTRON.hbar / (ELECTRON.mass * ELECTRON.c)
        ) ** 4
        for tau, (energy, vec) in enumerate(pairs, start=1):
            k = tau * np.pi
            assert energy == pytest.approx(c2 * k**2 + A4 * k**4, rel=1e-13)
            assert vec.is_normalized()

    def test_fd_matches_spectral_with_zero_potential(self):
        # a uniform offset V takes the FD path and shifts every level by
        # exactly the offset, leaving the eigenvectors as they are
        spectral = solve_modified_eigenproblem(self.V0, self.spec24, ELECTRON, 3)
        V = GridFunction(self.g, np.full(self.g.n, OFFSET))
        fd = solve_modified_eigenproblem(V, self.spec24, ELECTRON, 3)
        for (es, vs), (ef, vf) in zip(spectral, fd):
            # fd assembly carries O(h^4) discretization error
            assert abs(ef - (es + OFFSET)) / abs(es + OFFSET) < 1e-6
            overlap = abs(np.trapezoid(vs.values * vf.values, self.g.points))
            assert overlap > 1.0 - 1e-8

    def test_shift_consistent_with_perturbation(self):
        # mode-tracked modified energy minus unperturbed energy = exact shift
        pairs = solve_modified_eigenproblem(self.V0, self.spec24, ELECTRON, 1)
        st = box_eigenstate(1.0, 1, 257, ELECTRON)
        shift = pairs[0][0] - st.E0
        closed = box_shift_closed_form(1.0, 1, 4, ELECTRON)
        assert abs(shift - closed) / abs(closed) < 1e-10

    def test_order0_offsets_every_level(self):
        spec024 = QuantumPotentialSpec.relativistic(4)
        with_offset = solve_modified_eigenproblem(self.V0, spec024, ELECTRON, 2)
        without = solve_modified_eigenproblem(self.V0, self.spec24, ELECTRON, 2)
        for (ew, _), (eo, _) in zip(with_offset, without):
            assert ew - eo == pytest.approx(ELECTRON.rest_energy, rel=1e-12)

    def test_fd_with_potential_well(self):
        # attractive square well deepens the tracked ground level
        depth = 5.0
        w = np.where(np.abs(self.g.points - 0.5) < 0.125, -depth, 0.0)
        V = GridFunction(self.g, w)
        spec2 = QuantumPotentialSpec((QTerm.relativistic(2),))
        pairs = solve_modified_eigenproblem(V, spec2, ELECTRON, 1)
        free = solve_modified_eigenproblem(self.V0, spec2, ELECTRON, 1)
        assert pairs[0][0] < free[0][0]
        assert free[0][0] - depth < pairs[0][0]

    def test_order2_coefficient_conflict(self):
        bad = QuantumPotentialSpec((QTerm.rational(2, Fraction(1, 3)),))
        with pytest.raises(ValueError, match="kinetic"):
            solve_modified_eigenproblem(self.V0, bad, ELECTRON, 1)

    def test_order6_capped(self):
        spec6 = QuantumPotentialSpec.relativistic(6)
        with pytest.raises(ValueError, match="order 6"):
            solve_modified_eigenproblem(self.V0, spec6, ELECTRON, 1)

    def test_requires_uniform_dirichlet(self):
        gr = Grid.radial_log(1e-3, 10.0, 64)
        V = GridFunction(gr, np.zeros(64))
        with pytest.raises(GridError):
            solve_modified_eigenproblem(V, self.spec24, ELECTRON, 1)

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            solve_modified_eigenproblem(self.V0, self.spec24, ELECTRON, 0)
        with pytest.raises(ValueError):
            solve_modified_eigenproblem(self.V0, self.spec24, ELECTRON, 10_000)

    def test_natural_units_tracking_past_unbounded_region(self):
        # with A4 < 0 the unprojected operator is unbounded below beyond
        # k* = 2; the spectral path projects onto the band k <= m c / hbar
        # = 1, so the order-4 term drops for every mode above it and the
        # modes come back in tau order with finite energies
        p = natural_params()
        for length, in_band in ((1.0, 0), (10.0, 3)):
            g = Grid.uniform(0.0, length, 129)
            V = GridFunction(g, np.zeros(129))
            pairs = solve_modified_eigenproblem(V, self.spec24, p, 5)
            ks = np.array([t * np.pi / length for t in range(1, 6)])
            assert np.count_nonzero(ks <= 1.0) == in_band
            quartic = np.where(ks <= 1.0, (1.0 / 8.0) * ks**4, 0.0)
            expected = 0.5 * ks**2 - quartic
            got = np.array([e for e, _ in pairs])
            assert np.allclose(got, expected, rtol=1e-12)
            assert np.all(np.isfinite(got)) and np.all(np.diff(got) > 0)


# --------------------------------------------------------------------------
# Dense oracle for the banded eigensolver: dense assembly, full eigh, then
# greedy assignment of eigenvectors to sine modes by overlap.
# --------------------------------------------------------------------------


def dense_laplacian(g):
    """Dense 4th-order Laplacian on interior nodes; the ghost across each
    zero wall reflects to minus the first interior node."""
    m = g.n - 2
    A = np.zeros((m, m))
    for off, w in ((0, -30.0), (1, 16.0), (-1, 16.0), (2, -1.0), (-2, -1.0)):
        idx = np.arange(max(0, -off), min(m, m - off))
        A[idx, idx + off] = w
    A[0, 0] += 1.0
    A[m - 1, m - 1] += 1.0
    return A / (12.0 * g.spacing**2)


def dense_operator(g, coeffs, V_int):
    M2 = dense_laplacian(g)
    return coeffs[1] * M2 + coeffs[2] * (M2 @ M2) + np.diag(V_int + coeffs[0])


def band_to_dense(ab):
    bw = (ab.shape[0] - 1) // 2
    m = ab.shape[1]
    H = np.zeros((m, m))
    for i in range(m):
        for j in range(max(0, i - bw), min(m, i + bw + 1)):
            H[i, j] = ab[bw + i - j, j]
    return H


def greedy_oracle(V, spec, params, count):
    g = V.grid
    coeffs = spectra._operator_coefficients(spec, params)
    evals, evecs = scipy.linalg.eigh(dense_operator(g, coeffs, V.values[1:-1]))
    x = g.points[1:-1] - g.points[0]
    used, out = set(), []
    for tau in range(1, count + 1):
        overlaps = np.abs(evecs.T @ np.sin(tau * np.pi * x / g.length))
        j = next(int(j) for j in np.argsort(overlaps)[::-1] if int(j) not in used)
        used.add(j)
        out.append((evals[j], evecs[:, j]))
    return out


POTENTIALS = {
    "offset": lambda x: np.full(x.size, 3.7),
    "square_well": lambda x: np.where(np.abs(x - 0.5) < 0.125, -5.0, 0.0),
    "cosine": lambda x: 300.0 * np.cos(6.0 * np.pi * x),
    "harmonic": lambda x: 2000.0 * (x - 0.5) ** 2,
}


class TestBandedEigensolver:
    spec024 = QuantumPotentialSpec.relativistic(4)

    def potential(self, name, n):
        g = Grid.uniform(0.0, 1.0, n)
        return GridFunction(g, POTENTIALS[name](g.points))

    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    @pytest.mark.parametrize(
        "spec",
        [spec024, QuantumPotentialSpec((QTerm.relativistic(2),))],
        ids=["orders024", "orders2"],
    )
    def test_band_assembly_equals_dense(self, name, spec):
        V = self.potential(name, 129)
        coeffs = spectra._operator_coefficients(spec, ELECTRON)
        ab = spectra._banded_operator(V.grid, coeffs, V.values[1:-1])
        H = dense_operator(V.grid, coeffs, V.values[1:-1])
        assert np.max(np.abs(band_to_dense(ab) - H)) <= 1e-15 * np.max(np.abs(H))

    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    def test_matches_dense_oracle(self, name):
        V = self.potential(name, 513)
        got = solve_modified_eigenproblem(V, self.spec024, ELECTRON, 10)
        ref = greedy_oracle(V, self.spec024, ELECTRON, 10)
        for (energy, vec), (e_ref, u_ref) in zip(got, ref):
            assert abs(energy - e_ref) <= 1e-10 * abs(e_ref)
            interior = vec.values[1:-1]
            overlap = interior @ u_ref / np.linalg.norm(interior)
            assert abs(overlap) >= 1.0 - 1e-8

    def test_untrackable_mode_raises(self):
        # a steep well mixes the sine modes: mode 1 keeps overlap^2 0.20
        g = Grid.uniform(0.0, 1.0, 1025)
        V = GridFunction(g, 1e5 * (g.points - 0.5) ** 2)
        with pytest.raises(RuntimeError, match="tau=1"):
            solve_modified_eigenproblem(V, self.spec024, ELECTRON, 3)

    def test_sign_follows_the_sine_mode(self):
        g = Grid.uniform(0.0, 1.0, 2049)
        V0 = GridFunction(g, np.zeros(g.n))
        spectral = solve_modified_eigenproblem(V0, self.spec024, ELECTRON, 10)
        V = GridFunction(g, np.full(g.n, OFFSET))  # the FD path
        fd = solve_modified_eigenproblem(V, self.spec024, ELECTRON, 10)
        for (_, vs), (_, vf) in zip(spectral, fd):
            assert np.max(np.abs(vs.values - vf.values)) <= 1e-6

    @pytest.mark.parametrize("name", ["offset", "harmonic"])
    def test_peak_allocation_is_banded(self, name):
        # the dense assembly allocates 134.7 MB here
        V = self.potential(name, 2049)
        tracemalloc.start()
        try:
            solve_modified_eigenproblem(V, self.spec024, ELECTRON, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
