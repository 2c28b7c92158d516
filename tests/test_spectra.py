"""Stationary states, perturbative shifts, closed forms, and the eigensolver."""

import math
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from qpotlab.grid import DIRICHLET, PERIODIC, Grid, GridError, GridFunction
from qpotlab.qpotential import (
    FINE_STRUCTURE,
    QTerm,
    QuantumPotentialSpec,
    band_edge,
    dimensional_coefficient,
    electron_params,
    hierarchy_symbol,
    natural_params,
    proton_params,
)
from qpotlab.spectra import (
    StationaryState,
    bohr_radius,
    box_eigenstate,
    box_shift_closed_form,
    compare_shifts,
    hydrogen_band_fraction,
    hydrogen_default_grid,
    hydrogen_radial_state,
    hydrogen_shift_closed_form,
    perturbative_shift,
    relativistic_reference_shift,
    solve_modified_eigenproblem,
)

ELECTRON = electron_params()
REL4 = QTerm.relativistic(4)
# A uniform potential: nonzero, so the eigensolver takes its tracking path.
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
        # the reduced radial field needs a Dirichlet grid whose wall node is
        # r = 0
        for g in (Grid.uniform(0.0, 10.0, 256, PERIODIC), Grid.uniform(0.1, 10.0, 257)):
            with pytest.raises(GridError, match="Dirichlet grid starting at r = 0"):
                hydrogen_radial_state(1, ELECTRON, grid=g)

    def test_default_grid_spans_cusp_to_tail(self):
        # 2048 radii at r > 0 plus the wall node r = 0
        g = hydrogen_default_grid(ELECTRON, points=2048)
        a = bohr_radius(ELECTRON)
        assert g.boundary == DIRICHLET and g.n == 2049
        assert g.points[0] == 0.0
        assert g.points[-1] == pytest.approx(40.0 * a)
        assert hydrogen_default_grid(ELECTRON).n == 4097

    def test_default_grid_must_resolve_the_band(self):
        # pi radii / 40 a >= m c / hbar needs 40 / (pi alpha) = 1744.8 radii
        a = bohr_radius(ELECTRON)
        assert 1744 < 40.0 / (math.pi * FINE_STRUCTURE) < 1745
        g = hydrogen_default_grid(ELECTRON, points=1745)
        assert (g.n - 1) * math.pi / (40.0 * a) >= band_edge(ELECTRON)
        with pytest.raises(GridError, match="at least 1745"):
            hydrogen_default_grid(ELECTRON, points=1744)

    def test_states_are_the_reduced_radial_field(self):
        # sqrt(4 pi) r R with the textbook R, normalized on the grid
        g = hydrogen_default_grid(ELECTRON)
        a, r = bohr_radius(ELECTRON), g.points
        radial = {
            1: np.exp(-r / a) / math.sqrt(math.pi * a**3),
            2: (2.0 - r / a) * np.exp(-r / (2.0 * a)) / math.sqrt(32.0 * math.pi * a**3),
        }
        for n, R in radial.items():
            u = hydrogen_radial_state(n, ELECTRON, g).R0.values
            want = math.sqrt(4.0 * math.pi) * r * R
            assert u[0] == 0.0
            assert np.max(np.abs(u - want)) < 1e-9 * np.max(np.abs(want))


class TestPerturbativeShift:
    def test_order0_is_constant_coefficient(self):
        st = box_eigenstate(1.0, 1, 257, ELECTRON)
        assert perturbative_shift(st, QTerm.relativistic(0), ELECTRON) == pytest.approx(
            ELECTRON.rest_energy
        )

    def test_order2_reproduces_kinetic_energy(self):
        st = box_eigenstate(1.0, 1, 513, ELECTRON)
        # the order-2 term is the kinetic operator itself, so its expectation
        # on a box mode is the unperturbed energy
        de = perturbative_shift(st, QTerm.relativistic(2), ELECTRON)
        assert de == pytest.approx(st.E0, rel=1e-10)

    def test_order4_box_matches_closed_form(self):
        st = box_eigenstate(1.0, 1, 513, ELECTRON)
        de = perturbative_shift(st, REL4, ELECTRON)
        closed = box_shift_closed_form(1.0, 1, REL4, ELECTRON)
        assert abs(de - closed) / abs(closed) < 1e-12
        assert de == pytest.approx(-0.0013835516005, rel=1e-9)

    @pytest.mark.parametrize("tau, inside", [(1, True), (2, False)])
    def test_modes_above_the_band_shift_by_zero(self, tau, inside):
        # proton box of 1e-5 angstrom: lambda k = 0.66 tau, so tau = 2 lies
        # above the band edge k = m c / hbar and both shift paths drop its
        # order-4 shift; the order-0 term is no Laplacian power and stays
        proton = proton_params()
        st = box_eigenstate(1e-5, tau, 513, proton)
        rest = box_shift_closed_form(1e-5, tau, QTerm.relativistic(0), proton)
        assert rest == proton.rest_energy
        de = perturbative_shift(st, QTerm.relativistic(0), proton)
        assert de == pytest.approx(rest, rel=1e-12)
        de = perturbative_shift(st, REL4, proton)
        closed = box_shift_closed_form(1e-5, tau, REL4, proton)
        if inside:
            assert closed < 0 and abs(de - closed) / abs(closed) < 1e-10
        else:
            # the unprojected symbol A4 k^4 is the mode's shift without the
            # band; the quadrature keeps only roundoff leaked into lower modes
            A4 = dimensional_coefficient(REL4, proton)
            unprojected = A4 * (tau * math.pi / 1e-5) ** 4
            assert closed == 0.0 and abs(de) < 1e-12 * abs(unprojected)

    def test_order6_box_matches_closed_form(self):
        st = box_eigenstate(1.0, 2, 513, ELECTRON)
        de = perturbative_shift(st, QTerm.relativistic(6), ELECTRON)
        closed = box_shift_closed_form(1.0, 2, QTerm.relativistic(6), ELECTRON)
        assert abs(de - closed) / abs(closed) < 1e-10

    def test_dimensional_term_is_A_times_the_unit_form(self):
        # <R0, P lap^2 R0> is the relativistic shift over its A4; a term of
        # any other A4 shifts by A4 times it
        st = box_eigenstate(1.0, 1, 257, ELECTRON)
        unit = perturbative_shift(st, REL4, ELECTRON) / dimensional_coefficient(REL4, ELECTRON)
        de = perturbative_shift(st, QTerm(4, A=-2.0), ELECTRON)
        assert abs(de - -2.0 * unit) <= 1e-14 * abs(de)
        assert de == pytest.approx(-2.0 * math.pi**4, rel=1e-10)

    def test_odd_order_rejected(self):
        st = box_eigenstate(1.0, 1, 129, ELECTRON)
        with pytest.raises(ValueError):
            perturbative_shift(st, QTerm.relativistic(3), ELECTRON)


class TestClosedForms:
    def test_box_energy_expansion_consistency(self):
        # a_2n eps0 (pc/eps0)^{2n} with pc = tau pi hbar c / L
        pc = math.pi * ELECTRON.hbar * ELECTRON.c
        eps0 = ELECTRON.rest_energy
        expected = float(Fraction(-1, 8)) * eps0 * (pc / eps0) ** 4
        assert box_shift_closed_form(1.0, 1, REL4, ELECTRON) == pytest.approx(
            expected, rel=1e-14
        )

    def test_box_order2_is_nonrelativistic_energy(self):
        st = box_eigenstate(1.0, 1, 129, ELECTRON)
        assert box_shift_closed_form(1.0, 1, QTerm.relativistic(2), ELECTRON) == pytest.approx(
            st.E0, rel=1e-14
        )

    def test_box_dimensional_term_is_its_symbol(self):
        # A k^4 at k = 3 pi, bit for bit the symbol of the one-term spec
        term, k = QTerm(4, A=-2.5), 3.0 * math.pi
        closed = box_shift_closed_form(1.0, 3, term, ELECTRON)
        assert closed == float(hierarchy_symbol(QuantumPotentialSpec((term,)), ELECTRON, k))
        assert closed == pytest.approx(-2.5 * k**4, rel=1e-15)

    def test_box_validation(self):
        with pytest.raises(ValueError):
            box_shift_closed_form(1.0, 0, REL4, ELECTRON)
        with pytest.raises(ValueError):
            box_shift_closed_form(1.0, 1, QTerm.relativistic(3), ELECTRON)

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
        with pytest.raises(ValueError):
            hydrogen_band_fraction(3)

    @pytest.mark.parametrize("n", [1, 2])
    def test_hydrogen_band_fraction_matches_quadrature(self, n):
        # share of k^6 |phi(k)|^2 inside k a <= 1 / alpha, with a = 1
        from scipy.integrate import quad

        integrand = {
            1: lambda k: k**6 / (1.0 + k**2) ** 4,
            2: lambda k: k**6 * (4.0 * k**2 - 1.0) ** 2 / (4.0 * k**2 + 1.0) ** 6,
        }[n]
        edge = 1.0 / FINE_STRUCTURE
        opts = dict(limit=200, epsabs=0.0, epsrel=1e-13)
        inside = quad(integrand, 0.0, edge, **opts)[0]
        tail = quad(integrand, edge, np.inf, **opts)[0]
        assert abs(hydrogen_band_fraction(n) - inside / (inside + tail)) <= 1e-12
        # the O(alpha) tail above the band
        assert 1.0 - hydrogen_band_fraction(n) == pytest.approx(
            {1: 1.48650e-2, 2: 1.14350e-2}[n], abs=1e-7
        )


class TestOneSymbol:
    """The closed forms, the V = 0 levels and the symbol are one number."""

    # (params, L, tau): an atomic box mode inside the band, and a nuclear
    # one above it (lambda k = 1.32), where the order-4 term is projected out
    MODES = {
        "inside": (ELECTRON, 1.0, 1),
        "above": (proton_params(), 1e-5, 2),
    }

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_closed_forms_levels_and_symbol_agree_bit_for_bit(self, mode):
        params, L, tau = self.MODES[mode]
        k = tau * math.pi / L
        assert (k <= band_edge(params)) == (mode == "inside")
        spec = QuantumPotentialSpec.relativistic(4)
        rest = spec.without_order(2)  # order 2 is the kinetic c2 k^2
        symbol = float(hierarchy_symbol(rest, params, k))
        closed = sum(box_shift_closed_form(L, tau, t, params) for t in rest.terms)
        g = Grid.uniform(0.0, L, 129)
        levels = solve_modified_eigenproblem(GridFunction(g, np.zeros(g.n)), spec, params, tau)
        level, c2k2 = levels[-1][0], params.hbar**2 / (2.0 * params.mass) * k**2
        assert closed == symbol
        assert level == symbol + c2k2
        # the subtraction rounds back to the symbol at these two modes
        assert level - c2k2 == symbol


class TestReferencePath:
    def test_box_two_paths_agree(self):
        st = box_eigenstate(1.0, 1, 513, ELECTRON)
        res = compare_shifts(st, REL4, ELECTRON)
        assert res.relative_gap < 1e-8
        assert res.delta_E < 0

    def test_hydrogen_two_paths_agree(self):
        for n in (1, 2):
            st = hydrogen_radial_state(n, ELECTRON)
            res = compare_shifts(st, REL4, ELECTRON)
            assert res.relative_gap < 1e-8

    def test_hydrogen_shift_near_analytic(self):
        # the band-projected shift: the textbook value times its share of
        # <p^4> inside the band
        for n in (1, 2):
            st = hydrogen_radial_state(n, ELECTRON)
            de = perturbative_shift(st, REL4, ELECTRON)
            exact = hydrogen_shift_closed_form(n, ELECTRON) * hydrogen_band_fraction(n)
            assert abs(de - exact) / abs(exact) < 5e-3

    @pytest.mark.parametrize("radii, bound", [(4096, 2e-4), (8192, 2e-5)])
    def test_hydrogen_shift_converges_to_the_projected_value(self, radii, bound):
        # resolution study on [0, 40 a], worst of 1s and 2s against the
        # band-projected closed form: 2.9e-3 at 2048 radii, 1.5e-4 at 4096,
        # 1.1e-5 at 8192; the bounds sit just above the last two
        g = hydrogen_default_grid(ELECTRON, points=radii)
        for n in (1, 2):
            de = perturbative_shift(hydrogen_radial_state(n, ELECTRON, g), REL4, ELECTRON)
            exact = hydrogen_shift_closed_form(n, ELECTRON) * hydrogen_band_fraction(n)
            assert abs(de - exact) / abs(exact) < bound

    def test_reference_shift_sign(self):
        st = box_eigenstate(1.0, 1, 257, ELECTRON)
        assert relativistic_reference_shift(st, ELECTRON) < 0

    @pytest.mark.parametrize("order", [0, 6])
    def test_only_order4_terms_compare(self, order):
        # the reference path is the order-4 correction
        st = box_eigenstate(1.0, 1, 129, ELECTRON)
        with pytest.raises(ValueError, match=f"term is order {order}"):
            compare_shifts(st, QTerm.relativistic(order), ELECTRON)

    def test_spec_without_order4_has_no_order4_term(self):
        # the hydrogen scenario compares spec.term(4); a spec of orders 0 and
        # 2 must not fall back to the relativistic order-4 shift
        spec = QuantumPotentialSpec.relativistic(2)
        with pytest.raises(KeyError, match=r"no order-4 term \(orders: \(0, 2\)\)"):
            spec.term(4)

    def test_shift_result_serializes(self):
        st = box_eigenstate(1.0, 1, 257, ELECTRON)
        d = asdict(compare_shifts(st, REL4, ELECTRON))
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

    def test_tracked_matches_spectral_with_offset_potential(self):
        # a uniform offset V takes the tracking path and shifts every level
        # by exactly the offset, leaving the eigenvectors as they are
        spectral = solve_modified_eigenproblem(self.V0, self.spec24, ELECTRON, 3)
        V = GridFunction(self.g, np.full(self.g.n, OFFSET))
        tracked = solve_modified_eigenproblem(V, self.spec24, ELECTRON, 3)
        for (es, vs), (ef, vf) in zip(spectral, tracked):
            # measured: 0.0 on every level
            assert abs(ef - (es + OFFSET)) / abs(es + OFFSET) <= 1e-12
            overlap = abs(np.trapezoid(vs.values * vf.values, self.g.points))
            assert overlap > 1.0 - 1e-8

    def test_shift_consistent_with_perturbation(self):
        # mode-tracked modified energy minus unperturbed energy = exact shift
        pairs = solve_modified_eigenproblem(self.V0, self.spec24, ELECTRON, 1)
        st = box_eigenstate(1.0, 1, 257, ELECTRON)
        shift = pairs[0][0] - st.E0
        closed = box_shift_closed_form(1.0, 1, REL4, ELECTRON)
        assert abs(shift - closed) / abs(closed) < 1e-10

    def test_order0_offsets_every_level(self):
        spec024 = QuantumPotentialSpec.relativistic(4)
        with_offset = solve_modified_eigenproblem(self.V0, spec024, ELECTRON, 2)
        without = solve_modified_eigenproblem(self.V0, self.spec24, ELECTRON, 2)
        for (ew, _), (eo, _) in zip(with_offset, without):
            assert ew - eo == pytest.approx(ELECTRON.rest_energy, rel=1e-12)

    def test_tracked_with_potential_well(self):
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
        bad = QuantumPotentialSpec((QTerm(2, a=Fraction(1, 3)),))
        with pytest.raises(ValueError, match="kinetic"):
            solve_modified_eigenproblem(self.V0, bad, ELECTRON, 1)

    def test_order6_capped(self):
        spec6 = QuantumPotentialSpec.relativistic(6)
        with pytest.raises(ValueError, match="order 6"):
            solve_modified_eigenproblem(self.V0, spec6, ELECTRON, 1)

    def test_requires_uniform_dirichlet(self):
        gr = Grid.uniform(0.0, 1.0, 64, PERIODIC)
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


    def test_a_vanishing_potential_keeps_the_operator(self):
        # a V too small to see must move each projected level by its
        # first-order shift <tau|V|tau> (V itself where V is uniform), not
        # switch to another operator; the bound is relative to that level,
        # since a uniform 1e-12 is already 2e-11 of the L = 10 ground level
        p = natural_params()
        for length in (1.0, 10.0):
            g = Grid.uniform(0.0, length, 129)
            exact = solve_modified_eigenproblem(
                GridFunction(g, np.zeros(g.n)), self.spec24, p, 5
            )
            for tiny in (np.full(g.n, 1e-12), 1e-12 * np.cos(np.pi * g.points / length)):
                pairs = solve_modified_eigenproblem(GridFunction(g, tiny), self.spec24, p, 5)
                for tau, ((energy, _), (e0, mode)) in enumerate(zip(pairs, exact), start=1):
                    expected = e0 + np.sum(mode.values**2 * tiny) / np.sum(mode.values**2)
                    assert abs(energy - expected) <= 1e-12 * abs(expected), tau


# --------------------------------------------------------------------------
# Dense oracle for the eigensolver: the projected operator S diag(d) S +
# diag(V) assembled densely, a full eigh, then greedy assignment of
# eigenvectors to sine modes by overlap.
# --------------------------------------------------------------------------


def greedy_oracle(V, spec, params, count):
    # the oracle for the linear algebra, not for the symbol: its diagonal
    # is the one symbol plus the kinetic c2 k^2
    g = V.grid
    m = g.n - 2
    k = np.arange(1, m + 1) * np.pi / g.length
    c2 = params.hbar**2 / (2.0 * params.mass)
    d = hierarchy_symbol(spec.without_order(2), params, k) + c2 * k**2
    j = np.arange(1, m + 1)
    S = math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(j, j) / (m + 1))
    evals, evecs = np.linalg.eigh(S @ np.diag(d) @ S + np.diag(V.values[1:-1]))
    used, out = set(), []
    for tau in range(1, count + 1):
        overlaps = np.abs(evecs.T @ S[:, tau - 1])
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
    """The tracking path (V != 0): the dense oracle, refusals and memory."""

    spec024 = QuantumPotentialSpec.relativistic(4)

    def potential(self, name, n):
        g = Grid.uniform(0.0, 1.0, n)
        return GridFunction(g, POTENTIALS[name](g.points))

    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    def test_matches_dense_oracle(self, name):
        V = self.potential(name, 513)
        got = solve_modified_eigenproblem(V, self.spec024, ELECTRON, 10)
        ref = greedy_oracle(V, self.spec024, ELECTRON, 10)
        # relative to the level above the rest energy A0 that every level
        # carries, which would otherwise admit 5e-5 eV
        a0 = dimensional_coefficient(self.spec024.term(0), ELECTRON)
        for (energy, vec), (e_ref, u_ref) in zip(got, ref):
            assert abs(energy - e_ref) <= 1e-10 * abs(e_ref - a0)
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
        V = GridFunction(g, np.full(g.n, OFFSET))  # the tracking path
        tracked = solve_modified_eigenproblem(V, self.spec024, ELECTRON, 10)
        for (_, vs), (_, vf) in zip(spectral, tracked):
            # measured: 4.3e-15
            assert np.max(np.abs(vs.values - vf.values)) <= 1e-12

    @pytest.mark.parametrize("name", ["offset", "harmonic"])
    def test_peak_allocation_is_banded(self, name):
        # a dense assembly of H allocates 134.7 MB here
        V = self.potential(name, 2049)
        tracemalloc.start()
        try:
            solve_modified_eigenproblem(V, self.spec024, ELECTRON, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
