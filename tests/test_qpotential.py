"""Physical parameters, potential specs, grid evaluation, and scale ratios."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qpotlab.coeffs import a2n
from qpotlab.dynamics import energy_operator
from qpotlab.grid import PERIODIC, Grid, GridError, GridFunction, inner, series_operator
from qpotlab.qpotential import (
    FINE_STRUCTURE,
    PhysicalParams,
    band_edge,
    QTerm,
    QuantumPotentialSpec,
    complete_q_operator,
    dimensional_coefficient,
    electron_params,
    expectation_operator,
    hierarchy_symbol,
    load_spec,
    natural_params,
    params_by_name,
    proton_params,
    scale_ratio,
    spec_from_config,
    term_ratio,
    term_ratio_on_grid,
)
from qpotlab.serialize import ConfigError, RecordingConfig


class TestPhysicalParams:
    def test_electron_rest_energy(self):
        p = electron_params()
        assert p.rest_energy == pytest.approx(510998.95, rel=1e-9)

    def test_compton_wavelength(self):
        p = electron_params()
        # 2 pi hbar c / (m c^2) in the eV/angstrom system, about 0.0243 angstrom
        assert p.compton_wavelength == pytest.approx(
            2.0 * np.pi * 1973.269804 / 510998.95
        )

    def test_proton_heavier(self):
        assert proton_params().rest_energy > 1000 * electron_params().rest_energy
        assert proton_params().compton_wavelength < electron_params().compton_wavelength

    def test_natural_units(self):
        p = natural_params()
        assert p.rest_energy == 1.0
        assert p.compton_wavelength == pytest.approx(2.0 * np.pi)

    def test_params_by_name(self):
        assert params_by_name("electron") == electron_params()
        assert params_by_name("proton") == proton_params()
        assert params_by_name("natural", c=2.0).c == 2.0
        with pytest.raises(ValueError):
            params_by_name("muon")

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PhysicalParams(hbar=1.0, mass=0.0, c=1.0)
        with pytest.raises(ValueError):
            PhysicalParams(hbar=-1.0, mass=1.0, c=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["hbar", "mass", "c"])
    def test_non_finite_params_refused_by_name(self, field, value):
        values = {"hbar": 1.0, "mass": 1.0, "c": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            PhysicalParams(**values)

    def test_fine_structure_value(self):
        assert FINE_STRUCTURE == pytest.approx(1 / 137.036, rel=1e-5)


class TestQTerm:
    def test_exactly_one_coefficient(self):
        with pytest.raises(ValueError):
            QTerm(order=2)
        with pytest.raises(ValueError):
            QTerm(order=2, a=Fraction(1, 2), A=1.0)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            QTerm(order=3, a=Fraction(1))

    def test_relativistic_coefficients(self):
        assert QTerm.relativistic(0).a == 1
        assert QTerm.relativistic(2).a == Fraction(1, 2)
        assert QTerm.relativistic(4).a == Fraction(-1, 8)
        assert QTerm.relativistic(6).a == Fraction(1, 16)

    def test_rational_and_dimensional(self):
        t = QTerm(4, a="3/7")
        assert t.a == Fraction(3, 7) and type(t.a) is Fraction and t.A is None
        t = QTerm(4, A=np.float64(-2.5))
        assert t.A == -2.5 and type(t.A) is float and t.a is None


class TestSpec:
    def test_terms_sorted_by_order(self):
        s = QuantumPotentialSpec((QTerm.relativistic(4), QTerm.relativistic(0)))
        assert s.orders == (0, 4)
        assert s.truncation_order == 4

    def test_duplicate_orders_rejected(self):
        with pytest.raises(ValueError):
            QuantumPotentialSpec((QTerm.relativistic(2), QTerm(2, a=Fraction(1))))

    def test_floor_range(self):
        with pytest.raises(ValueError):
            QuantumPotentialSpec((QTerm.relativistic(2),), regularization_floor=1.5)

    def test_relativistic_factory(self):
        s = QuantumPotentialSpec.relativistic(6)
        assert s.orders == (0, 2, 4, 6)
        with pytest.raises(ValueError):
            QuantumPotentialSpec.relativistic(3)

    def test_term_lookup_and_removal(self):
        s = QuantumPotentialSpec.relativistic(4)
        assert s.term(2).a == Fraction(1, 2)
        with pytest.raises(KeyError):
            s.term(8)
        s2 = s.without_order(0)
        assert s2.orders == (2, 4)
        assert 0 not in s2.orders


class TestDimensionalCoefficient:
    def test_order2_is_minus_half_hbar2_over_m(self):
        p = electron_params()
        A2 = dimensional_coefficient(QTerm.relativistic(2), p)
        assert A2 == pytest.approx(-p.hbar**2 / (2.0 * p.mass), rel=1e-14)

    def test_order0_is_rest_energy(self):
        p = electron_params()
        assert dimensional_coefficient(QTerm.relativistic(0), p) == pytest.approx(
            p.rest_energy
        )

    def test_order4_sign_and_scale(self):
        p = natural_params()
        # a4 = -1/8, (-1)^2 = +1, rest energy 1, (hbar/mc)^4 = 1
        assert dimensional_coefficient(QTerm.relativistic(4), p) == pytest.approx(
            -1.0 / 8.0
        )

    def test_explicit_dimensional_passthrough(self):
        p = electron_params()
        assert dimensional_coefficient(QTerm(4, A=-7.0), p) == -7.0


def q_values(R, params, spec):
    """Q of ``spec`` on the grid function R, by a fresh build."""
    return complete_q_operator(R.grid, params, spec)(R.values)


def term_values(R, n, params, spec):
    """The spec's order-2n term alone on R, by a fresh build of that term."""
    one = QuantumPotentialSpec((spec.term(2 * n),), spec.regularization_floor)
    return q_values(R, params, one)


class TestEvalOnGrid:
    def setup_method(self):
        # c = 10 puts the band edge m c / hbar = 10 above the k = pi mode
        self.params = natural_params(c=10.0)
        self.g = Grid.uniform(0.0, 1.0, 257)
        self.R = GridFunction(self.g, np.sin(np.pi * self.g.points))

    def test_box_mode_term_is_constant(self):
        # lap^n sin(kx) = (-k^2)^n sin(kx), so the quotient field is constant.
        # Coarse grid keeps spectral roundoff amplification (~k_max^{2n}) small.
        g = Grid.uniform(0.0, 1.0, 33)
        R = GridFunction(g, np.sin(np.pi * g.points))
        spec = QuantumPotentialSpec.relativistic(4)
        k2 = np.pi**2
        for n in (1, 2):
            A = dimensional_coefficient(spec.term(2 * n), self.params)
            q = term_values(R, n, self.params, spec)
            interior = q[4:-4]
            assert np.allclose(interior, A * (-k2) ** n, rtol=1e-7)

    def test_order0_ignores_field(self):
        spec = QuantumPotentialSpec.relativistic(0)
        q = term_values(self.R, 0, self.params, spec)
        assert np.all(q == self.params.rest_energy)

    def test_floor_masks_nodes(self):
        spec = QuantumPotentialSpec((QTerm.relativistic(2),), regularization_floor=1e-3)
        q = term_values(self.R, 1, self.params, spec)
        # wall points have R = 0 < floor, so the quotient is zeroed there
        assert q[0] == 0.0 and q[-1] == 0.0
        assert q[128] != 0.0

    def test_missing_order_raises(self):
        spec = QuantumPotentialSpec((QTerm.relativistic(2),))
        with pytest.raises(KeyError):
            term_values(self.R, 2, self.params, spec)

    def test_complete_q_sums_terms(self):
        spec = QuantumPotentialSpec.relativistic(4)
        total = q_values(self.R, self.params, spec)
        parts = sum(
            term_values(self.R, t.order // 2, self.params, spec) for t in spec.terms
        )
        assert np.allclose(total, parts, rtol=0, atol=1e-12)

    def test_empty_spec_is_zero(self):
        spec = QuantumPotentialSpec(())
        total = q_values(self.R, self.params, spec)
        assert np.all(total == 0.0)

    @pytest.mark.parametrize(
        "boundary, transforms",
        # the DST-I and its inverse are each one real FFT of an odd extension
        [(PERIODIC, {"rfft": 1, "irfft": 1}), ("dirichlet", {"rfft": 2})],
    )
    def test_one_transform_pair_per_evaluation(self, monkeypatch, boundary, transforms):
        g = Grid.uniform(0.0, 1.0, 129, boundary)
        R = GridFunction(g, np.exp(-((g.points - 0.5) ** 2) / 0.02))
        names = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fftn", "rfftn")
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        spec = QuantumPotentialSpec.relativistic(8)
        q_values(R, electron_params(), spec)
        assert calls == {name: transforms.get(name, 0) for name in names}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_ulp_change_of_r_moves_q_by_roundoff(self, seed):
        # the benchmark's qpot field: a Gaussian on 16385 periodic points,
        # max_order 8, where lambda k_max = 199.  Unprojected, the k^8 symbol
        # amplified a one-ulp change at 50 points of R to up to 0.17 of
        # max|Q - eps0|; inside the band it stays below 2e-10.
        params = electron_params()
        spec = QuantumPotentialSpec.relativistic(8)
        g = Grid.uniform(0.0, 1.0, 16385, PERIODIC)
        rng = np.random.default_rng(seed)
        R = np.exp(-((g.points - rng.uniform(0.4, 0.6)) ** 2) / (4.0 * 0.05**2))
        nudged = R.copy()
        idx = rng.choice(g.n, 50, replace=False)
        nudged[idx] = np.nextafter(R[idx], np.inf)
        apply = complete_q_operator(g, params, spec)
        q, moved = apply(R), apply(nudged)
        spread = np.max(np.abs(q - params.rest_energy))
        assert np.max(np.abs(moved - q)) <= 1e-8 * spread

    def test_order0_constant_is_not_floored(self):
        spec = QuantumPotentialSpec.relativistic(4, floor=1e-3)
        q = q_values(self.R, self.params, spec)
        # R vanishes at the walls: the quotient terms are floored there,
        # the rest energy is not
        assert q[0] == q[-1] == self.params.rest_energy

    @pytest.mark.parametrize("boundary", [PERIODIC, "dirichlet"])
    def test_one_term_is_exactly_A_times_the_power(self, boundary):
        # the largest coefficient is factored out of the symbol, so a
        # one-term spec is A times the unit power, bit for bit
        g = Grid.uniform(0.0, 1.0, 65 if boundary == "dirichlet" else 64, boundary)
        R = np.exp(np.cos(2.0 * np.pi * g.points)) * np.sin(np.pi * g.points)
        k = g.modes
        unit = np.where(np.abs(k) <= band_edge(self.params), (-(k**2)) ** 2, 0.0)
        power = series_operator(g, unit)(R)
        spec = QuantumPotentialSpec((QTerm(4, A=-0.3),))
        got = q_values(GridFunction(g, R), self.params, spec)
        want = np.zeros(g.n)
        mask = np.abs(R) <= 1e-8 * np.max(np.abs(R))
        np.divide(-0.3 * power, R, out=want, where=~mask)
        assert np.array_equal(got, want + 0.0)


class TestCompleteQOperator:
    """The builder that evolve calls once per run: one operator applied to
    field after field gives, bit for bit, a fresh build's Q of each."""

    @staticmethod
    def fields(kind):
        # three fields per grid, each with tails below the floor; "radial"
        # is the reduced field r e^{-a r} of hydrogen-like states on a
        # Dirichlet grid whose wall node is r = 0
        if kind == "radial":
            g = Grid.uniform(0.0, 30.0, 513)
            return g, [g.points * np.exp(-a * g.points) for a in (1.0, 1.5, 3.0)]
        g = Grid.uniform(0.0, 1.0, 128 if kind == PERIODIC else 129, kind)
        return g, [
            np.sin(np.pi * g.points) * np.exp(-((g.points - c) ** 2) / 0.002)
            for c in (0.4, 0.5, 0.55)
        ]

    @pytest.mark.parametrize("orders", [(0, 2, 4), (4, 6), (0,), ()])
    @pytest.mark.parametrize("kind", [PERIODIC, "dirichlet", "radial"])
    def test_equals_eval_complete_q(self, kind, orders):
        params = electron_params()
        spec = QuantumPotentialSpec(tuple(QTerm.relativistic(k) for k in orders))
        g, fields = self.fields(kind)
        apply = complete_q_operator(g, params, spec)
        kept = [r.copy() for r in fields]
        outputs = [apply(r) for r in fields]
        for r, before, got in zip(fields, kept, outputs):
            assert np.array_equal(r, before)  # the input is not overwritten
            want = complete_q_operator(g, params, spec)(r)
            assert np.array_equal(got, want)
        if orders == (4, 6):
            # the floor follows each field: the quotient is zeroed in its tails
            assert not np.array_equal(outputs[0] == 0.0, outputs[2] == 0.0)


def expectation(R, params, spec):
    """<R, sigma R> of ``spec`` on the grid function R, by a fresh build."""
    return expectation_operator(R.grid, params, spec)(R.values)


class TestExpectation:
    # k = 3 pi / L lies inside the electron's band m c / hbar = 259 / angstrom
    L = 5e-2

    def setup_method(self):
        self.params = electron_params()
        g = Grid.uniform(0.0, self.L, 129)
        self.R = GridFunction(g, np.sin(3.0 * np.pi * g.points / self.L)).normalized()

    def test_quadratic_form_matches_direct_form(self):
        spec = QuantumPotentialSpec.relativistic(8)
        got = expectation(self.R, self.params, spec)
        g, band = self.R.grid, band_edge(self.params)
        k = g.modes

        def lap(n):
            symbol = np.where(np.abs(k) <= band, (-(k**2)) ** n, 0.0)
            return GridFunction(g, series_operator(g, symbol)(self.R.values))

        direct = sum(
            dimensional_coefficient(t, self.params)
            * (inner(self.R, self.R) if t.order == 0 else inner(self.R, lap(t.order // 2)))
            for t in spec.terms
        )
        assert got == pytest.approx(direct, rel=1e-12)

    def test_sine_mode_gives_the_symbol(self):
        # <R, lap^n R> = (-k^2)^n on a normalized sine mode
        spec = QuantumPotentialSpec((QTerm.relativistic(4), QTerm.relativistic(6)))
        k = 3.0 * np.pi / self.L
        want = sum(dimensional_coefficient(t, self.params) * (-(k**2)) ** (t.order // 2)
                   for t in spec.terms)
        assert expectation(self.R, self.params, spec) == pytest.approx(want, rel=1e-10)

    def test_empty_spec_is_zero(self):
        assert expectation(self.R, self.params, QuantumPotentialSpec(())) == 0.0

    def test_mode_above_the_band_gives_zero(self):
        # lambda k = 1.09: the series diverges there, and P drops the mode
        g = Grid.uniform(0.0, 1e-2, 129)
        R = GridFunction(g, np.sin(np.pi * g.points / 1e-2)).normalized()
        spec = QuantumPotentialSpec((QTerm.relativistic(4),))
        assert expectation(R, self.params, spec) == 0.0

    def test_w_is_the_derivative_of_the_energy(self):
        # (E[R + eps eta] - E[R - eps eta]) / 2 eps = 2 <W R, eta> for a
        # band-limited eta: W = P S P R / R is the gradient of the projected
        # energy, with S the hierarchy's symbol and P the band |k| <= 20
        params = natural_params(c=20.0)
        g = Grid.uniform(0.0, 1.0, 256, PERIODIC)
        x = 2.0 * np.pi * g.points
        # R also has content above the band (k = 24 pi), eta has none
        R = GridFunction(g, 2.0 + np.cos(x) + 0.3 * np.sin(3 * x) + 0.1 * np.cos(12 * x))
        eta = GridFunction(g, np.cos(x) - np.sin(x) + 0.5 * np.sin(3 * x))
        spec = QuantumPotentialSpec.relativistic(6)
        eps = 1e-3

        energy = expectation_operator(g, params, spec)
        slope = (energy(R.values + eps * eta.values) - energy(R.values - eps * eta.values)) / (
            2.0 * eps
        )
        W = complete_q_operator(g, params, spec)(R.values)
        want = 2.0 * inner(GridFunction(g, W * R.values), eta)
        # the order-0 part alone, 2 eps0 <R, eta> = 460, misses the full
        # slope, 502.6, by 43
        assert abs(want - 2.0 * params.rest_energy * inner(R, eta)) > 10.0
        assert slope == pytest.approx(want, rel=1e-10)


class TestHierarchySymbol:
    """sigma(k) = sum A_2n (-k^2)^n, every order >= 2 zero above m c / hbar."""

    params = natural_params(c=2.0)  # the band edge m c / hbar is 2
    K = np.array([0.0, 0.5, 1.0, 2.0, 2.5, 40.0])

    def test_sums_the_terms_in_order_and_projects_orders_from_2(self):
        spec = QuantumPotentialSpec.relativistic(6)
        k = np.concatenate((np.linspace(0.0, 2.0, 101), [2.5, 40.0]))
        sigma = hierarchy_symbol(spec, self.params, k)
        A = {t.order: dimensional_coefficient(t, self.params) for t in spec.terms}
        mk2 = -(k**2)
        inside = np.abs(k) <= 2.0
        terms = [np.where(inside, A[2 * n] * mk2**n, 0.0) for n in (1, 2, 3)]
        # the terms are summed from order 0 up, bit for bit
        assert np.array_equal(sigma, ((A[0] + terms[0]) + terms[1]) + terms[2])
        # from the top down some bits differ, so the order is the symbol's own
        assert not np.array_equal(sigma, ((terms[2] + terms[1]) + terms[0]) + A[0])
        # the band edge itself is inside; order 0 is never projected, so
        # above the band sigma is the rest energy
        assert inside[100] and not np.array_equal(sigma[100], self.params.rest_energy)
        assert np.array_equal(sigma[~inside], np.full(2, self.params.rest_energy))

    def test_relativistic_series_converges_to_the_square_root(self):
        # inside the band the truncations approach eps0 sqrt(1 + x), x =
        # (hbar k / m c)^2, each within its first omitted term |a_2N+2| x^N+1
        k = np.array([0.5, 1.0, 1.5])
        x = (k / 2.0) ** 2
        eps0 = self.params.rest_energy
        exact = eps0 * np.sqrt(1.0 + x)
        for top in (2, 4, 6, 8):
            sigma = hierarchy_symbol(QuantumPotentialSpec.relativistic(top), self.params, k)
            tail = abs(float(a2n(top // 2 + 1))) * eps0 * x ** (top // 2 + 1)
            assert np.all(np.abs(sigma - exact) <= tail * (1.0 + 1e-12))

    def test_scalar_and_empty(self):
        spec = QuantumPotentialSpec.relativistic(4)
        assert float(hierarchy_symbol(spec, self.params, 1.0)) == (
            hierarchy_symbol(spec, self.params, self.K)[2]
        )
        empty = QuantumPotentialSpec(())
        assert np.array_equal(hierarchy_symbol(empty, self.params, self.K), np.zeros(6))


class TestResolution:
    """Every builder that reads the symbol on a grid refuses a grid with
    fewer than 2n + 1 points for the spec's top order 2n."""

    params = natural_params()

    @pytest.mark.parametrize("boundary", [PERIODIC, "dirichlet"])
    def test_min_points_for_the_top_order(self, boundary):
        g = Grid.uniform(0.0, 1.0, 16, boundary)
        V = GridFunction(g, np.zeros(g.n))
        for top, refused in ((14, False), (16, True)):
            spec = QuantumPotentialSpec((QTerm.relativistic(0), QTerm.relativistic(top)))
            for build in (
                lambda: complete_q_operator(g, self.params, spec),
                lambda: expectation_operator(g, self.params, spec),
                lambda: energy_operator(g, V, spec, self.params),
            ):
                if refused:
                    with pytest.raises(GridError, match="16 points is under-resolved for order 16"):
                        build()
                else:
                    build()

    @pytest.mark.parametrize("order", [-2, 3])
    def test_terms_have_even_nonnegative_orders(self, order):
        with pytest.raises(ValueError, match="even and >= 0"):
            QTerm(order, A=1.0)


class TestScaleRatios:
    def test_scale_ratio_electron_angstrom(self):
        p = electron_params()
        ratio = scale_ratio(1.0, p)
        lam = p.compton_wavelength
        assert ratio == pytest.approx((lam / 2.0) ** 2)
        assert 1e-4 < ratio < 2e-4

    def test_term_ratio_analytic(self):
        p = electron_params()
        r = term_ratio(1.0, 1, 1, p)
        assert r == pytest.approx(float(a2n(2) / a2n(1)) * scale_ratio(1.0, p))

    def test_term_ratio_validation(self):
        p = electron_params()
        with pytest.raises(ValueError):
            term_ratio(1.0, 0, 1, p)
        with pytest.raises(ValueError):
            term_ratio(-1.0, 1, 1, p)

    def test_grid_matches_analytic(self):
        p = electron_params()
        analytic = term_ratio(1.0, 1, 1, p)
        on_grid = term_ratio_on_grid(1.0, 1, 1, p)
        assert abs(on_grid - analytic) / abs(analytic) < 1e-6

    def test_grid_ratio_rejects_a_mode_above_the_band(self):
        # proton, L = 1e-5: lambda k = 0.66 tau
        p = proton_params()
        assert term_ratio_on_grid(1e-5, 1, 1, p) == pytest.approx(term_ratio(1e-5, 1, 1, p))
        with pytest.raises(ValueError, match="tau=2 .* above the band edge"):
            term_ratio_on_grid(1e-5, 2, 1, p)

    def test_nuclear_regime_much_larger(self):
        e, pr = electron_params(), proton_params()
        atomic = abs(term_ratio(1.0, 1, 1, e))
        nuclear = abs(term_ratio(1e-5, 1, 1, pr))
        assert nuclear / atomic > 1e3


class TestSpecConfig:
    def test_relativistic_default(self):
        spec, params = spec_from_config({})
        assert spec.orders == (0, 2, 4)
        assert params == electron_params()

    def test_relativistic_orders_list(self):
        spec, _ = spec_from_config({"source": "relativistic", "orders": "2,4"})
        assert spec.orders == (2, 4)

    def test_explicit_coefficients(self):
        spec, _ = spec_from_config(
            {"source": "explicit", "a_2": "1/2", "A_4": "-3.0e-2"}
        )
        assert spec.term(2).a == Fraction(1, 2)
        assert spec.term(4).A == -0.03

    @pytest.mark.parametrize(
        "cfg, key, token",
        [
            ({"orders": "2,x"}, "orders", "x"),
            ({"orders": "2, 4.0"}, "orders", "4.0"),
            ({"source": "explicit", "a_x": "1/2"}, "a_x", "x"),
            ({"source": "explicit", "A_": "1.0"}, "A_", ""),
            ({"source": "explicit", "a_2": "1/0"}, "a_2", "1/0"),
            ({"source": "explicit", "a_2": "half"}, "a_2", "half"),
        ],
    )
    def test_bad_order_or_fraction_names_key_and_token(self, cfg, key, token):
        with pytest.raises(ConfigError, match=f"key '{key}'.*'{token}'"):
            spec_from_config(cfg)

    def test_explicit_requires_terms(self):
        with pytest.raises(ConfigError):
            spec_from_config({"source": "explicit"})

    def test_unknown_source(self):
        with pytest.raises(ConfigError):
            spec_from_config({"source": "banana"})

    def test_units_and_floor(self):
        spec, params = spec_from_config(
            {"units": "proton", "floor": "1e-6", "max_order": "2"}
        )
        assert params == proton_params()
        assert spec.regularization_floor == 1e-6

    def test_records_values_used(self):
        cfg = RecordingConfig({"orders": "2,4", "floor": "1e-6"})
        spec_from_config(cfg)
        assert cfg.read == {
            "units": "electron",
            "floor": "9.9999999999999995e-07",
            "source": "relativistic",
            "orders": "2,4",
        }
        assert cfg.unread() == []

    def test_c_read_only_in_natural_units(self):
        cfg = RecordingConfig({"units": "electron", "c": "2"})
        spec_from_config(cfg)
        assert cfg.unread() == ["c"]
        cfg = RecordingConfig({"units": "natural", "c": "2"})
        _, params = spec_from_config(cfg)
        assert params.c == 2.0
        assert cfg.read["c"] == "2"

    def test_orders_take_precedence_over_max_order(self):
        cfg = RecordingConfig({"orders": "2", "max_order": "6"})
        spec, _ = spec_from_config(cfg)
        assert spec.orders == (2,)
        assert cfg.unread() == ["max_order"]

    def test_load_spec_relativistic_file(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text(
            "units = proton\nfloor = 9.9999999999999995e-08\n"
            "source = relativistic\norders = 0,2,4,6\n",
            encoding="utf-8",
        )
        back, params = load_spec(path)
        spec = QuantumPotentialSpec.relativistic(6, floor=1e-7)
        assert back.orders == spec.orders
        assert back.regularization_floor == spec.regularization_floor
        assert params == proton_params()
        for order in back.orders:
            assert back.term(order).a == spec.term(order).a

    def test_load_spec_explicit_file(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text(
            "units = electron\nfloor = 1e-8\nsource = explicit\n"
            "a_2 = 1/2\nA_4 = -0.00125\n",
            encoding="utf-8",
        )
        back, _ = load_spec(path)
        assert back.term(2).a == Fraction(1, 2)
        assert back.term(4).A == -1.25e-3
