"""Physical parameters, potential specs, grid evaluation, and scale ratios."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.fft

from qpotlab.coeffs import a2n
from qpotlab.grid import PERIODIC, Grid, GridFunction, inner, power_laplacian
from qpotlab.qpotential import (
    FINE_STRUCTURE,
    PhysicalParams,
    QTerm,
    QuantumPotentialSpec,
    dimensional_coefficient,
    electron_params,
    eval_complete_q,
    eval_q2n,
    expectation,
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

    def test_relativistic_source_validated(self):
        with pytest.raises(ValueError):
            QTerm(order=4, a=Fraction(1, 8), source="relativistic")

    def test_rational_and_dimensional(self):
        t = QTerm.rational(4, Fraction(3, 7))
        assert t.a == Fraction(3, 7) and t.A is None
        t = QTerm.dimensional(4, -2.5)
        assert t.A == -2.5 and t.a is None


class TestSpec:
    def test_terms_sorted_by_order(self):
        s = QuantumPotentialSpec((QTerm.relativistic(4), QTerm.relativistic(0)))
        assert s.orders == (0, 4)
        assert s.truncation_order == 4

    def test_duplicate_orders_rejected(self):
        with pytest.raises(ValueError):
            QuantumPotentialSpec((QTerm.relativistic(2), QTerm.rational(2, Fraction(1))))

    def test_floor_range(self):
        with pytest.raises(ValueError):
            QuantumPotentialSpec((QTerm.relativistic(2),), regularization_floor=1.5)

    def test_relativistic_factory(self):
        s = QuantumPotentialSpec.relativistic(6)
        assert s.orders == (0, 2, 4, 6)
        assert all(t.source == "relativistic" for t in s.terms)
        with pytest.raises(ValueError):
            QuantumPotentialSpec.relativistic(3)

    def test_term_lookup_and_removal(self):
        s = QuantumPotentialSpec.relativistic(4)
        assert s.term(2).a == Fraction(1, 2)
        with pytest.raises(KeyError):
            s.term(8)
        s2 = s.without_order(0)
        assert s2.orders == (2, 4)
        assert not s2.has_order(0)


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
        assert dimensional_coefficient(QTerm.dimensional(4, -7.0), p) == -7.0


class TestEvalOnGrid:
    def setup_method(self):
        self.params = natural_params()
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
            q = eval_q2n(R, n, self.params, spec)
            interior = q.values[4:-4]
            assert np.allclose(interior, A * (-k2) ** n, rtol=1e-7)

    def test_order0_ignores_field(self):
        spec = QuantumPotentialSpec.relativistic(0)
        q = eval_q2n(self.R, 0, self.params, spec)
        assert np.all(q.values == self.params.rest_energy)

    def test_floor_masks_nodes(self):
        spec = QuantumPotentialSpec((QTerm.relativistic(2),), regularization_floor=1e-3)
        q = eval_q2n(self.R, 1, self.params, spec)
        # wall points have R = 0 < floor, so the quotient is zeroed there
        assert q.values[0] == 0.0 and q.values[-1] == 0.0
        assert q.values[128] != 0.0

    def test_missing_order_raises(self):
        spec = QuantumPotentialSpec((QTerm.relativistic(2),))
        with pytest.raises(KeyError):
            eval_q2n(self.R, 2, self.params, spec)

    def test_complete_q_sums_terms(self):
        spec = QuantumPotentialSpec.relativistic(4)
        total = eval_complete_q(self.R, self.params, spec, method="spectral")
        parts = sum(
            eval_q2n(self.R, t.order // 2, self.params, spec).values
            for t in spec.terms
        )
        assert np.allclose(total.values, parts, rtol=0, atol=1e-12)

    def test_empty_spec_is_zero(self):
        spec = QuantumPotentialSpec(())
        total = eval_complete_q(self.R, self.params, spec)
        assert np.all(total.values == 0.0)

    @pytest.mark.parametrize(
        "boundary, transforms",
        [(PERIODIC, ("fft", "ifft")), ("dirichlet", ("dst", "idst"))],
    )
    def test_one_transform_pair_per_evaluation(self, monkeypatch, boundary, transforms):
        g = Grid.uniform(0.0, 1.0, 129, boundary)
        R = GridFunction(g, np.exp(-((g.points - 0.5) ** 2) / 0.02))
        calls = {name: 0 for name in ("fft", "ifft", "dst", "idst")}
        for name in calls:
            original = getattr(scipy.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, counted)
        spec = QuantumPotentialSpec.relativistic(8)
        eval_complete_q(R, electron_params(), spec, method="spectral")
        assert calls == {name: int(name in transforms) for name in calls}

    def test_order0_constant_is_not_floored(self):
        spec = QuantumPotentialSpec.relativistic(4, floor=1e-3)
        q = eval_complete_q(self.R, self.params, spec, method="spectral")
        # R vanishes at the walls: the quotient terms are floored there,
        # the rest energy is not
        assert q.values[0] == q.values[-1] == self.params.rest_energy


class TestExpectation:
    def setup_method(self):
        self.params = electron_params()
        g = Grid.uniform(0.0, 1e-2, 129)
        self.R = GridFunction(g, np.sin(3.0 * np.pi * g.points / 1e-2)).normalized()

    def test_split_form_matches_direct_form(self):
        spec = QuantumPotentialSpec.relativistic(8)
        got = expectation(self.R, self.params, spec)
        direct = sum(
            dimensional_coefficient(t, self.params)
            * (inner(self.R, self.R) if t.order == 0
               else inner(self.R, power_laplacian(self.R, t.order // 2, "spectral")))
            for t in spec.terms
        )
        assert got == pytest.approx(direct, rel=1e-12)

    def test_sine_mode_gives_the_symbol(self):
        # <R, lap^n R> = (-k^2)^n on a normalized sine mode
        spec = QuantumPotentialSpec((QTerm.relativistic(4), QTerm.relativistic(6)))
        k = 3.0 * np.pi / 1e-2
        want = sum(dimensional_coefficient(t, self.params) * (-(k**2)) ** (t.order // 2)
                   for t in spec.terms)
        assert expectation(self.R, self.params, spec) == pytest.approx(want, rel=1e-10)

    def test_empty_spec_is_zero(self):
        assert expectation(self.R, self.params, QuantumPotentialSpec(())) == 0.0


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
