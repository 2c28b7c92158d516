"""Grids, grid functions, Laplacian powers, quadrature, and file round trips."""

import math

import numpy as np
import pytest
import scipy.fft

from qpotlab.grid import (
    DIRICHLET,
    PERIODIC,
    RADIAL_LOG,
    UNIFORM,
    Grid,
    GridError,
    GridFunction,
    gradient,
    inner,
    integrate,
    laplacian_series,
    laplacian_symbol,
    power_laplacian,
    read_gridfunction,
    write_gridfunction,
)


class TestGridConstruction:
    def test_uniform_dirichlet_includes_endpoints(self):
        g = Grid.uniform(0.0, 1.0, 65)
        assert g.kind == UNIFORM and g.boundary == DIRICHLET
        assert g.n == 65
        assert g.points[0] == 0.0 and g.points[-1] == 1.0
        assert g.length == pytest.approx(1.0)

    def test_uniform_periodic_omits_right_endpoint(self):
        g = Grid.uniform(0.0, 1.0, 64, PERIODIC)
        assert g.points[-1] < 1.0
        assert g.length == pytest.approx(1.0)
        assert g.spacing == pytest.approx(1.0 / 64)

    def test_radial_log_geometric(self):
        g = Grid.radial_log(1e-3, 10.0, 128)
        assert g.kind == RADIAL_LOG and g.boundary == DIRICHLET
        ratios = g.points[1:] / g.points[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)
        assert g.log_step == pytest.approx(math.log(ratios[0]))

    def test_radial_measure_weight(self):
        g = Grid.radial_log(1e-2, 1.0, 64)
        assert np.allclose(g.measure_weight, 4.0 * np.pi * g.points**2)

    def test_too_few_points_rejected(self):
        with pytest.raises(GridError):
            Grid.uniform(0.0, 1.0, 8)

    def test_nonpositive_radial_start_rejected(self):
        with pytest.raises(GridError):
            Grid.radial_log(0.0, 1.0, 64)

    def test_points_are_immutable(self):
        g = Grid.uniform(0.0, 1.0, 32)
        with pytest.raises(ValueError):
            g.points[0] = 5.0

    def test_same_as(self):
        a = Grid.uniform(0.0, 1.0, 32)
        b = Grid.uniform(0.0, 1.0, 32)
        c = Grid.uniform(0.0, 2.0, 32)
        assert a.same_as(b) and not a.same_as(c)


class TestGridFunction:
    def test_shape_mismatch_rejected(self):
        g = Grid.uniform(0.0, 1.0, 32)
        with pytest.raises(GridError):
            GridFunction(g, np.zeros(31))

    def test_normalization(self):
        g = Grid.uniform(0.0, 1.0, 257)
        f = GridFunction(g, np.sin(np.pi * g.points)).normalized()
        assert f.is_normalized()
        assert integrate(GridFunction(g, f.values**2)) == pytest.approx(1.0)

    def test_radial_normalization_uses_measure(self):
        g = Grid.radial_log(1e-4, 40.0, 1024)
        f = GridFunction(g, np.exp(-g.points)).normalized()
        total = np.trapezoid(f.values**2 * 4.0 * np.pi * g.points**2, g.points)
        assert total == pytest.approx(1.0, rel=1e-12)


class TestLaplacian:
    def test_dirichlet_fd_sine_eigenfunction(self):
        g = Grid.uniform(0.0, 1.0, 513)
        k = 3.0 * np.pi
        f = GridFunction(g, np.sin(k * g.points))
        lap = power_laplacian(f, 1, "fd")
        # interior relative accuracy of the 4th-order stencil
        err = np.max(np.abs(lap.values + k**2 * f.values)) / k**2
        assert err < 1e-8
        # walls stay at roundoff level for an odd-symmetric mode
        assert abs(lap.values[0]) < 1e-10 and abs(lap.values[-1]) < 1e-10

    def test_dirichlet_spectral_sine_exact(self):
        g = Grid.uniform(0.0, 1.0, 257)
        k = 2.0 * np.pi
        f = GridFunction(g, np.sin(k * g.points))
        lap = power_laplacian(f, 1, "spectral")
        assert np.max(np.abs(lap.values + k**2 * f.values)) < 1e-9 * k**2

    def test_periodic_spectral_plane_wave(self):
        g = Grid.uniform(0.0, 1.0, 128, PERIODIC)
        k = 2.0 * np.pi * 5
        f = GridFunction(g, np.cos(k * g.points))
        lap = power_laplacian(f, 1, "spectral")
        assert np.allclose(lap.values, -(k**2) * f.values, rtol=1e-10, atol=1e-7)

    def test_fourth_power_spectral(self):
        # Coarse grid: the (-k^2)^n symbol amplifies roundoff in the highest
        # retained mode by k_max^{2n}, so exactness is only visible when that
        # amplification factor stays small.
        g = Grid.uniform(0.0, 1.0, 33)
        k = 5.0 * np.pi
        f = GridFunction(g, np.sin(k * g.points))
        l2 = power_laplacian(f, 2, "spectral")
        assert np.max(np.abs(l2.values - k**4 * f.values)) < 1e-10 * k**4

    def test_fd_and_spectral_agree_on_smooth_field(self):
        g = Grid.uniform(0.0, 1.0, 1025)
        f = GridFunction(g, np.sin(np.pi * g.points) ** 3)
        a = power_laplacian(f, 1, "fd").values
        b = power_laplacian(f, 1, "spectral").values
        interior = slice(4, -4)
        scale = np.max(np.abs(b))
        assert np.max(np.abs(a[interior] - b[interior])) / scale < 1e-8

    def test_radial_laplacian_exponential(self):
        # lap e^{-r} = e^{-r} - 2 e^{-r} / r
        g = Grid.radial_log(1e-3, 30.0, 2048)
        f = GridFunction(g, np.exp(-g.points))
        lap = power_laplacian(f, 1, "fd")
        r = g.points
        exact = np.exp(-r) * (1.0 - 2.0 / r)
        interior = slice(4, -4)
        scale = np.max(np.abs(exact[interior]))
        err = np.max(np.abs(lap.values[interior] - exact[interior])) / scale
        assert err < 1e-6

    def test_min_points_for_power(self):
        g = Grid.uniform(0.0, 1.0, 16)
        f = GridFunction(g, np.sin(np.pi * g.points))
        with pytest.raises(GridError):
            power_laplacian(f, 8)

    def test_unknown_method(self):
        g = Grid.uniform(0.0, 1.0, 32)
        f = GridFunction(g, np.zeros(32))
        with pytest.raises(GridError):
            power_laplacian(f, 1, "magic")


EPS = np.finfo(np.float64).eps
SERIES = {1: -0.5, 2: -0.125, 3: -0.0625}

# (grid, field, method) for every backend of laplacian_series.
BACKENDS = {
    "spectral-periodic": (
        Grid.uniform(0.0, 1.0, 64, PERIODIC),
        lambda x: np.exp(np.cos(2.0 * np.pi * x)),
        "spectral",
    ),
    "spectral-dirichlet": (
        Grid.uniform(0.0, 1.0, 65),
        lambda x: np.sin(np.pi * x) ** 3,
        "spectral",
    ),
    "fd-dirichlet": (Grid.uniform(0.0, 1.0, 65), lambda x: np.sin(np.pi * x) ** 3, "fd"),
    "fd-radial": (Grid.radial_log(1e-3, 20.0, 256), lambda r: np.exp(-r), "fd"),
}


class TestLaplacianSeries:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_matches_per_order_loop(self, backend):
        g, fn, method = BACKENDS[backend]
        f = GridFunction(g, fn(g.points))
        terms = [c * power_laplacian(f, n, method).values for n, c in SERIES.items()]
        reference = sum(terms)
        got = laplacian_series(f, SERIES, method).values
        # Each side is a float64 evaluation of the same linear operator, so
        # they agree to a few hundred ulps of the largest term.
        scale = max(np.max(np.abs(t)) for t in terms)
        assert np.max(np.abs(got - reference)) <= 256 * EPS * scale

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_one_term_is_exactly_c_times_power(self, backend):
        g, fn, method = BACKENDS[backend]
        f = GridFunction(g, fn(g.points))
        got = laplacian_series(f, {2: -0.3}, method).values
        assert np.array_equal(got, -0.3 * power_laplacian(f, 2, method).values)

    def test_symbol_on_sine_modes(self):
        # The symbol is the eigenvalue of the series on each sine mode.
        g = Grid.uniform(0.0, 1.0, 33)
        k = 3.0 * np.pi
        f = GridFunction(g, np.sin(k * g.points))
        out = laplacian_series(f, SERIES, "spectral").values
        sym = laplacian_symbol(SERIES, k)
        assert sym == pytest.approx(-0.5 * -(k**2) - 0.125 * k**4 - 0.0625 * -(k**6))
        # roundoff in the highest retained mode is amplified by the symbol there
        k_max = (g.n - 2) * np.pi
        amplification = sum(abs(c) * k_max ** (2 * n) for n, c in SERIES.items())
        assert np.max(np.abs(out - sym * f.values)) <= 16 * EPS * amplification

    def test_symbol_power_zero_is_constant(self):
        k = np.array([0.0, 1.0, 2.0])
        assert np.array_equal(laplacian_symbol({0: 2.5}, k), np.full(3, 2.5))

    @pytest.mark.parametrize("coeffs", [{}, {0: 1.0}, {-1: 1.0, 1: 1.0}])
    def test_rejects_empty_or_nonpositive_powers(self, coeffs):
        g = Grid.uniform(0.0, 1.0, 32)
        f = GridFunction(g, np.sin(np.pi * g.points))
        for method in ("fd", "spectral"):
            with pytest.raises(GridError):
                laplacian_series(f, coeffs, method)

    def test_spectral_rejects_radial_grid(self):
        g = Grid.radial_log(1e-3, 5.0, 64)
        with pytest.raises(GridError, match="uniform"):
            laplacian_series(GridFunction(g, np.exp(-g.points)), {1: 1.0}, "spectral")

    def test_fd_rejects_periodic_grid(self):
        g = Grid.uniform(0.0, 1.0, 64, PERIODIC)
        f = GridFunction(g, np.cos(2.0 * np.pi * g.points))
        with pytest.raises(GridError, match="Dirichlet"):
            laplacian_series(f, {1: 1.0}, "fd")
        with pytest.raises(GridError, match="Dirichlet"):
            power_laplacian(f, 2, "fd")

    @pytest.mark.parametrize(
        "backend", ["spectral-periodic", "spectral-dirichlet", "fd-radial"]
    )
    def test_grid_picks_the_backend(self, backend):
        # the default is the transform on uniform grids, FD on radial ones
        g, fn, method = BACKENDS[backend]
        f = GridFunction(g, fn(g.points))
        got = laplacian_series(f, SERIES).values
        assert np.array_equal(got, laplacian_series(f, SERIES, method).values)


class TestGradient:
    def test_uniform_fd(self):
        g = Grid.uniform(0.0, 1.0, 513)
        k = 2.0 * np.pi
        f = GridFunction(g, np.sin(k * g.points))
        d = gradient(f)
        assert np.max(np.abs(d.values - k * np.cos(k * g.points))) / k < 1e-8

    def test_periodic_spectral(self):
        g = Grid.uniform(0.0, 1.0, 128, PERIODIC)
        k = 2.0 * np.pi * 3
        f = GridFunction(g, np.sin(k * g.points))
        d = gradient(f)
        assert np.allclose(d.values, k * np.cos(k * g.points), atol=1e-8 * k)

    def test_wavenumbers_built_once_and_read_only(self):
        g = Grid.uniform(0.0, 2.0, 96, PERIODIC)
        k = g.wavenumbers
        assert k is g.wavenumbers
        assert not k.flags.writeable
        assert np.array_equal(k, 2.0 * np.pi * scipy.fft.fftfreq(96, d=g.spacing))
        f = GridFunction(g, np.cos(np.pi * g.points) + 0.3 * np.sin(3 * np.pi * g.points))
        fhat = scipy.fft.fft(f.values)
        assert np.array_equal(
            gradient(f).values, scipy.fft.ifft(1j * k * fhat).real
        )
        with pytest.raises(ValueError):
            k[0] = 1.0

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_series_symbol_built_once_and_read_only(self, boundary, monkeypatch):
        import qpotlab.grid as grid_module

        built = []
        original = grid_module.laplacian_symbol

        def counted(coeffs, k):
            built.append(dict(coeffs))
            return original(coeffs, k)

        monkeypatch.setattr(grid_module, "laplacian_symbol", counted)
        g = Grid.uniform(0.0, 1.5, 65, boundary)
        if boundary == PERIODIC:
            k = g.wavenumbers
        else:
            k = np.arange(1, g.n - 1) * np.pi / g.length  # DST-I sine modes
        f = GridFunction(g, np.sin(2 * np.pi * g.points / 1.5) ** 3)
        series = {1: 0.7, 2: -0.3, 3: 1e-3}
        first = laplacian_series(f, series, "spectral").values
        for _ in range(3):
            assert np.array_equal(laplacian_series(f, series, "spectral").values, first)
        assert built == [{1: 0.7 / 0.7, 2: -0.3 / 0.7, 3: 1e-3 / 0.7}]
        unit = {1: 1.0, 2: -0.3 / 0.7, 3: 1e-3 / 0.7}
        sym = g.series_symbol(unit)
        assert sym is g.series_symbol(dict(unit))
        assert len(built) == 1
        assert np.array_equal(sym, original(unit, k))
        assert not sym.flags.writeable
        with pytest.raises(ValueError):
            sym[0] = 1.0
        # a different map, or the same items in another order (summed in
        # that order), is a new symbol; another grid has its own cache
        g.series_symbol({1: -1.0})
        g.series_symbol(dict(reversed(unit.items())))
        Grid.uniform(0.0, 1.5, 65, boundary).series_symbol(unit)
        assert len(built) == 4
        # -0.0 and 0.0 coefficients are different keys
        assert g.series_symbol({1: 1.0, 2: -0.0}) is not g.series_symbol({1: 1.0, 2: 0.0})

    def test_radial_gradient(self):
        g = Grid.radial_log(1e-2, 20.0, 1024)
        f = GridFunction(g, np.exp(-g.points))
        d = gradient(f)
        interior = slice(4, -4)
        exact = -np.exp(-g.points)
        err = np.max(np.abs(d.values[interior] - exact[interior]))
        assert err < 1e-6


class TestQuadrature:
    def test_trapezoid_polynomial(self):
        g = Grid.uniform(0.0, 1.0, 2049)
        f = GridFunction(g, g.points**2)
        assert integrate(f) == pytest.approx(1.0 / 3.0, rel=1e-6)

    def test_periodic_sum_exact_for_modes(self):
        g = Grid.uniform(0.0, 1.0, 64, PERIODIC)
        f = GridFunction(g, np.sin(2.0 * np.pi * g.points) ** 2)
        assert integrate(f) == pytest.approx(0.5, rel=1e-12)

    def test_radial_gaussian_volume(self):
        g = Grid.radial_log(1e-4, 30.0, 2048)
        f = GridFunction(g, np.exp(-(g.points**2)))
        assert integrate(f) == pytest.approx(np.pi**1.5, rel=1e-4)

    def test_inner_requires_same_grid(self):
        a = GridFunction(Grid.uniform(0.0, 1.0, 32), np.ones(32))
        b = GridFunction(Grid.uniform(0.0, 2.0, 32), np.ones(32))
        with pytest.raises(GridError):
            inner(a, b)


class TestFileRoundTrip:
    def test_uniform_round_trip(self, tmp_path):
        g = Grid.uniform(0.0, 2.0, 65)
        f = GridFunction(g, np.cos(g.points))
        path = tmp_path / "f.csv"
        write_gridfunction(path, f, units="electron")
        back = read_gridfunction(path)
        assert back.grid.same_as(g)
        assert back.grid.boundary == DIRICHLET
        assert np.array_equal(back.values, f.values)

    def test_radial_round_trip(self, tmp_path):
        g = Grid.radial_log(1e-3, 5.0, 64)
        f = GridFunction(g, np.exp(-g.points))
        path = tmp_path / "radial.csv"
        write_gridfunction(path, f)
        back = read_gridfunction(path)
        assert back.grid.kind == RADIAL_LOG
        assert np.allclose(back.values, f.values, rtol=0, atol=0)

    def test_missing_sidecar_rejected(self, tmp_path):
        g = Grid.uniform(0.0, 1.0, 32)
        f = GridFunction(g, np.zeros(32))
        path = tmp_path / "f.csv"
        write_gridfunction(path, f)
        (tmp_path / "f.csv.json").unlink()
        with pytest.raises(GridError, match="sidecar"):
            read_gridfunction(path)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(GridError, match="header"):
            read_gridfunction(path)

    @pytest.mark.parametrize(
        "header", ["coordinate,real,imag", "coordinate", "coordinate,values", ""]
    )
    def test_header_must_be_coordinate_value(self, tmp_path, header):
        g = Grid.uniform(0.0, 1.0, 32)
        path = tmp_path / "f.csv"
        write_gridfunction(path, GridFunction(g, np.cos(g.points)))
        rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + rows[1:]) + "\n")
        with pytest.raises(GridError, match="coordinate,value"):
            read_gridfunction(path)
