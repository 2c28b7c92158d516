"""Grids, grid functions, Laplacian powers, quadrature, and file round trips."""

import json
import math
import pickle

import numpy as np
import pytest
import scipy.fft

from qpotlab.grid import (
    DIRICHLET,
    PERIODIC,
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


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestGridConstruction:
    def test_uniform_dirichlet_includes_endpoints(self):
        g = Grid.uniform(0.0, 1.0, 65)
        assert g.boundary == DIRICHLET
        assert g.n == 65
        assert g.points[0] == 0.0 and g.points[-1] == 1.0
        assert g.length == pytest.approx(1.0)

    def test_uniform_periodic_omits_right_endpoint(self):
        g = Grid.uniform(0.0, 1.0, 64, PERIODIC)
        assert g.points[-1] < 1.0
        assert g.length == pytest.approx(1.0)
        assert g.spacing == pytest.approx(1.0 / 64)

    def test_too_few_points_rejected(self):
        with pytest.raises(GridError):
            Grid.uniform(0.0, 1.0, 8)

    def test_points_are_immutable(self):
        g = Grid.uniform(0.0, 1.0, 32)
        with pytest.raises(ValueError):
            g.points[0] = 5.0

    def test_same_as(self):
        a = Grid.uniform(0.0, 1.0, 32)
        b = Grid.uniform(0.0, 1.0, 32)
        c = Grid.uniform(0.0, 2.0, 32)
        assert a.same_as(b) and not a.same_as(c)

    @pytest.mark.parametrize("boundary", [DIRICHLET, PERIODIC])
    def test_pickles_only_its_fields(self, boundary):
        g = Grid.uniform(0.0, 1.0, 4096, boundary)
        unit = {1: -0.5, 2: -0.125}
        symbol = g.series_symbol(unit, 300.0)
        assert len(pickle.dumps(g)) < g.points.nbytes + 512
        back = pickle.loads(pickle.dumps(g))
        assert back.same_as(g) and not back.points.flags.writeable
        assert back.series_symbol(unit, 300.0).tobytes() == symbol.tobytes()


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
        # the reduced field sqrt(4 pi) r R carries the measure 4 pi r^2 dr:
        # normalizing it on [0, r_max] normalizes R = e^{-r} to 1/sqrt(pi)
        g = Grid.uniform(0.0, 40.0, 4097)
        r = g.points
        f = GridFunction(g, math.sqrt(4.0 * np.pi) * r * np.exp(-r)).normalized()
        want = math.sqrt(4.0 * np.pi) * r * np.exp(-r) / math.sqrt(np.pi)
        assert np.max(np.abs(f.values - want)) < 1e-9 * np.max(want)


class TestLaplacian:
    def test_dirichlet_spectral_sine_exact(self):
        g = Grid.uniform(0.0, 1.0, 257)
        k = 2.0 * np.pi
        f = GridFunction(g, np.sin(k * g.points))
        lap = power_laplacian(f, 1)
        assert np.max(np.abs(lap.values + k**2 * f.values)) < 1e-9 * k**2

    def test_periodic_spectral_plane_wave(self):
        g = Grid.uniform(0.0, 1.0, 128, PERIODIC)
        k = 2.0 * np.pi * 5
        f = GridFunction(g, np.cos(k * g.points))
        lap = power_laplacian(f, 1)
        assert np.allclose(lap.values, -(k**2) * f.values, rtol=1e-10, atol=1e-7)

    def test_fourth_power_spectral(self):
        # Coarse grid: the (-k^2)^n symbol amplifies roundoff in the highest
        # retained mode by k_max^{2n}, so exactness is only visible when that
        # amplification factor stays small.
        g = Grid.uniform(0.0, 1.0, 33)
        k = 5.0 * np.pi
        f = GridFunction(g, np.sin(k * g.points))
        l2 = power_laplacian(f, 2)
        assert np.max(np.abs(l2.values - k**4 * f.values)) < 1e-10 * k**4

    def test_gradient_energy_is_the_sine_laplacian(self):
        # the sine-series derivative lands in the DCT-I modes, orthogonal
        # under the trapezoid rule: int |f'|^2 is -<f, lap f> of the sine
        # series by Parseval (measured: at most 3.5e-16 relative)
        for n in (257, 1025, 4097):
            g = Grid.uniform(0.0, 1.0, n)
            x = g.points
            v = np.exp(-((x - 0.43) ** 2) / (4.0 * 0.05**2)) * np.cos(50.0 * x)
            v[[0, -1]] = 0.0
            f = GridFunction(g, v)
            kinetic = integrate(GridFunction(g, gradient(f).values ** 2))
            assert kinetic == pytest.approx(-inner(f, power_laplacian(f, 1)), rel=1e-14)

    @pytest.mark.parametrize("power", [1, 2])
    def test_reduced_radial_laplacian_gaussian(self, power):
        # for s states lap^n R = d^{2n}(r R)/dr^{2n} / r: the sine series of
        # u = r R on [0, r_max] gives the 3-D Laplacian powers of R.  With
        # s = 1 / sigma^2, lap R = (s^2 r^2 - 3 s) R and lap^2 R =
        # (s^4 r^4 - 10 s^3 r^2 + 15 s^2) R.  The Gaussian's spectrum
        # exp(-k^2 sigma^2 / 2) is below 1e-21 at the band edge k = 1, so the
        # projection removes only roundoff.  What is left is the roundoff of
        # one transform pair, O(eps log n) of max|u|, times the symbol, at
        # most band^(2n) = 1 on the retained modes (measured: 8e-16 and
        # 8e-15 of max|lap^n R|; unprojected, the grid's k_max^(2n) makes
        # them 2.7e-12 and 3.8e-8)
        sigma, band = 10.0, 1.0
        g = Grid.uniform(0.0, 20.0 * sigma, 2049)
        r, s = g.points, 1.0 / sigma**2
        R = np.exp(-s * r**2 / 2.0)
        exact = {
            1: (s**2 * r**2 - 3.0 * s) * R,
            2: (s**4 * r**4 - 10.0 * s**3 * r**2 + 15.0 * s**2) * R,
        }[power]
        u = laplacian_series(GridFunction(g, r * R), {power: 1.0}, band).values
        err = np.max(np.abs(u[1:-1] / r[1:-1] - exact[1:-1]))
        assert err <= 16 * EPS * math.log2(g.n) * np.max(np.abs(exact))

    def test_min_points_for_power(self):
        g = Grid.uniform(0.0, 1.0, 16)
        f = GridFunction(g, np.sin(np.pi * g.points))
        with pytest.raises(GridError):
            power_laplacian(f, 8)

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_band_drops_the_modes_above_its_edge(self, boundary):
        g = Grid.uniform(0.0, 1.0, 128, boundary)
        wave = np.cos if boundary == PERIODIC else np.sin
        k1, k2 = 4.0 * np.pi, 10.0 * np.pi
        f = GridFunction(g, wave(k1 * g.points) + wave(k2 * g.points))
        lap = power_laplacian(f, 2, band=7.0 * np.pi).values
        assert np.max(np.abs(lap - k1**4 * wave(k1 * g.points))) < 1e-9 * k1**4
        # an edge above every mode of the grid changes no bit
        assert np.array_equal(
            power_laplacian(f, 2, band=1e9).values, power_laplacian(f, 2).values
        )


EPS = np.finfo(np.float64).eps
SERIES = {1: -0.5, 2: -0.125, 3: -0.0625}

# (grid, field) for every backend of laplacian_series.
BACKENDS = {
    "spectral-periodic": (
        Grid.uniform(0.0, 1.0, 64, PERIODIC),
        lambda x: np.exp(np.cos(2.0 * np.pi * x)),
    ),
    "spectral-dirichlet": (Grid.uniform(0.0, 1.0, 65), lambda x: np.sin(np.pi * x) ** 3),
}


class TestLaplacianSeries:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_matches_per_order_loop(self, backend):
        g, fn = BACKENDS[backend]
        f = GridFunction(g, fn(g.points))
        terms = [c * power_laplacian(f, n).values for n, c in SERIES.items()]
        reference = sum(terms)
        got = laplacian_series(f, SERIES).values
        # Each side is a float64 evaluation of the same linear operator, so
        # they agree to a few hundred ulps of the largest term.
        scale = max(np.max(np.abs(t)) for t in terms)
        assert np.max(np.abs(got - reference)) <= 256 * EPS * scale

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_one_term_is_exactly_c_times_power(self, backend):
        g, fn = BACKENDS[backend]
        f = GridFunction(g, fn(g.points))
        got = laplacian_series(f, {2: -0.3}).values
        assert np.array_equal(got, -0.3 * power_laplacian(f, 2).values)

    def test_symbol_on_sine_modes(self):
        # The symbol is the eigenvalue of the series on each sine mode.
        g = Grid.uniform(0.0, 1.0, 33)
        k = 3.0 * np.pi
        f = GridFunction(g, np.sin(k * g.points))
        out = laplacian_series(f, SERIES).values
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
        with pytest.raises(GridError):
            laplacian_series(f, coeffs)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_grid_picks_the_backend(self, backend):
        # the Fourier transform on periodic grids, the sine transform on
        # Dirichlet ones
        g, fn = BACKENDS[backend]
        v = fn(g.points)
        if g.boundary == PERIODIC:
            k = g.wavenumbers[: g.n // 2 + 1]  # real-input FFT frequencies
            want = scipy.fft.irfft(-(k**2) * scipy.fft.rfft(v), g.n)
        else:
            k = np.arange(1, g.n - 1) * np.pi / g.length
            want = np.zeros(g.n)
            coef = scipy.fft.dst(v[1:-1], type=1, norm="ortho")
            want[1:-1] = scipy.fft.idst(-(k**2) * coef, type=1, norm="ortho")
        assert np.array_equal(power_laplacian(GridFunction(g, v), 1).values, want)


class TestGradient:
    def test_dirichlet_sine_exact_on_box_modes(self):
        # the sine-series derivative of a box mode is its cosine at every
        # node, walls included (measured: at most 1.3e-13 k at 513 points)
        g = Grid.uniform(0.0, 1.5, 513)
        for mode in (1, 2, 7, 60):
            k = mode * np.pi / g.length
            d = gradient(GridFunction(g, np.sin(k * g.points)))
            assert np.max(np.abs(d.values - k * np.cos(k * g.points))) <= 1e-12 * k

    def test_dirichlet_ignores_the_wall_values(self):
        g = Grid.uniform(0.0, 1.0, 65)
        v = np.sin(np.pi * g.points) ** 3
        walled = v.copy()
        walled[[0, -1]] = (2.0, -5.0)
        assert np.array_equal(
            gradient(GridFunction(g, walled)).values, gradient(GridFunction(g, v)).values
        )

    def test_periodic_spectral(self):
        g = Grid.uniform(0.0, 1.0, 128, PERIODIC)
        k = 2.0 * np.pi * 3
        f = GridFunction(g, np.sin(k * g.points))
        d = gradient(f)
        assert np.allclose(d.values, k * np.cos(k * g.points), atol=1e-8 * k)

    def test_wavenumbers(self):
        g = Grid.uniform(0.0, 2.0, 96, PERIODIC)
        k = g.wavenumbers
        assert np.array_equal(k, 2.0 * np.pi * scipy.fft.fftfreq(96, d=g.spacing))
        f = GridFunction(g, np.cos(np.pi * g.points) + 0.3 * np.sin(3 * np.pi * g.points))
        fhat = scipy.fft.rfft(f.values)
        assert np.array_equal(
            gradient(f).values, scipy.fft.irfft(1j * k[:49] * fhat, 96)
        )

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_series_symbol_at_the_transform_modes(self, boundary):
        g = Grid.uniform(0.0, 1.5, 65, boundary)
        if boundary == PERIODIC:
            k = g.wavenumbers[: g.n // 2 + 1]  # real-input FFT frequencies
        else:
            k = np.arange(1, g.n - 1) * np.pi / g.length  # DST-I sine modes
        f = GridFunction(g, np.sin(2 * np.pi * g.points / 1.5) ** 3)
        series = {1: 0.7, 2: -0.3, 3: 1e-3}
        first = laplacian_series(f, series).values
        for _ in range(3):
            assert np.array_equal(laplacian_series(f, series).values, first)
        unit = {1: 1.0, 2: -0.3 / 0.7, 3: 1e-3 / 0.7}
        sym = g.series_symbol(unit)
        assert np.array_equal(sym, laplacian_symbol(unit, k))
        # the series applies the symbol of its map over its largest coefficient
        if boundary == PERIODIC:
            want = scipy.fft.irfft(scipy.fft.rfft(f.values) * sym, g.n) * 0.7
        else:
            want = np.zeros(g.n)
            coef = scipy.fft.dst(f.values[1:-1], type=1, norm="ortho")
            want[1:-1] = 0.7 * scipy.fft.idst(coef * sym, type=1, norm="ortho")
        assert np.array_equal(first, want)
        # the same items in another order are summed in that order, which
        # changes some bits
        reordered = dict(reversed(unit.items()))
        assert np.array_equal(g.series_symbol(reordered), laplacian_symbol(reordered, k))
        assert not np.array_equal(g.series_symbol(reordered), sym)
        # a banded symbol is zero above the band
        band = k[len(k) // 4]
        assert np.array_equal(g.series_symbol(unit, band), np.where(np.abs(k) <= band, sym, 0.0))

    @pytest.mark.parametrize("n", [64, 65])
    def test_periodic_symbol_is_the_full_symbols_first_half(self, n):
        # the symbol is even in k, so the rfft half spectrum loses nothing
        g = Grid.uniform(0.0, 1.5, n, PERIODIC)
        unit = {1: 1.0, 2: -0.3 / 0.7, 3: 1e-3 / 0.7}
        k = g.wavenumbers
        for band in (math.inf, abs(k[n // 5])):
            full = np.where(np.abs(k) <= band, laplacian_symbol(unit, k), 0.0)
            half = g.series_symbol(unit, band)
            assert half.shape == (n // 2 + 1,)
            assert np.array_equal(half, full[: n // 2 + 1])
        assert half[-1] == 0.0  # the finite band projects the top modes out


class TestRealInputTransforms:
    """Periodic series and gradients through rfft/irfft agree with the
    complex FFT pair on the full spectrum.  Both are float64 FFT pairs, whose
    roundoff grows like eps log n: measured at most 1.4e-15 of max|output|
    for n up to 16385 on the fields below, so the bound is 1e-14."""

    FIELDS = {
        "exp-cos": lambda x: np.exp(np.cos(2.0 * np.pi * x)),
        "gaussian": lambda x: np.exp(-((x - 0.43) ** 2) / (4.0 * 0.05**2)),
        "trig": lambda x: np.sin(2.0 * np.pi * x) ** 3 + 0.1 * np.cos(6.0 * np.pi * x),
    }

    @pytest.mark.parametrize("field", sorted(FIELDS))
    @pytest.mark.parametrize("n", [64, 65, 2048, 16385])
    def test_agree_with_the_complex_fft(self, n, field):
        g = Grid.uniform(0.0, 1.0, n, PERIODIC)
        v = self.FIELDS[field](g.points)
        f = GridFunction(g, v)
        k, fhat = g.wavenumbers, scipy.fft.fft(v)
        scale = 0.7
        unit = {1: 0.7 / scale, 2: -0.3 / scale, 3: 1e-3 / scale}
        band = abs(k[n // 3])
        symbol = np.where(np.abs(k) <= band, laplacian_symbol(unit, k), 0.0)
        pairs = [
            (
                laplacian_series(f, {1: 0.7, 2: -0.3, 3: 1e-3}, band).values,
                scale * scipy.fft.ifft(fhat * symbol).real,
            ),
            (gradient(f).values, scipy.fft.ifft(1j * k * fhat).real),
        ]
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_input_is_not_overwritten(self):
        g = Grid.uniform(0.0, 1.0, 64, PERIODIC)
        v = self.FIELDS["exp-cos"](g.points)
        kept = v.copy()
        laplacian_series(GridFunction(g, v), {1: 1.0, 2: 0.5})
        gradient(GridFunction(g, v))
        assert np.array_equal(v, kept)


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
        # the volume integral of e^{-r^2} is the line integral of the
        # squared reduced field (sqrt(4 pi) r e^{-r^2 / 2})^2 on [0, r_max]
        g = Grid.uniform(0.0, 30.0, 2049)
        u = math.sqrt(4.0 * np.pi) * g.points * np.exp(-(g.points**2) / 2.0)
        assert integrate(GridFunction(g, u**2)) == pytest.approx(np.pi**1.5, rel=1e-12)

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
        # a reduced radial field lives on a Dirichlet grid from r = 0
        g = Grid.uniform(0.0, 5.0, 64)
        f = GridFunction(g, g.points * np.exp(-g.points))
        path = tmp_path / "radial.csv"
        write_gridfunction(path, f)
        assert read_json(tmp_path / "radial.csv.json")["kind"] == UNIFORM
        back = read_gridfunction(path)
        assert back.grid.same_as(g) and back.grid.boundary == DIRICHLET
        assert np.array_equal(back.values, f.values)

    @pytest.mark.parametrize(
        "edit, match",
        [
            ({"kind": "radial-log"}, "grid kind 'radial-log'"),
            ({"kind": None}, "has no kind"),
            ({"boundary": None}, "has no boundary"),
            ({"kind": None, "boundary": None}, "has no kind or boundary"),
            ({"boundary": "neumann"}, "unknown boundary 'neumann'"),
            ({3: "0.5,1.0"}, "grid points must be strictly increasing"),
            ({3: "abc,1.0"}, "line 3: could not convert string to float: 'abc'"),
            ("{not json", "sidecar is not JSON: Expecting property name"),
            ("3", "sidecar is not a JSON object: 3"),
        ],
    )
    def test_unreadable_sidecar_rejected(self, tmp_path, edit, match):
        # an old radial-log file, a sidecar that is not a JSON object or has
        # no kind or boundary or an unknown boundary, or a bad coordinate
        # column or cell, is a GridError naming the file at fault, not a
        # KeyError, TypeError or ValueError; a string replaces the sidecar
        # text, and in a dict a string key edits the sidecar and an int key
        # replaces that CSV line
        g = Grid.uniform(0.0, 1.0, 32)
        path = tmp_path / "f.csv"
        write_gridfunction(path, GridFunction(g, np.cos(g.points)))
        sidecar = tmp_path / "f.csv.json"
        if isinstance(edit, str):
            sidecar.write_text(edit)
            edit = {}
        lines = path.read_text().splitlines()
        for line, text in edit.items():
            if isinstance(line, int):
                lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        if edit:
            meta = {**read_json(sidecar), **{k: v for k, v in edit.items() if isinstance(k, str)}}
            sidecar.write_text(json.dumps({k: v for k, v in meta.items() if v is not None}))
        with pytest.raises(GridError, match=match) as exc:
            read_gridfunction(path)
        at_fault = path if any(isinstance(k, int) for k in edit) else sidecar
        assert str(exc.value).startswith(f"{at_fault}: ")

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
