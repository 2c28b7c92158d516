"""Grids, grid functions, Laplacian powers, quadrature, and file round trips."""

import json
import math
import pickle
import tracemalloc

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
    SineTransform,
    fft_scale,
    gradient,
    inner,
    integrate,
    quadratic_form,
    read_gridfunction,
    series_operator,
    write_gridfunction,
)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def series_symbol(k, coeffs, band=math.inf):
    """sum_n c_n (-k^2)^n in item order, zero at |k| above ``band``."""
    symbol = sum(c * (-(k**2)) ** n for n, c in coeffs.items())
    return np.where(np.abs(k) <= band, symbol, 0.0)


def laplacian_series(g, coeffs, band=math.inf):
    """The map of sum_n c_n lap^n on ``g``, projected onto |k| <= ``band``."""
    return series_operator(g, series_symbol(g.modes, coeffs, band))


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
        assert len(pickle.dumps(g)) < g.points.nbytes + 512
        back = pickle.loads(pickle.dumps(g))
        assert back.same_as(g) and not back.points.flags.writeable
        assert back.modes.tobytes() == g.modes.tobytes()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_normalization_refuses_a_nonfinite_norm(self, bad):
        g = Grid.uniform(0.0, 1.0, 33)
        v = np.sin(np.pi * g.points)
        v[16] = bad
        with pytest.raises(GridError, match="non-finite"):
            GridFunction(g, v).normalized()

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
        lap = laplacian_series(g, {1: 1.0})(f.values)
        assert np.max(np.abs(lap + k**2 * f.values)) < 1e-9 * k**2

    def test_periodic_spectral_plane_wave(self):
        g = Grid.uniform(0.0, 1.0, 128, PERIODIC)
        k = 2.0 * np.pi * 5
        f = GridFunction(g, np.cos(k * g.points))
        lap = laplacian_series(g, {1: 1.0})(f.values)
        assert np.allclose(lap, -(k**2) * f.values, rtol=1e-10, atol=1e-7)

    def test_fourth_power_spectral(self):
        # Coarse grid: the (-k^2)^n symbol amplifies roundoff in the highest
        # retained mode by k_max^{2n}, so exactness is only visible when that
        # amplification factor stays small.
        g = Grid.uniform(0.0, 1.0, 33)
        k = 5.0 * np.pi
        f = GridFunction(g, np.sin(k * g.points))
        l2 = laplacian_series(g, {2: 1.0})(f.values)
        assert np.max(np.abs(l2 - k**4 * f.values)) < 1e-10 * k**4

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
            lap = GridFunction(g, laplacian_series(g, {1: 1.0})(v))
            assert kinetic == pytest.approx(-inner(f, lap), rel=1e-14)

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
        u = laplacian_series(g, {power: 1.0}, band)(r * R)
        err = np.max(np.abs(u[1:-1] / r[1:-1] - exact[1:-1]))
        assert err <= 16 * EPS * math.log2(g.n) * np.max(np.abs(exact))

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_band_drops_the_modes_above_its_edge(self, boundary):
        g = Grid.uniform(0.0, 1.0, 128, boundary)
        wave = np.cos if boundary == PERIODIC else np.sin
        k1, k2 = 4.0 * np.pi, 10.0 * np.pi
        v = wave(k1 * g.points) + wave(k2 * g.points)
        lap = laplacian_series(g, {2: 1.0}, band=7.0 * np.pi)(v)
        assert np.max(np.abs(lap - k1**4 * wave(k1 * g.points))) < 1e-9 * k1**4
        # an edge above every mode of the grid changes no bit
        assert np.array_equal(
            laplacian_series(g, {2: 1.0}, band=1e9)(v), laplacian_series(g, {2: 1.0})(v)
        )


EPS = np.finfo(np.float64).eps
SERIES = {1: -0.5, 2: -0.125, 3: -0.0625}

# (grid, field) for every backend of series_operator.
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
        v = fn(g.points)
        terms = [c * laplacian_series(g, {n: 1.0})(v) for n, c in SERIES.items()]
        reference = sum(terms)
        got = laplacian_series(g, SERIES)(v)
        # Each side is a float64 evaluation of the same linear operator, so
        # they agree to a few hundred ulps of the largest term.
        scale = max(np.max(np.abs(t)) for t in terms)
        assert np.max(np.abs(got - reference)) <= 256 * EPS * scale

    def test_symbol_on_sine_modes(self):
        # The symbol is the eigenvalue of the series on each sine mode.
        g = Grid.uniform(0.0, 1.0, 33)
        k = 3.0 * np.pi
        f = GridFunction(g, np.sin(k * g.points))
        out = laplacian_series(g, SERIES)(f.values)
        sym = series_symbol(k, SERIES)
        assert sym == pytest.approx(-0.5 * -(k**2) - 0.125 * k**4 - 0.0625 * -(k**6))
        # roundoff in the highest retained mode is amplified by the symbol there
        k_max = (g.n - 2) * np.pi
        amplification = sum(abs(c) * k_max ** (2 * n) for n, c in SERIES.items())
        assert np.max(np.abs(out - sym * f.values)) <= 16 * EPS * amplification

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    @pytest.mark.parametrize("shape", [(), (16,), (31,), (2, 16)])
    def test_refuses_a_symbol_off_the_modes(self, boundary, shape):
        # 32 points have 17 rfft modes and 30 sine modes
        g = Grid.uniform(0.0, 1.0, 32, boundary)
        for build in (series_operator, quadratic_form):
            with pytest.raises(GridError, match="modes"):
                build(g, np.ones(shape))

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
            coef = scipy.fft.dst(v[1:-1], type=1)
            want[1:-1] = scipy.fft.idst(-(k**2) * coef, type=1)
        assert np.array_equal(series_operator(g, -(g.modes**2))(v), want)


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
    def test_symbol_at_the_transform_modes(self, boundary):
        g = Grid.uniform(0.0, 1.5, 65, boundary)
        if boundary == PERIODIC:
            k = g.wavenumbers[: g.n // 2 + 1]  # real-input FFT frequencies
        else:
            k = np.arange(1, g.n - 1) * np.pi / g.length  # DST-I sine modes
        assert np.array_equal(g.modes, k)
        f = GridFunction(g, np.sin(2 * np.pi * g.points / 1.5) ** 3)
        sym = series_symbol(k, {1: 0.7, 2: -0.3, 3: 1e-3})
        apply = series_operator(g, sym)
        first = apply(f.values)
        # one built map reused gives the bits of a fresh build per call
        for _ in range(3):
            assert np.array_equal(apply(f.values), first)
            assert np.array_equal(series_operator(g, sym)(f.values), first)
        if boundary == PERIODIC:
            want = scipy.fft.irfft(scipy.fft.rfft(f.values) * sym, g.n)
        else:
            want = np.zeros(g.n)
            coef = scipy.fft.dst(f.values[1:-1], type=1)
            want[1:-1] = scipy.fft.idst(coef * sym, type=1)
        assert np.array_equal(first, want)

    @pytest.mark.parametrize("n", [64, 65])
    def test_periodic_modes_are_the_full_spectrums_first_half(self, n):
        # a symbol even in k loses nothing on the rfft half spectrum
        g = Grid.uniform(0.0, 1.5, n, PERIODIC)
        assert g.modes.shape == (n // 2 + 1,)
        assert np.array_equal(g.modes, g.wavenumbers[: n // 2 + 1])
        # the negative frequencies it leaves out mirror its positive ones
        negative = g.wavenumbers[n // 2 + 1 :]
        assert np.array_equal(-negative[::-1], g.modes[1 : (n + 1) // 2])


class TestQuadraticForm:
    """The form sum_j w_j symbol_j |f_j|^2 is Parseval's identity under the
    grid's quadrature: with the unit symbol it is the integral of the
    squared field, with k^2 that of minus the field times its Laplacian.
    Both sides are float64 sums after transforms, measured to agree to at
    most 5.4e-16 relative on the fields below, so the bound, 4e-15, leaves
    a margin of 7."""

    FIELDS = {
        "gaussian": lambda x: np.exp(-((x - 0.43) ** 2) / (4.0 * 0.05**2)) * np.cos(50.0 * x),
        "box-modes": lambda x: np.sin(np.pi * x) + 0.3 * np.sin(7.0 * np.pi * x),
    }

    @pytest.mark.parametrize("field", sorted(FIELDS))
    @pytest.mark.parametrize("n", [64, 65, 4096, 4097])
    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_is_the_grid_quadrature(self, boundary, n, field):
        g = Grid.uniform(0.0, 1.0, n, boundary)
        v = self.FIELDS[field](g.points)
        if boundary == DIRICHLET:
            v[[0, -1]] = 0.0
        f = GridFunction(g, v)
        norm = quadratic_form(g, np.ones(g.modes.size))(v)
        assert norm == pytest.approx(integrate(GridFunction(g, v**2)), rel=4e-15)
        laplacian = GridFunction(g, laplacian_series(g, {1: 1.0})(v))
        kinetic = quadratic_form(g, g.modes**2)(v)
        assert kinetic == pytest.approx(-inner(f, laplacian), rel=4e-15)

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_takes_one_symbol_per_row(self, boundary):
        g = Grid.uniform(0.0, 1.0, 129, boundary)
        rows = np.stack([fn(g.points) for fn in self.FIELDS.values()])
        symbols = np.stack((np.ones(g.modes.size), g.modes**2))
        got = quadratic_form(g, symbols)(rows)
        assert got.shape == (2,)
        for row, symbol, value in zip(rows, symbols, got):
            assert value == quadratic_form(g, symbol)(row)

    @pytest.mark.parametrize("n", [64, 65])
    def test_periodic_weights_count_each_mode_once(self, n):
        # the Nyquist cosine of an even n has the weight 1 of its lone mode;
        # with n odd, the top mode has a partner at -k and the weight 2
        g = Grid.uniform(0.0, 1.0, n, PERIODIC)
        top = n // 2
        v = np.cos(2.0 * np.pi * top * g.points)
        assert quadratic_form(g, np.ones(top + 1))(v) == pytest.approx(
            integrate(GridFunction(g, v**2)), rel=1e-14
        )


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
        series = {1: 0.7, 2: -0.3, 3: 1e-3}
        band = abs(k[n // 3])
        pairs = [
            (
                laplacian_series(g, series, band)(v),
                scipy.fft.ifft(fhat * series_symbol(k, series, band)).real,
            ),
            (gradient(f).values, scipy.fft.ifft(1j * k * fhat).real),
        ]
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_input_is_not_overwritten(self):
        g = Grid.uniform(0.0, 1.0, 64, PERIODIC)
        v = self.FIELDS["exp-cos"](g.points)
        kept = v.copy()
        laplacian_series(g, {1: 1.0, 2: 0.5})(v)
        gradient(GridFunction(g, v))
        assert np.array_equal(v, kept)


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestNumpyTransformsMatchScipy:
    """Every transform of the package is numpy.fft; scipy.fft, which is
    pocketfft as well, is the oracle, bit for bit.  The sizes include m = 13,
    where math.sqrt(1/N) misses pocketfft's orthonormal scale, and m = 2730
    and n = 2731, where the double 1/n misses its long-double one."""

    SIZES = [3, 4, 13, 2047, 2730, 2731, 4094, 8190, 16385]

    @pytest.mark.parametrize("m", SIZES)
    def test_sine_transform(self, m):
        x = np.random.default_rng(m).standard_normal(m)
        sine = SineTransform(m)
        assert same_bits(sine(x), scipy.fft.dst(x, type=1))
        assert same_bits(sine(x, sine.inverse), scipy.fft.idst(x, type=1))
        assert same_bits(sine(x, sine.ortho), scipy.fft.dst(x, type=1, norm="ortho"))
        assert same_bits(sine(x, sine.ortho), scipy.fft.idst(x, type=1, norm="ortho"))
        # the buffers are reused: a second call on other data is not stale
        y = x[::-1].copy()
        assert same_bits(sine(y), scipy.fft.dst(y, type=1))

    @pytest.mark.parametrize("n", SIZES)
    def test_real_and_complex_fft_pairs(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        z = x + 1j * rng.standard_normal(n)
        assert same_bits(np.fft.rfft(x), scipy.fft.rfft(x))
        assert same_bits(np.fft.fft(z), scipy.fft.fft(z))
        c = scipy.fft.rfft(x)
        assert same_bits(np.fft.irfft(c, n, norm="forward") * fft_scale(n), scipy.fft.irfft(c, n))
        assert same_bits(np.fft.ifft(z, norm="forward") * fft_scale(n), scipy.fft.ifft(z))
        assert same_bits(np.fft.fftfreq(n, 0.37), scipy.fft.fftfreq(n, 0.37))

    @pytest.mark.parametrize("n", [16, 2049, 2731, 4096, 8192, 16385])
    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_operators(self, n, boundary):
        g = Grid.uniform(0.0, 1.0, n, boundary)
        v = np.sin(3.0 * np.pi * g.points) * np.exp(-((g.points - 0.45) ** 2) / 0.02)
        f = GridFunction(g, v)
        sym = series_symbol(g.modes, {1: 1.0, 2: -0.3, 3: 1e-3}, 0.4 * n * np.pi)
        if boundary == PERIODIC:
            k = g.wavenumbers
            assert same_bits(k, 2.0 * np.pi * scipy.fft.fftfreq(n, d=g.spacing))
            want_series = scipy.fft.irfft(scipy.fft.rfft(v) * sym, n)
            want_gradient = scipy.fft.irfft(1j * k[: n // 2 + 1] * scipy.fft.rfft(v), n)
        else:
            want_series = np.zeros(n)
            coef = scipy.fft.dst(v[1:-1], type=1)
            want_series[1:-1] = scipy.fft.idst(coef * sym, type=1)
            coef *= np.arange(1, n - 1) * (np.pi / (g.length * (n - 1)))
            want_gradient = 0.5 * scipy.fft.dct(np.pad(coef, 1), type=1)
        assert same_bits(series_operator(g, sym)(v), want_series)
        assert same_bits(gradient(f).values, want_gradient)

    @pytest.mark.parametrize("size", [size for size in SIZES if size >= 16])
    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_complex_series(self, size, boundary):
        # complex fields and symbols: on periodic grids the complex FFT pair
        # with the even symbol mirrored onto the full spectrum, on Dirichlet
        # ones (size interior points) the DST-I pair along the (re, im) pairs
        n = size if boundary == PERIODIC else size + 2
        g = Grid.uniform(0.0, 1.0, n, boundary)
        rng = np.random.default_rng(size)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        unit = (g.modes / g.modes[-1]) ** 2
        for sym in (np.exp(-3j * unit), unit - 0.5 * unit**2):
            if boundary == PERIODIC:
                j = np.arange(n)
                want = scipy.fft.ifft(scipy.fft.fft(z) * sym[np.minimum(j, n - j)])
            else:
                z[[0, -1]] = 0.0
                pairs = z[1:-1].view(np.float64).reshape(-1, 2)
                coef = scipy.fft.dst(pairs, type=1, axis=0).view(np.complex128)[:, 0] * sym
                want = np.zeros_like(z)
                want[1:-1] = scipy.fft.idst(
                    coef.view(np.float64).reshape(-1, 2), type=1, axis=0
                ).view(np.complex128)[:, 0]
            apply = series_operator(g, sym)
            for _ in range(2):  # the map's buffers are reused
                assert same_bits(apply(z), want)
            # a real field under a complex symbol is the complex field with
            # a zero imaginary part
            if np.iscomplexobj(sym):
                assert same_bits(apply(z.real), apply(z.real + 0j))


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

    def test_blank_lines_around_the_table_are_ignored(self, tmp_path):
        g = Grid.uniform(0.0, 1.0, 32)
        f = GridFunction(g, np.cos(g.points))
        path = tmp_path / "f.csv"
        write_gridfunction(path, f)
        path.write_text("\n \n" + path.read_text() + "\n  \n\t\n")
        back = read_gridfunction(path)
        assert back.grid.same_as(g)
        assert np.array_equal(back.values, f.values)

    def test_values_are_float_of_their_cells(self, tmp_path):
        # random bit patterns, subnormals, signed zeros and the largest
        # doubles come back as float(cell), which is the value written
        rng = np.random.default_rng(30)
        bits = rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64)
        extremes = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                    -2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308]
        values = np.concatenate((extremes, bits[np.isfinite(bits)]))
        g = Grid.uniform(0.0, 1.0, len(values))
        path = tmp_path / "f.csv"
        write_gridfunction(path, GridFunction(g, values))
        cells = [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
        back = read_gridfunction(path)
        assert back.values.tobytes() == np.array(cells).tobytes() == values.tobytes()

    def test_working_memory_is_rows_of_points(self, tmp_path):
        """numpy's reader parses the rows in C and the writer formats them in
        blocks, so neither holds a Python object per row or the whole text:
        on 16,385 points the traced peak of a read is a few rows of points,
        where per-row lists and strings took about 36 rows, and that of a
        write is a few rows, where the whole-table text took about 17."""
        g = Grid.uniform(-1.0, 1.0, 16_385)
        f = GridFunction(g, np.exp(-g.points**2 / 0.02))
        path = tmp_path / "f.csv"
        row = g.n * 8
        for call, rows in ((lambda: write_gridfunction(path, f), 5),
                           (lambda: read_gridfunction(path), 8)):
            call()  # warm-up
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < rows * row

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
            ({3: ""}, r"line 3 has 1 cell\(s\), expected 2"),
            ({3: "# note"}, r"line 3 has 1 cell\(s\), expected 2"),
            ({3: "0.5,1.0,2.0"}, r"line 3 has 3 cell\(s\), expected 2"),
            ({3: "0.5,1_0"}, "line 3: could not convert string to float: '1_0'"),
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
