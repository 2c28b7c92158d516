"""Numerical kernels: seed advection."""

import numpy as np
import pytest

from qpotlab import kernels


def constant_velocity_frames(nframes, npts, v):
    return np.full((nframes, npts), v, dtype=np.float64)


class TestAdvectSeeds:
    def test_constant_velocity_ballistic(self):
        v = 0.25
        vframes = constant_velocity_frames(5, 64, v)
        h = 1.0 / 63
        dt_frame = 0.1
        seeds = np.array([0.1, 0.5])
        paths, exited = kernels.advect_seeds(
            vframes, 0.0, h, dt_frame, seeds, substeps=4, periodic=False, length=1.0
        )
        T = 4 * dt_frame
        assert np.allclose(paths[-1], seeds + v * T, atol=1e-12)
        assert not exited.any()

    def test_one_interval_per_frame_pair(self):
        # a shorter last interval moves seeds for its own length
        v = 0.25
        vframes = constant_velocity_frames(4, 64, v)
        seeds = np.array([0.1, 0.5])
        args = (0.0, 1.0 / 63, [0.1, 0.1, 0.05], seeds, 4, False, 1.0)
        paths, _ = kernels.advect_seeds(vframes, *args)
        assert np.allclose(paths - seeds, v * np.array([[0.0], [0.1], [0.2], [0.25]]), atol=1e-12)
        with pytest.raises(ValueError):
            kernels.advect_seeds(vframes, 0.0, 1.0 / 63, [0.1, 0.1], seeds, 4, False, 1.0)

    def test_periodic_wrap(self):
        v = 1.0
        npts = 64
        h = 1.0 / npts
        vframes = constant_velocity_frames(3, npts, v)
        seeds = np.array([0.9])
        paths, exited = kernels.advect_seeds(
            vframes, 0.0, h, 0.3, seeds, substeps=8, periodic=True, length=1.0
        )
        # travels 0.6 and wraps past 1.0 to 0.5
        assert paths[-1][0] == pytest.approx(0.5, abs=1e-9)
        assert not exited.any()

    def test_dirichlet_exit_frozen(self):
        v = 1.0
        vframes = constant_velocity_frames(3, 64, v)
        h = 1.0 / 63
        seeds = np.array([0.8, 0.1])
        paths, exited = kernels.advect_seeds(
            vframes, 0.0, h, 0.3, seeds, substeps=8, periodic=False, length=1.0
        )
        assert exited[0] == 1 and exited[1] == 0
        assert paths[-1][0] == pytest.approx(1.0, abs=1e-12)

    def test_space_time_interpolation(self):
        # velocity ramps linearly in time: x(t) follows the trapezoid rule
        npts = 128
        h = 1.0 / (npts - 1)
        v0, v1 = 0.0, 0.4
        vframes = np.stack(
            [np.full(npts, v0), np.full(npts, v1)]
        )
        seeds = np.array([0.2])
        paths, _ = kernels.advect_seeds(
            vframes, 0.0, h, 1.0, seeds, substeps=64, periodic=False, length=1.0
        )
        assert paths[-1][0] == pytest.approx(0.2 + 0.5 * (v0 + v1), abs=1e-6)

    @pytest.mark.parametrize("length", [0.0, -1.0, np.nan, np.inf])
    def test_periodic_needs_a_length(self, length):
        # the default length 0.0 would wrap every position to NaN
        vframes = constant_velocity_frames(3, 16, 0.5)
        with pytest.raises(ValueError, match="length"):
            kernels.advect_seeds(
                vframes, 0.0, 1.0 / 16, 0.1, np.array([0.5]), periodic=True, length=length
            )

    def test_validation(self):
        vframes = constant_velocity_frames(1, 16, 0.0)
        with pytest.raises(ValueError, match="two velocity frames"):
            kernels.advect_seeds(
                vframes, 0.0, 0.1, 0.1, np.array([0.5]), 1, False, 1.0
            )
        vframes = constant_velocity_frames(3, 16, 0.0)
        with pytest.raises(ValueError, match="substeps"):
            kernels.advect_seeds(
                vframes, 0.0, 0.1, 0.1, np.array([0.5]), 0, False, 1.0
            )
        ragged = [np.zeros(16), np.zeros(16), np.zeros(15)]
        for rows in (ragged, np.zeros(16)):
            with pytest.raises(ValueError, match="rows of one length"):
                kernels.advect_seeds(
                    rows, 0.0, 0.1, 0.1, np.array([0.5]), 1, False, 1.0
                )


def reference_advect(vframes, x0, h, dt_frame, seeds, substeps, periodic, length):
    """The two-row form: each RK4 stage interpolates both frames at the
    seeds, then blends the two values in time."""

    def interp(row, xs):
        npts = row.size
        u = (xs - x0) / h
        if periodic:
            u = np.mod(u, npts)
            i = u.astype(np.int64)
            w = u - i
            j = np.where(i + 1 >= npts, i + 1 - npts, i + 1)
            return (1.0 - w) * row[i] + w * row[j]
        u = np.clip(u, 0.0, npts - 1.0)
        i = np.minimum(u.astype(np.int64), npts - 2)
        w = u - i
        return (1.0 - w) * row[i] + w * row[i + 1]

    nframes, npts = vframes.shape
    xmax = x0 + h * (npts - 1)
    paths = np.empty((nframes, seeds.size))
    exited = np.zeros(seeds.size, np.uint8)
    x = seeds.copy()
    paths[0] = x
    for f in range(nframes - 1):
        active = exited == 0

        def vel(tw, pos):
            va = interp(vframes[f], pos)
            vb = interp(vframes[f + 1], pos)
            return (1.0 - tw) * va + tw * vb

        dt = dt_frame / substeps
        for m in range(substeps):
            k1 = vel(m / substeps, x)
            k2 = vel((m + 0.5) / substeps, x + 0.5 * dt * k1)
            k3 = vel((m + 0.5) / substeps, x + 0.5 * dt * k2)
            k4 = vel((m + 1.0) / substeps, x + dt * k3)
            x = np.where(active, x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0, x)
            if periodic:
                x = x0 + np.mod(x - x0, length)
            else:
                out = active & ((x < x0) | (x > xmax))
                x = np.clip(x, x0, xmax)
                exited[out] = 1
                active = exited == 0
        paths[f + 1] = x
    return paths, exited


def varying_frames(nframes, points, rng):
    """Smooth velocity fields that change from frame to frame."""
    x = points[None, :]
    t = np.arange(nframes)[:, None]
    return (
        0.8
        + 0.5 * np.sin(2.0 * np.pi * (x - 0.07 * t))
        + 0.2 * np.cos(6.0 * np.pi * x + 0.3 * t)
        + 0.05 * rng.standard_normal((nframes, points.size))
    )


class TestAdvectionOracle:
    """Blending the two frame rows before the one gather moves seeds along
    the same paths as interpolating both frames at the seeds."""

    @pytest.mark.parametrize("periodic", [True, False])
    def test_matches_two_row_reference(self, periodic):
        rng = np.random.default_rng(21)
        L, npts = 1.0, 257
        if periodic:
            points = np.linspace(0.0, L, npts, endpoint=False)
            h = L / npts
        else:
            points = np.linspace(0.0, L, npts)
            h = L / (npts - 1)
        vframes = varying_frames(12, points, rng)
        seeds = rng.uniform(0.0, L * (1.0 - 1e-9), 500)
        args = (vframes, 0.0, h, 0.05, seeds, 3, periodic, L)
        paths, exited = kernels.advect_seeds(*args)
        ref_paths, ref_exited = reference_advect(*args)
        assert np.max(np.abs(paths - ref_paths)) <= 1e-12 * L
        assert np.array_equal(exited, ref_exited)
        if periodic:
            # seeds crossed x0 + L and wrapped
            assert np.any(paths[-1] < paths[0] - 0.1)
        else:
            assert 0 < np.count_nonzero(exited) < seeds.size

    @pytest.mark.parametrize("periodic", [True, False])
    def test_rows_from_a_sequence_read_once(self, periodic):
        rng = np.random.default_rng(5)
        points = np.linspace(0.0, 1.0, 65)[: -1 if periodic else None]
        h = points[1] - points[0]
        vframes = varying_frames(6, points, rng)
        reads = []

        class Rows:
            def __len__(self):
                return len(vframes)

            def __getitem__(self, f):
                reads.append(f)
                return list(vframes[f])

        args = (0.0, h, 0.05, rng.uniform(0.0, 0.99, 40), 2, periodic, 1.0)
        paths, exited = kernels.advect_seeds(Rows(), *args)
        want_paths, want_exited = kernels.advect_seeds(vframes, *args)
        assert reads == list(range(6))
        assert np.array_equal(paths.view(np.uint64), want_paths.view(np.uint64))
        assert np.array_equal(exited, want_exited)

    def test_stage_just_below_origin_wraps(self):
        # a half-step from x0 with a tiny negative velocity lands where
        # (x - x0) / h mod n rounds to n: the wrap cell, not an index error
        npts = 64
        vframes = constant_velocity_frames(2, npts, -1e-16)
        paths, _ = kernels.advect_seeds(
            vframes, 0.0, 1.0 / npts, 1.0, np.array([0.0]), 1, True, 1.0
        )
        end = paths[-1][0]
        assert 0.0 <= end <= 1.0 and min(end, 1.0 - end) < 1e-12


class TestWrap:
    """_wrap is np.mod for a positive period, bit for bit."""

    @staticmethod
    def assert_same_bits(u, period):
        got, want = kernels._wrap(u, period), np.mod(u, period)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("period", [1.0, 3.0, 2048, 0.1])
    def test_edge_values(self, period):
        ulp = np.spacing(float(period))
        values = [
            -0.0, 0.0, -1e-300, -5e-324, -1e-17, 1e-300,
            period - ulp, period, -period, 2 * period, -3 * period,
            5 * period, -5 * period, 5.5 * period, -5.5 * period,
        ]
        self.assert_same_bits(np.array(values, np.float64), period)
        # every value alone, so the in-range shortcut runs as well
        for v in values:
            self.assert_same_bits(np.array([v], np.float64), period)
        self.assert_same_bits(np.array([0.5 * period, np.nan, -0.0]), period)

    def test_random_values(self):
        rng = np.random.default_rng(8)
        u = rng.uniform(-6.0, 6.0, 10_000) * 10.0 ** rng.integers(-20, 3, 10_000)
        self.assert_same_bits(u, 1.0)
        self.assert_same_bits(np.abs(u) % 0.75, 0.75)
        self.assert_same_bits(np.array([], np.float64), 1.0)


def parent_advect(vframes, x0, h, dt_frame, seeds, substeps, periodic, length):
    """advect_seeds as it was before the in-place rewrite: np.mod wraps, one
    blended row per RK4 stage, np.where on both boundaries."""

    def interp(row, xs):
        last = row.size - 1
        u = (xs - x0) / h
        u = np.mod(u, last) if periodic else np.clip(u, 0.0, last)
        i = np.minimum(u.astype(np.int64), last - 1)
        w = u - i
        return (1.0 - w) * row[i] + w * row[i + 1]

    nframes, npts = vframes.shape
    paths = np.empty((nframes, seeds.shape[0]), np.float64)
    exited = np.zeros(seeds.shape[0], np.uint8)
    xmax = x0 + h * (npts - 1)
    if periodic:
        vframes = np.concatenate((vframes, vframes[:, :1]), axis=1)
    x = seeds.copy()
    paths[0] = x
    for f in range(nframes - 1):
        active = exited == 0
        va, vb = vframes[f], vframes[f + 1]

        def vel(tw, pos):
            return interp((1.0 - tw) * va + tw * vb, pos)

        for m in range(substeps):
            dt = dt_frame / substeps
            w0 = m / substeps
            wh = (m + 0.5) / substeps
            w1 = (m + 1.0) / substeps
            k1 = vel(w0, x)
            k2 = vel(wh, x + 0.5 * dt * k1)
            k3 = vel(wh, x + 0.5 * dt * k2)
            k4 = vel(w1, x + dt * k3)
            step = dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            x = np.where(active, x + step, x)
            if periodic:
                x = x0 + np.mod(x - x0, length)
            else:
                out = active & ((x < x0) | (x > xmax))
                x = np.clip(x, x0, xmax)
                exited[out] = 1
                active = exited == 0
        paths[f + 1] = x
    return paths, exited


class TestSameBitsAsParent:
    """The in-place advection gives the earlier implementation's bits."""

    @pytest.mark.parametrize("substeps", [1, 3, 4])
    def test_periodic_seeds_straddling_the_wrap(self, substeps):
        rng = np.random.default_rng(31)
        L, npts = 1.0, 256
        points = np.linspace(0.0, L, npts, endpoint=False)
        vframes = varying_frames(9, points, rng)
        vframes[4:] *= -1.0  # flow back across x0 as well
        # seeds at x0 and just below x0 + L, where stage positions leave
        # [0, n) and the fmod branch of _wrap runs
        seeds = np.concatenate(
            ([0.0, -0.0, L - np.spacing(L), 1e-300], rng.uniform(0.0, L, 300),
             L - rng.uniform(0.0, 1e-3, 50), rng.uniform(0.0, 1e-3, 50))
        )
        args = (vframes, 0.0, L / npts, 0.07, seeds, substeps, True, L)
        paths, exited = kernels.advect_seeds(*args)
        ref_paths, ref_exited = parent_advect(*args)
        assert np.array_equal(paths.view(np.uint64), ref_paths.view(np.uint64))
        assert np.array_equal(exited, ref_exited) and not exited.any()
        assert np.any(paths[1:] < 0.01) and np.any(paths[1:] > L - 0.01)

    @pytest.mark.parametrize("substeps", [1, 4])
    def test_dirichlet_seeds_that_exit(self, substeps):
        rng = np.random.default_rng(32)
        L, npts = 2.0, 301
        points = np.linspace(-1.0, 1.0, npts)
        vframes = 3.0 * varying_frames(7, points, rng) - 1.5
        seeds = np.concatenate(([-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 400)))
        args = (vframes, -1.0, L / (npts - 1), 0.1, seeds, substeps, False, L)
        paths, exited = kernels.advect_seeds(*args)
        ref_paths, ref_exited = parent_advect(*args)
        assert np.array_equal(paths.view(np.uint64), ref_paths.view(np.uint64))
        assert np.array_equal(exited, ref_exited)
        assert 0 < np.count_nonzero(exited) < seeds.size
