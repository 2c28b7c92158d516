"""Numerical kernels: trajectory advection.

Advection moves every seed at once with vectorised numpy RK4 through
stored velocity frames, one gather per RK4 stage.  The frames are read one
row at a time, each once, so a caller can hand over a sequence that
computes each row when it is read, and only two rows are held at once.
The interpolation works in place (``take`` and ``out=``), the blended row
at the end of a substep is reused as the next substep's first row, and
periodic positions wrap with :func:`_wrap`, which gives the bits of
``np.mod`` with a min/max check instead of a division when every position
is already in range.  Periodic seeds cannot exit, so only Dirichlet grids
mask frozen seeds.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# --------------------------------------------------------------------------
# Trajectory advection: RK4 through time-interpolated velocity frames
# --------------------------------------------------------------------------
#
# Velocity fields are sampled per stored frame on a uniform grid; between
# frames the velocity is interpolated linearly in time, and linearly in
# space at each evaluation point.  Both are linear, so each RK4 stage blends
# the two frame rows on the grid (O(points)) and then interpolates that one
# row at the seeds.  Dirichlet trajectories that leave the grid are frozen
# at the boundary and flagged; periodic ones wrap.


def _wrap(u, period):
    """``np.mod(u, period)`` bit for bit, for ``period > 0``.

    When every position already lies in [0, period), one min/max check
    suffices and ``u + 0.0`` turns -0.0 into +0.0 as ``np.mod`` does.
    Otherwise this is numpy's own definition: ``fmod``, then ``period``
    added to negative remainders (a tiny negative rounds onto ``period``),
    then +0.0 for zero remainders; NaN stays NaN.
    """
    if u.size and u.min() >= 0.0 and u.max() < period:
        return u + 0.0
    r = np.fmod(u, period)
    np.add(r, period, out=r, where=r < 0.0)
    r += 0.0
    return r


def _interp_many(row, xs, x0, h, periodic):
    """Linear interpolation of one row at many positions.  A periodic row
    repeats its first value at the end, so the wrap cell is an ordinary one
    and a position that rounds onto x0 + length stays in range."""
    last = row.size - 1
    u = xs - x0
    u /= h
    if periodic:
        u = _wrap(u, last)
    else:
        np.clip(u, 0.0, last, out=u)
    i = u.astype(np.int64)
    np.minimum(i, last - 1, out=i)
    w = u
    w -= i
    lo = row.take(i)
    i += 1
    hi = row.take(i)
    # (1 - w) * row[i] + w * row[i + 1]
    hi *= w
    np.subtract(1.0, w, out=w)
    lo *= w
    lo += hi
    return lo


def advect_seeds(
    vframes: Sequence[np.ndarray],
    x0: float,
    h: float,
    dt_frames: float | Sequence[float],
    seeds: np.ndarray,
    substeps: int = 1,
    periodic: bool = False,
    length: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Advect seeds through stored velocity frames with RK4.

    ``vframes`` is any sized sequence of equal-length velocity rows, one
    per frame (a 2-D array will do); row f is read once, when the
    advection reaches frame f, and a periodic row gets its wrap value
    appended then.  ``dt_frames`` is the time from each frame to the next,
    one per interval, or one for all.

    Returns (paths, exited): paths has shape (n_frames, n_seeds) with one
    position sample per frame; exited flags Dirichlet trajectories that hit
    the boundary (they stay frozen there afterwards).
    """
    seeds = np.ascontiguousarray(seeds, np.float64)
    nframes = len(vframes)
    if nframes < 2:
        raise ValueError("need at least two velocity frames")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    dt_frames = np.broadcast_to(np.asarray(dt_frames, np.float64), (nframes - 1,))

    def row(f):
        r = np.asarray(vframes[f], np.float64)
        if r.ndim != 1 or (f and r.size != npts):
            raise ValueError("velocity frames must be rows of one length")
        return np.append(r, r[0]) if periodic else r

    vb = row(0)
    npts = vb.size - periodic
    paths = np.empty((nframes, seeds.shape[0]), np.float64)
    exited = np.zeros(seeds.shape[0], np.uint8)
    xmax = x0 + h * (npts - 1)
    x = seeds.copy()
    paths[0] = x
    for f in range(nframes - 1):
        active = exited == 0
        va, vb = vb, row(f + 1)
        dt = float(dt_frames[f]) / substeps

        def blend(tw):
            return (1.0 - tw) * va + tw * vb

        # the row at the end of one substep is the next one's first row
        row1 = blend(0.0)
        for m in range(substeps):
            row0 = row1
            rowh = blend((m + 0.5) / substeps)
            row1 = blend((m + 1.0) / substeps)
            k1 = _interp_many(row0, x, x0, h, periodic)
            k2 = _interp_many(rowh, x + 0.5 * dt * k1, x0, h, periodic)
            k3 = _interp_many(rowh, x + 0.5 * dt * k2, x0, h, periodic)
            k4 = _interp_many(row1, x + dt * k3, x0, h, periodic)
            # dt * (k1 + 2 k2 + 2 k3 + k4) / 6, summed left to right
            k2 *= 2.0
            k1 += k2
            k3 *= 2.0
            k1 += k3
            k1 += k4
            k1 *= dt
            k1 /= 6.0
            if periodic:
                # no seed can exit a periodic grid
                x += k1
                x = x0 + _wrap(x - x0, length)
            else:
                x = np.where(active, x + k1, x)
                out = active & ((x < x0) | (x > xmax))
                np.clip(x, x0, xmax, out=x)
                exited[out] = 1
                active = exited == 0
        paths[f + 1] = x
    return paths, exited
