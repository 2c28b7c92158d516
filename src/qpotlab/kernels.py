"""Numerical kernels: the tridiagonal solve and trajectory advection.

The Crank-Nicolson matrix is the same at every step of a run, so it is
LU-factored once with LAPACK ``zgttrf`` (:func:`factor_tridiagonal`) and
each step costs one ``zgttrs`` back-substitution
(:func:`solve_tridiagonal`).  Trajectory advection moves every seed at once
with vectorised numpy RK4 through stored velocity frames, one gather per
RK4 stage.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

# --------------------------------------------------------------------------
# Complex tridiagonal solve (LAPACK gttrf / gttrs)
# --------------------------------------------------------------------------


def factor_tridiagonal(dl: np.ndarray, d: np.ndarray, du: np.ndarray) -> tuple:
    """LU factors of the matrix with subdiagonal dl, diagonal d and
    superdiagonal du, for any number of :func:`solve_tridiagonal` calls.

    Raises numpy.linalg.LinAlgError if the matrix is singular.
    """
    *factors, info = lapack.zgttrf(
        np.asarray(dl, np.complex128),
        np.asarray(d, np.complex128),
        np.asarray(du, np.complex128),
    )
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular tridiagonal matrix: zero pivot in row {info}"
        )
    if info < 0:
        raise ValueError(f"zgttrf: argument {-info} is invalid")
    return tuple(factors)


def solve_tridiagonal(factors: tuple, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the factors of A from :func:`factor_tridiagonal`."""
    x, info = lapack.zgttrs(*factors, np.asarray(b, np.complex128))
    if info != 0:
        raise ValueError(f"zgttrs: argument {-info} is invalid")
    return x


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


def _interp_many(row, xs, x0, h, periodic):
    """Linear interpolation of one row at many positions.  A periodic row
    repeats its first value at the end, so the wrap cell is an ordinary one
    and a position that rounds onto x0 + length stays in range."""
    last = row.size - 1
    u = (xs - x0) / h
    u = np.mod(u, last) if periodic else np.clip(u, 0.0, last)
    i = np.minimum(u.astype(np.int64), last - 1)
    w = u - i
    return (1.0 - w) * row[i] + w * row[i + 1]


def advect_seeds(
    vframes: np.ndarray,
    x0: float,
    h: float,
    dt_frame: float,
    seeds: np.ndarray,
    substeps: int = 1,
    periodic: bool = False,
    length: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Advect seeds through stored velocity frames with RK4.

    Returns (paths, exited): paths has shape (n_frames, n_seeds) with one
    position sample per frame; exited flags Dirichlet trajectories that hit
    the boundary (they stay frozen there afterwards).
    """
    vframes = np.ascontiguousarray(vframes, np.float64)
    seeds = np.ascontiguousarray(seeds, np.float64)
    if vframes.ndim != 2 or vframes.shape[0] < 2:
        raise ValueError("need at least two velocity frames")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
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
            return _interp_many((1.0 - tw) * va + tw * vb, pos, x0, h, periodic)

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
