"""Real-space grids, differential operators, and quadrature.

Two grid kinds cover everything downstream:

* ``uniform-1d`` — equally spaced points, Dirichlet (both endpoints stored)
  or periodic (right endpoint omitted).
* ``radial-log`` — geometrically spaced radii for radial problems; the
  Laplacian uses the substitution u(r) = r*R(r), for which the radial
  Laplacian is u''(r)/r, evaluated on the uniform log-radius auxiliary grid.
  The integration measure carries the 4*pi*r^2 weight.

The grid picks the derivative backend: the Fourier transform on periodic
grids, the sine (DST-I) transform on uniform Dirichlet grids (exact mode
actions for fields vanishing at the walls) and 4th-order finite
differences on radial grids.  ``method='fd'`` selects finite differences
on a uniform Dirichlet grid and is the one override.  The gradient is the
Fourier derivative on periodic grids and finite differences elsewhere.  A
Laplacian series sum c_n lap^n (a power is one term) costs one transform
pair with the symbol sum c_n (-k^2)^n, or one stencil per power.
Dirichlet finite-difference ghosts are the point reflection through the
boundary value, g(-h) = 2f(0) - f(h): for fields vanishing at the wall
this is the classic odd reflection (exact for sine modes) and it makes
the wall rows of the discrete Laplacian identically zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import numpy as np
import scipy

from . import serialize

UNIFORM = "uniform-1d"
RADIAL_LOG = "radial-log"
DIRICHLET = "dirichlet"
PERIODIC = "periodic"


class GridError(ValueError):
    """Invalid grid construction or an operator/grid mismatch."""


# --------------------------------------------------------------------------
# Finite-difference stencil weights (generated exactly, converted to float)
# --------------------------------------------------------------------------


def _fd_weights(offsets: tuple[int, ...], deriv: int) -> np.ndarray:
    """Weights for the ``deriv``-th derivative at 0 from unit-spaced nodes.

    Fornberg's recurrence carried out in exact rational arithmetic.
    """
    xs = [Fraction(o) for o in offsets]
    n = len(xs)
    c = [[Fraction(0)] * (deriv + 1) for _ in range(n)]
    c[0][0] = Fraction(1)
    c1 = Fraction(1)
    c4 = xs[0]
    for i in range(1, n):
        mn = min(i, deriv)
        c2 = Fraction(1)
        c5 = c4
        c4 = xs[i]
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i][k] = c1 * (k * c[i - 1][k - 1] - c5 * c[i - 1][k]) / c2
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2
            for k in range(mn, 0, -1):
                c[j][k] = (c4 * c[j][k] - k * c[j][k - 1]) / c3
            c[j][0] = c4 * c[j][0] / c3
        c1 = c2
    return np.array([float(row[deriv]) for row in c])


_D1_CENTER = _fd_weights((-2, -1, 0, 1, 2), 1)
_D2_CENTER = _fd_weights((-2, -1, 0, 1, 2), 2)
_D1_EDGE = [_fd_weights(tuple(range(-s, 5 - s)), 1) for s in (0, 1)]
_D2_EDGE = [_fd_weights(tuple(range(-s, 6 - s)), 2) for s in (0, 1)]


def _uniform_derivative(vals: np.ndarray, h: float, deriv: int) -> np.ndarray:
    """4th-order derivative on a uniform grid; one-sided stencils at edges."""
    n = vals.shape[0]
    center = _D1_CENTER if deriv == 1 else _D2_CENTER
    edges = _D1_EDGE if deriv == 1 else _D2_EDGE
    width = len(edges[0])
    out = np.zeros(n)
    for k, w in enumerate(center):
        out[2 : n - 2] += w * vals[k : n - 4 + k]
    for row, weights in enumerate(edges):
        out[row] = np.dot(weights, vals[:width])
        out[n - 1 - row] = (-1.0) ** deriv * np.dot(weights, vals[-1 : -width - 1 : -1])
    return out / h**deriv


def _dirichlet_second_derivative(vals: np.ndarray, h: float) -> np.ndarray:
    """Centered 4th-order second derivative with reflected ghost values."""
    n = vals.shape[0]
    ext = np.empty(n + 4)
    ext[2:-2] = vals
    ext[1] = 2.0 * vals[0] - vals[1]
    ext[0] = 2.0 * vals[0] - vals[2]
    ext[-2] = 2.0 * vals[-1] - vals[-2]
    ext[-1] = 2.0 * vals[-1] - vals[-3]
    out = np.zeros(n)
    for k, w in enumerate(_D2_CENTER):
        out += w * ext[k : n + k]
    return out / h**2


# --------------------------------------------------------------------------
# Grid and GridFunction
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Grid:
    """A 1-D coordinate grid (uniform or log-radial)."""

    kind: str
    points: np.ndarray
    boundary: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if self.kind not in (UNIFORM, RADIAL_LOG):
            raise GridError(f"unknown grid kind {self.kind!r}")
        if self.boundary not in (DIRICHLET, PERIODIC):
            raise GridError(f"unknown boundary {self.boundary!r}")
        if pts.ndim != 1 or pts.size < 16:
            raise GridError("grid needs at least 16 points")
        if not np.all(np.diff(pts) > 0):
            raise GridError("grid points must be strictly increasing")
        if self.kind == RADIAL_LOG:
            if self.boundary != DIRICHLET:
                raise GridError("radial grids are Dirichlet only")
            if pts[0] <= 0:
                raise GridError("radial grids must start at r_min > 0")
            steps = np.diff(np.log(pts))
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
                raise GridError("radial-log grid must be geometrically spaced")
        else:
            steps = np.diff(pts)
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
                raise GridError("uniform grid must be equally spaced")
        pts.flags.writeable = False

    @classmethod
    def uniform(cls, start: float, stop: float, n: int, boundary: str = DIRICHLET) -> "Grid":
        """Uniform grid on [start, stop]; periodic grids omit the right endpoint."""
        if stop <= start:
            raise GridError("stop must exceed start")
        if boundary == PERIODIC:
            pts = start + (stop - start) * np.arange(n) / n
        else:
            pts = np.linspace(start, stop, n)
        return cls(UNIFORM, pts, boundary)

    @classmethod
    def radial_log(cls, r_min: float, r_max: float, n: int) -> "Grid":
        """Geometrically spaced radial grid on [r_min, r_max], r_min > 0."""
        if r_min <= 0:
            raise GridError("radial grids must start at r_min > 0")
        return cls(RADIAL_LOG, np.geomspace(r_min, r_max, n), DIRICHLET)

    @property
    def n(self) -> int:
        return self.points.size

    @property
    def spacing(self) -> float:
        """Uniform point spacing (coordinate units); uniform grids only."""
        if self.kind != UNIFORM:
            raise GridError("spacing is defined for uniform grids only")
        return float(self.points[1] - self.points[0])

    @property
    def length(self) -> float:
        """Domain length: periodic grids include the wrap interval."""
        if self.kind != UNIFORM:
            raise GridError("length is defined for uniform grids only")
        span = float(self.points[-1] - self.points[0])
        return span + self.spacing if self.boundary == PERIODIC else span

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Angular FFT wavenumbers 2 pi fftfreq(n, h), built once per grid
        (read-only); uniform grids only."""
        k = 2.0 * np.pi * scipy.fft.fftfreq(self.n, d=self.spacing)
        k.flags.writeable = False
        return k

    def series_symbol(self, unit: Mapping[int, float]) -> np.ndarray:
        """:func:`laplacian_symbol` of ``unit`` at this grid's transform
        wavenumbers (Fourier on periodic grids, DST-I sine modes on
        Dirichlet ones), built once per grid and coefficient map and
        read-only; uniform grids only.

        The cache key is the ordered (power, coefficient bits) items: the
        symbol is summed in item order, so a reordered map is a new entry.
        """
        key = tuple((n, float(c).hex()) for n, c in unit.items())
        symbol = self._symbols.get(key)
        if symbol is None:
            if self.boundary == PERIODIC:
                k = self.wavenumbers
            else:
                k = np.arange(1, self.n - 1) * np.pi / self.length
            symbol = laplacian_symbol(unit, k)
            symbol.flags.writeable = False
            self._symbols[key] = symbol
        return symbol

    @cached_property
    def _symbols(self) -> dict:
        return {}

    @property
    def log_step(self) -> float:
        if self.kind != RADIAL_LOG:
            raise GridError("log_step is defined for radial-log grids only")
        return float(np.log(self.points[1] / self.points[0]))

    @property
    def measure_weight(self) -> np.ndarray:
        """Quadrature weight of the measure: 1 on lines, 4*pi*r^2 radially."""
        if self.kind == RADIAL_LOG:
            return 4.0 * np.pi * self.points**2
        return np.ones_like(self.points)

    def same_as(self, other: "Grid") -> bool:
        return (
            self.kind == other.kind
            and self.boundary == other.boundary
            and self.points.shape == other.points.shape
            and bool(np.allclose(self.points, other.points, rtol=1e-12, atol=0))
        )


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real field sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.points.shape:
            raise GridError(
                f"values length {vals.shape} does not match grid {self.grid.points.shape}"
            )
        object.__setattr__(self, "values", vals)

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def normalized(self) -> "GridFunction":
        """Scale so that the integral of the squared field is exactly 1."""
        nrm = integrate(GridFunction(self.grid, self.values**2))
        if nrm <= 0:
            raise GridError("cannot normalize a field with vanishing norm")
        return GridFunction(self.grid, self.values / math.sqrt(nrm))

    def is_normalized(self, tol: float = 1e-10) -> bool:
        return abs(integrate(GridFunction(self.grid, self.values**2)) - 1.0) <= tol


# --------------------------------------------------------------------------
# Operators
# --------------------------------------------------------------------------


def power_laplacian(f: GridFunction, n: int, method: str | None = None) -> GridFunction:
    """n-fold Laplacian (the order-2n operator in the potential hierarchy)."""
    return laplacian_series(f, {n: 1.0}, method)


def laplacian_symbol(coeffs: Mapping[int, float], k):
    """Fourier/sine symbol of sum_n c_n lap^n: sum_n c_n (-k^2)^n."""
    mk2 = -(k**2)
    return sum(c * mk2**n for n, c in coeffs.items())


def laplacian_series(
    f: GridFunction, coeffs: Mapping[int, float], method: str | None = None
) -> GridFunction:
    """sum_n c_n lap^n f for a mapping {power n >= 1: c_n}.

    The grid picks the backend (``method=None``): the Fourier transform on
    periodic grids, the sine transform on uniform Dirichlet grids (valid for
    fields vanishing at the walls) and finite differences on radial grids;
    ``method='fd'`` selects finite differences on a uniform Dirichlet grid.
    A transform costs one pair with the whole symbol, whatever the highest
    power (the largest c_n is factored out, so one term gives exactly
    c lap^n f).  Finite differences apply the stencil once per power.
    """
    if not coeffs or min(coeffs) < 1:
        raise GridError(f"powers must be >= 1, got {sorted(coeffs)}")
    g = f.grid
    top = max(coeffs)
    if g.n < 2 * top + 1:
        raise GridError(f"grid with {g.n} points is under-resolved for order {2 * top}")
    own = "fd" if g.kind == RADIAL_LOG else "spectral"
    if method not in (None, own) and not (method == "fd" and g.boundary == DIRICHLET):
        raise GridError(
            f"method {method!r} on a {g.boundary} {g.kind} grid: 'spectral' needs "
            "a uniform grid and 'fd' a Dirichlet one"
        )
    if (method or own) == "spectral":
        scale = max(coeffs.values(), key=abs) or 1.0
        unit = {n: c / scale for n, c in coeffs.items()}
        if g.boundary == PERIODIC:
            coef = scipy.fft.fft(f.values) * g.series_symbol(unit)
            return GridFunction(g, scale * scipy.fft.ifft(coef).real)
        coef = scipy.fft.dst(f.values[1:-1], type=1, norm="ortho")
        coef *= g.series_symbol(unit)
        out = np.zeros(g.n)
        out[1:-1] = scale * scipy.fft.idst(coef, type=1, norm="ortho")
        return GridFunction(g, out)
    vals, out = f.values, np.zeros(g.n)
    for n in range(1, top + 1):
        vals = _laplacian_fd(g, vals)
        if n in coeffs:
            out += coeffs[n] * vals
    return GridFunction(g, out)


def _laplacian_fd(g: Grid, vals: np.ndarray) -> np.ndarray:
    if g.kind == RADIAL_LOG:
        # u = r*R on the uniform t = ln r grid: lap R = (u_tt - u_t) / r^3.
        r = g.points
        u = r * vals
        dt = g.log_step
        u_t = _uniform_derivative(u, dt, 1)
        u_tt = _uniform_derivative(u, dt, 2)
        return (u_tt - u_t) / r**3
    return _dirichlet_second_derivative(vals, g.spacing)


def gradient(f: GridFunction) -> GridFunction:
    """First spatial derivative: the Fourier derivative on periodic grids,
    4th-order finite differences elsewhere (radial derivative on radial
    grids)."""
    g = f.grid
    if g.boundary == PERIODIC:
        ik = 1j * g.wavenumbers
        return GridFunction(g, scipy.fft.ifft(ik * scipy.fft.fft(f.values)).real)
    if g.kind == RADIAL_LOG:
        return GridFunction(g, _uniform_derivative(f.values, g.log_step, 1) / g.points)
    return GridFunction(g, _uniform_derivative(f.values, g.spacing, 1))


def integrate(f: GridFunction) -> float:
    """Quadrature over the grid measure (trapezoid; 4*pi*r^2 weight radially)."""
    g = f.grid
    if g.kind == RADIAL_LOG:
        return float(np.trapezoid(f.values * g.measure_weight, g.points))
    if g.boundary == PERIODIC:
        return float(np.sum(f.values) * g.spacing)
    return float(np.trapezoid(f.values, g.points))


def inner(f: GridFunction, g: GridFunction) -> float:
    """Integral of the pointwise product over the grid measure."""
    if not f.grid.same_as(g.grid):
        raise GridError("inner product requires matching grids")
    return integrate(GridFunction(f.grid, f.values * g.values))


# --------------------------------------------------------------------------
# Serialization: coordinate CSV plus JSON sidecar
# --------------------------------------------------------------------------


def _write_table(
    path: str | Path, grid: Grid, data: Mapping[str, np.ndarray], **meta
) -> None:
    """The one file format of fields on a grid: a CSV of the grid coordinate
    and the ``data`` columns, and the sidecar ``{kind, boundary, **meta}``
    at ``path + '.json'``."""
    path = Path(path)
    serialize.write_csv(
        path, ("coordinate", *data), np.column_stack((grid.points, *data.values()))
    )
    sidecar = {"kind": grid.kind, "boundary": grid.boundary, **meta}
    serialize.write_json(path.with_name(path.name + ".json"), sidecar)


def write_gridfunction(path: str | Path, f: GridFunction, units: str | None = None) -> None:
    """Write (coordinate, value) CSV with a JSON sidecar at ``path + '.json'``."""
    _write_table(path, f.grid, {"value": f.values}, units=units)


def read_gridfunction(path: str | Path) -> GridFunction:
    """Read a grid function written by :func:`write_gridfunction`."""
    import json

    path = Path(path)
    rows = path.read_text(encoding="utf-8").strip().splitlines()
    header = rows[0].strip() if rows else ""
    if header != "coordinate,value":
        raise GridError(f"{path}: expected a 'coordinate,value' header, got {header!r}")
    pairs = []
    for line, row in enumerate(rows[1:], start=2):
        cells = row.split(",")
        if len(cells) != 2:
            raise GridError(f"{path}: line {line} has {len(cells)} cell(s), expected 2")
        pairs.append([float(c) for c in cells])
    if not pairs:
        raise GridError(f"{path}: no data rows after the header")
    data = np.array(pairs)
    sidecar_path = path.with_name(path.name + ".json")
    if not sidecar_path.exists():
        raise GridError(f"missing sidecar {sidecar_path}")
    meta = json.loads(sidecar_path.read_text(encoding="utf-8"))
    g = Grid(meta["kind"], data[:, 0], meta["boundary"])
    return GridFunction(g, data[:, 1])
