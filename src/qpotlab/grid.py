"""Real-space grids, differential operators, and quadrature.

Every grid is uniform and one-dimensional: equally spaced points,
Dirichlet (both endpoints stored) or periodic (right endpoint omitted).
A :class:`Grid` holds its points and boundary and nothing else; its
wavenumbers and symbols are computed afresh on every call.
Radial s-state problems need no grid of their own: for u = r*R the 3-D
Laplacian is lap^n R = d^{2n}u/dr^{2n} / r and R^2 4 pi r^2 dr = (sqrt(4 pi)
u)^2 dr, so they are the Dirichlet problem for sqrt(4 pi) r R on [0, r_max]
with the wall node at r = 0.

The grid's boundary picks the derivative backend, and nothing else can:
the real-input Fourier transform (``rfft``/``irfft``) on periodic grids
and the sine (DST-I) transform on Dirichlet grids (exact mode actions for
fields vanishing at the walls).  The gradient is the real-input Fourier
derivative on periodic grids and the sine-series derivative on Dirichlet
ones.  A Laplacian series sum c_n lap^n (a power is one term) costs one
transform pair with the symbol sum c_n (-k^2)^n; :func:`series_operator`
resolves the symbol once for a caller that applies one series many times.
A series can be band-limited: the symbol is zero at every mode with |k|
above the band edge (the projection P onto |k| <= band, applied on both
sides of the series).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np
import scipy

from . import serialize

#: The one grid kind, which every sidecar records.
UNIFORM = "uniform-1d"
DIRICHLET = "dirichlet"
PERIODIC = "periodic"


class GridError(ValueError):
    """Invalid grid construction or an operator/grid mismatch."""


# --------------------------------------------------------------------------
# Grid and GridFunction
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Grid:
    """A uniform 1-D coordinate grid."""

    points: np.ndarray
    boundary: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if self.boundary not in (DIRICHLET, PERIODIC):
            raise GridError(f"unknown boundary {self.boundary!r}")
        if pts.ndim != 1 or pts.size < 16:
            raise GridError("grid needs at least 16 points")
        if not np.all(np.diff(pts) > 0):
            raise GridError("grid points must be strictly increasing")
        steps = np.diff(pts)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
            raise GridError("uniform grid must be equally spaced")
        pts.flags.writeable = False

    def __reduce__(self):
        # rebuild through the constructor, so an unpickled grid is checked
        # again and its points are read-only
        return type(self), (self.points, self.boundary)

    @classmethod
    def uniform(cls, start: float, stop: float, n: int, boundary: str = DIRICHLET) -> "Grid":
        """Uniform grid on [start, stop]; periodic grids omit the right endpoint."""
        if stop <= start:
            raise GridError("stop must exceed start")
        if boundary == PERIODIC:
            pts = start + (stop - start) * np.arange(n) / n
        else:
            pts = np.linspace(start, stop, n)
        return cls(pts, boundary)

    @property
    def n(self) -> int:
        return self.points.size

    @property
    def spacing(self) -> float:
        """Point spacing (coordinate units)."""
        return float(self.points[1] - self.points[0])

    @property
    def length(self) -> float:
        """Domain length: periodic grids include the wrap interval."""
        span = float(self.points[-1] - self.points[0])
        return span + self.spacing if self.boundary == PERIODIC else span

    @property
    def wavenumbers(self) -> np.ndarray:
        """Angular FFT wavenumbers 2 pi fftfreq(n, h)."""
        return 2.0 * np.pi * scipy.fft.fftfreq(self.n, d=self.spacing)

    def series_symbol(
        self, unit: Mapping[int, float], band: float = math.inf
    ) -> np.ndarray:
        """:func:`laplacian_symbol` of ``unit``, summed in item order and
        zero above ``band``, at this grid's transform wavenumbers.  On
        periodic grids these are the n // 2 + 1 non-negative-frequency
        entries of :attr:`wavenumbers` that a real-input FFT returns (the
        symbol is even in k, so they are the full symbol's first half, bit
        for bit); on Dirichlet ones the DST-I sine modes.
        """
        if self.boundary == PERIODIC:
            k = self.wavenumbers[: self.n // 2 + 1]
        else:
            k = np.arange(1, self.n - 1) * np.pi / self.length
        return np.where(np.abs(k) <= band, laplacian_symbol(unit, k), 0.0)

    def same_as(self, other: "Grid") -> bool:
        return (
            self.boundary == other.boundary
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


def power_laplacian(f: GridFunction, n: int, band: float = math.inf) -> GridFunction:
    """n-fold Laplacian (the order-2n operator in the potential hierarchy),
    band-limited as in :func:`laplacian_series`."""
    return laplacian_series(f, {n: 1.0}, band)


def laplacian_symbol(coeffs: Mapping[int, float], k):
    """Fourier/sine symbol of sum_n c_n lap^n: sum_n c_n (-k^2)^n."""
    mk2 = -(k**2)
    return sum(c * mk2**n for n, c in coeffs.items())


def laplacian_series(
    f: GridFunction, coeffs: Mapping[int, float], band: float = math.inf
) -> GridFunction:
    """sum_n c_n lap^n f for a mapping {power n >= 1: c_n}, projected onto
    the modes with |k| <= ``band``: :func:`series_operator` applied once."""
    return GridFunction(f.grid, series_operator(f.grid, coeffs, band)(f.values))


def series_operator(
    g: Grid, coeffs: Mapping[int, float], band: float = math.inf
) -> Callable[[np.ndarray], np.ndarray]:
    """The map from field values on ``g`` to sum_n c_n lap^n of them, for a
    mapping {power n >= 1: c_n}, projected onto the modes with |k| <=
    ``band``; its scale and symbol are resolved once, here.

    The grid picks the backend: the real-input Fourier transform on
    periodic grids and the sine transform on Dirichlet grids (valid for
    fields vanishing at the walls).  Either costs one transform pair with
    the whole band-limited symbol, whatever the highest power (the largest
    c_n is factored out, so one term gives exactly c lap^n f).
    """
    if not coeffs or min(coeffs) < 1:
        raise GridError(f"powers must be >= 1, got {sorted(coeffs)}")
    top = max(coeffs)
    if g.n < 2 * top + 1:
        raise GridError(f"grid with {g.n} points is under-resolved for order {2 * top}")
    scale = max(coeffs.values(), key=abs) or 1.0
    symbol = g.series_symbol({n: c / scale for n, c in coeffs.items()}, band)
    if g.boundary == PERIODIC:

        def fourier(values: np.ndarray) -> np.ndarray:
            coef = scipy.fft.rfft(values)
            coef *= symbol
            out = scipy.fft.irfft(coef, g.n, overwrite_x=True)
            out *= scale
            return out

        return fourier

    def sine(values: np.ndarray) -> np.ndarray:
        coef = scipy.fft.dst(values[1:-1], type=1, norm="ortho")
        coef *= symbol
        out = np.zeros(g.n)
        out[1:-1] = scale * scipy.fft.idst(coef, type=1, norm="ortho")
        return out

    return sine


def gradient(f: GridFunction) -> GridFunction:
    """First spatial derivative: the Fourier derivative on periodic grids;
    on Dirichlet grids the sine-series derivative (a DST-I of the interior
    values, mode j times j pi / L, then a DCT-I to every node), valid for
    fields vanishing at the walls, whose values it does not read."""
    g = f.grid
    if g.boundary == PERIODIC:
        coef = scipy.fft.rfft(f.values)
        coef *= 1j * g.wavenumbers[: g.n // 2 + 1]
        return GridFunction(g, scipy.fft.irfft(coef, g.n, overwrite_x=True))
    coef = scipy.fft.dst(f.values[1:-1], type=1)
    coef *= np.arange(1, g.n - 1) * (np.pi / (g.length * (g.n - 1)))
    out = scipy.fft.dct(np.pad(coef, 1), type=1, overwrite_x=True)
    out *= 0.5
    return GridFunction(g, out)


def integrate(f: GridFunction) -> float:
    """Quadrature over the grid: the trapezoid rule, which on a periodic
    grid is the plain sum times the spacing."""
    g = f.grid
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
    sidecar = {"kind": UNIFORM, "boundary": grid.boundary, **meta}
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
        try:
            pairs.append([float(c) for c in cells])
        except ValueError as err:
            raise GridError(f"{path}: line {line}: {err}") from None
    if not pairs:
        raise GridError(f"{path}: no data rows after the header")
    data = np.array(pairs)
    sidecar_path = path.with_name(path.name + ".json")
    if not sidecar_path.exists():
        raise GridError(f"missing sidecar {sidecar_path}")
    try:
        meta = json.loads(sidecar_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise GridError(f"{sidecar_path}: sidecar is not JSON: {err}") from None
    if not isinstance(meta, dict):
        raise GridError(f"{sidecar_path}: sidecar is not a JSON object: {meta!r}")
    missing = [key for key in ("kind", "boundary") if key not in meta]
    if missing:
        raise GridError(f"{sidecar_path}: sidecar has no {' or '.join(missing)}")
    if meta["kind"] != UNIFORM:
        raise GridError(
            f"{sidecar_path}: grid kind {meta['kind']!r} cannot be read; "
            f"only {UNIFORM!r} grids can"
        )
    if meta["boundary"] not in (DIRICHLET, PERIODIC):
        raise GridError(f"{sidecar_path}: unknown boundary {meta['boundary']!r}")
    try:
        g = Grid(data[:, 0], meta["boundary"])
    except GridError as err:  # the coordinate column is at fault
        raise GridError(f"{path}: {err}") from None
    return GridFunction(g, data[:, 1])
