"""Real-space grids, differential operators, and quadrature.

Every grid is uniform and one-dimensional: equally spaced points,
Dirichlet (both endpoints stored) or periodic (right endpoint omitted).
A :class:`Grid` holds its points and boundary and nothing else; its
wavenumbers are computed afresh on every call.
Radial s-state problems need no grid of their own: for u = r*R the 3-D
Laplacian is lap^n R = d^{2n}u/dr^{2n} / r and R^2 4 pi r^2 dr = (sqrt(4 pi)
u)^2 dr, so they are the Dirichlet problem for sqrt(4 pi) r R on [0, r_max]
with the wall node at r = 0.

The grid's boundary picks the transform, and nothing else can: the
Fourier transform on periodic grids and the sine (DST-I) transform on
Dirichlet grids (exact mode actions for fields vanishing at the walls).
A symbol is given as its values at the transform's wavenumbers,
:attr:`Grid.modes`; the grid forms none.  :func:`series_operator` applies
an even one, real or complex (the evolution's kinetic exponential), to a
real or complex field: ``rfft``/``irfft`` for real data and ``fft``/``ifft``
for complex data on periodic grids; on Dirichlet grids the DST-I of the
real row, or of the real and imaginary rows, forward unnormalised and
back times 1/N.  :func:`quadratic_form` is the integral of a field times
its series, by Parseval's identity.  The gradient is the real-input
Fourier derivative on periodic grids and the sine-series derivative on
Dirichlet ones.  Every transform is ``numpy.fft``, called from this
module only: the DST-I is :class:`SineTransform`, the real FFT of the odd
extension, and every normalisation is :func:`fft_scale`, as pocketfft
computes it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, TextIO

import numpy as np

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
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)

    @property
    def modes(self) -> np.ndarray:
        """Wavenumbers of the grid's own transform: on periodic grids the
        n // 2 + 1 entries of :attr:`wavenumbers` that a real-input FFT
        returns (a symbol even in k loses nothing there), on Dirichlet ones
        the DST-I sine modes j pi / L, j = 1..n - 2."""
        if self.boundary == PERIODIC:
            return self.wavenumbers[: self.n // 2 + 1]
        return np.arange(1, self.n - 1) * np.pi / self.length

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
        if not math.isfinite(nrm):
            raise GridError(f"cannot normalize a field with non-finite norm {nrm}")
        if nrm <= 0:
            raise GridError("cannot normalize a field with vanishing norm")
        return GridFunction(self.grid, self.values / math.sqrt(nrm))

    def is_normalized(self, tol: float = 1e-10) -> bool:
        return abs(integrate(GridFunction(self.grid, self.values**2)) - 1.0) <= tol


# --------------------------------------------------------------------------
# Operators
# --------------------------------------------------------------------------


def series_operator(g: Grid, symbol: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map from field values on ``g`` to the series whose even
    ``symbol``, real or complex, is given at :attr:`Grid.modes`, by one
    transform pair (on Dirichlet grids the interior values, the walls set
    to zero), complex when the field or the symbol is: the data type picks
    the transform, as numpy's ``rfft``/``fft`` split does.  Its transform
    buffers are allocated once, here, so the map is for one thread at a
    time."""
    symbol = _at_modes(g, symbol)
    if g.boundary == PERIODIC:
        inverse = fft_scale(g.n)
        j = np.arange(g.n)
        full = symbol[..., np.minimum(j, g.n - j)]  # mirrored onto the full spectrum

        def fourier(values: np.ndarray) -> np.ndarray:
            if np.iscomplexobj(symbol) or np.iscomplexobj(values):
                coef = np.fft.fft(values)
                coef *= full
                out = np.fft.ifft(coef, norm="forward", out=coef)
            else:
                coef = np.fft.rfft(values)
                coef *= symbol
                out = np.fft.irfft(coef, g.n, norm="forward")
            out *= inverse
            return out

        return fourier

    sine = SineTransform(2, g.n - 2)

    def sine_series(values: np.ndarray) -> np.ndarray:
        kind = np.result_type(values, symbol)
        coef = np.empty(g.n - 2, kind)
        sine(_parts(np.ascontiguousarray(values[1:-1], kind)), out=_parts(coef))
        coef *= symbol
        out = np.zeros(g.n, kind)
        sine(_parts(coef), sine.inverse, out=_parts(out[1:-1]))
        return out

    return sine_series


def _parts(z: np.ndarray) -> np.ndarray:
    """A contiguous vector as the rows of a real view of it: the one row of
    a real vector, the real and imaginary parts of a complex one."""
    return z.view(np.float64).reshape(z.size, -1).T


def quadratic_form(g: Grid, symbol: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map from field values on ``g``, of shape (..., n), to sum_j w_j
    symbol_j |f_j|^2 along the last axis: f is the grid's forward transform
    at :attr:`Grid.modes`, where ``symbol`` is given (one row, or one per
    row of the values), and the weights w make it Parseval's identity under
    the grid's quadrature, the integral of the field times the series of
    the symbol.  On periodic grids w is h/n times 1, 2, ..., 2, 1 on the
    ``rfft`` half spectrum (the last weight is 1 only when n is even); on
    Dirichlet grids, for fields vanishing at the walls, it is h on the
    orthonormal DST-I of the interior values."""
    symbol = _at_modes(g, symbol)
    if g.boundary == DIRICHLET:
        weighted = g.spacing * symbol

        def sine_series(values: np.ndarray) -> np.ndarray:
            sine = SineTransform(*values.shape[:-1], g.n - 2)
            return np.sum(weighted * sine(values[..., 1:-1], sine.ortho) ** 2, axis=-1)

        return sine_series
    j = np.arange(g.n // 2 + 1)
    weights = np.where((j == 0) | (2 * j == g.n), 1.0, 2.0) * (g.spacing * fft_scale(g.n))
    weighted = weights * symbol

    def fourier(values: np.ndarray) -> np.ndarray:
        coef = np.fft.rfft(values)
        return np.sum(weighted * (coef.real**2 + coef.imag**2), axis=-1)

    return fourier


def _at_modes(g: Grid, symbol: np.ndarray) -> np.ndarray:
    """``symbol`` as a float or complex array whose last axis runs over
    :attr:`Grid.modes`."""
    symbol = np.asarray(symbol, dtype=complex if np.iscomplexobj(symbol) else float)
    if symbol.shape[-1:] != g.modes.shape:
        raise GridError(f"a symbol on this grid has {g.modes.size} modes, got shape {symbol.shape}")
    return symbol


def fft_scale(n: int, ortho: bool = False) -> float:
    """The normalisation 1/n of an n-point transform, or 1/sqrt(n) for the
    orthonormal one, as pocketfft computes it: in long double, rounded to
    double once.  ``numpy.fft``'s own 1/n (and 1/sqrt(n)) is rounded from
    double arithmetic and differs from it in the last bit at some sizes
    (1/n at n = 2731, 4623, 5462, ...), so every transform here is taken
    unnormalised and multiplied by this scale afterwards, which gives the
    bits of the scale applied inside the transform."""
    size = np.longdouble(n)
    return float(1 / (np.sqrt(size) if ortho else size))


class SineTransform:
    """The DST-I y_j = 2 sum_i x_i sin(pi (i + 1)(j + 1) / (m + 1)) along the
    last axis of arrays of shape ``shape = (..., m)``: the real FFT of the
    odd extension [0, x, 0, -x reversed], of length N = 2(m + 1), whose
    imaginary part at modes 1..m is -y (Martucci, IEEE Trans. Signal
    Process. 42 (1994) 1038).  This is pocketfft's own DST-I, bit for bit.

    Its inverse is the same transform times 1/N (:attr:`inverse`), and the
    orthonormal DST-I, its own inverse, is the transform times
    1/sqrt(N) (:attr:`ortho`).  The extension and spectrum buffers are
    allocated once, here, and reused by every call, so one instance is for
    one thread at a time; each call returns a new array, or writes ``out``.
    """

    def __init__(self, *shape: int):
        *rows, m = shape
        size = 2 * (m + 1)
        self.inverse = fft_scale(size)
        self.ortho = fft_scale(size, ortho=True)
        self._extension = np.zeros((*rows, size))
        self._spectrum = np.empty((*rows, m + 2), np.complex128)

    def __call__(
        self, x: np.ndarray, scale: float = 1.0, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``scale`` times the DST-I of ``x`` (any strides, at most the rows
        of ``shape``), in ``out`` if given.  Entries 0 and m + 1 of the
        extension stay zero."""
        m = x.shape[-1]
        rows = tuple(slice(r) for r in x.shape[:-1])
        ext, spectrum = self._extension[rows], self._spectrum[rows]
        ext[..., 1 : m + 1] = x
        np.negative(x[..., ::-1], out=ext[..., m + 2 :])
        np.fft.rfft(ext, axis=-1, out=spectrum)
        return np.multiply(spectrum.imag[..., 1 : m + 1], -scale, out=out)


def gradient(f: GridFunction) -> GridFunction:
    """First spatial derivative: the Fourier derivative on periodic grids;
    on Dirichlet grids the sine-series derivative (a DST-I of the interior
    values, mode j times j pi / L, then a DCT-I to every node: the real FFT
    of the even extension), valid for fields vanishing at the walls, whose
    values it does not read."""
    g = f.grid
    if g.boundary == PERIODIC:
        coef = np.fft.rfft(f.values)
        coef *= 1j * g.wavenumbers[: g.n // 2 + 1]
        out = np.fft.irfft(coef, g.n, norm="forward")
        out *= fft_scale(g.n)
        return GridFunction(g, out)
    m = g.n - 2
    coef = SineTransform(m)(f.values[1:-1])
    coef *= np.arange(1, g.n - 1) * (np.pi / (g.length * (g.n - 1)))
    # the DCT-I of [0, coef, 0] is the real part of the real FFT of its even
    # extension [0, coef, 0, coef reversed]
    even = np.zeros(2 * (m + 1))
    even[1 : m + 1] = coef
    even[m + 2 :] = coef[::-1]
    return GridFunction(g, np.fft.rfft(even).real * 0.5)


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
    """Read a grid function written by :func:`write_gridfunction`.

    The header is checked first; numpy's C reader then parses the data
    rows straight from the file, so no Python object is made per row, and
    each value is ``float(cell)`` bit for bit.  Only when that parse fails
    or skips a line does :func:`_refuse_rows` walk the lines to name the
    first bad one."""
    import json

    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        header = fh.readline()
        while header and not header.strip():  # blank lines before the header
            header = fh.readline()
        header = header.strip()
        if header != "coordinate,value":
            raise GridError(f"{path}: expected a 'coordinate,value' header, got {header!r}")
        data = _read_rows(path, fh)
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


#: Characters read at a time when counting the data lines of a table.
_COUNT_CHUNK = 1 << 16


def _data_lines(fh: TextIO) -> int:
    """The number of lines from the position of ``fh`` up to its last line
    that is not blank, 0 if there is none."""
    lines = seen = 0
    for chunk in iter(lambda: fh.read(_COUNT_CHUNK), ""):
        content = chunk.rstrip()
        if content:
            lines = seen + content.count("\n") + 1
        seen += chunk.count("\n")
    return lines


def _read_rows(path: Path, fh: TextIO) -> np.ndarray:
    """The ``(lines, 2)`` table of the data lines of ``fh``, or the
    GridError for the first bad one; blank lines after the last row are
    ignored, as are those before the header."""
    start = fh.tell()
    lines = _data_lines(fh)
    if not lines:
        raise GridError(f"{path}: no data rows after the header")
    fh.seek(start)
    try:
        data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is not None and data.shape == (lines, 2):
        return data
    # numpy refused a line or skipped an empty one
    fh.seek(start)
    _refuse_rows(path, itertools.islice(fh, lines))
    # every row is good, so the lines numpy refused are blank ones after
    # the last row that hold whitespace: stop before them
    fh.seek(start)
    try:
        return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, max_rows=lines)
    except ValueError as err:
        raise GridError(f"{path}: {err}") from None


def _refuse_rows(path: Path, rows: Iterable[str]) -> None:
    """Raise the GridError for the first data line (the header is line 1)
    that is not two cells numpy's reader parses: a line with another
    number of cells, blank lines included, or a cell that ``float``
    refuses or that holds ``_`` or a non-ASCII character, which ``float``
    accepts and numpy does not."""
    for line, row in enumerate(rows, start=2):
        cells = row.removesuffix("\n").split(",")
        if len(cells) != 2:
            raise GridError(f"{path}: line {line} has {len(cells)} cell(s), expected 2")
        for cell in cells:
            try:
                float(cell)
            except ValueError as err:
                raise GridError(f"{path}: line {line}: {err}") from None
            if "_" in cell or not cell.strip().isascii():
                raise GridError(
                    f"{path}: line {line}: could not convert string to float: {cell!r}"
                )
