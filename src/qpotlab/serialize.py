"""Config-file parsing and deterministic artifact serialization.

Configs are flat ``key = value`` text with ``#`` comments.  Artifacts (CSV
tables and JSON reports) print every float with 17 significant digits so
that reruns with identical inputs are byte-identical and diffs are
meaningful in regression tests.  The stdlib ``json`` module cannot control
float formatting, hence the small serializer here.  JSON reports hold
only None, bools, ints, floats, strings, mappings and lists; rational
values reach artifacts only as CSV cells, written as their ``str``.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np


class ConfigError(Exception):
    """Malformed configuration text; messages carry 1-based line numbers."""


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        out[key] = value
    return out


def load_config(path: str | Path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


class RecordingConfig(dict):
    """A config that records, in ``read``, the text of every value that
    :func:`get` returns from it, defaults included."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read: dict[str, str] = {}

    def unread(self) -> list[str]:
        return sorted(set(self) - set(self.read))

    def reject_unread(self) -> None:
        """Raise ConfigError naming every key that no :func:`get` has read.

        A scenario calls this after its last read and before it computes or
        writes anything, so a misspelt key stops the run at once."""
        unread = self.unread()
        if unread:
            raise ConfigError(f"the scenario does not read key(s): {', '.join(unread)}")


_REQUIRED = object()
_EXPECTED = {int: "an integer", float: "a finite number"}


def get(cfg: Mapping[str, str], key: str, kind: type = str, default: Any = _REQUIRED) -> Any:
    """Read ``key`` as ``kind`` (str, int or float), or return ``default``.

    Without a default the key is required; a default of None makes it
    optional.  On a :class:`RecordingConfig` the value returned, unless
    None, is recorded as text: ``fmt_float`` for floats, ``str`` otherwise.
    """
    if key in cfg:
        try:
            value = kind(cfg[key])
        except ValueError:
            value = None
        if value is None or (kind is float and not math.isfinite(value)):
            raise ConfigError(f"key '{key}': expected {_EXPECTED[kind]}, got {cfg[key]!r}")
    elif default is _REQUIRED:
        raise ConfigError(f"missing required key '{key}'")
    else:
        value = default
    if value is not None and isinstance(cfg, RecordingConfig):
        cfg.read[key] = fmt_float(value) if kind is float else str(value)
    return value


# --------------------------------------------------------------------------
# Deterministic output formatting
# --------------------------------------------------------------------------


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def _fmt_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """CSV text with one formatted cell at a time: floats at 17 significant
    digits, bools as true/false, every other cell (int, Fraction, str) as
    its ``str``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


#: Rows of a float table formatted and written at a time.
_BLOCK_ROWS = 1024


def _float_table_text(table: np.ndarray) -> str:
    """The rows of a 2-D float64 table in one C-level ``%`` format; the
    text is that of :func:`fmt_float` cell by cell.  The caller has
    checked that every value is finite."""
    nrows, ncols = table.shape
    row = "%.17g" + ",%.17g" * (ncols - 1) + "\n"
    return (row * nrows) % tuple(table.ravel().tolist())


def write_csv(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]] | np.ndarray
) -> None:
    """Write ``header`` and ``rows``.  A 2-D float64 array (the fast path
    for grid functions and frames) is checked finite as a whole, then
    formatted and written ``_BLOCK_ROWS`` rows at a time, so a refused
    table leaves no file and the text is never held whole; any other rows
    go through :func:`csv_text`.  Both give the same bytes."""
    if not (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64):
        Path(path).write_text(csv_text(header, rows), encoding="utf-8")
        return
    bad = ~np.isfinite(rows)
    if bad.any():
        raise ValueError(f"refusing to serialize non-finite value {float(rows[bad][0])!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), _BLOCK_ROWS):
            fh.write(_float_table_text(rows[start : start + _BLOCK_ROWS]))


def json_text(obj: Any) -> str:
    """Serialize None, bool, int, float, str, mappings and lists/tuples to
    JSON with %.17g floats; any other type raises TypeError."""
    pieces: list[str] = []
    _json_into(obj, pieces, indent=0)
    return "".join(pieces) + "\n"


def _json_into(obj: Any, out: list[str], indent: int) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(_json_string(obj))
    elif isinstance(obj, Mapping):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            out.append(inner + _json_string(str(key)) + ": ")
            _json_into(value, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _json_into(value, out, indent + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


# The escapes of json.dumps(s, ensure_ascii=False): the short forms where
# JSON has one, \u00xx for every other code point below U+0020.
_JSON_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {
    ord("\\"): "\\\\",
    ord('"'): '\\"',
    ord("\b"): "\\b",
    ord("\t"): "\\t",
    ord("\n"): "\\n",
    ord("\f"): "\\f",
    ord("\r"): "\\r",
}


def _json_string(s: str) -> str:
    return f'"{s.translate(_JSON_ESCAPES)}"'


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(json_text(obj), encoding="utf-8")


def config_hash(cfg: Mapping[str, str]) -> str:
    """Stable hash of a resolved key-value configuration."""
    canonical = "\n".join(f"{k} = {cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
