"""Config reading, the CSV writer's fast path for float tables, and JSON
strings."""

import json
from fractions import Fraction

import numpy as np
import pytest

from qpotlab.serialize import (
    _BLOCK_ROWS,
    ConfigError,
    RecordingConfig,
    csv_text,
    get,
    json_text,
    write_csv,
)


class TestGet:
    def test_plain_dict(self):
        cfg = {"n": "3", "x": "0.1", "s": "text"}
        assert get(cfg, "n", int) == 3
        assert get(cfg, "x", float) == 0.1
        assert get(cfg, "s") == "text"
        assert get(cfg, "absent", int, 7) == 7
        assert get(cfg, "absent", float, None) is None

    def test_records_resolved_text_and_defaults(self):
        cfg = RecordingConfig({"n": "03", "x": "1e-1", "s": "text", "spare": "1"})
        get(cfg, "n", int)
        get(cfg, "x", float)
        get(cfg, "s")
        get(cfg, "d", float, 2.5)
        get(cfg, "optional", float, None)
        assert cfg.read == {
            "n": "3",
            "x": "0.10000000000000001",
            "s": "text",
            "d": "2.5",
        }
        assert cfg.unread() == ["spare"]
        with pytest.raises(ConfigError, match=r"does not read key\(s\): spare"):
            cfg.reject_unread()
        get(cfg, "spare")
        cfg.reject_unread()

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required key 'dt'"):
            get(RecordingConfig(), "dt", float)

    @pytest.mark.parametrize(
        "kind, text, expected",
        [
            (int, "1.5", "an integer"),
            (float, "1.5x", "a finite number"),
            (float, "inf", "a finite number"),
            (float, "nan", "a finite number"),
        ],
    )
    def test_bad_value(self, kind, text, expected):
        cfg = RecordingConfig({"k": text})
        with pytest.raises(ConfigError, match=f"key 'k': expected {expected}"):
            get(cfg, "k", kind)
        assert cfg.read == {}


class TestWriteCsv:
    """A float64 table is formatted and written in blocks of rows; its bytes
    are those of the per-cell csv_text."""

    def written(self, tmp_path, header, rows):
        path = tmp_path / "t.csv"
        write_csv(path, header, rows)
        return path.read_bytes()

    def per_cell(self, header, table):
        return csv_text(header, table.tolist()).encode("utf-8")

    def test_extreme_floats(self, tmp_path):
        values = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                  -1.7976931348623157e308, 1e16 + 2, 2.2250738585072014e-308]
        table = np.array(values).reshape(-1, 2)
        got = self.written(tmp_path, ("a", "b"), table)
        assert got == self.per_cell(("a", "b"), table)
        assert got.splitlines()[1] == b"0,-0"

    def test_seventeen_significant_digits(self, tmp_path):
        rng = np.random.default_rng(5)
        signs = rng.choice([-1.0, 1.0], 30_000)
        table = (signs * 10.0 ** rng.uniform(-300, 300, 30_000)).reshape(-1, 3)
        table[0] = (0.1, 1.0 / 3.0, 2.0 / 3.0)
        got = self.written(tmp_path, ("x", "y", "z"), table)
        assert got == self.per_cell(("x", "y", "z"), table)
        assert got.splitlines()[1] == (
            b"0.10000000000000001,0.33333333333333331,0.66666666666666663"
        )
        # row counts at and around the block boundaries keep every byte
        for nrows in (0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7):
            part = table[:nrows]
            assert self.written(tmp_path, ("x", "y", "z"), part) == self.per_cell(
                ("x", "y", "z"), part
            )

    def test_mixed_cells_keep_their_text(self, tmp_path):
        rows = [
            (0, "1", 1.0, Fraction(1, 2), True),
            (12345678901234567890, "-1/8", -0.125, Fraction(-1, 8), False),
        ]
        header = ("n", "s", "x", "q", "ok")
        got = self.written(tmp_path, header, rows)
        assert got == csv_text(header, rows).encode("utf-8")
        assert got.splitlines()[1:] == [
            b"0,1,1,1/2,true",
            b"12345678901234567890,-1/8,-0.125,-1/8,false",
        ]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, tmp_path, bad):
        table = np.array([[0.0, 1.0], [2.0, bad]])
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(tmp_path / "t.csv", ("a", "b"), table)
        with pytest.raises(ValueError, match="non-finite"):
            csv_text(("a", "b"), table.tolist())
        # the whole table is checked before the file is opened, so a bad
        # value in the last block leaves no file behind
        long = np.zeros((2 * _BLOCK_ROWS + 5, 2))
        long[-1, 1] = bad
        path = tmp_path / "long.csv"
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(path, ("a", "b"), long)
        assert not path.exists()

    def test_shared_first_column(self, tmp_path):
        """Consecutive tables that share their grid column, as the frames of
        one run do, each come out as the per-cell writer gives them: their
        own cells, column count and signed zeros."""
        rng = np.random.default_rng(11)
        x = np.array([-0.5, -0.0, 0.0, 0.25, 1e-300])
        first = np.column_stack((x, rng.standard_normal(5), rng.standard_normal(5)))
        second = np.column_stack((x, rng.standard_normal(5), rng.standard_normal(5)))
        flipped = second.copy()
        flipped[1:3, 0] = (0.0, -0.0)
        narrow = first[:, :2]
        header = ("coordinate", "real", "imag")
        for table in (first, second, flipped, narrow, first):
            got = self.written(tmp_path, header[: table.shape[1]], table)
            assert got == self.per_cell(header[: table.shape[1]], table)
        assert self.written(tmp_path, header, flipped).splitlines()[2][:2] == b"0,"

    def test_complex_frame_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        x = np.linspace(0.0, 1.0, 4096, endpoint=False)
        psi = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        psi *= 10.0 ** rng.uniform(-12, 3, 4096)
        path = tmp_path / "frame.csv"
        write_csv(path, ("coordinate", "real", "imag"),
                  np.column_stack((x, psi.real, psi.imag)))
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], x)
        assert np.array_equal(back[:, 1] + 1j * back[:, 2], psi)


class TestJsonStrings:
    @pytest.mark.parametrize(
        "text",
        [chr(c) for c in range(0x20)]
        + ['"', "\\", "tab\there, \"quoted\" \\ and \u00e9\u2212\U0001d53c"],
    )
    def test_as_json_dumps_and_round_trip(self, text):
        got = json_text(text)
        assert got == json.dumps(text, ensure_ascii=False) + "\n"
        assert json.loads(got) == text
        assert json.loads(json_text({text: [text]})) == {text: [text]}
