"""Config reading: one reader, which records what it returns."""

import pytest

from qpotlab.serialize import ConfigError, RecordingConfig, get


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
