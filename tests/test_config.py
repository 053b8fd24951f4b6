"""Constants configuration: the dataclass defaults, parsing and validation of override files."""

import dataclasses
import re
from pathlib import Path

import pytest

from lplab import Constants, DEFAULT_CONSTANTS, dump_constants, parse_constants
from lplab.config import load_constants
from lplab.errors import ConfigError


def test_dump_parse_round_trip():
    text = dump_constants(DEFAULT_CONSTANTS)
    assert parse_constants(text) == DEFAULT_CONSTANTS


def test_dump_is_sorted_and_complete():
    lines = [l for l in dump_constants(DEFAULT_CONSTANTS).splitlines() if "=" in l]
    keys = [l.split("=")[0].strip() for l in lines]
    assert keys == sorted(keys)
    assert len(keys) == len(dataclasses.fields(Constants))


def test_every_constant_is_read():
    # a constant that no library code or tool names steers nothing, yet
    # it is echoed in every CLI header; a test alone naming it does not
    # count, and config.py names every field by construction
    root = Path(__file__).resolve().parent.parent
    texts = [
        path.read_text(encoding="utf-8")
        for folder in ("src", "tools")
        for path in (root / folder).rglob("*.py")
        if path.name != "config.py"
    ]
    unread = [
        field.name
        for field in dataclasses.fields(Constants)
        if not any(re.search(rf"\b{field.name}\b", text) for text in texts)
    ]
    assert unread == []


def test_comments_and_blanks_ignored():
    text = "# leading comment\n\nn_min = 250\n  # indented comment\n"
    got = parse_constants(text)
    assert got.n_min == 250
    assert got.tails_gap_c == DEFAULT_CONSTANTS.tails_gap_c


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        parse_constants("no_such_knob = 1.0\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_constants("n_min = 100\nn_min = 200\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_constants("n_min 100\n")


def test_int_field_rejects_fraction():
    with pytest.raises(ConfigError):
        parse_constants("n_min = 100.5\n")


def test_float_field_accepts_int_literal():
    got = parse_constants("tails_gap_c = 7\n")
    assert got.tails_gap_c == 7.0
    assert isinstance(got.tails_gap_c, float)


def test_bad_number_rejected():
    with pytest.raises(ConfigError):
        parse_constants("tails_gap_c = abc\n")


def test_ordered_pair_validation():
    with pytest.raises(ConfigError):
        parse_constants("mexpm_lo = 3.0\nmexpm_hi = 2.0\n")


def test_positivity_validation():
    with pytest.raises(ConfigError):
        parse_constants("envelope_floor_c = -1.0\n")


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_every_float_constant_positive_and_finite(value):
    # one rule for every float field, listed nowhere by name; the fields
    # are found here by their defaults, independently of config.py
    floats = [f.name for f in dataclasses.fields(Constants) if isinstance(f.default, float)]
    assert floats
    for name in floats:
        with pytest.raises(ConfigError, match=f"{name} must be positive and finite"):
            parse_constants(f"{name} = {value}\n")


def test_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_CONSTANTS.n_min = 7  # type: ignore[misc]


def test_replace_produces_independent_instance():
    other = dataclasses.replace(DEFAULT_CONSTANTS, tails_gap_c=9.0)
    assert other.tails_gap_c == 9.0
    assert DEFAULT_CONSTANTS.tails_gap_c != 9.0


def test_load_constants_reads_only_its_path(tmp_path, monkeypatch):
    # the defaults are the one source and a path the one override; an
    # environment variable that once named a file changes nothing
    path = tmp_path / "a.cfg"
    path.write_text("n_min = 111\n")
    monkeypatch.setenv("LPLAB_CONSTANTS", str(path))
    assert load_constants() is DEFAULT_CONSTANTS
    assert load_constants(str(path)).n_min == 111


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_constants(tmp_path / "nope.cfg")
