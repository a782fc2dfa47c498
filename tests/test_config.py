"""Flat key = value config parsing and overlay semantics."""

import pytest

from multlab.config import (
    ConfigError,
    merged_config,
    parse_config_file,
    parse_config_text,
)
from multlab.experiments import EXPERIMENTS

SAMPLE = """
# full-line comment
limit = 100000            # trailing comment
z_factor = 2.5
method = divisor-multiples
label = "a # quoted hash"
flag = true
y_grid = [10.0, 31.6, 100.0]
names = [all, congruence:4:1]
empty = []
limit = 200000            # later assignment wins
"""


def test_parse_config_text():
    cfg = parse_config_text(SAMPLE)
    assert cfg["limit"] == 200000
    assert cfg["z_factor"] == 2.5
    assert cfg["method"] == "divisor-multiples"
    assert cfg["label"] == "a # quoted hash"
    assert cfg["flag"] is True
    assert cfg["y_grid"] == [10.0, 31.6, 100.0]
    assert cfg["names"] == ["all", "congruence:4:1"]
    assert cfg["empty"] == []


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just some words")
    with pytest.raises(ConfigError, match="bad key"):
        parse_config_text("two words = 1")
    with pytest.raises(ConfigError, match="empty value"):
        parse_config_text("k =")
    with pytest.raises(ConfigError, match="unterminated"):
        parse_config_text("k = [1, 2")
    with pytest.raises(ConfigError, match="nest"):
        parse_config_text("k = [[1], [2]]")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("a = 1\nb = 2\nc = [")


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 7\n", encoding="utf-8")
    assert parse_config_file(path) == {"seed": 7}


def test_merged_config():
    defaults = {"a": 1, "b": 2}
    assert merged_config(defaults, {"b": 5}, "exp") == {"a": 1, "b": 5}
    assert merged_config(defaults, {}, "exp") == defaults
    with pytest.raises(ConfigError) as err:
        merged_config(defaults, {"c": 3}, "exp")
    # the error must name the bad field and list the known ones
    assert "'c'" in str(err.value)
    assert "a, b" in str(err.value)
    # an int default takes an integral number only, in any notation
    assert merged_config(defaults, {"a": 1e7}, "exp")["a"] == 10_000_000
    with pytest.raises(ConfigError, match="exp: a must be a finite integer"):
        merged_config(defaults, {"a": 2.5}, "exp")


def test_require_grid():
    # a list default takes a non-empty grid, and a scalar is a one-point grid
    assert merged_config({"g": [0.0]}, {"g": [1, 2]}, "exp") == {"g": [1.0, 2.0]}
    assert merged_config({"g": [0.0]}, {"g": 3.5}, "exp") == {"g": [3.5]}
    with pytest.raises(ConfigError, match="exp: g is an empty grid"):
        merged_config({"g": [0.0]}, {"g": []}, "exp")


KEYS = [(name, key) for name, (_, defaults) in sorted(EXPERIMENTS.items())
        for key in defaults]


def _types(val):
    return [type(v) for v in val] if isinstance(val, list) else type(val)


@pytest.mark.parametrize("name, key", KEYS)
def test_every_default_types_its_key(name, key):
    # built from EXPERIMENTS, so a key added later is covered here too
    defaults = EXPERIMENTS[name][1]
    default = defaults[key]
    got = merged_config(defaults, defaults, name)
    assert got == defaults and _types(got[key]) == _types(default)

    kind = type(default[0] if isinstance(default, list) else default)
    bad = {str: [5], bool: ["False", 1], int: ["many", 1.5, True],
           float: ["many", float("nan"), float("inf"), False]}[kind]
    for val in bad:
        with pytest.raises(ConfigError, match=f"{name}: {key} "):
            merged_config(defaults, {key: val}, name)


def test_hq_scan_x_grid_is_float():
    # the body reads x as a float: the hq-scan CSV writes it as 10000000.0
    assert _types(EXPERIMENTS["hq-scan"][1]["x_grid"]) == [float]
