"""Flat key = value configuration files for the experiment harness.

One assignment per line, '#' starts a comment, values are scalars or one-level
array literals.  Scalars follow JSON where possible (numbers, true/false,
quoted strings); anything else is taken as a bare string, so prime-set
descriptors like congruence:4:1 need no quoting.
"""

from __future__ import annotations

import json
import math
import numbers


class ConfigError(ValueError):
    """Raised on malformed config text; message carries line/field context."""


def _strip_comment(line: str) -> str:
    out = []
    in_str = False
    for ch in line:
        if ch == '"':
            in_str = not in_str
        elif ch == "#" and not in_str:
            break
        out.append(ch)
    return "".join(out)


def _parse_scalar(raw: str, lineno: int):
    raw = raw.strip()
    if raw == "":
        raise ConfigError(f"line {lineno}: empty value")
    try:
        val = json.loads(raw)
    except json.JSONDecodeError:
        return raw  # bare string
    if isinstance(val, (list, dict)):
        raise ConfigError(f"line {lineno}: nested structures not allowed in arrays")
    return val


def _parse_value(raw: str, lineno: int):
    raw = raw.strip()
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ConfigError(f"line {lineno}: unterminated array literal")
        inner = raw[1:-1].strip()
        if inner == "":
            return []
        if "[" in inner or "]" in inner:
            raise ConfigError(f"line {lineno}: arrays may not nest")
        return [_parse_scalar(part, lineno) for part in inner.split(",")]
    return _parse_scalar(raw, lineno)


def parse_config_text(text: str) -> dict:
    """Parse config text into a flat dict.  Later assignments win."""
    cfg: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(line).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if not key or " " in key:
            raise ConfigError(f"line {lineno}: bad key {key!r}")
        cfg[key] = _parse_value(raw, lineno)
    return cfg


def parse_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def merged_config(defaults: dict, cfg: dict, experiment: str) -> dict:
    """Overlay cfg on defaults, each value converted to its default's type;
    unknown keys are errors naming the field.  A list default takes a non-empty
    grid of its first element's type, a scalar being a one-point grid."""
    out = dict(defaults)
    for key, val in cfg.items():
        if key not in defaults:
            raise ConfigError(f"{experiment}: unknown config key {key!r} "
                              f"(known: {', '.join(sorted(defaults))})")
        where = f"{experiment}: {key}"
        default = defaults[key]
        if isinstance(default, list):
            grid = val if isinstance(val, list) else [val]
            if not grid:
                raise ConfigError(f"{where} is an empty grid")
            out[key] = [_typed(v, default[0], where) for v in grid]
        else:
            out[key] = _typed(val, default, where)
    return out


def _typed(val, default, where: str):
    """val as the type of one scalar default, or a ConfigError naming where."""
    kind = type(default)
    if kind in (bool, str):
        if isinstance(val, kind):
            return val
        raise ConfigError(f"{where} must be "
                          f"{'true or false' if kind is bool else 'a string'}, got {val!r}")
    if isinstance(val, numbers.Real) and not isinstance(val, bool):
        try:
            if math.isfinite(val) and (kind is float or val == int(val)):
                return kind(val)
        except OverflowError:  # an int too large for a float
            pass
    raise ConfigError(f"{where} must be a finite "
                      f"{'integer' if kind is int else 'number'}, got {val!r}")
