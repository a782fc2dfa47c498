"""Flat key = value configuration files for the experiment harness.

One assignment per line, '#' starts a comment, values are scalars or one-level
array literals.  Scalars follow JSON where possible (numbers, true/false,
quoted strings); anything else is taken as a bare string, so prime-set
descriptors like congruence:4:1 need no quoting.
"""

from __future__ import annotations

import json
import math


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
    """Overlay cfg on defaults; unknown keys are errors naming the field."""
    out = dict(defaults)
    for key, val in cfg.items():
        if key not in defaults:
            raise ConfigError(f"{experiment}: unknown config key {key!r} "
                              f"(known: {', '.join(sorted(defaults))})")
        out[key] = val
    return out


def as_number(val, kind, key: str, experiment: str):
    """kind(val) for one config value (kind is int or float), or a ConfigError
    naming the key when val is not a finite number."""
    try:
        out = kind(val)
        if math.isfinite(out):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{experiment}: {key} must be a finite number, got {val!r}")


def require_grid(cfg: dict, key: str, experiment: str, kind=None) -> list:
    """Fetch a non-empty list-valued grid, normalizing scalars to 1-element grids.

    With kind (int or float) every element goes through as_number.
    """
    val = cfg[key]
    if not isinstance(val, list):
        val = [val]
    if len(val) == 0:
        raise ConfigError(f"{experiment}: {key} is an empty grid")
    if kind is not None:
        val = [as_number(v, kind, key, experiment) for v in val]
    return val
