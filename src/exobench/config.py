"""Flat key = value configuration files.

One assignment per line, `#` starts a comment (units and notes live in
comments, not in values). Keys are registered up front; an unknown key is
an error rather than a silent ignore so typos surface immediately.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable


class ConfigError(ValueError):
    pass


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"not a boolean: {raw!r}")


#: Each registered key and the parser of its value; README lists what they mean.
_KEYS: dict[str, Callable[[str], object]] = {
    "seed": int,
    "rate_hz": float,
    "group": str,
    "hand_size": str,
    "mas": str,
    "sessions": int,
    "duration_scale": float,
    "noise_std": float,
    "crosstalk": float,
    "drift_rate": float,
    "q": str,
    "arm_support": _parse_bool,
}


def parse_config(text: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        name, _, raw = body.partition("=")
        name = name.strip()
        raw = raw.strip()
        if name not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {name!r}")
        if not raw:
            raise ConfigError(f"line {lineno}: empty value for {name!r}")
        if name in values:
            raise ConfigError(f"line {lineno}: duplicate key {name!r}")
        try:
            values[name] = _KEYS[name](raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {name!r}: {exc}") from exc
    return values


def load_config(path: str | Path) -> dict[str, object]:
    return parse_config(Path(path).read_text())
