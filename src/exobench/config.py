"""The command settings, and flat key = value configuration files.

``SETTINGS`` declares every setting once: its file key, its flag if it has
one, the one parser that turns its text into a value (argparse calls it for
the flag, ``parse_config`` for the file) and the default of each command
that reads it. A command takes a setting from its flag, else the file, else
that default.

A file holds one assignment per line, `#` starts a comment (units and notes
live in comments, not in values). Every value in it is parsed, and a key
that no setting declares is an error rather than a silent ignore, so typos
surface immediately. A key the running command does not read is ignored, so
one file can serve several commands.
"""

from __future__ import annotations

import argparse
import math
from fractions import Fraction
from typing import Callable, NamedTuple

from exobench import (DEFAULT_EMG_RATE_HZ, DEFAULT_LOAD_RATE_HZ, HAND_SIZES, MAS_GRADES,
                      TOTAL_SESSIONS)


class ConfigError(ValueError):
    pass


#: The default of a setting that a command cannot run without.
REQUIRED = object()


class Setting(NamedTuple):
    key: str
    defaults: dict[str, object]  # the default of each command that reads the setting
    flag: str | None = None
    cast: Callable[[str], object] = float
    what: str = "a number"
    ok: Callable[[object], bool] = lambda value: True
    choices: tuple[str, ...] | None = None
    help: str | None = None

    def parse(self, text: str) -> object:
        """The value ``text`` stands for, or an error that names the setting."""
        try:
            value = self.cast(text)
        except (ValueError, KeyError, ZeroDivisionError):
            pass
        else:
            if self.ok(value):
                return value
        raise argparse.ArgumentTypeError(f"{self.key} must be {self.what}, got {text!r}")


def _choice(key: str, choices: tuple[str, ...], defaults: dict, flag: str) -> Setting:
    return Setting(key, defaults, flag, cast=str, what=f"one of {', '.join(choices)}",
                   ok=choices.__contains__, choices=choices)


#: The ``what`` and ``ok`` of the float settings: the ranges that ``signals``
#: and ``Subject`` check.
_POSITIVE = dict(what="positive and finite",
                 ok=lambda value: value > 0.0 and math.isfinite(value))
_NON_NEGATIVE = dict(what="non-negative and finite",
                     ok=lambda value: value >= 0.0 and math.isfinite(value))
_UNIT = dict(what="a number in [0, 1]", ok=lambda value: 0.0 <= value <= 1.0)

_BOOLEANS = {"true": True, "yes": True, "1": True, "on": True,
             "false": False, "no": False, "0": False, "off": False}
_SEEDED = ("gen emg", "gen load", "gen screening", "simulate")

#: Every setting by key; README lists what each means and which commands read it.
SETTINGS = {setting.key: setting for setting in (
    Setting("seed", dict.fromkeys(_SEEDED, 0), "--seed", int, "a non-negative integer",
            lambda value: value >= 0, help="base RNG seed (default 0)"),
    Setting("rate_hz", {"gen emg": DEFAULT_EMG_RATE_HZ, "gen load": DEFAULT_LOAD_RATE_HZ},
            "--rate", **_POSITIVE, help="sample rate in Hz (default 50)"),
    _choice("group", ("EMG", "SH"), {"simulate": REQUIRED}, "--group"),
    _choice("hand_size", HAND_SIZES, {"episode": "M", "simulate": "M"}, "--hand-size"),
    _choice("mas", MAS_GRADES, {"episode": "0", "simulate": "1"}, "--mas"),
    Setting("sessions", {"simulate": TOTAL_SESSIONS}, "--sessions", int,
            f"an integer in 1..{TOTAL_SESSIONS}", lambda value: 1 <= value <= TOTAL_SESSIONS,
            help=f"number of sessions (default {TOTAL_SESSIONS})"),
    Setting("duration_scale", {"simulate": 1.0}, "--duration-scale", **_POSITIVE,
            help="task duration multiplier (default 1.0)"),
    # None: ``gen emg`` takes the value of its --profile.
    Setting("noise_std", {"gen emg": None, "gen load": 0.0}, "--noise-std", **_NON_NEGATIVE,
            help="gaussian noise standard deviation (default: gen emg's --profile, gen load 0.0)"),
    Setting("crosstalk", {"gen emg": None}, **_UNIT),
    Setting("drift_rate", {"gen emg": None}, **_NON_NEGATIVE),
    Setting("q", {"analyze": Fraction("0.05")}, "--q", Fraction,
            "a rational number strictly between 0 and 1", lambda value: 0 < value < 1,
            help="false discovery rate (default 0.05)"),
    Setting("arm_support", {"simulate": False}, None, lambda text: _BOOLEANS[text.lower()],
            f"a boolean ({', '.join(_BOOLEANS)})"),
)}


def settings_of(command: str) -> list[Setting]:
    return [setting for setting in SETTINGS.values() if command in setting.defaults]


def parse_config(text: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"expected 'key = value', got {body!r} (line {lineno})")
        name, _, raw = (part.strip() for part in body.partition("="))
        if name not in SETTINGS:
            raise ConfigError(f"unknown key {name!r} (line {lineno})")
        if not raw:
            raise ConfigError(f"empty value for {name!r} (line {lineno})")
        if name in values:
            raise ConfigError(f"duplicate key {name!r} (line {lineno})")
        try:
            values[name] = SETTINGS[name].parse(raw)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"{exc} (line {lineno})") from None
    return values
