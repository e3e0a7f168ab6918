"""Synthetic sensor streams: 8-channel forearm EMG and shoulder-harness load cell.

Traces are generated from declarative scripts (label, duration) so that every
sample carries ground truth. Generation is pure and seeded: the same profile,
script and seed always produce the same trace, byte-for-byte after
serialization. Two impairment knobs are built into the EMG model:

* drift rate: linear scaling of class mean vectors over time (fatigue),
* crosstalk: uniform cross-channel leakage toward the channel mean
  (spastic co-contraction smearing the spatial pattern).

A trace is its samples at a rate, sample n at ``n / rate_hz`` seconds: built
by the generators on whole arrays and validated once by ``SignalTrace``, which
also guards traces read back from files. Every subject shares the class
patterns, ``CLASS_MEANS``: one ``(3, 8)`` array, a row per ``IntentLabel``. A
subject's ``SignalProfile`` holds only its four settings: noise level, drift,
crosstalk and seed.

Serialized traces are JSON lines: one metadata header, then one object per
sample (``{"t": ..., "emg": [...]}`` or ``{"t": ..., "tension": ...}``),
written with one string format and read back with one JSON parse. A file's
``t`` must be ``n / rate_hz`` on every sample.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from exobench import DEFAULT_EMG_RATE_HZ, DEFAULT_LOAD_RATE_HZ
from exobench.config import SETTINGS, quoted

EMG_CHANNELS = 8

#: Nominal harness tension by shoulder posture, newtons.
DEFAULT_REST_TENSION_N = 20.0
DEFAULT_ELEVATED_TENSION_N = 40.0
DEFAULT_DEPRESSED_TENSION_N = 8.0
#: Seconds the harness tension takes to ramp from one posture's level to the next.
RAMP_S = 0.3

#: The most samples a generated trace may hold (and ticks an episode may run):
#: 64 MB of EMG activations, rejected before anything is allocated.
MAX_SAMPLES = 1_000_000

TRACE_SCHEMA = "exobench/trace-v1"

#: The encoder behind every JSONL line the package writes: compact
#: separators, built once rather than on every ``json.dumps`` call.
COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))

#: The types ``json`` reads a number as; a ``bool``, an ``int`` subclass, is not one.
_JSON_NUMBERS = (int, float)

#: One serialized sample row per trace kind, filled from ``t`` and the values.
_ROW_TEMPLATES = {
    "emg": '{"t":%r,"emg":[' + ",".join(["%r"] * EMG_CHANNELS) + ']}\n',
    "load": '{"t":%r,"tension":%r}\n',
}


class IntentLabel(Enum):
    """Hand intent classes shared by both control interfaces."""

    OPEN = "open"
    RELAX = "relax"
    CLOSE = "close"

    def __str__(self) -> str:  # log-friendly
        return self.value


#: Each intent's code, its index in ``IntentLabel``: how a trace's class
#: rows, the classifier's decisions and an episode's intent stream hold it.
INTENT_CODE = {label: code for code, label in enumerate(IntentLabel)}


class ShoulderPosture(Enum):
    """Contralateral shoulder postures seen by the harness load cell."""

    REST = "rest"
    ELEVATED = "elevated"
    DEPRESSED = "depressed"

    def __str__(self) -> str:
        return self.value


#: Class mean patterns, one row of per-channel activations per ``IntentLabel``
#: in enum order: OPEN loads the extensor-side channels, RELAX sits near the
#: noise floor everywhere, CLOSE loads the flexor side.
CLASS_MEANS = np.array([
    (0.62, 0.58, 0.55, 0.50, 0.12, 0.10, 0.09, 0.11),
    (0.05, 0.05, 0.04, 0.06, 0.05, 0.04, 0.05, 0.05),
    (0.11, 0.09, 0.12, 0.10, 0.57, 0.61, 0.55, 0.52),
])
CLASS_MEANS.flags.writeable = False


def _check_noise_std(noise_std: float) -> None:
    """Reject a noise level whose sign the variance ``noise_std**2`` would
    drop, or whose variance overflows; below that, the noise it scales is finite."""
    SETTINGS["noise_std"].check(noise_std)
    if not math.isfinite(noise_std * noise_std):
        raise ValueError(f"noise_std must have a finite square, the variance, got {noise_std!r}")


@dataclass(frozen=True)
class SignalProfile:
    """EMG impairment settings for one synthetic subject.

    A sample of intent ``label`` is its ``CLASS_MEANS`` row plus gaussian
    noise whose variance is ``noise_std**2`` on every channel. ``drift_rate``
    scales the class means by ``max(0, 1 - drift_rate * t)``; ``crosstalk``
    mixes each channel toward the across-channel mean with weight in [0, 1].
    """

    noise_std: float = 0.02
    drift_rate: float = 0.0
    crosstalk: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_noise_std(self.noise_std)
        SETTINGS["crosstalk"].check(self.crosstalk)
        SETTINGS["drift_rate"].check(self.drift_rate)

    def to_meta(self) -> dict:
        variance = [float(self.noise_std * self.noise_std)] * EMG_CHANNELS
        return {
            "means": {label.value: row for label, row in zip(IntentLabel, CLASS_MEANS.tolist())},
            "variances": {label.value: variance for label in IntentLabel},
            "drift_rate": self.drift_rate,
            "crosstalk": self.crosstalk,
            "seed": self.seed,
        }


def _check_rows(kind: str, rows: list, lines: list[str]) -> None:
    """Name the first row that is not an object holding JSON numbers under
    ``t`` and its kind's key, ``EMG_CHANNELS`` of them under ``emg``."""
    key, channels = ("emg", f", {EMG_CHANNELS} channels under 'emg'") if kind == "emg" else ("tension", "")
    for n, row in enumerate(rows):
        row = row if type(row) is dict else {}
        values = row.get(key) if channels else [row.get(key)]
        if not (type(values) is list and len(values) == (EMG_CHANNELS if channels else 1)
                and all(type(v) in _JSON_NUMBERS for v in [row.get("t"), *values])):
            raise ValueError(f"sample {n} must be an object with keys 't' and {key!r} holding "
                             f"JSON numbers{channels}, got {quoted(lines[n])}")


def _sample_array(kind: str, values) -> np.ndarray:
    """``values`` as a float array with one row per sample, or ValueError."""
    row = (EMG_CHANNELS,) if kind == "emg" else ()
    expected = f"expected {EMG_CHANNELS} channels" if row else "expected one tension"
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows or non-numbers
        raise ValueError(f"{expected} per sample: {exc}") from None
    if arr.shape == (0,):
        arr = arr.reshape((0,) + row)
    if arr.ndim != 1 + len(row) or arr.shape[1:] != row:
        raise ValueError(f"{expected} per sample, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class SignalTrace:
    """Immutable sampled signal plus ground-truth annotation intervals.

    ``kind`` is "emg" or "load". ``samples`` holds the values, shape ``(N, 8)``
    normalized activations for EMG or ``(N,)`` tensions in newtons for load;
    the derived ``t = n / rate_hz`` holds their times. Both are read-only float
    arrays. ``annotations`` is a tuple of (t_start, t_end, label) half-open
    intervals, finite with t_start < t_end, that never overlap.
    """

    kind: str
    rate_hz: float
    samples: np.ndarray
    annotations: tuple
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("emg", "load"):
            raise ValueError(f"unknown trace kind {self.kind!r}")
        samples = _sample_array(self.kind, self.samples)
        if not (0.0 < self.rate_hz < math.inf and math.isfinite(len(samples) / self.rate_hz)):
            raise ValueError(f"rate_hz must be positive and finite, as must {len(samples)} / rate_hz, "
                             f"got {self.rate_hz!r}")
        # NaN fails every comparison, so this also rejects non-finite values.
        emg = self.kind == "emg"
        ok = (samples >= 0.0) & ((samples <= 1.0) if emg else (samples < math.inf))
        if not ok.all():
            rule = "EMG activations must be finite and in [0, 1]" if emg else "tension must be finite and non-negative"
            raise ValueError(f"sample {np.argmin(ok.reshape(len(samples), -1).all(axis=1))}: {rule}")
        t = np.arange(len(samples)) / self.rate_hz
        t.flags.writeable = False
        samples.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "samples", samples)
        prev_end = None
        for n, (t0, t1, _label) in enumerate(self.annotations):
            if not -math.inf < t0 < t1 < math.inf:  # NaN fails every comparison
                raise ValueError(f"annotation {n} must be finite with t_start < t_end, "
                                 f"got [{t0!r}, {t1!r}]")
            if prev_end is not None and t0 < prev_end - 1e-12:
                raise ValueError(f"annotation {n} overlaps annotation {n - 1}")
            prev_end = t1

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.rate_hz

    def annotation_index(self, times) -> np.ndarray:
        """Index into ``annotations`` of the interval holding each time, -1 between them."""
        times = np.asarray(times, dtype=float)
        # A NaN row after the last interval stands for "no interval": NaN <= t is False.
        bounds = np.array([a[:2] for a in self.annotations] + [(math.nan, math.nan)], dtype=float)
        k = np.searchsorted(bounds[:-1, 1], times, side="right")
        return np.where(bounds[k, 0] <= times, k, -1)

    def to_jsonl(self) -> str:
        """The header line, then one ``{"t": ..., "emg"|"tension": ...}`` line per sample.

        The sample lines come from one ``%`` over the row template repeated
        once per sample, and hold the bytes that one ``json`` call per line
        would write: ``%r`` of a float is ``float.__repr__``, which is how
        ``json`` spells every finite float, and a trace holds no other.
        """
        header = {
            "schema": TRACE_SCHEMA,
            "kind": self.kind,
            "rate_hz": self.rate_hz,
            "annotations": [[t0, t1, str(label)] for t0, t1, label in self.annotations],
            "meta": dict(self.meta),
        }
        values = np.column_stack((self.t, self.samples)).ravel().tolist()
        rows = (_ROW_TEMPLATES[self.kind] * len(self.t)) % tuple(values)
        return COMPACT_JSON.encode(header) + "\n" + rows

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl())

    @staticmethod
    def from_jsonl(text: str) -> "SignalTrace":
        """Read ``to_jsonl`` text back: any JSON, one value per non-blank line.

        The sample lines are parsed together, as the items of one JSON array.
        The trace's numbers are read through their text, so an integer past the
        float range reads as inf, as ``1e400`` does. Each error names its place.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty trace file")
        try:
            header = json.loads(lines[0])
        except ValueError as exc:  # malformed, or an integer past int()'s digit limit
            raise ValueError(f"trace header is not valid JSON: {exc}") from None
        if not isinstance(header, dict):
            raise ValueError(f"trace header must be a JSON object, got {quoted(lines[0])}")
        if header.get("schema") != TRACE_SCHEMA:
            raise ValueError(f"unsupported trace schema {quoted(header.get('schema'))}")
        missing = [name for name in ("kind", "rate_hz", "annotations") if name not in header]
        if missing:
            raise ValueError(f"trace header lacks {', '.join(missing)}")
        kind = header["kind"]
        if kind not in ("emg", "load"):
            raise ValueError(f"unknown trace kind {quoted(kind)}")
        rate_hz = header["rate_hz"]
        if type(rate_hz) not in _JSON_NUMBERS:
            raise ValueError(f"trace header needs a number rate_hz, got {quoted(rate_hz)}")
        label_type = IntentLabel if kind == "emg" else ShoulderPosture
        spans = header["annotations"]
        if type(spans) is not list:
            raise ValueError(f"trace header needs [t_start, t_end, label] annotations, got {quoted(spans)}")
        annotations = []
        for n, span in enumerate(spans):
            try:
                t0, t1, label = span
            except (TypeError, ValueError) as exc:
                raise ValueError(f"annotation {n} must be [t_start, t_end, label]: {exc}") from None
            try:
                label = label_type(label)
            except ValueError:  # the enum's own message would echo the label whole
                raise ValueError(f"annotation {n} must be [t_start, t_end, label]: "
                                 f"{quoted(label)} is not a valid {label_type.__name__}") from None
            if type(t0) not in _JSON_NUMBERS or type(t1) not in _JSON_NUMBERS:
                raise ValueError(f"annotation {n} needs number bounds, got {quoted([t0, t1])}")
            annotations.append((float(repr(t0)), float(repr(t1)), label))
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError(f"trace header meta must be a JSON object, got {quoted(meta)}")
        key = "emg" if kind == "emg" else "tension"
        body = lines[1:]
        joined = ",".join(body)
        try:
            rows = json.loads("[" + joined + "]", parse_int=float)
        except json.JSONDecodeError:
            rows = []
        if len(rows) != len(body):  # name the first bad line; only an error pays for it
            # Lines that each hold one value join into an array of as many, so one is found.
            for n, line in enumerate(body):
                try:
                    json.loads(line, parse_int=float)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"sample {n} is not valid JSON "
                                     f"({exc.msg} at column {exc.colno}), got {quoted(line)}") from None
        # true, false and null hold a "u" or an "l", which no number does, and a
        # string adds quotes past a line's two keys: only then, or when the rows
        # make no trace, are they looked at one by one.
        if "u" in joined or "l" in joined or joined.count('"') != 4 * len(body):
            _check_rows(kind, rows, body)
        try:
            t = [row["t"] for row in rows]
            trace = SignalTrace(kind=kind, rate_hz=float(repr(rate_hz)), samples=[row[key] for row in rows],
                                annotations=tuple(annotations), meta=meta)
        except (KeyError, TypeError, ValueError):
            _check_rows(kind, rows, body)
            raise
        derived = trace.t.tolist()
        if t != derived:
            n = next(n for n, (a, b) in enumerate(zip(t, derived)) if a != b)
            raise ValueError(f"sample {n} has t {t[n]!r}, not {n} / rate_hz = {derived[n]!r}")
        return trace

    @staticmethod
    def load(path: str | Path) -> "SignalTrace":
        try:
            return SignalTrace.from_jsonl(Path(path).read_text())
        except ValueError as exc:  # name the file, as an OSError does
            raise ValueError(f"{path}: {exc}") from None


def _check_script(script: Sequence[tuple], enum_type) -> list[tuple]:
    if not script:
        raise ValueError("script must contain at least one segment")
    checked = []
    for entry in script:
        label, duration = entry
        if not isinstance(label, enum_type):
            raise ValueError(f"script labels must be {enum_type.__name__}, got {label!r}")
        duration = float(duration)
        if duration <= 0.0 or not math.isfinite(duration):
            raise ValueError("segment durations must be positive and finite")
        checked.append((label, duration))
    return checked


def _timeline(segments: list[tuple], rate_hz: float) -> tuple[list[tuple], np.ndarray, np.ndarray]:
    """Annotations of a checked script at a checked rate, the sample times,
    and each sample's segment.

    Sample n sits at t = n / rate_hz and belongs to the segment whose
    half-open interval contains it; samples past the last end stay in it.
    No sample, or more than ``MAX_SAMPLES``, is an error, raised before allocating.
    """
    annotations = []
    t0 = 0.0
    for label, duration in segments:
        annotations.append((t0, t0 + duration, label))
        t0 += duration
    if not t0 * rate_hz <= MAX_SAMPLES:  # a product that overflows to inf fails too
        raise ValueError(f"a {t0!r} s trace at {rate_hz!r} Hz would exceed "
                         f"MAX_SAMPLES = {MAX_SAMPLES} samples")
    n = int(round(t0 * rate_hz))
    if n == 0:
        raise ValueError(f"a {t0!r} s trace at {rate_hz!r} Hz holds no sample: "
                         f"samples are {1.0 / rate_hz!r} s apart")
    times = np.arange(n) / rate_hz
    segment = np.searchsorted([t1 for _t0, t1, _label in annotations[:-1]], times, side="right")
    return annotations, times, segment


#: The scripts whose read-only arrays ``gen_emg_trace`` and ``gen_load_trace``
#: each keep: the newest 16 of at most 50,000 samples, so at most about 58 MB
#: of EMG times and class-mean rows when full.
_SCRIPTS_KEPT = 16
_SCRIPT_SAMPLES_KEPT = 50_000


def _script_arrays(build, segments: list[tuple], rate_hz: float, *under):
    """``build``'s arrays of a checked script at a checked rate, under the
    module constants it reads, ``MAX_SAMPLES`` and the bits of ``under``:
    kept for the newest scripts that are small enough, built anew for others."""
    SETTINGS["rate_hz"].check(rate_hz)
    kept = sum(duration for _label, duration in segments) * rate_hz <= _SCRIPT_SAMPLES_KEPT
    return (build if kept else build.__wrapped__)(tuple(segments), rate_hz, MAX_SAMPLES, *under)


@functools.lru_cache(maxsize=_SCRIPTS_KEPT)
def _emg_script(segments: tuple, rate_hz: float, *_under) -> tuple[tuple, np.ndarray, np.ndarray]:
    """An EMG script's annotations, sample times and each sample's class-mean
    row, read-only."""
    annotations, times, segment = _timeline(list(segments), rate_hz)
    means = CLASS_MEANS[np.array([INTENT_CODE[label] for _t0, _t1, label in annotations])[segment]]
    times.flags.writeable = means.flags.writeable = False
    return tuple(annotations), times, means


def _levels() -> dict[ShoulderPosture, float]:
    """Each posture's nominal tension, the ``DEFAULT_*_TENSION_N`` it reads."""
    return {
        ShoulderPosture.REST: DEFAULT_REST_TENSION_N,
        ShoulderPosture.ELEVATED: DEFAULT_ELEVATED_TENSION_N,
        ShoulderPosture.DEPRESSED: DEFAULT_DEPRESSED_TENSION_N,
    }


@functools.lru_cache(maxsize=_SCRIPTS_KEPT)
def _load_script(segments: tuple, rate_hz: float, *_under) -> tuple[tuple, np.ndarray, np.ndarray]:
    """A posture script's annotations, sample times and noise-free tension
    profile, read-only: each posture's ``DEFAULT_*_TENSION_N`` level, reached
    from the previous one's by a linear ramp over ``RAMP_S``, clipped to the
    segment length."""
    annotations, times, segment = _timeline(list(segments), rate_hz)
    levels = _levels()
    level = np.array([levels[posture] for _t0, _t1, posture in annotations])
    start = np.array([t0 for t0, _t1, _posture in annotations])[segment]
    ramp = np.array([min(RAMP_S, t1 - t0) for t0, t1, _posture in annotations])[segment]
    prev = np.concatenate((level[:1], level[:-1]))[segment]
    tension = level[segment]
    since = times - start
    on_ramp = since < ramp
    lo, hi = prev[on_ramp], tension[on_ramp]
    tension[on_ramp] = lo + (hi - lo) * (since[on_ramp] / ramp[on_ramp])
    times.flags.writeable = tension.flags.writeable = False
    return tuple(annotations), times, tension


def gen_emg_trace(
    profile: SignalProfile,
    script: Sequence[tuple[IntentLabel, float]],
    rate_hz: float = DEFAULT_EMG_RATE_HZ,
) -> SignalTrace:
    """Generate an annotated EMG trace following an intent script.

    Each script segment becomes its own annotation interval even when
    consecutive segments share a label, which lets callers mark repeated
    attempts of the same gesture. Sample n sits at t = n / rate_hz; a sample
    belongs to the segment whose half-open interval contains its timestamp.
    The script's annotations, times and class-mean rows are built once per
    script, rate and ``CLASS_MEANS`` bits and kept (``_emg_script``); only
    the noise, drift and crosstalk are the profile's own.
    """
    segments = _check_script(script, IntentLabel)
    annotations, times, means = _script_arrays(_emg_script, segments, rate_hz, CLASS_MEANS.tobytes())
    rng = np.random.default_rng(profile.seed)

    # The root of the variance the header records, not noise_std itself:
    # where the square underflows to 0, noise_std would still add tiny noise.
    std = math.sqrt(profile.noise_std * profile.noise_std)
    # A product that overflows is a fade far below zero, which clamps to 0.
    with np.errstate(over="ignore"):
        fade = 1.0 - profile.drift_rate * times
    fade = np.where(fade > 0.0, fade, 0.0)
    x = means * fade[:, None] + rng.standard_normal((len(times), EMG_CHANNELS)) * std
    if profile.crosstalk > 0.0:
        x = (1.0 - profile.crosstalk) * x + profile.crosstalk * x.mean(axis=1, keepdims=True)

    return SignalTrace(
        kind="emg",
        rate_hz=rate_hz,
        samples=np.clip(x, 0.0, 1.0),
        annotations=annotations,
        meta={"profile": profile.to_meta(), "script": [[str(l), d] for l, d in segments]},
    )


def gen_load_trace(
    script: Sequence[tuple[ShoulderPosture, float]],
    rate_hz: float = DEFAULT_LOAD_RATE_HZ,
    noise_std: float = 0.0,
    dither_amp: float = 0.0,
    dither_hz: float = 1.5,
    seed: int = 0,
) -> SignalTrace:
    """Generate a harness load-cell trace following a posture script.

    Tension ramps linearly from the previous posture's ``DEFAULT_*_TENSION_N``
    level over ``RAMP_S`` (clipped to the segment length) then holds. Optional
    sinusoidal dither and gaussian noise ride on top; output is clipped at
    zero. Every number must be finite, ``noise_std`` non-negative and
    ``dither_hz`` at most the Nyquist rate, ``rate_hz / 2``, in size. The
    script's annotations, times and noise-free profile are built once per
    script, rate and bits of the levels and ``RAMP_S``, and kept
    (``_load_script``).
    """
    _check_noise_std(noise_std)
    for name, value in (("dither_amp", dither_amp), ("dither_hz", dither_hz)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    # Faster sway aliases, and a huge one overflows 2π·dither_hz·t to NaN,
    # which the clip at zero would hide. A bad rate is _timeline's error.
    if rate_hz > 0.0 and abs(dither_hz) > rate_hz / 2.0:
        raise ValueError(f"dither_hz must be at most rate_hz / 2 = {rate_hz / 2.0!r} Hz "
                         f"in size, got {dither_hz!r}")
    segments = _check_script(script, ShoulderPosture)
    levels = _levels()
    annotations, times, tension = _script_arrays(_load_script, segments, rate_hz,
                                                 np.array([*levels.values(), RAMP_S], dtype=float).tobytes())
    rng = np.random.default_rng(seed)

    if dither_amp:
        tension = tension + dither_amp * np.sin(2.0 * math.pi * dither_hz * times)
    if noise_std:
        tension = tension + noise_std * rng.standard_normal(len(times))

    return SignalTrace(
        kind="load",
        rate_hz=rate_hz,
        samples=np.where(tension > 0.0, tension, 0.0),
        annotations=annotations,
        meta={
            "script": [[str(p), d] for p, d in segments],
            "levels": {str(posture): value for posture, value in levels.items()},
            "ramp_s": RAMP_S,
            "noise_std": noise_std,
            "dither_amp": dither_amp,
            "dither_hz": dither_hz,
            "seed": seed,
        },
    )
