"""Synthetic sensor streams: 8-channel forearm EMG and shoulder-harness load cell.

Traces are generated from declarative scripts (label, duration) so that every
sample carries ground truth. Generation is pure and seeded: the same profile,
script and seed always produce the same trace, byte-for-byte after
serialization. Two impairment knobs are built into the EMG model:

* drift rate: linear scaling of class mean vectors over time (fatigue),
* crosstalk: uniform cross-channel leakage toward the channel mean
  (spastic co-contraction smearing the spatial pattern).

A trace is two columns, sample times and sample values, built by the
generators on whole arrays and validated once by ``SignalTrace`` itself, which
also guards traces read back from files. A subject's ``SignalProfile`` holds
its class means and variances the same way: two ``(3, 8)`` arrays, one row per
``IntentLabel``.

Serialized traces are JSON lines: one metadata header, then one object per
sample (``{"t": ..., "emg": [...]}`` or ``{"t": ..., "tension": ...}``),
written with one string format and read back with one JSON parse.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from exobench import DEFAULT_EMG_RATE_HZ, DEFAULT_LOAD_RATE_HZ

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


class ShoulderPosture(Enum):
    """Contralateral shoulder postures seen by the harness load cell."""

    REST = "rest"
    ELEVATED = "elevated"
    DEPRESSED = "depressed"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, eq=False)
class SignalProfile:
    """Per-intent EMG statistics for one synthetic subject.

    ``means`` and ``variances`` are read-only ``(3, 8)`` float arrays, one row
    of per-channel values per ``IntentLabel`` in enum order. ``drift_rate``
    scales the class means by ``max(0, 1 - drift_rate * t)``; ``crosstalk``
    mixes each channel toward the across-channel mean with weight in [0, 1].
    """

    means: np.ndarray
    variances: np.ndarray
    drift_rate: float = 0.0
    crosstalk: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        shape = (len(IntentLabel), EMG_CHANNELS)
        means = np.array(self.means, dtype=float)
        variances = np.array(self.variances, dtype=float)
        if means.shape != shape or variances.shape != shape:
            raise ValueError(f"means and variances must have shape {shape}")
        # NaN fails every comparison, so these also reject non-finite means.
        if not np.all((means >= 0.0) & (means <= 1.0)):
            raise ValueError("class means must lie in [0, 1]")
        if not np.all((variances >= 0.0) & (variances < math.inf)):
            raise ValueError("variances must be non-negative and finite")
        if not 0.0 <= self.crosstalk <= 1.0:
            raise ValueError("crosstalk must lie in [0, 1]")
        if not (self.drift_rate >= 0.0 and math.isfinite(self.drift_rate)):
            raise ValueError(f"drift_rate must be non-negative and finite, got {self.drift_rate!r}")
        means.flags.writeable = False
        variances.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    def to_meta(self) -> dict:
        return {
            "means": {label.value: row for label, row in zip(IntentLabel, self.means.tolist())},
            "variances": {label.value: row for label, row in zip(IntentLabel, self.variances.tolist())},
            "drift_rate": self.drift_rate,
            "crosstalk": self.crosstalk,
            "seed": self.seed,
        }


#: Canonical class mean patterns: OPEN loads the extensor-side channels,
#: CLOSE the flexor side, RELAX sits near the noise floor everywhere.
_OPEN_MEANS = (0.62, 0.58, 0.55, 0.50, 0.12, 0.10, 0.09, 0.11)
_CLOSE_MEANS = (0.11, 0.09, 0.12, 0.10, 0.57, 0.61, 0.55, 0.52)
_RELAX_MEANS = (0.05, 0.05, 0.04, 0.06, 0.05, 0.04, 0.05, 0.05)


def _check_noise_std(noise_std: float) -> None:
    """Reject a noise level whose sign the variance ``noise_std**2`` would
    drop, or whose variance overflows; below that, the noise it scales is finite."""
    if not (noise_std >= 0.0 and math.isfinite(noise_std)):
        raise ValueError(f"noise_std must be non-negative and finite, got {noise_std!r}")
    if not math.isfinite(noise_std * noise_std):
        raise ValueError(f"noise_std must have a finite square, the variance, got {noise_std!r}")


def make_profile(
    noise_std: float = 0.02,
    drift_rate: float = 0.0,
    crosstalk: float = 0.0,
    seed: int = 0,
) -> SignalProfile:
    """Build a subject profile from the canonical class patterns."""
    _check_noise_std(noise_std)
    return SignalProfile(
        means=(_OPEN_MEANS, _RELAX_MEANS, _CLOSE_MEANS),
        variances=np.full((len(IntentLabel), EMG_CHANNELS), noise_std * noise_std),
        drift_rate=drift_rate,
        crosstalk=crosstalk,
        seed=seed,
    )


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

    ``kind`` is "emg" or "load". ``t`` holds the sample times in seconds,
    shape ``(N,)``; ``samples`` holds the values, shape ``(N, 8)`` normalized
    activations for EMG or ``(N,)`` tensions in newtons for load. Both are
    read-only float arrays. ``annotations`` is a tuple of (t_start, t_end,
    label) half-open intervals that never overlap.
    """

    kind: str
    rate_hz: float
    t: np.ndarray
    samples: np.ndarray
    annotations: tuple
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("emg", "load"):
            raise ValueError(f"unknown trace kind {self.kind!r}")
        samples = _sample_array(self.kind, self.samples)
        t = np.array(self.t, dtype=float)
        if t.shape != (len(samples),):
            raise ValueError(f"t and samples must have the same length: {t.shape}, {samples.shape}")
        if not (np.all(np.isfinite(t)) and np.all(t[1:] >= t[:-1])):
            raise ValueError("sample times must be finite and non-decreasing")
        if self.kind == "emg":
            # NaN fails both comparisons, so this also rejects non-finite values.
            if not np.all((samples >= 0.0) & (samples <= 1.0)):
                raise ValueError("EMG activations must be finite and in [0, 1]")
        elif not (np.all(np.isfinite(samples)) and np.all(samples >= 0.0)):
            raise ValueError("tension must be finite and non-negative")
        t.flags.writeable = False
        samples.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "samples", samples)
        prev_end = None
        for t0, t1, _label in self.annotations:
            if t1 <= t0:
                raise ValueError("annotation interval must have positive length")
            if prev_end is not None and t0 < prev_end - 1e-12:
                raise ValueError("annotation intervals overlap")
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
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty trace file")
        header = json.loads(lines[0])
        if not isinstance(header, dict):
            raise ValueError(f"trace header must be a JSON object, got {lines[0]!r}")
        if header.get("schema") != TRACE_SCHEMA:
            raise ValueError(f"unsupported trace schema {header.get('schema')!r}")
        missing = [name for name in ("kind", "rate_hz", "annotations") if name not in header]
        if missing:
            raise ValueError(f"trace header lacks {', '.join(missing)}")
        kind = header["kind"]
        if kind not in ("emg", "load"):
            raise ValueError(f"unknown trace kind {kind!r}")
        label_type = IntentLabel if kind == "emg" else ShoulderPosture
        try:
            rate_hz = float(header["rate_hz"])
            annotations = tuple(
                (float(t0), float(t1), label_type(lab)) for t0, t1, lab in header["annotations"]
            )
        except TypeError:
            raise ValueError("trace header needs a number rate_hz and "
                             "[t_start, t_end, label] annotations") from None
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError(f"trace header meta must be a JSON object, got {meta!r}")
        key = "emg" if kind == "emg" else "tension"
        body = lines[1:]
        try:
            rows = json.loads("[" + ",".join(body) + "]")
        except json.JSONDecodeError:  # name the first bad line; only an error pays for it
            for n, line in enumerate(body):
                try:
                    json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"sample {n} is not valid JSON "
                                     f"({exc.msg} at column {exc.colno}), got {line!r}") from None
            raise
        if len(rows) != len(body):
            raise ValueError("each sample line must hold exactly one JSON value")
        try:
            t = [row["t"] for row in rows]
            samples = [row[key] for row in rows]
        except (KeyError, TypeError):
            n = next(i for i, row in enumerate(rows)
                     if not (isinstance(row, dict) and "t" in row and key in row))
            raise ValueError(
                f"sample {n} must be an object with keys 't' and {key!r}, got {body[n]!r}"
            ) from None
        return SignalTrace(
            kind=kind,
            rate_hz=rate_hz,
            t=t,
            samples=samples,
            annotations=annotations,
            meta=meta,
        )

    @staticmethod
    def load(path: str | Path) -> "SignalTrace":
        return SignalTrace.from_jsonl(Path(path).read_text())


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
    """Annotations of a checked script, the sample times, and each sample's segment.

    Sample n sits at t = n / rate_hz and belongs to the segment whose
    half-open interval contains it; samples past the last end stay in it.
    More than ``MAX_SAMPLES`` samples is an error, raised before allocating.
    """
    if not (rate_hz > 0.0 and math.isfinite(rate_hz)):
        raise ValueError(f"rate_hz must be positive and finite, got {rate_hz!r}")
    annotations = []
    t0 = 0.0
    for label, duration in segments:
        annotations.append((t0, t0 + duration, label))
        t0 += duration
    if not t0 * rate_hz <= MAX_SAMPLES:  # a product that overflows to inf fails too
        raise ValueError(f"a {t0!r} s trace at {rate_hz!r} Hz would exceed "
                         f"MAX_SAMPLES = {MAX_SAMPLES} samples")
    times = np.arange(int(round(t0 * rate_hz))) / rate_hz
    segment = np.searchsorted([t1 for _t0, t1, _label in annotations[:-1]], times, side="right")
    return annotations, times, segment


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
    """
    segments = _check_script(script, IntentLabel)
    annotations, times, segment = _timeline(segments, rate_hz)
    rng = np.random.default_rng(profile.seed)

    rows = np.array([list(IntentLabel).index(label) for _t0, _t1, label in annotations])[segment]
    means = profile.means[rows]
    stds = np.sqrt(profile.variances)[rows]
    # A product that overflows is a fade far below zero, which clamps to 0.
    with np.errstate(over="ignore"):
        fade = 1.0 - profile.drift_rate * times
    fade = np.where(fade > 0.0, fade, 0.0)
    x = means * fade[:, None] + rng.standard_normal((len(times), EMG_CHANNELS)) * stds
    if profile.crosstalk > 0.0:
        x = (1.0 - profile.crosstalk) * x + profile.crosstalk * x.mean(axis=1, keepdims=True)

    return SignalTrace(
        kind="emg",
        rate_hz=rate_hz,
        t=times,
        samples=np.clip(x, 0.0, 1.0),
        annotations=tuple(annotations),
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
    ``dither_hz`` at most the Nyquist rate, ``rate_hz / 2``, in size.
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
    annotations, times, segment = _timeline(segments, rate_hz)
    levels = {
        ShoulderPosture.REST: DEFAULT_REST_TENSION_N,
        ShoulderPosture.ELEVATED: DEFAULT_ELEVATED_TENSION_N,
        ShoulderPosture.DEPRESSED: DEFAULT_DEPRESSED_TENSION_N,
    }
    rng = np.random.default_rng(seed)

    level = np.array([levels[posture] for _t0, _t1, posture in annotations])
    start = np.array([t0 for t0, _t1, _posture in annotations])[segment]
    ramp = np.array([min(RAMP_S, t1 - t0) for t0, t1, _posture in annotations])[segment]
    prev = np.concatenate((level[:1], level[:-1]))[segment]
    tension = level[segment]
    since = times - start
    on_ramp = since < ramp
    lo, hi = prev[on_ramp], tension[on_ramp]
    tension[on_ramp] = lo + (hi - lo) * (since[on_ramp] / ramp[on_ramp])
    if dither_amp:
        tension = tension + dither_amp * np.sin(2.0 * math.pi * dither_hz * times)
    if noise_std:
        tension = tension + noise_std * rng.standard_normal(len(times))

    return SignalTrace(
        kind="load",
        rate_hz=rate_hz,
        t=times,
        samples=np.where(tension > 0.0, tension, 0.0),
        annotations=tuple(annotations),
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
