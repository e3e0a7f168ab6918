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
also guards traces read back from files.

Serialized traces are JSON lines: one metadata header, then one object per
sample (``{"t": ..., "emg": [...]}`` or ``{"t": ..., "tension": ...}``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

EMG_CHANNELS = 8
DEFAULT_EMG_RATE_HZ = 50.0
DEFAULT_LOAD_RATE_HZ = 50.0

#: Nominal harness tension by shoulder posture, newtons.
DEFAULT_REST_TENSION_N = 20.0
DEFAULT_ELEVATED_TENSION_N = 40.0
DEFAULT_DEPRESSED_TENSION_N = 8.0

TRACE_SCHEMA = "exobench/trace-v1"

#: The encoder behind every JSONL line the package writes: compact
#: separators, built once rather than on every ``json.dumps`` call.
COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


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


def _freeze8(values: Sequence[float]) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if len(out) != EMG_CHANNELS:
        raise ValueError(f"expected {EMG_CHANNELS} values, got {len(out)}")
    return out


@dataclass(frozen=True)
class SignalProfile:
    """Per-intent EMG statistics for one synthetic subject.

    means/variances map each intent to 8 per-channel values. ``drift_rate``
    scales the class means by ``max(0, 1 - drift_rate * t)``; ``crosstalk``
    mixes each channel toward the across-channel mean with weight in [0, 1].
    """

    means: Mapping[IntentLabel, tuple[float, ...]]
    variances: Mapping[IntentLabel, tuple[float, ...]]
    drift_rate: float = 0.0
    crosstalk: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for label in IntentLabel:
            if label not in self.means or label not in self.variances:
                raise ValueError(f"profile missing statistics for {label.value}")
        object.__setattr__(self, "means", {k: _freeze8(v) for k, v in self.means.items()})
        object.__setattr__(self, "variances", {k: _freeze8(v) for k, v in self.variances.items()})
        for label in IntentLabel:
            if not all(0.0 <= m <= 1.0 for m in self.means[label]):
                raise ValueError("class means must lie in [0, 1]")
            if not all(v >= 0.0 for v in self.variances[label]):
                raise ValueError("variances must be non-negative")
        if not 0.0 <= self.crosstalk <= 1.0:
            raise ValueError("crosstalk must lie in [0, 1]")
        if self.drift_rate < 0.0:
            raise ValueError("drift_rate must be non-negative")

    def to_meta(self) -> dict:
        return {
            "means": {k.value: list(v) for k, v in self.means.items()},
            "variances": {k.value: list(v) for k, v in self.variances.items()},
            "drift_rate": self.drift_rate,
            "crosstalk": self.crosstalk,
            "seed": self.seed,
        }


#: Canonical class mean patterns: OPEN loads the extensor-side channels,
#: CLOSE the flexor side, RELAX sits near the noise floor everywhere.
_OPEN_MEANS = (0.62, 0.58, 0.55, 0.50, 0.12, 0.10, 0.09, 0.11)
_CLOSE_MEANS = (0.11, 0.09, 0.12, 0.10, 0.57, 0.61, 0.55, 0.52)
_RELAX_MEANS = (0.05, 0.05, 0.04, 0.06, 0.05, 0.04, 0.05, 0.05)


def make_profile(
    noise_std: float = 0.02,
    drift_rate: float = 0.0,
    crosstalk: float = 0.0,
    seed: int = 0,
) -> SignalProfile:
    """Build a subject profile from the canonical class patterns."""
    var = tuple(noise_std * noise_std for _ in range(EMG_CHANNELS))
    return SignalProfile(
        means={
            IntentLabel.OPEN: _OPEN_MEANS,
            IntentLabel.RELAX: _RELAX_MEANS,
            IntentLabel.CLOSE: _CLOSE_MEANS,
        },
        variances={label: var for label in IntentLabel},
        drift_rate=drift_rate,
        crosstalk=crosstalk,
        seed=seed,
    )


def separable_profile(seed: int = 0) -> SignalProfile:
    """Clean subject: wide class separation, no fatigue, no leakage."""
    return make_profile(noise_std=0.02, drift_rate=0.0, crosstalk=0.0, seed=seed)


#: Distortion levels beyond which the screening verdict flips to the harness
#: interface for the canonical patterns (fixed generator seeds).
DISTORTED_CROSSTALK = 0.6
DISTORTED_DRIFT_RATE = 0.06


def distorted_profile(seed: int = 0) -> SignalProfile:
    """Heavily impaired subject: leakage and fatigue past the screening level."""
    return make_profile(
        noise_std=0.05,
        drift_rate=DISTORTED_DRIFT_RATE,
        crosstalk=DISTORTED_CROSSTALK,
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
        header = {
            "schema": TRACE_SCHEMA,
            "kind": self.kind,
            "rate_hz": self.rate_hz,
            "annotations": [[t0, t1, str(label)] for t0, t1, label in self.annotations],
            "meta": dict(self.meta),
        }
        key = "emg" if self.kind == "emg" else "tension"
        encode = COMPACT_JSON.encode
        lines = [encode(header)]
        lines += [encode({"t": t, key: value}) for t, value in zip(self.t.tolist(), self.samples.tolist())]
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl())

    @staticmethod
    def from_jsonl(text: str) -> "SignalTrace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty trace file")
        header = json.loads(lines[0])
        if header.get("schema") != TRACE_SCHEMA:
            raise ValueError(f"unsupported trace schema {header.get('schema')!r}")
        kind = header["kind"]
        label_type = IntentLabel if kind == "emg" else ShoulderPosture
        annotations = tuple(
            (float(t0), float(t1), label_type(lab)) for t0, t1, lab in header["annotations"]
        )
        key = "emg" if kind == "emg" else "tension"
        rows = [json.loads(ln) for ln in lines[1:]]
        return SignalTrace(
            kind=kind,
            rate_hz=float(header["rate_hz"]),
            t=[row["t"] for row in rows],
            samples=[row[key] for row in rows],
            annotations=annotations,
            meta=header.get("meta", {}),
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
    """
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive")
    annotations = []
    t0 = 0.0
    for label, duration in segments:
        annotations.append((t0, t0 + duration, label))
        t0 += duration
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

    labels = [label for _t0, _t1, label in annotations]
    means = np.array([profile.means[label] for label in labels])[segment]
    stds = np.sqrt(np.array([profile.variances[label] for label in labels]))[segment]
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
    rest_n: float = DEFAULT_REST_TENSION_N,
    elevated_n: float = DEFAULT_ELEVATED_TENSION_N,
    depressed_n: float = DEFAULT_DEPRESSED_TENSION_N,
    ramp_s: float = 0.3,
    noise_std: float = 0.0,
    dither_amp: float = 0.0,
    dither_hz: float = 1.5,
    seed: int = 0,
) -> SignalTrace:
    """Generate a harness load-cell trace following a posture script.

    Tension ramps linearly from the previous posture level over ``ramp_s``
    (clipped to the segment length) then holds. Optional sinusoidal dither
    and gaussian noise ride on top; output is clipped at zero.
    """
    segments = _check_script(script, ShoulderPosture)
    annotations, times, segment = _timeline(segments, rate_hz)
    levels = {
        ShoulderPosture.REST: float(rest_n),
        ShoulderPosture.ELEVATED: float(elevated_n),
        ShoulderPosture.DEPRESSED: float(depressed_n),
    }
    rng = np.random.default_rng(seed)

    level = np.array([levels[posture] for _t0, _t1, posture in annotations])
    start = np.array([t0 for t0, _t1, _posture in annotations])[segment]
    ramp = np.array([min(ramp_s, t1 - t0) for t0, t1, _posture in annotations])[segment]
    prev = np.concatenate((level[:1], level[:-1]))[segment]
    tension = level[segment]
    since = times - start
    on_ramp = (ramp > 0) & (since < ramp)
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
            "levels": {"rest": levels[ShoulderPosture.REST],
                       "elevated": levels[ShoulderPosture.ELEVATED],
                       "depressed": levels[ShoulderPosture.DEPRESSED]},
            "ramp_s": ramp_s,
            "noise_std": noise_std,
            "dither_amp": dither_amp,
            "dither_hz": dither_hz,
            "seed": seed,
        },
    )
