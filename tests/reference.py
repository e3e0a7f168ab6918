"""Scalar references that the array code in ``exobench`` must match.

Each function here is the one-sample or one-tick loop that the package once
ran, kept so that property tests can check the array paths against it bit
for bit. Nothing in ``src/`` imports this module.

- Controller: the proportional step, motor, plant and setpoint primitives of
  one tick, on a motor record that also keeps the last effort and tension;
  and an intent stream's label at every tick and the held-command changes
  read from those labels, which the engine's per-event schedule must match.
- Episode summaries: the time to open and the motor direction reversals,
  read from a recorded trajectory's columns, which ROADMAP item 1a's
  online summaries are to match.
- LDA: the fit from a list of labeled feature vectors, whether its
  centroids are separable, pair by pair, and the feature vector, per-class
  scores and decision of one window.
- Intent streams: the per-label vote smoother, the per-sample hysteresis
  detector and the per-frame hold-run scan, on ``(t, IntentLabel)`` events.
- Signals: the ground-truth label at one time, and the trace JSONL writer
  that encodes one line at a time.
- Statistics: the exact Wilcoxon signed-rank p as a Fraction, built from the
  ranks and sign-flip count that ``wilcoxon_signed_rank``'s exact branch uses.
"""

from __future__ import annotations

import copy
import json
import math
from collections import Counter, deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from exobench import controller
from exobench.controller import (
    _DEG2RAD,
    CONTROL_DT_S,
    KP,
    MAX_SPEED_MM_S,
    MOTOR_TIME_CONSTANT_S,
    SETPOINT_TOL_MM,
    TENSION_CAP_N,
    TRAVEL_MM,
    HandPlant,
    RomCalibration,
    TrajectoryLog,
)
from exobench.intent import CLASS_ORDER, DEFAULT_VOTE_K, RIDGE, EmgClassifier, ShConfig
from exobench.outcomes.stats import _average_ranks, _exact_signed_rank_p
from exobench.signals import EMG_CHANNELS, TRACE_SCHEMA, IntentLabel, SignalTrace

# ---------------------------------------------------------------------------
# Intent streams as (t, IntentLabel) events


def stream(events: Iterable[tuple[float, IntentLabel]]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(t, codes)`` arrays of ``(t, label)`` events, in the given order."""
    events = list(events)
    t = np.array([t for t, _label in events], dtype=float)
    codes = np.array([CLASS_ORDER.index(label) for _t, label in events], dtype=np.int64)
    return t, codes


def events(intents: tuple[np.ndarray, np.ndarray]) -> list[tuple[float, IntentLabel]]:
    """The ``(t, label)`` events of a ``(t, codes)`` stream, in its order."""
    t, codes = intents
    return [(float(ti), CLASS_ORDER[int(c)]) for ti, c in zip(t, codes)]


# ---------------------------------------------------------------------------
# Controller primitives


@dataclass(frozen=True)
class MotorRecord:
    """The motor as the scalar loop carries it: the engine's state plus the
    last effort and the cable tension."""

    excursion_mm: float
    velocity_mm_s: float = 0.0
    effort: float = 0.0
    tension_n: float = 0.0


def proportional_step(setpoint: float, measured: float) -> float:
    """One saturated proportional update: KP times the error, clipped to [-1, 1]."""
    return min(max(KP * (setpoint - measured), -1.0), 1.0)


def step_plant(
    plant: HandPlant,
    motor: MotorRecord,
    voluntary_nmm: float = 0.0,
) -> tuple[HandPlant, MotorRecord]:
    """Advance the finger plant one ``CONTROL_DT_S`` tick under the current cable excursion.

    Per digit, cable stretch is take-up minus paid-out excursion; positive
    stretch makes tension through the series cable stiffness. Total tension
    is capped at the force limit and redistributed pro rata. Per joint:
    torque = -tension * moment arm + stiffness * (rest - angle) + voluntary,
    first-order rate = torque / damping, then integrate and clamp to
    [0, max] (hyperextension block at zero, flexion stop at max). The
    shared hand constants are read from ``controller`` on each call, so a
    test may patch them.
    """
    take_up = plant.cable_take_up_mm()
    stretch = take_up - motor.excursion_mm
    tension = controller.TENDON_STIFFNESS_N_MM * np.maximum(stretch, 0.0)
    total = float(tension.sum())
    cap = TENSION_CAP_N
    if total > cap:
        tension *= cap / total
        total = cap

    torque = (
        -tension[:, None] * plant.moment_arm_mm
        + plant.stiffness_nmm_deg * (controller.REST_DEG - plant.angles_deg)
        + voluntary_nmm
    )
    rate = torque / controller.DAMPING_NMM_S_DEG
    angles = np.clip(plant.angles_deg + rate * CONTROL_DT_S, 0.0, controller.MAX_DEG)
    # The plant was validated when it was built; like the engine, the loop
    # does not check it again on every tick.
    stepped = copy.copy(plant)
    object.__setattr__(stepped, "angles_deg", angles)
    return stepped, replace(motor, tension_n=total)


def step_motor(motor: MotorRecord, effort: float) -> MotorRecord:
    """One tick of first-order velocity response toward effort * max speed, travel-limited."""
    dt = CONTROL_DT_S
    target = effort * MAX_SPEED_MM_S
    velocity = motor.velocity_mm_s + (target - motor.velocity_mm_s) * dt / MOTOR_TIME_CONSTANT_S
    excursion = motor.excursion_mm + velocity * dt
    if excursion < 0.0:
        excursion, velocity = 0.0, 0.0
    elif excursion > TRAVEL_MM:
        excursion, velocity = TRAVEL_MM, 0.0
    return replace(motor, excursion_mm=excursion, velocity_mm_s=velocity, effort=effort)


def passive_energy(plant: HandPlant, motor: MotorRecord) -> float:
    """Lyapunov functional for the passive plant (fixed excursion, no inputs).

    Joint-tone term plus cable-stretch term in consistent units; first-order
    damped dynamics descend this function, which the passivity test checks.
    """
    tone = 0.5 * plant.stiffness_nmm_deg * (plant.angles_deg - controller.REST_DEG) ** 2
    stretch = np.maximum(plant.cable_take_up_mm() - motor.excursion_mm, 0.0)
    cable = 0.5 * controller.TENDON_STIFFNESS_N_MM * stretch**2 / _DEG2RAD
    return float(tone.sum() + cable.sum())


@dataclass(frozen=True)
class ControllerState:
    fsm: str = "IDLE"
    setpoint_mm: float | None = None


def select_setpoint(
    intent: IntentLabel,
    state: ControllerState,
    rom: RomCalibration,
) -> ControllerState:
    """Map an intent to a setpoint: OPEN retracts, CLOSE extends, RELAX holds."""
    if intent is IntentLabel.OPEN:
        if state.setpoint_mm != rom.retracted_mm:
            return replace(state, fsm="EXTENDING", setpoint_mm=rom.retracted_mm)
        return state
    if intent is IntentLabel.CLOSE:
        if state.setpoint_mm != rom.extended_mm:
            return replace(state, fsm="RELEASING", setpoint_mm=rom.extended_mm)
        return state
    return state  # RELAX: hold whatever was commanded


def settle_fsm(state: ControllerState, motor: MotorRecord, rom: RomCalibration) -> ControllerState:
    if state.setpoint_mm is None:
        return state
    if abs(motor.excursion_mm - state.setpoint_mm) <= SETPOINT_TOL_MM:
        if state.setpoint_mm == rom.retracted_mm and state.fsm == "EXTENDING":
            return replace(state, fsm="HOLD_OPEN")
        if state.setpoint_mm == rom.extended_mm and state.fsm == "RELEASING":
            return replace(state, fsm="HOLD_CLOSED")
    return state


def tick_commands(intents: tuple[np.ndarray, np.ndarray],
                  n_ticks: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each of ``n_ticks`` ticks' label, the latest event's with timestamp <=
    the tick's time (RELAX before the first), events at one time in stream
    order; and the ticks and codes where the held command, the latest OPEN or
    CLOSE label so far, changes."""
    relax = CLASS_ORDER.index(IntentLabel.RELAX)
    event_t, event_codes = intents
    order = np.argsort(event_t, kind="stable")
    times = np.concatenate(([-math.inf], event_t[order]))
    codes = np.concatenate(([relax], event_codes[order])).astype(np.int8)
    labels = codes[np.searchsorted(times, np.arange(n_ticks) * CONTROL_DT_S, side="right") - 1]
    changes, held = [], relax
    for tick, label in enumerate(labels.tolist()):
        if label not in (relax, held):
            changes.append(tick)
            held = label
    return labels, np.array(changes, dtype=int), labels[changes]


# ---------------------------------------------------------------------------
# Episode summaries over recorded columns

#: Degrees of residual flexion below which a digit counts as open.
OPEN_THRESHOLD_DEG = 5.0


def count_direction_reversals(log: TrajectoryLog, min_speed_mm_s: float = 0.5) -> int:
    """Number of motor direction flips, ignoring speeds below the dead band.

    A speed outside the band that is not positive (zero or NaN) counts as
    the reverse direction.
    """
    v = log.ticks.velocity_mm_s
    forward = v[~(np.abs(v) < min_speed_mm_s)] > 0.0
    return int(np.count_nonzero(forward[1:] != forward[:-1]))


def time_to_open(log: TrajectoryLog, threshold_deg: float = OPEN_THRESHOLD_DEG) -> float | None:
    """First time every joint is below the open threshold, if reached.

    A tick with a NaN joint angle never counts as open.
    """
    opened = np.flatnonzero((log.ticks.angles_deg < threshold_deg).all(axis=1))
    return float(log.ticks.t[opened[0]]) if len(opened) else None


# ---------------------------------------------------------------------------
# LDA on one window


def extract_features(window) -> np.ndarray:
    """Mean absolute value per channel over a ``(w, 8)`` window of EMG samples."""
    if len(window) == 0:
        raise ValueError("feature window must contain at least one frame")
    return np.abs(np.asarray(window, dtype=float)).mean(axis=0)


def fit_lda(labeled_features: Sequence[tuple[np.ndarray, IntentLabel]]):
    """The shared-covariance fit, one feature vector at a time.

    Returns (class means by label, covariance, priors by label, separable).
    """
    by_class: dict[IntentLabel, list[np.ndarray]] = {label: [] for label in CLASS_ORDER}
    for features, label in labeled_features:
        by_class[label].append(np.asarray(features, dtype=float))
    n_total = sum(len(v) for v in by_class.values())
    means = {label: np.mean(np.asarray(v), axis=0) for label, v in by_class.items()}
    scatter = np.zeros((EMG_CHANNELS, EMG_CHANNELS))
    for label, vectors in by_class.items():
        centered = np.asarray(vectors) - means[label]
        scatter += centered.T @ centered
    dof = max(n_total - len(CLASS_ORDER), 1)
    cov = scatter / dof
    reg = RIDGE * np.trace(cov) / EMG_CHANNELS + 1e-9
    cov = cov + reg * np.eye(EMG_CHANNELS)
    priors = {label: len(by_class[label]) / n_total for label in CLASS_ORDER}
    return means, cov, priors, separable([means[label] for label in CLASS_ORDER])


def separable(means: Sequence[np.ndarray]) -> bool:
    """Whether some pair of class centroids, in ``CLASS_ORDER``, is not
    ``np.allclose``: one call per pair."""
    return any(not np.allclose(means[i], means[j])
               for i in range(len(means)) for j in range(i + 1, len(means)))


def scores(classifier: EmgClassifier, features: np.ndarray) -> dict[IntentLabel, float]:
    """Per-class discriminant scores of one feature vector (monotone in posterior
    probability), from the classifier's means, covariance and priors."""
    f = np.asarray(features, dtype=float)
    if f.shape != (EMG_CHANNELS,):
        raise ValueError("feature vector must have 8 components")
    if not np.all(np.isfinite(f)):
        raise ValueError("feature vector contains non-finite values")
    inv = np.linalg.inv(classifier.covariance)
    out = {}
    for label, mu, prior in zip(CLASS_ORDER, classifier.means, classifier.priors):
        w = inv @ mu
        b = -0.5 * float(mu @ inv @ mu) + math.log(prior)
        out[label] = float(w @ f) + b
    return out


def classify(classifier: EmgClassifier, features: np.ndarray) -> IntentLabel:
    """Argmax over discriminant scores; exact ties resolve toward RELAX, and an
    inseparable classifier decides RELAX everywhere."""
    by_label = scores(classifier, features)
    if not classifier.separable:
        return IntentLabel.RELAX
    best = max(by_label.values())
    tied = [label for label in CLASS_ORDER if by_label[label] == best]
    if IntentLabel.RELAX in tied:
        return IntentLabel.RELAX
    return tied[0]


# ---------------------------------------------------------------------------
# Vote smoother, hysteresis detector and hold runs, one label at a time


class IntentSmoother:
    """Majority vote over the last k raw decisions; ties hold the previous output."""

    def __init__(self, k: int = DEFAULT_VOTE_K):
        if k < 1:
            raise ValueError("vote window k must be >= 1")
        self.k = k
        self._window: deque[IntentLabel] = deque(maxlen=k)
        self._last: IntentLabel | None = None

    def push(self, label: IntentLabel) -> IntentLabel:
        self._window.append(label)
        counts = Counter(self._window)
        top = max(counts.values())
        winners = [lab for lab, c in counts.items() if c == top]
        if len(winners) == 1:
            self._last = winners[0]
        elif self._last is None:
            # Tie before any emission: fall back to the safe state.
            self._last = IntentLabel.RELAX if IntentLabel.RELAX in winners else winners[0]
        return self._last


def smooth_intents(labels: Iterable[IntentLabel], k: int = DEFAULT_VOTE_K) -> list[IntentLabel]:
    """Apply majority-vote smoothing to a label stream. k=1 is the identity."""
    smoother = IntentSmoother(k)
    return [smoother.push(label) for label in labels]


def sh_detect(tension: float, config: ShConfig, prev: IntentLabel) -> IntentLabel:
    """Hysteresis rule: >= t_close commands CLOSE, <= t_open commands OPEN,
    the dead band in between holds the previous command."""
    if tension >= config.t_close:
        return IntentLabel.CLOSE
    if tension <= config.t_open:
        return IntentLabel.OPEN
    return prev


class ShDetector:
    """Stateful wrapper around sh_detect; starts in RELAX (no command yet)."""

    def __init__(self, config: ShConfig, initial: IntentLabel = IntentLabel.RELAX):
        self.config = config
        self.state = initial

    def push(self, tension: float) -> IntentLabel:
        self.state = sh_detect(tension, self.config, self.state)
        return self.state


def detect_trace(config: ShConfig, trace: SignalTrace) -> list[tuple[float, IntentLabel]]:
    detector = ShDetector(config)
    return [
        (t, detector.push(tension)) for t, tension in zip(trace.t.tolist(), trace.samples.tolist())
    ]


def max_hold_runs(
    decisions: Sequence[tuple[float, IntentLabel]],
    rate_hz: float,
    attempts: Sequence[tuple[float, float]],
    intent: IntentLabel,
) -> list[float]:
    """Longest continuous correct run inside each attempt interval, seconds.

    Each decision frame counts for one sample period, so n consecutive
    correct frames hold for n / rate_hz seconds.
    """
    holds = []
    for t0, t1 in attempts:
        best = 0
        run = 0
        for t, label in decisions:
            if not t0 <= t < t1:
                continue
            if label is intent:
                run += 1
                best = max(best, run)
            else:
                run = 0
        holds.append(best / rate_hz)
    return holds


# ---------------------------------------------------------------------------
# Ground truth at one time


def label_at(trace: SignalTrace, t: float):
    """Ground-truth label at time t, or None between annotations."""
    k = int(trace.annotation_index(t))
    return None if k < 0 else trace.annotations[k][2]


# ---------------------------------------------------------------------------
# Trace JSONL, one line at a time


def trace_jsonl(trace: SignalTrace) -> str:
    """The trace's JSONL text: the header, then one ``json`` encode per sample."""
    def dumps(doc):
        return json.dumps(doc, separators=(",", ":"))

    header = {
        "schema": TRACE_SCHEMA,
        "kind": trace.kind,
        "rate_hz": trace.rate_hz,
        "annotations": [[t0, t1, str(label)] for t0, t1, label in trace.annotations],
        "meta": dict(trace.meta),
    }
    key = "emg" if trace.kind == "emg" else "tension"
    lines = [dumps(header)]
    lines += [dumps({"t": t, key: value}) for t, value in zip(trace.t.tolist(), trace.samples.tolist())]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Statistics


def exact_wilcoxon_p(diffs: Sequence[float]) -> Fraction:
    """Exact two-sided Wilcoxon signed-rank p as a Fraction (zeros dropped),
    for rational checks of the exact branch."""
    d = [float(v) for v in diffs if v != 0.0]
    if not d:
        raise ValueError("degenerate differences: all pairs are ties")
    return _exact_signed_rank_p(_average_ranks([abs(v) for v in d]), d)
