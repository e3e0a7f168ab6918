"""Intent inferral for both control interfaces.

An intent stream is one pair of arrays, ``(t, codes)``: the time of every
decision and its code, the label's index in ``CLASS_ORDER`` (which is also
its index in ``IntentLabel``). Every stage below takes and returns that
pair, whole traces at a time.

EMG route: mean-absolute-value features over a sliding window feed a linear
discriminant classifier (per-class means, one shared regularized covariance),
and raw frame decisions pass through a majority-vote smoother. Ties at every
stage break toward RELAX, the safe state; a tied vote holds the previous
output. Calibration runs on arrays too: training data is ``(features (M, 8),
codes (M,))`` and the classifier keeps its class means as one ``(3, 8)`` array
with a row per class in CLASS_ORDER.

Shoulder-harness route: a dual-threshold detector on load-cell tension with
hysteresis. Shoulder elevation pushes tension above the close threshold,
depression drops it below the open threshold, and anything in between holds
the previous command so dither near one threshold cannot chatter. Its
thresholds come from the medians of three posture recordings, one array each.

Eligibility screening runs the EMG pipeline over six recorded conditions
(three intents, forearm on and off the table, three attempts each) and
requires a continuous 2 s correct hold on every attempt; any miss assigns
the subject to the harness interface. The report derives each pass and the
verdict from the holds; ``screening_bundle`` makes a subject's recordings.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from exobench import signals
from exobench.signals import EMG_CHANNELS, INTENT_CODE, IntentLabel, SignalTrace

#: MAV window length, seconds, and majority-vote length, decisions.
DEFAULT_WINDOW_S = 0.15
DEFAULT_VOTE_K = 5
#: Most samples in one MAV window, far above the 8 of the 50 Hz default: the
#: MAV makes one pass over the trace per window sample.
MAX_WINDOW_SAMPLES = 1024

#: Minimum continuous correct hold per screening attempt, seconds.
HOLD_REQUIREMENT_S = 2.0
ATTEMPTS_PER_CONDITION = 3
#: A screening script's attempt length and the RELAX gap before each attempt, seconds.
SCREENING_HOLD_S = 3.0
SCREENING_GAP_S = 1.0

#: The classifier's code order: OPEN, RELAX, CLOSE, the enum's own order.
CLASS_ORDER = tuple(IntentLabel)
_OPEN, _RELAX, _CLOSE = map(INTENT_CODE.get, (IntentLabel.OPEN, IntentLabel.RELAX, IntentLabel.CLOSE))

SCREENING_SCHEMA = "exobench/screening-v1"

#: Ridge on the pooled covariance, as a fraction of its mean variance.
RIDGE = 1e-3


@dataclass(frozen=True, eq=False)
class EmgClassifier:
    """Linear discriminant over MAV features with a shared covariance.

    ``means`` is ``(3, 8)``, one class centroid per row in CLASS_ORDER, and
    ``priors`` is ``(3,)`` in the same order. ``separable`` is derived: False
    when the class centroids are all equal (``np.allclose``); such a classifier
    runs but decides RELAX, the safe state, everywhere, whatever the priors.
    """

    means: np.ndarray
    covariance: np.ndarray
    priors: np.ndarray

    def __post_init__(self) -> None:
        n_classes = len(CLASS_ORDER)
        for name, shape in (("means", (n_classes, EMG_CHANNELS)),
                            ("covariance", (EMG_CHANNELS, EMG_CHANNELS)),
                            ("priors", (n_classes,))):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "separable", any(
            not np.allclose(a, b) for a, b in itertools.combinations(self.means, 2)))
        inv = np.linalg.inv(self.covariance)
        # One matrix-vector product per class: a single ``inv @ means.T``
        # takes a different float path.
        weights = [inv @ mu for mu in self.means]
        biases = [-0.5 * float(mu @ inv @ mu) + math.log(p) for mu, p in zip(self.means, self.priors)]
        object.__setattr__(self, "_weights", np.column_stack(weights))
        object.__setattr__(self, "_biases", np.array(biases))

    def _score_rows(self, features: np.ndarray) -> np.ndarray:
        """Discriminant scores for every row of an ``(N, 8)`` feature array, in CLASS_ORDER columns.

        The scores are monotone in posterior probability. One matrix product. A one-row product would take numpy's
        matrix-vector path, which rounds differently, so a single row is
        scored as two.
        """
        if len(features) == 1:
            return self._score_rows(np.repeat(features, 2, axis=0))[:1]
        return features @ self._weights + self._biases

    def _decide(self, features: np.ndarray) -> np.ndarray:
        """The decision for every row of an ``(N, 8)`` feature array, as CLASS_ORDER indices.

        The argmax of the scores; exact ties resolve toward RELAX, and a tie
        between OPEN and CLOSE alone takes OPEN, the first in CLASS_ORDER. An
        inseparable classifier decides RELAX on every row: its scores differ
        by the priors alone, which would pick the most frequent class.
        """
        if not self.separable:
            return np.full(len(features), _RELAX)
        scores = self._score_rows(features)
        best = scores == scores.max(axis=1, keepdims=True)
        return np.where(best[:, _RELAX], _RELAX, best.argmax(axis=1))


def train_classifier(labeled: tuple[np.ndarray, np.ndarray]) -> EmgClassifier:
    """Fit the shared-covariance discriminant from ``(features (M, 8), codes (M,))``.

    Codes are CLASS_ORDER indices, as ``labeled_windows`` returns them. The
    pooled within-class covariance gets a ridge of ``RIDGE * trace / 8``
    (plus a tiny absolute floor) so zero-spread training data still yields
    an invertible model.
    """
    features, codes = np.asarray(labeled[0], dtype=float), np.asarray(labeled[1])
    if features.ndim != 2 or features.shape[1] != EMG_CHANNELS or codes.shape != features.shape[:1]:
        raise ValueError(f"training data must be (M, {EMG_CHANNELS}) features and (M,) codes, "
                         f"got {features.shape} and {codes.shape}")
    by_class = [features[codes == c] for c in range(len(CLASS_ORDER))]
    missing = [label.value for label, rows in zip(CLASS_ORDER, by_class) if len(rows) == 0]
    if missing:
        raise ValueError(f"insufficient training data: no samples for {', '.join(missing)}")

    counts = np.array([len(rows) for rows in by_class])
    n_total = int(counts.sum())
    means = np.array([np.mean(rows, axis=0) for rows in by_class])
    scatter = np.zeros((EMG_CHANNELS, EMG_CHANNELS))
    for rows, mu in zip(by_class, means):
        centered = rows - mu  # one array on both sides keeps numpy's A.T @ A (syrk) path
        scatter += centered.T @ centered
    cov = scatter / max(n_total - len(CLASS_ORDER), 1)
    cov = cov + (RIDGE * np.trace(cov) / EMG_CHANNELS + 1e-9) * np.eye(EMG_CHANNELS)
    return EmgClassifier(means=means, covariance=cov, priors=counts / n_total)


def smooth_intents(codes: np.ndarray) -> np.ndarray:
    """Majority vote over the last ``DEFAULT_VOTE_K`` codes of a stream; a tie
    repeats the last output.

    Window counts come from a cumulative sum of one-hot codes. The first
    window holds one code, so it always has a single winner.
    """
    n = len(codes)
    totals = np.zeros((n + 1, len(CLASS_ORDER)), dtype=np.int64)
    np.cumsum(codes[:, None] == np.arange(len(CLASS_ORDER)), axis=0, out=totals[1:])
    counts = totals[1:] - totals[np.maximum(np.arange(n) + 1 - DEFAULT_VOTE_K, 0)]
    single = np.count_nonzero(counts == counts.max(axis=1, keepdims=True), axis=1) == 1
    last = np.maximum.accumulate(np.where(single, np.arange(n), 0))
    return counts.argmax(axis=1)[last]


def _windows(trace: SignalTrace) -> tuple[np.ndarray, int]:
    """Trailing ``DEFAULT_WINDOW_S`` MAV of every frame, and the window length in samples.

    Window offsets are added oldest first onto zero padding, the float order
    of a mean over one window slice. A window over ``MAX_WINDOW_SAMPLES``
    samples is an error, raised before allocating.
    """
    if trace.kind != "emg":
        raise ValueError("EMG trace required")
    n = len(trace.samples)
    win = max(1, int(round(DEFAULT_WINDOW_S * trace.rate_hz)))
    if win > MAX_WINDOW_SAMPLES:
        raise ValueError(f"a {DEFAULT_WINDOW_S!r} s window at {trace.rate_hz!r} Hz would exceed "
                         f"MAX_WINDOW_SAMPLES = {MAX_WINDOW_SAMPLES} samples")
    padded = np.zeros((n + win - 1, EMG_CHANNELS))
    padded[win - 1:] = np.abs(trace.samples)
    total = padded[:n].copy()
    for offset in range(1, win):
        total += padded[offset:offset + n]
    return total / np.minimum(np.arange(1, n + 1), win)[:, None], win


def labeled_windows(trace: SignalTrace) -> tuple[np.ndarray, np.ndarray]:
    """``(features (M, 8), codes (M,))`` for every frame whose full window sits
    inside one annotation. Only here are frames labelled: a code is the CLASS_ORDER
    index of the ground truth at both ends of the window, when the two agree."""
    mav, win = _windows(trace)
    codes = np.array([INTENT_CODE[label] for _t0, _t1, label in trace.annotations] + [-1])
    truth = codes[trace.annotation_index(trace.t)]
    first, last = truth[:max(len(truth) - win + 1, 0)], truth[win - 1:]
    keep = np.flatnonzero((first == last) & (last >= 0)) + (win - 1)
    return mav[keep], truth[keep]


def classify_trace(classifier: EmgClassifier, trace: SignalTrace) -> tuple[np.ndarray, np.ndarray]:
    """Raw per-frame decisions over a trace, using trailing (possibly partial) windows.

    Returns the stream ``(trace.t, codes)``; no frame is labelled.
    """
    return trace.t, classifier._decide(_windows(trace)[0])


def trace_accuracy(classifier: EmgClassifier, trace: SignalTrace) -> float:
    """Fraction of ``labeled_windows``' frames whose raw decision matches ground truth."""
    features, codes = labeled_windows(trace)
    if len(codes) == 0:
        raise ValueError("trace has no scoreable frames")
    return int(np.count_nonzero(classifier._decide(features) == codes)) / len(codes)


# ---------------------------------------------------------------------------
# Shoulder-harness detector


@dataclass(frozen=True)
class ShConfig:
    """Dual tension thresholds for the harness detector, newtons."""

    t_open: float
    t_close: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_open) and math.isfinite(self.t_close)):
            raise ValueError("thresholds must be finite")
        if not self.t_open < self.t_close:
            raise ValueError("t_open must be strictly below t_close")


def calibrate_sh(rest: np.ndarray, shrug: np.ndarray, depress: np.ndarray) -> ShConfig:
    """Thresholds from per-posture tension recordings, one array each.

    t_close is the midpoint of the rest and shrug medians, t_open the midpoint
    of the depress and rest medians; an even-length median is the midpoint of
    the two middle values. The posture medians must be strictly ordered
    (depress < rest < shrug) or the harness is uncalibratable.
    """
    if 0 in (len(rest), len(shrug), len(depress)):
        raise ValueError("uncalibratable harness: empty posture recording")
    # The middle one or two sorted values; np.median would also import numpy.ma.
    med_rest, med_shrug, med_depress = (
        float(np.sort(x)[(len(x) - 1) // 2:len(x) // 2 + 1].mean()) for x in (rest, shrug, depress))
    if not med_depress < med_rest < med_shrug:
        raise ValueError(
            "uncalibratable harness: posture medians not ordered "
            f"(depress {med_depress:.3g}, rest {med_rest:.3g}, shrug {med_shrug:.3g})"
        )
    return ShConfig(t_open=(med_depress + med_rest) / 2.0, t_close=(med_rest + med_shrug) / 2.0)


def detect_trace(config: ShConfig, trace: SignalTrace) -> tuple[np.ndarray, np.ndarray]:
    """The hysteresis rule over a load trace: the stream ``(trace.t, codes)``.

    A tension at or above t_close commands CLOSE, one at or below t_open
    commands OPEN, and any other value (NaN too) holds the previous command,
    so each sample takes the code of the last crossing. The stream starts at
    RELAX, before any crossing.
    """
    tension = trace.samples
    crossing = np.select([tension >= config.t_close, tension <= config.t_open],
                         [_CLOSE, _OPEN], -1)
    last = np.maximum.accumulate(np.where(crossing >= 0, np.arange(len(tension)), -1))
    return trace.t, np.where(last >= 0, crossing[last], _RELAX)


# ---------------------------------------------------------------------------
# Eligibility screening

OFF_TABLE = "off_table"

#: Each screening condition's intent and whether the forearm is off the table, in protocol order.
_CONDITIONS = {f"{intent.value}_{support}": (intent, support == OFF_TABLE)
               for support in ("on_table", OFF_TABLE) for intent in CLASS_ORDER}
SCREENING_CONDITIONS = tuple(_CONDITIONS)


@dataclass(frozen=True)
class ConditionResult:
    condition: str
    attempt_holds_s: tuple[float, ...]

    @property
    def passed(self) -> bool:
        """Every attempt's longest correct hold passes."""
        return all(attempt_passes(h) for h in self.attempt_holds_s)


@dataclass(frozen=True)
class ScreeningReport:
    """Outcome of the six-condition control screening: EMG when every condition passes, else SH."""

    conditions: tuple[ConditionResult, ...]

    @property
    def verdict(self) -> str:
        return "EMG" if all(c.passed for c in self.conditions) else "SH"

    def to_json(self) -> str:
        doc = {
            "schema": SCREENING_SCHEMA,
            "hold_requirement_s": HOLD_REQUIREMENT_S,
            "conditions": {
                c.condition: {"passed": c.passed, "attempt_holds_s": list(c.attempt_holds_s)}
                for c in self.conditions
            },
            "verdict": self.verdict,
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"{c.condition:<16} {'pass' if c.passed else 'FAIL':<5} holds [s]: "
                 + ", ".join(f"{h:.2f}" for h in c.attempt_holds_s) for c in self.conditions]
        return "\n".join(lines + [f"verdict: {self.verdict}"]) + "\n"


def max_hold_runs(
    decisions: tuple[np.ndarray, np.ndarray],
    rate_hz: float,
    attempts: Sequence[tuple[float, float]],
    intent: IntentLabel,
) -> list[float]:
    """Longest continuous correct run inside each attempt interval, seconds.

    ``decisions`` is a ``(t, codes)`` stream. Frames outside an attempt are
    skipped, not counted as misses. Each decision frame counts for one sample
    period, so n consecutive correct frames hold for n / rate_hz seconds.
    """
    t, codes = decisions
    correct = codes == INTENT_CODE[intent]
    holds = []
    for t0, t1 in attempts:
        # Pad with misses so that every run has a start and an end edge.
        edges = np.diff(np.concatenate(([0], correct[(t0 <= t) & (t < t1)], [0])).astype(np.int8))
        runs = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
        holds.append(int(runs.max(initial=0)) / rate_hz)
    return holds


def attempt_passes(hold_s: float) -> bool:
    """Strict 2 s boundary: a 1.9 s hold fails, a 2.0 s hold passes."""
    return hold_s >= HOLD_REQUIREMENT_S


def screen_emg_eligibility(
    traces: Mapping[str, SignalTrace],
    classifier: EmgClassifier,
) -> ScreeningReport:
    """Run the screening pipeline and issue the interface verdict.

    ``traces`` maps each condition name in SCREENING_CONDITIONS to an EMG
    trace whose annotation intervals for the condition's intent mark the
    three attempts. The verdict is EMG only if every attempt of every
    condition holds the correct smoothed decision for at least 2 s.
    """
    missing = [c for c in SCREENING_CONDITIONS if c not in traces]
    if missing:
        raise ValueError(f"missing screening conditions: {', '.join(missing)}")

    results = []
    for condition, (intent, _off_table) in _CONDITIONS.items():
        trace = traces[condition]
        attempts = [(t0, t1) for t0, t1, label in trace.annotations if label is intent]
        if len(attempts) != ATTEMPTS_PER_CONDITION:
            raise ValueError(f"condition {condition} must contain {ATTEMPTS_PER_CONDITION} "
                             f"attempts, found {len(attempts)}")
        t, raw = classify_trace(classifier, trace)
        holds = max_hold_runs((t, smooth_intents(raw)), trace.rate_hz, attempts, intent)
        results.append(ConditionResult(condition, tuple(holds)))
    return ScreeningReport(tuple(results))


def screening_script(intent: IntentLabel):
    """Intent script for one screening condition: three annotated attempts.

    RELAX attempts need no inter-attempt gap; the generator keeps consecutive
    same-label segments as distinct annotation intervals.
    """
    if intent is IntentLabel.RELAX:
        return [(intent, SCREENING_HOLD_S)] * ATTEMPTS_PER_CONDITION
    script: list[tuple[IntentLabel, float]] = []
    for _ in range(ATTEMPTS_PER_CONDITION):
        script.append((IntentLabel.RELAX, SCREENING_GAP_S))
        script.append((intent, SCREENING_HOLD_S))
    return script


def screening_bundle(subject) -> dict[str, SignalTrace]:
    """``subject``'s screening recordings: ``"train"`` (each intent held 4 s), then each
    of SCREENING_CONDITIONS; each draws from its own RNG context, ``"screen:<name>"``."""
    train_script = [(label, 4.0) for label in CLASS_ORDER]
    bundle = {"train": signals.gen_emg_trace(subject.emg_profile("screen:train"), train_script)}
    for condition, (intent, off_table) in _CONDITIONS.items():
        profile = subject.emg_profile(f"screen:{condition}", off_table=off_table)
        bundle[condition] = signals.gen_emg_trace(profile, screening_script(intent))
    return bundle
