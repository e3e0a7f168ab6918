"""Training protocol: the task duration model, calibration and the session runner.

The task inventory and the session plans are in ``tasks``, which imports no
numpy. This module imports the inventory names that it uses and the two
plan builders that the bench's workloads read through it, so
``protocol.build_protocol``, ``protocol.build_session_plans`` and
``protocol.TOTAL_SESSIONS`` resolve here too. Each session counts 30
minutes of active practice, where active time excludes setup, calibration,
rests, and device adjustments. The session stops after the task during
which the active-time budget is reached; if the protocol finishes early the
remainder is free training, logged as a single aggregate event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from exobench import TOTAL_SESSIONS, controller, intent as intent_mod, signals
from exobench.signals import IntentLabel, ShoulderPosture
from exobench.subject import Subject, derive_seed
# The inventory names the runner uses, and the plan builders that the bench's
# workloads reach through this module.
from exobench.tasks import (
    ProtocolPhase,
    SessionPlan,
    Support,
    TrainingTask,
    build_protocol,
    build_session_plans,
)

SESSION_SCHEMA = "exobench/session-v1"

#: Harness load-cell noise (standard deviation, N) on every simulated
#: trace; the posture levels are ``gen_load_trace``'s defaults.
SH_NOISE_N = 0.6


# ---------------------------------------------------------------------------
# Task duration model

#: Nominal seconds per repetition by phase.
_PHASE_REP_S = {
    ProtocolPhase.REPETITIVE_DRILL: 12.0,
    ProtocolPhase.TRAY: 40.0,
    ProtocolPhase.IRREGULAR: 15.0,
    ProtocolPhase.BIMANUAL: 45.0,
}

_LOGNORMAL_SIGMA = 0.22

#: The longest a task may last, in active seconds: one day. A session counts
#: 30 minutes, and the bench's slowest subjects draw tasks well under 1,000 s,
#: so a longer task comes only from a huge finite ``duration_scale``, which
#: would otherwise write a 200-digit active time to the session log.
MAX_TASK_S = 86_400.0


def task_duration(subject: Subject, session_index: int, task: TrainingTask) -> float:
    """Active seconds of a task in a session: a seeded lognormal draw around
    the phase's nominal time. A huge ``duration_scale`` that overflows it, or
    makes it longer than ``MAX_TASK_S``, is an error."""
    rng = np.random.default_rng(derive_seed(subject.seed, f"duration:{session_index}:{task.task_id}"))
    nominal = _PHASE_REP_S[task.phase] * task.repetitions * subject.duration_scale
    duration = float(nominal * rng.lognormal(mean=0.0, sigma=_LOGNORMAL_SIGMA))
    if not math.isfinite(duration):
        raise ValueError(f"duration_scale {subject.duration_scale!r} makes task {task.task_id} "
                         f"of session {session_index} last {duration!r} s")
    if duration > MAX_TASK_S:
        raise ValueError(f"duration_scale {subject.duration_scale!r} makes task {task.task_id} "
                         f"of session {session_index} last {duration:.3g} s, "
                         f"over MAX_TASK_S = {MAX_TASK_S:g} s")
    return duration


# ---------------------------------------------------------------------------
# Per-session calibration

SETUP_S = 900.0      # donning the glove and components
DOFFING_S = 60.0
CALIBRATION_S = 120.0
BREAK_S = 90.0
_BREAK_PROBABILITY = 0.12


class CalibrationError(ValueError):
    """A session's calibration recordings cannot set up its intent interface."""


@dataclass(frozen=True)
class CalibrationBundle:
    """Everything refreshed at the start of a session."""

    rom: controller.RomCalibration
    thumb_extension_n: float
    thumb_abduction_n: float
    sh_config: intent_mod.ShConfig | None = None
    classifier: intent_mod.EmgClassifier | None = None


def session_calibration(subject: Subject, session_index: int) -> CalibrationBundle:
    """Fresh per-session calibration: ROM plus the group's intent interface.

    EMG-group subjects get a classifier trained on a fresh recording;
    harness subjects get thresholds from posture recordings. Deterministic
    for a given subject seed and session index.
    """
    rom = controller.calibrate_rom(subject.hand_size)
    rng = np.random.default_rng(derive_seed(subject.seed, f"thumb:{session_index}"))
    thumb_extension = float(rng.uniform(8.0, 14.0))
    thumb_abduction = float(rng.uniform(4.0, 8.0))

    if subject.group == "EMG":
        profile = subject.emg_profile(f"calibration:{session_index}")
        trace = signals.gen_emg_trace(profile, list(_CALIBRATION_SCRIPT))
        try:
            clf = intent_mod.train_classifier(intent_mod.labeled_windows(trace))
        except ValueError as exc:
            raise CalibrationError(f"classifier calibration failed: {exc}") from exc
        return CalibrationBundle(rom=rom, thumb_extension_n=thumb_extension,
                                 thumb_abduction_n=thumb_abduction, classifier=clf)

    seed = derive_seed(subject.seed, f"sh_calibration:{session_index}")
    rest, shrug, depress = (
        signals.gen_load_trace([(posture, 3.0)], noise_std=SH_NOISE_N, seed=seed + i).samples
        for i, posture in enumerate((ShoulderPosture.REST, ShoulderPosture.ELEVATED,
                                     ShoulderPosture.DEPRESSED)))
    try:
        sh = intent_mod.calibrate_sh(rest=rest, shrug=shrug, depress=depress)
    except ValueError as exc:
        raise CalibrationError(str(exc)) from exc
    return CalibrationBundle(rom=rom, thumb_extension_n=thumb_extension,
                             thumb_abduction_n=thumb_abduction, sh_config=sh)


# ---------------------------------------------------------------------------
# Session runner


@dataclass(frozen=True)
class SessionEvent:
    t_s: float                  # session wall clock, seconds from arrival
    kind: str
    detail: Mapping

    def to_doc(self) -> dict:
        return {"t": self.t_s, "kind": self.kind, **dict(self.detail)}


@dataclass
class SessionLog:
    """One session's record; its header's subject, index and date are its plan's."""

    plan: SessionPlan
    events: list[SessionEvent] = field(default_factory=list)
    active_s: float = 0.0
    last_completed_task: str | None = None
    overflow: bool = False
    free_training_s: float = 0.0

    def to_jsonl(self) -> str:
        header = {
            "schema": SESSION_SCHEMA,
            "subject_id": self.plan.subject_id,
            "session_index": self.plan.session_index,
            "date": self.plan.session_date.isoformat(),
            "active_s": self.active_s,
            "last_completed_task": self.last_completed_task,
            "overflow": self.overflow,
            "free_training_s": self.free_training_s,
        }
        encode = signals.COMPACT_JSON.encode
        lines = [encode(header)]
        lines += [encode(e.to_doc()) for e in self.events]
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl())


#: The EMG calibration recording: each class held for 4 s, and each command
#: followed by 1 s of RELAX.
_CALIBRATION_SCRIPT = ((IntentLabel.OPEN, 4.0), (IntentLabel.RELAX, 1.0), (IntentLabel.RELAX, 4.0),
                       (IntentLabel.CLOSE, 4.0), (IntentLabel.RELAX, 1.0))

_GRASP_SCRIPT = ((IntentLabel.OPEN, 1.5), (IntentLabel.CLOSE, 1.5),
                 (IntentLabel.RELAX, 1.0), (IntentLabel.OPEN, 1.5))

_SH_TASK_SCRIPT = (
    (ShoulderPosture.REST, 0.5),
    (ShoulderPosture.DEPRESSED, 1.0),   # depression opens the hand
    (ShoulderPosture.REST, 0.5),
    (ShoulderPosture.ELEVATED, 1.0),    # elevation closes it
    (ShoulderPosture.REST, 0.5),
    (ShoulderPosture.DEPRESSED, 1.0),
)


def task_intent_stream(
    subject: Subject,
    bundle: CalibrationBundle,
    session_index: int,
    task: TrainingTask,
) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """One representative grasp-release cycle through the group's interface.

    Returns the ``(t, codes)`` intent stream and the cycle's duration; an
    unsupported EMG task draws from the off-table profile.
    """
    context = f"task:{session_index}:{task.task_id}"
    if subject.group == "EMG":
        profile = subject.emg_profile(context, off_table=task.support is Support.UNSUPPORTED)
        trace = signals.gen_emg_trace(profile, list(_GRASP_SCRIPT))
        t, raw = intent_mod.classify_trace(bundle.classifier, trace)
        return (t, intent_mod.smooth_intents(raw)), trace.duration_s
    trace = signals.gen_load_trace(list(_SH_TASK_SCRIPT), noise_std=SH_NOISE_N,
                                   seed=derive_seed(subject.seed, context))
    return intent_mod.detect_trace(bundle.sh_config, trace), trace.duration_s


def run_session(plan: SessionPlan, subject: Subject) -> SessionLog:
    """Execute one session: calibration, ordered tasks, budget accounting.

    Each task runs one controller episode (a grasp-release cycle through
    the subject's intent interface); the session's episodes run together in
    one unrecorded ``controller.run_episodes`` call, which may start an
    input in a state an earlier unrecorded call reached (see
    ``controller._resume``). A safety abort is logged as a device
    adjustment and the task resumes.
    Active time comes from the duration model. The session ends after the
    task during which the active budget is reached (overflow flag set), or,
    when the protocol finishes early, with one aggregate free-training event
    covering the remainder.
    """
    log = SessionLog(plan)
    rng = np.random.default_rng(derive_seed(subject.seed, f"session:{plan.session_index}"))

    wall = 0.0
    log.events.append(SessionEvent(wall, "setup", {"duration_s": SETUP_S,
                                                   "arm_support": subject.uses_arm_support}))
    wall += SETUP_S
    bundle = session_calibration(subject, plan.session_index)
    detail: dict = {"duration_s": CALIBRATION_S, "interface": subject.group,
                    "rom_mm": [bundle.rom.retracted_mm, bundle.rom.extended_mm],
                    "thumb_n": [bundle.thumb_extension_n, bundle.thumb_abduction_n]}
    if bundle.sh_config is not None:
        detail["thresholds_n"] = [bundle.sh_config.t_open, bundle.sh_config.t_close]
    log.events.append(SessionEvent(wall, "calibration", detail))
    wall += CALIBRATION_S

    plant = controller.default_plant(subject.hand_size,
                                     controller.MAS_STIFFNESS[subject.mas])

    # The duration model alone decides which tasks run and the outcome: the
    # session stops after the task during which the active budget is reached.
    durations: list[float] = []
    for task in plan.tasks:
        durations.append(task_duration(subject, plan.session_index, task))
        log.active_s += durations[-1]
        if log.active_s >= plan.active_budget_s:
            log.overflow = True
            break
    tasks = plan.tasks[:len(durations)]

    episodes = []
    for task in tasks:
        intents, duration_s = task_intent_stream(subject, bundle, plan.session_index, task)
        episodes.append(controller.Episode(intents, duration_s, rom=bundle.rom, plant=plant))
    outcomes = controller.run_episodes(episodes, record=False)

    last = len(tasks) - 1
    for n, (task, task_s, outcome) in enumerate(zip(tasks, durations, outcomes)):
        log.events.append(SessionEvent(wall, "task_start", {"task": task.task_id}))
        if outcome.abort is not None:
            log.events.append(SessionEvent(wall, "adjustment",
                                           {"task": task.task_id, "reason": outcome.abort}))
            wall += 120.0
        wall += task_s
        log.last_completed_task = task.task_id
        log.events.append(SessionEvent(wall, "task_complete",
                                       {"task": task.task_id, "active_s": task_s}))
        if log.overflow and n == last:
            log.events.append(SessionEvent(wall, "budget_reached",
                                           {"active_s": log.active_s, "task": task.task_id}))
        elif rng.random() < _BREAK_PROBABILITY:
            log.events.append(SessionEvent(wall, "break", {"duration_s": BREAK_S}))
            wall += BREAK_S

    if not log.overflow:
        remainder = plan.active_budget_s - log.active_s
        log.free_training_s = remainder
        log.events.append(SessionEvent(wall, "free_training", {"active_s": remainder}))
        wall += remainder
        log.active_s = plan.active_budget_s

    log.events.append(SessionEvent(wall, "doffing", {"duration_s": DOFFING_S}))
    log.events.append(SessionEvent(wall + DOFFING_S, "session_end",
                                   {"active_s": log.active_s, "wall_s": wall + DOFFING_S}))
    return log
