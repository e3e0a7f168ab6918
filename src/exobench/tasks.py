"""Protocol inventory: the object tasks and the twelve session plans.

The object protocol is fixed: five drill objects each grasped five times
with the forearm supported on the table and five times unsupported, a
raised-lip tray cleared twice and restocked twice, three irregular objects
twice each, and eight bimanual tasks twice each. Sessions run three times a
week for four weeks; each counts 30 minutes of active practice.

This module imports no numpy, so ``protocol list-tasks`` starts as fast as
``gen cohort``; ``protocol`` runs the plans and imports these names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum

from exobench import TOTAL_SESSIONS

ACTIVE_BUDGET_S = 1800.0
SESSIONS_PER_WEEK = 3
#: The date of session 1, a Monday.
START_DATE = date(2026, 1, 5)


class ProtocolPhase(Enum):
    REPETITIVE_DRILL = "repetitive_drill"
    TRAY = "tray"
    IRREGULAR = "irregular"
    BIMANUAL = "bimanual"


class Support(Enum):
    SUPPORTED = "supported"
    UNSUPPORTED = "unsupported"
    NA = "n/a"


@dataclass(frozen=True)
class TrainingTask:
    task_id: str
    phase: ProtocolPhase
    object_name: str
    repetitions: int
    support: Support

    def __post_init__(self) -> None:
        if not isinstance(self.repetitions, int) or self.repetitions <= 0:
            raise ValueError(f"repetitions must be a positive integer, got {self.repetitions!r}")


DRILL_OBJECTS = (
    "2.5 cm wooden cube",
    "5 cm wooden cube",
    "tennis ball",
    "4 cm diameter toiletry bottle",
    "13 cm tall tapered plastic cup",
)

IRREGULAR_OBJECTS = (
    "cotton ball",
    "1 inch rubber ball",
    "washcloth",
)

BIMANUAL_TASKS = (
    "remove and replace the cap of a broad line marker",
    "unscrew and replace the cap of a toothpaste tube",
    "unscrew and replace the cap of a beverage bottle",
    "remove and replace the wide-mouth lid of a coffee container",
    "stir in a small bowl with a wooden spoon for 10 seconds",
    "make two cuts in a putty log with a butter knife",
    "open a lock with a key",
    "open a sealed sandwich-size ziploc bag",
)

DRILL_REPS = 5
TRAY_PASSES = 2
IRREGULAR_REPS = 2
BIMANUAL_REPS = 2


def build_protocol() -> tuple[TrainingTask, ...]:
    """The full object-task inventory in protocol order."""
    tasks: list[TrainingTask] = []
    for i, obj in enumerate(DRILL_OBJECTS, start=1):
        for support in (Support.SUPPORTED, Support.UNSUPPORTED):
            tasks.append(TrainingTask(
                task_id=f"drill-{i}-{'sup' if support is Support.SUPPORTED else 'unsup'}",
                phase=ProtocolPhase.REPETITIVE_DRILL,
                object_name=obj,
                repetitions=DRILL_REPS,
                support=support,
            ))
    tasks.append(TrainingTask("tray-remove", ProtocolPhase.TRAY,
                              "raised-lip tray, remove all five items", TRAY_PASSES, Support.NA))
    tasks.append(TrainingTask("tray-replace", ProtocolPhase.TRAY,
                              "raised-lip tray, replace all five items", TRAY_PASSES, Support.NA))
    for i, obj in enumerate(IRREGULAR_OBJECTS, start=1):
        tasks.append(TrainingTask(f"irregular-{i}", ProtocolPhase.IRREGULAR,
                                  obj, IRREGULAR_REPS, Support.NA))
    for i, obj in enumerate(BIMANUAL_TASKS, start=1):
        tasks.append(TrainingTask(f"bimanual-{i}", ProtocolPhase.BIMANUAL,
                                  obj, BIMANUAL_REPS, Support.NA))
    return tuple(tasks)


@dataclass(frozen=True)
class SessionPlan:
    subject_id: str
    session_index: int          # 1..12
    session_date: date
    tasks: tuple[TrainingTask, ...]
    active_budget_s: float = ACTIVE_BUDGET_S

    def __post_init__(self) -> None:
        if not 1 <= self.session_index <= TOTAL_SESSIONS:
            raise ValueError(f"session index must be 1..{TOTAL_SESSIONS}")
        if not (self.active_budget_s > 0 and math.isfinite(self.active_budget_s)):
            raise ValueError(f"active budget must be positive and finite, "
                             f"got {self.active_budget_s!r}")


def build_session_plans(subject_id: str) -> list[SessionPlan]:
    """Twelve sessions, three per week on a Mon/Wed/Fri cadence from ``START_DATE``."""
    tasks = build_protocol()
    plans = []
    offsets = (0, 2, 4)  # days within each week
    for idx in range(TOTAL_SESSIONS):
        week, slot = divmod(idx, SESSIONS_PER_WEEK)
        plans.append(SessionPlan(
            subject_id=subject_id,
            session_index=idx + 1,
            session_date=START_DATE + timedelta(days=7 * week + offsets[slot]),
            tasks=tasks,
        ))
    return plans
