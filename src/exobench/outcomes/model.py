"""Outcome-measure records and gain computation.

Scores are integers at the subscale level (per-item rubrics are out of
scope). Upper-extremity motor score subscales: distal (max 24) and proximal
(max 42). Arm-test subscales: grasp (18), grip (12), pinch (18), gross (9),
total capped at 57. The box-and-block count is a non-negative integer and
defines the functional-at-baseline flag (baseline count > 0).

Three assessment phases exist: baseline, post-therapy unassisted, and
post-therapy assisted (wearing the device). The motor score has no assisted
phase by design. Gains are exact integer differences; means stay rational
until display.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence


class Group(Enum):
    EMG = "EMG"
    SH = "SH"


class Phase(Enum):
    BASELINE = "baseline"
    POST_UNASSISTED = "post_unassisted"
    POST_ASSISTED = "post_assisted"


class Comparison(Enum):
    """Gain definitions: (minuend phase, subtrahend phase)."""

    A = (Phase.POST_UNASSISTED, Phase.BASELINE)
    B = (Phase.POST_ASSISTED, Phase.BASELINE)
    C = (Phase.POST_ASSISTED, Phase.POST_UNASSISTED)

    @property
    def minuend(self) -> Phase:
        return self.value[0]

    @property
    def subtrahend(self) -> Phase:
        return self.value[1]


@dataclass(frozen=True)
class Measure:
    """A scored quantity: measure family plus subscale."""

    family: str    # "FM" | "ARAT" | "BBT"
    subscale: str

    def __str__(self) -> str:
        return f"{self.family}-{self.subscale}"


FM_DISTAL = Measure("FM", "distal")
FM_PROXIMAL = Measure("FM", "proximal")
FM_TOTAL = Measure("FM", "total")
ARAT_GRASP = Measure("ARAT", "grasp")
ARAT_GRIP = Measure("ARAT", "grip")
ARAT_PINCH = Measure("ARAT", "pinch")
ARAT_GROSS = Measure("ARAT", "gross")
ARAT_TOTAL = Measure("ARAT", "total")
BBT = Measure("BBT", "count")

#: Ingestable (stored) measures and their score caps; totals are derived.
SCORE_RANGES: dict[Measure, tuple[int, int]] = {
    FM_DISTAL: (0, 24),
    FM_PROXIMAL: (0, 42),
    ARAT_GRASP: (0, 18),
    ARAT_GRIP: (0, 12),
    ARAT_PINCH: (0, 18),
    ARAT_GROSS: (0, 9),
    BBT: (0, 10**6),
}

ARAT_SUBSCALES = (ARAT_GRASP, ARAT_GRIP, ARAT_PINCH, ARAT_GROSS)
ARAT_TOTAL_MAX = 57

#: Published minimal clinically important differences, reported alongside gains.
MCID = {"FM": (4.25, 7.25), "ARAT": (5.7,)}


class CohortFormatError(ValueError):
    """Malformed cohort data; message carries offending line numbers."""


@dataclass(frozen=True)
class SubjectOutcomes:
    """All stored scores for one subject: {(measure, phase): int}."""

    subject_id: str
    group: Group
    scores: Mapping[tuple[Measure, Phase], int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scores", dict(self.scores))
        for (measure, phase), value in self.scores.items():
            if measure not in SCORE_RANGES:
                raise ValueError(f"{self.subject_id}: unknown measure {measure}")
            lo, hi = SCORE_RANGES[measure]
            if not isinstance(value, int) or not lo <= value <= hi:
                raise ValueError(f"{self.subject_id}: {measure} {phase.value} score {value!r} outside [{lo}, {hi}]")
            if measure.family == "FM" and phase is Phase.POST_ASSISTED:
                raise ValueError(f"{self.subject_id}: motor score has no assisted phase")
        for phase in Phase:
            total = self._arat_total(phase)
            if total is not None and total > ARAT_TOTAL_MAX:
                raise ValueError(f"{self.subject_id}: arm-test total {total} exceeds {ARAT_TOTAL_MAX}")

    def _arat_total(self, phase: Phase) -> int | None:
        parts = [self.scores.get((m, phase)) for m in ARAT_SUBSCALES]
        if any(p is None for p in parts):
            return None
        return sum(parts)

    def score(self, measure: Measure, phase: Phase) -> int | None:
        """Stored or derived (total) score; None when a component is missing."""
        if measure == FM_TOTAL:
            d = self.scores.get((FM_DISTAL, phase))
            p = self.scores.get((FM_PROXIMAL, phase))
            return None if d is None or p is None else d + p
        if measure == ARAT_TOTAL:
            return self._arat_total(phase)
        return self.scores.get((measure, phase))

    @property
    def functional_at_baseline(self) -> bool | None:
        baseline = self.scores.get((BBT, Phase.BASELINE))
        return None if baseline is None else baseline > 0


@dataclass(frozen=True)
class GainResult:
    """Per-subject integer gains for one measure/comparison plus the exact mean."""

    gains: Mapping[str, int]        # subject_id -> integer gain
    excluded: tuple[str, ...]       # subjects missing a phase

    def __post_init__(self) -> None:
        object.__setattr__(self, "gains", dict(self.gains))

    @property
    def n(self) -> int:
        return len(self.gains)

    @property
    def mean(self) -> Fraction:
        if not self.gains:
            raise ValueError("no subjects contributed gains")
        return Fraction(sum(self.gains.values()), len(self.gains))

    def values(self) -> list[int]:
        return list(self.gains.values())


def compute_gains(
    cohort: Sequence[SubjectOutcomes],
    measure: Measure,
    comparison: Comparison,
) -> GainResult:
    """Integer gains (minuend - subtrahend) per subject.

    Subjects missing either phase are excluded and listed in the result
    rather than silently dropped.
    """
    gains: dict[str, int] = {}
    excluded: list[str] = []
    for subject in cohort:
        a = subject.score(measure, comparison.minuend)
        b = subject.score(measure, comparison.subtrahend)
        if a is None or b is None:
            excluded.append(subject.subject_id)
        else:
            gains[subject.subject_id] = a - b
    return GainResult(gains=gains, excluded=tuple(excluded))


def display_round(value: Fraction | float, digits: int) -> float:
    """Half-away-from-zero decimal rounding, exact for rational inputs."""
    frac = value if isinstance(value, Fraction) else Fraction(str(value))
    scale = 10**digits
    scaled = frac * scale
    rounded = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator) \
        if scaled >= 0 else -((-scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator))
    return rounded / scale


# ---------------------------------------------------------------------------
# CSV ingestion

CSV_HEADER = ("subject_id", "group", "measure", "subscale", "phase", "score")

_CSV_MEASURES = {(m.family, m.subscale): m for m in SCORE_RANGES}

#: A score as the CSV spells it: ASCII digits with an optional sign, which
#: ``int`` alone would widen to ``0_5`` and other scripts' digits.
_SCORE = re.compile(r"[+-]?[0-9]+")


def load_cohort_csv(source: str | Path | io.TextIOBase) -> list[SubjectOutcomes]:
    """Parse cohort scores from CSV with the fixed header.

    Columns: subject_id, group (EMG|SH), measure (FM|ARAT|BBT), subscale,
    phase (baseline|post_unassisted|post_assisted), score (integer, ASCII
    digits with an optional sign). Any malformed row fails the load with its
    line number; a blank subject id, duplicate rows and conflicting group
    assignments are rejected the same way.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise CohortFormatError("empty cohort file")
    if tuple(h.strip() for h in rows[0]) != CSV_HEADER:
        raise CohortFormatError(
            f"line 1: expected header {','.join(CSV_HEADER)}, got {','.join(rows[0])}"
        )

    problems: list[str] = []
    groups: dict[str, Group] = {}
    scores: dict[str, dict[tuple[Measure, Phase], int]] = {}
    order: list[str] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(CSV_HEADER):
            problems.append(f"line {lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}")
            continue
        sid, group_s, family, subscale, phase_s, score_s = (cell.strip() for cell in row)
        if not sid:
            problems.append(f"line {lineno}: blank subject_id")
            continue
        try:
            group = Group(group_s)
        except ValueError:
            problems.append(f"line {lineno}: unknown group {group_s!r}")
            continue
        measure = _CSV_MEASURES.get((family, subscale))
        if measure is None:
            problems.append(f"line {lineno}: unknown measure/subscale {family!r}/{subscale!r}")
            continue
        try:
            phase = Phase(phase_s)
        except ValueError:
            problems.append(f"line {lineno}: unknown phase {phase_s!r}")
            continue
        if measure.family == "FM" and phase is Phase.POST_ASSISTED:
            problems.append(f"line {lineno}: motor score has no assisted phase")
            continue
        if not _SCORE.fullmatch(score_s):
            problems.append(f"line {lineno}: score {score_s!r} is not an integer")
            continue
        score = int(score_s)
        lo, hi = SCORE_RANGES[measure]
        if not lo <= score <= hi:
            problems.append(f"line {lineno}: {measure} score {score} outside [{lo}, {hi}]")
            continue
        if sid in groups and groups[sid] is not group:
            problems.append(f"line {lineno}: subject {sid} listed under both groups")
            continue
        if sid not in groups:
            groups[sid] = group
            scores[sid] = {}
            order.append(sid)
        if (measure, phase) in scores[sid]:
            problems.append(f"line {lineno}: duplicate entry for {sid} {measure} {phase.value}")
            continue
        scores[sid][(measure, phase)] = score

    if problems:
        raise CohortFormatError("; ".join(problems))
    return [SubjectOutcomes(subject_id=sid, group=groups[sid], scores=scores[sid]) for sid in order]


def write_cohort_csv(cohort: Iterable[SubjectOutcomes]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for subject in cohort:
        for (measure, phase), score in subject.scores.items():
            writer.writerow([
                subject.subject_id,
                subject.group.value,
                measure.family,
                measure.subscale,
                phase.value,
                score,
            ])
    return out.getvalue()
