"""Outcome-measure records and gain computation.

Scores are integers at the subscale level (per-item rubrics are out of
scope). Upper-extremity motor score subscales: distal (max 24) and proximal
(max 42). Arm-test subscales: grasp (18), grip (12), pinch (18), gross (9),
whose caps sum to the published total of 57. The box-and-block count is a
non-negative integer and defines the functional-at-baseline flag (baseline
count > 0). Each total is the sum of the stored scores ``COMPONENTS`` lists
for it.

Three assessment phases exist: baseline, post-therapy unassisted, and
post-therapy assisted (wearing the device). ``PHASES`` maps each measure
family to the phases it is scored in, and is the one place that says which
family lacks one. One check, ``score_problem``, decides whether a value can
be a stored score, for ``SubjectOutcomes`` and the CSV reader alike. Gains
are exact integer differences; means stay rational until display.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from exobench.config import SHOWN_CHARS, quoted


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

#: Each derived total and the stored scores it sums.
COMPONENTS = {FM_TOTAL: (FM_DISTAL, FM_PROXIMAL), ARAT_TOTAL: ARAT_SUBSCALES}

#: Each measure family as prose names it, and the phases it is scored in: the
#: motor score only without the orthosis, the other two with and without it.
FAMILY_NAMES = {"FM": "motor score", "ARAT": "arm test", "BBT": "box-and-block count"}
PHASES = {"FM": (Phase.BASELINE, Phase.POST_UNASSISTED), "ARAT": tuple(Phase), "BBT": tuple(Phase)}

#: Published minimal clinically important differences, reported alongside gains.
MCID = {"FM": (4.25, 7.25), "ARAT": (5.7,)}


class CohortFormatError(ValueError):
    """Malformed cohort data; message carries offending line numbers."""


def score_problem(measure: Measure, phase: Phase, value) -> str | None:
    """Why ``value`` cannot be the stored ``measure`` score of ``phase``, or None."""
    if not isinstance(value, int):
        return f"score {quoted(value)} is not an integer"
    if measure not in SCORE_RANGES:
        return f"unknown measure {quoted(str(measure), short=str)}"
    if phase not in PHASES[measure.family]:
        return f"{FAMILY_NAMES[measure.family]} has no {phase.value.removeprefix('post_')} phase"
    lo, hi = SCORE_RANGES[measure]
    if not lo <= value <= hi:  # a long int by its size, as ``quoted`` shows a long text
        shown = value if abs(value) < 10**SHOWN_CHARS else f"of {Decimal(value).adjusted() + 1} digits"
        return f"{measure} {phase.value} score {shown} outside [{lo}, {hi}]"
    return None


@dataclass(frozen=True)
class SubjectOutcomes:
    """All stored scores for one subject: {(measure, phase): int}."""

    subject_id: str
    group: Group
    scores: Mapping[tuple[Measure, Phase], int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scores", dict(self.scores))
        for (measure, phase), value in self.scores.items():
            if problem := score_problem(measure, phase, value):
                raise ValueError(f"{self.subject_id}: {problem}")

    def score(self, measure: Measure, phase: Phase) -> int | None:
        """Stored or derived (total) score; None when a component is missing."""
        parts = [self.scores.get((part, phase)) for part in COMPONENTS.get(measure, (measure,))]
        return None if None in parts else sum(parts)

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
    minuend, subtrahend = comparison.value
    gains: dict[str, int] = {}
    excluded: list[str] = []
    for subject in cohort:
        a = subject.score(measure, minuend)
        b = subject.score(measure, subtrahend)
        if a is None or b is None:
            excluded.append(subject.subject_id)
        else:
            gains[subject.subject_id] = a - b
    return GainResult(gains=gains, excluded=tuple(excluded))


def exact(value: Fraction | float | str) -> Fraction:
    """``value`` as a fraction; a float as its shortest repr reads, 0.05 as 1/20."""
    return Fraction(str(value)) if isinstance(value, (str, float)) else Fraction(value)


def display_round(value: Fraction | float, digits: int) -> float:
    """Half-away-from-zero decimal rounding, exact for rational inputs."""
    scale = 10**digits
    scaled = exact(value) * scale
    rounded = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator) \
        if scaled >= 0 else -((-scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator))
    return rounded / scale


# ---------------------------------------------------------------------------
# CSV ingestion

CSV_HEADER = ("subject_id", "group", "measure", "subscale", "phase", "score")

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
        try:
            text = Path(source).read_text()
        except UnicodeDecodeError as exc:  # name the file, as an OSError does
            raise CohortFormatError(f"{source}: {exc}") from None
    else:
        text = source.read()
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise CohortFormatError("empty cohort file")
    if tuple(h.strip() for h in rows[0]) != CSV_HEADER:
        raise CohortFormatError(f"line 1: expected header {','.join(CSV_HEADER)}, "
                                f"got {quoted(','.join(rows[0]), short=str)}")

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
            problems.append(f"line {lineno}: unknown group {quoted(group_s)}")
            continue
        try:
            phase = Phase(phase_s)
        except ValueError:
            problems.append(f"line {lineno}: unknown phase {quoted(phase_s)}")
            continue
        measure = Measure(family, subscale)
        try:
            score = int(score_s) if _SCORE.fullmatch(score_s) else score_s
        except ValueError:  # more digits than int() reads
            problems.append(f"line {lineno}: score of {len(score_s)} characters is past the integer digit limit")
            continue
        if problem := score_problem(measure, phase, score):
            problems.append(f"line {lineno}: {problem}")
            continue
        if sid in groups and groups[sid] is not group:
            problems.append(f"line {lineno}: subject {quoted(sid, short=str)} listed under both groups")
            continue
        if sid not in groups:
            groups[sid] = group
            scores[sid] = {}
            order.append(sid)
        if (measure, phase) in scores[sid]:
            problems.append(f"line {lineno}: duplicate entry for {quoted(sid, short=str)} {measure} {phase.value}")
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
