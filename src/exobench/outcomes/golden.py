"""Bundled synthetic reference cohort.

Eleven subjects (six on the EMG interface, five on the harness) with
integer scores engineered so the gain arithmetic is exact: motor-score gain
sums are 25 (distal), 4 (proximal), 29 (total), matching group sums of
18/7, -2/6 and 16/13; arm-test subscale gain sums by group likewise
recombine to the pooled means, and the box-and-block split is four
functional-at-baseline subjects against seven non-functional. Baseline
means land on the reference characteristics at display precision as well.
Each subject holds one score per phase that ``model.PHASES`` gives a
measure's family, so the motor scores have no assisted phase here either.
"""

from __future__ import annotations

from exobench.outcomes.model import PHASES, SCORE_RANGES, Group, SubjectOutcomes, write_cohort_csv

# Per subject: the group, then the scores of each stored measure in
# SCORE_RANGES order (fm_distal, fm_proximal, grasp, grip, pinch, gross, bbt),
# each in its family's PHASES order.
_GOLDEN_ROWS: dict[str, tuple] = {
    "P01": (Group.EMG, (5, 8), (24, 24), (7, 8, 9), (4, 5, 2), (5, 5, 3), (4, 5, 4), (10, 6, 0)),
    "P02": (Group.EMG, (4, 8), (23, 22), (6, 7, 7), (4, 4, 2), (4, 4, 2), (4, 4, 4), (14, 11, 4)),
    "P03": (Group.EMG, (6, 8), (22, 23), (6, 6, 7), (3, 3, 1), (4, 3, 2), (3, 4, 3), (19, 15, 6)),
    "P04": (Group.EMG, (5, 8), (24, 23), (6, 7, 7), (4, 5, 2), (4, 4, 2), (3, 3, 3), (0, 1, 3)),
    "P05": (Group.EMG, (4, 7), (23, 23), (5, 5, 6), (3, 3, 1), (3, 3, 1), (3, 4, 3), (0, 1, 2)),
    "P06": (Group.EMG, (3, 6), (23, 22), (5, 6, 6), (3, 3, 2), (3, 3, 2), (3, 3, 3), (0, 0, 2)),
    "P07": (Group.SH, (2, 3), (21, 22), (4, 3, 7), (3, 5, 4), (2, 3, 3), (3, 4, 2), (4, 1, 0)),
    "P08": (Group.SH, (3, 5), (20, 22), (4, 4, 6), (2, 3, 3), (2, 2, 2), (2, 2, 1), (0, 0, 2)),
    "P09": (Group.SH, (1, 2), (21, 22), (3, 2, 5), (2, 3, 2), (2, 3, 2), (2, 2, 0), (0, 0, 2)),
    "P10": (Group.SH, (2, 4), (20, 21), (4, 4, 7), (2, 4, 3), (2, 2, 2), (2, 2, 1), (0, 0, 2)),
    "P11": (Group.SH, (2, 3), (21, 22), (3, 2, 5), (2, 3, 3), (1, 1, 1), (2, 2, 1), (0, 0, 1)),
}

def golden_cohort() -> list[SubjectOutcomes]:
    """Each row's scores, measure by measure in ``SCORE_RANGES`` order, phase by
    phase in the measure's ``PHASES``."""
    return [
        SubjectOutcomes(subject_id=sid, group=group, scores={
            (measure, phase): value
            for measure, values in zip(SCORE_RANGES, rows, strict=True)
            for phase, value in zip(PHASES[measure.family], values, strict=True)
        })
        for sid, (group, *rows) in _GOLDEN_ROWS.items()
    ]


def golden_cohort_csv() -> str:
    return write_cohort_csv(golden_cohort())
