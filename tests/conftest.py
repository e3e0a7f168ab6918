"""Shared fixtures and hypothesis configuration."""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "exobench",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exobench")


@pytest.fixture(scope="session")
def golden_cohort():
    from exobench.outcomes import golden

    return golden.golden_cohort()


@pytest.fixture(scope="session")
def separable_classifier():
    from exobench import intent, signals
    from exobench.subject import preset_subject

    subject = preset_subject("separable", seed=0)
    script = [(label, 4.0) for label in intent.CLASS_ORDER]
    trace = signals.gen_emg_trace(subject.emg_profile("screen:train"), script)
    return intent.train_classifier(intent.labeled_windows(trace))


# Per subject: (group, fm_distal, fm_proximal, grasp, grip, pinch, gross, bbt)
# FM entries are (baseline, post_unassisted); the rest are
# (baseline, post_unassisted, post_assisted); None marks a missing score.
# R4 lacks a post-therapy distal score and a baseline box-and-block count,
# every proximal and unassisted grasp gain is the same (zero variance), and
# only R1 and R6 have an assisted gross score (n = 2 rows).
_IRREGULAR_ROWS = {
    "R1": ("EMG", (10, 12), (20, 22), (4, 4, 5), (3, 4, 6), (5, 5, 7), (2, 3, 4), (0, 1, 3)),
    "R2": ("EMG", (8, 11), (18, 20), (6, 6, 6), (2, 2, 5), (4, 6, 6), (3, 3, None), (2, 2, 4)),
    "R3": ("EMG", (12, 12), (25, 27), (3, 3, 4), (5, 7, 7), (6, 6, 9), (4, 5, None), (1, 3, 3)),
    "R4": ("EMG", (6, None), (15, 17), (7, 7, 17), (1, 3, 4), (2, 5, 5), (1, 1, None), (None, 0, 2)),
    "R5": ("SH", (14, 15), (30, 32), (5, 5, 6), (4, 4, 8), (8, 9, 10), (2, 4, None), (0, 0, 1)),
    "R6": ("SH", (9, 13), (22, 24), (2, 2, 2), (6, 9, 9), (3, 3, 4), (5, 5, 6), (3, 5, 8)),
    "R7": ("SH", (11, 13), (19, 21), (8, 8, 9), (2, 3, 3), (7, 8, 8), (3, 4, None), (0, 2, 2)),
    "R8": ("SH", (7, 8), (26, 28), (4, 4, 4), (3, 5, 9), (1, 4, 6), (2, 2, None), (4, 4, 7)),
}


@pytest.fixture(scope="session")
def irregular_cohort():
    """Eight subjects whose analysis takes every route: paired t, Wilcoxon,
    a failed normality gate, too few subjects, and excluded subjects."""
    from exobench.outcomes import model

    measures = (model.FM_DISTAL, model.FM_PROXIMAL, *model.ARAT_SUBSCALES, model.BBT)
    cohort = []
    for sid, (group, *columns) in _IRREGULAR_ROWS.items():
        scores = {
            (measure, phase): value
            for measure, values in zip(measures, columns)
            for phase, value in zip(model.Phase, values)
            if value is not None
        }
        cohort.append(model.SubjectOutcomes(sid, model.Group(group), scores))
    return cohort
