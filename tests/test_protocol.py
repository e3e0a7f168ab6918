"""Training protocol: task inventory, scheduling, session execution."""

import ast
import hashlib
import json
import math
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from exobench import controller, protocol, tasks
from exobench.protocol import (
    ACTIVE_BUDGET_S,
    ProtocolPhase,
    SessionLog,
    Support,
    TrainingTask,
    build_protocol,
    build_session_plans,
    run_session,
    session_calibration,
    task_duration,
    task_intent_stream,
)
from exobench.subject import Subject, preset_subject


class TestInventory:
    def test_task_counts_by_phase(self):
        tasks = build_protocol()
        assert len(tasks) == 23
        by_phase = {}
        for task in tasks:
            by_phase.setdefault(task.phase, []).append(task)
        assert len(by_phase[ProtocolPhase.REPETITIVE_DRILL]) == 10
        assert len(by_phase[ProtocolPhase.TRAY]) == 2
        assert len(by_phase[ProtocolPhase.IRREGULAR]) == 3
        assert len(by_phase[ProtocolPhase.BIMANUAL]) == 8

    def test_repetition_counts(self):
        reps = {
            ProtocolPhase.REPETITIVE_DRILL: 5,
            ProtocolPhase.TRAY: 2,
            ProtocolPhase.IRREGULAR: 2,
            ProtocolPhase.BIMANUAL: 2,
        }
        for task in build_protocol():
            assert task.repetitions == reps[task.phase]

    def test_drill_alternates_support_per_object(self):
        drill = [t for t in build_protocol() if t.phase is ProtocolPhase.REPETITIVE_DRILL]
        assert [t.task_id for t in drill[:4]] == [
            "drill-1-sup",
            "drill-1-unsup",
            "drill-2-sup",
            "drill-2-unsup",
        ]
        assert drill[0].object_name == drill[1].object_name
        assert drill[0].support is Support.SUPPORTED
        assert drill[1].support is Support.UNSUPPORTED

    def test_non_drill_tasks_have_no_support_axis(self):
        for task in build_protocol():
            if task.phase is not ProtocolPhase.REPETITIVE_DRILL:
                assert task.support is Support.NA

    def test_task_ids_unique_and_ordered(self):
        ids = [t.task_id for t in build_protocol()]
        assert len(set(ids)) == len(ids)
        assert ids[10:12] == ["tray-remove", "tray-replace"]
        assert ids[12:15] == ["irregular-1", "irregular-2", "irregular-3"]
        assert ids[-8:] == [f"bimanual-{i}" for i in range(1, 9)]

    @pytest.mark.parametrize("reps", [0, -1, math.nan, 2.0, 2.5])
    def test_repetitions_must_be_a_positive_integer(self, reps):
        with pytest.raises(ValueError, match=f"repetitions must be a positive integer, got {reps!r}"):
            TrainingTask("t", ProtocolPhase.TRAY, "tray", reps, Support.NA)


ROOT = Path(__file__).resolve().parent.parent


def _reached_through_protocol() -> set[str]:
    """The names that ``bench/`` and ``tests/`` read as ``protocol.<name>`` or
    import from ``exobench.protocol``."""
    names = set()
    for path in sorted((ROOT / "bench").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "exobench.protocol":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and (
                    getattr(node.value, "id", None) == "protocol"
                    or getattr(node.value, "attr", None) == "protocol"):
                names.add(node.attr)
    return names


def _defined(module) -> set[str]:
    """The top-level names that a module's source assigns, or defines as a
    function or class."""
    names = set()
    for stmt in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_inventory_names_are_defined_once_in_tasks():
    moved = _defined(tasks)
    assert not moved & _defined(protocol)
    reached = moved & _reached_through_protocol()
    assert {"ACTIVE_BUDGET_S", "build_protocol", "build_session_plans"} <= reached
    for name in sorted(reached):
        assert getattr(protocol, name) is getattr(tasks, name), name


class TestScheduling:
    def test_twelve_sessions_three_per_week(self):
        plans = build_session_plans("S01")
        assert len(plans) == 12
        assert [p.session_index for p in plans] == list(range(1, 13))
        # Monday, Wednesday, Friday pattern over four consecutive weeks.
        assert all(p.session_date.weekday() in (0, 2, 4) for p in plans)
        for week in range(4):
            chunk = plans[3 * week : 3 * week + 3]
            assert [p.session_date.weekday() for p in chunk] == [0, 2, 4]
        assert (plans[-1].session_date - plans[0].session_date).days == 25

    def test_start_date_is_pinned(self):
        plans = build_session_plans("S01")
        assert plans[0].session_date == date(2026, 1, 5)

    def test_every_plan_carries_the_full_protocol(self):
        for plan in build_session_plans("S02"):
            assert len(plan.tasks) == 23
            assert plan.active_budget_s == ACTIVE_BUDGET_S

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan, math.inf])
    def test_active_budget_must_be_positive_and_finite(self, budget):
        plan = build_session_plans("S02")[0]
        with pytest.raises(ValueError, match=f"active budget must be positive and finite, "
                                             f"got {budget!r}"):
            replace(plan, active_budget_s=budget)


class TestDurations:
    def test_deterministic_per_subject_and_session(self):
        subject = Subject(subject_id="X", group="EMG", seed=9)
        tasks = build_protocol()
        assert ([task_duration(subject, 1, t) for t in tasks]
                == [task_duration(subject, 1, t) for t in tasks])

    def test_sessions_draw_different_durations(self):
        subject = Subject(subject_id="X", group="EMG", seed=9)
        tasks = build_protocol()
        assert ([task_duration(subject, 1, t) for t in tasks]
                != [task_duration(subject, 2, t) for t in tasks])

    def test_scale_multiplies_exactly(self):
        base = Subject(subject_id="X", group="EMG", seed=9, duration_scale=1.0)
        slow = Subject(subject_id="X", group="EMG", seed=9, duration_scale=2.0)
        for task in build_protocol():
            assert task_duration(slow, 1, task) == pytest.approx(
                2.0 * task_duration(base, 1, task), rel=1e-12)

    def test_overflowing_duration_is_an_error(self):
        subject = Subject(subject_id="X", group="SH", seed=9, duration_scale=1e308)
        task = build_protocol()[0]
        with pytest.raises(ValueError, match=f"makes task {task.task_id} of session 2 last inf s"):
            task_duration(subject, 2, task)

    def test_duration_over_a_day_is_an_error(self):
        # Finite, but past MAX_TASK_S: the log would carry a 202-digit time.
        subject = Subject(subject_id="X", group="SH", seed=9, duration_scale=1e200)
        task = build_protocol()[0]
        with pytest.raises(ValueError, match=f"makes task {task.task_id} of session 2 last "
                                             r"\S+e\+201 s, over MAX_TASK_S = 86400 s"):
            task_duration(subject, 2, task)

    def test_durations_positive(self):
        subject = Subject(subject_id="Y", group="SH", seed=3)
        assert all(task_duration(subject, 5, t) > 0.0 for t in build_protocol())


class TestCalibration:
    def test_emg_subject_gets_classifier(self):
        subject = preset_subject("separable", seed=1)
        bundle = session_calibration(subject, 1)
        assert bundle.classifier is not None
        assert bundle.sh_config is None
        assert bundle.rom.extended_mm == 45.0

    def test_sh_subject_gets_thresholds(self):
        subject = preset_subject("distorted", seed=1)
        bundle = session_calibration(subject, 1)
        assert bundle.classifier is None
        assert bundle.sh_config is not None
        assert bundle.sh_config.t_open < bundle.sh_config.t_close

    def test_thumb_tensions_within_spec_windows(self):
        subject = preset_subject("separable", seed=4)
        bundle = session_calibration(subject, 2)
        assert 8.0 <= bundle.thumb_extension_n <= 14.0
        assert 4.0 <= bundle.thumb_abduction_n <= 8.0

    def test_calibration_is_deterministic(self):
        subject = preset_subject("distorted", seed=6)
        a = session_calibration(subject, 3)
        b = session_calibration(subject, 3)
        assert a.sh_config == b.sh_config
        assert a.thumb_extension_n == b.thumb_extension_n


#: sha256 of ``run_session(plan, Subject("S01", group, mas=mas, seed=3)).to_jsonl()``
#: for the first two plans of S01, recorded before the classifier moved to
#: (3, 8) arrays. No abort happens in these sessions, so an EMG log does not
#: depend on the classifier's decisions; _EMG_STREAM_PINS covers those.
_SESSION_PINS = {
    ("EMG", "0", 1): "a66d066452c94bbed18297194d936ad92426ed3c5f74db24fc116e838cf7e4fe",
    ("EMG", "0", 2): "e213c778b35616a76fa382cdb467054e4c1ef09e8d1f389a116ca1009d4fdac1",
    ("EMG", "2", 1): "a66d066452c94bbed18297194d936ad92426ed3c5f74db24fc116e838cf7e4fe",
    ("EMG", "2", 2): "e213c778b35616a76fa382cdb467054e4c1ef09e8d1f389a116ca1009d4fdac1",
    ("SH", "0", 1): "54af18f58c6271dd98aa464bea1044e477af161439690a25124516f94d0ce5d6",
    ("SH", "0", 2): "73a956d02a2a2e5bbf0d1ac9059001d6d1172d825e16d90edc21258a7ac662fc",
    ("SH", "2", 1): "54af18f58c6271dd98aa464bea1044e477af161439690a25124516f94d0ce5d6",
    ("SH", "2", 2): "73a956d02a2a2e5bbf0d1ac9059001d6d1172d825e16d90edc21258a7ac662fc",
}

#: sha256 of the calibration classifier's weight and bias bytes, then each
#: task's intent stream (time bytes, int64 code bytes, repr of the duration),
#: for the first two EMG sessions of Subject("S01", "EMG", seed=3).
_EMG_STREAM_PINS = {
    1: "d378c376546e6db268c5e06f6541a43c5ea2e525523d9a4ce46f5fc3f749f232",
    2: "b06e43951f6791ff748e9ed269ed2c1952d916bd1ebc5cfef207f765450cac01",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("group, mas, session", sorted(_SESSION_PINS))
    def test_session_log(self, group, mas, session):
        plan = build_session_plans("S01")[session - 1]
        log = run_session(plan, Subject("S01", group, mas=mas, seed=3))
        assert hashlib.sha256(log.to_jsonl().encode()).hexdigest() == _SESSION_PINS[group, mas, session]

    @pytest.mark.parametrize("session", sorted(_EMG_STREAM_PINS))
    def test_emg_calibration_and_intent_streams(self, session):
        subject = Subject("S01", "EMG", seed=3)
        plan = build_session_plans("S01")[session - 1]
        bundle = session_calibration(subject, session)
        weights, biases = bundle.classifier._weights, bundle.classifier._biases
        digest = hashlib.sha256(weights.tobytes() + biases.tobytes())
        for task in plan.tasks:
            (t, codes), duration = task_intent_stream(subject, bundle, session, task)
            digest.update(t.tobytes() + codes.astype("<i8").tobytes() + repr(duration).encode())
        assert digest.hexdigest() == _EMG_STREAM_PINS[session]


@pytest.fixture(scope="module")
def completed():
    subject = Subject(subject_id="S10", group="SH", seed=21)
    plan = build_session_plans(subject.subject_id)[0]
    return run_session(plan, subject)


def _use_duration_model(monkeypatch, duration):
    """Make ``run_session`` draw every task's active time from ``duration``."""
    monkeypatch.setattr(protocol, "task_duration", lambda _subject, _session, task: duration(task))


class TestSessionExecution:
    def test_session_is_deterministic(self, completed):
        subject = Subject(subject_id="S10", group="SH", seed=21)
        plan = build_session_plans(subject.subject_id)[0]
        again = run_session(plan, subject)
        assert again.to_jsonl() == completed.to_jsonl()

    def test_event_stream_structure(self, completed):
        kinds = [e.kind for e in completed.events]
        assert kinds[0] == "setup"
        assert kinds[1] == "calibration"
        assert kinds[-1] == "session_end"
        assert kinds[-2] == "doffing"
        assert kinds.count("task_start") == kinds.count("task_complete")

    def test_active_time_accounting(self, completed):
        if completed.overflow:
            assert completed.active_s >= ACTIVE_BUDGET_S
            assert completed.last_completed_task is not None
            assert not any(e.kind == "free_training" for e in completed.events)
        else:
            assert completed.active_s == ACTIVE_BUDGET_S
            assert any(e.kind == "free_training" for e in completed.events)

    def test_overflow_stops_after_current_task(self):
        subject = Subject(subject_id="S11", group="SH", seed=5, duration_scale=2.5)
        plan = build_session_plans(subject.subject_id)[0]
        log = run_session(plan, subject)
        assert log.overflow is True
        completed = [e.detail["task"] for e in log.events if e.kind == "task_complete"]
        assert completed
        assert log.last_completed_task == completed[-1]
        assert len(completed) < 23
        assert log.free_training_s == 0.0
        # The budget is reached during the last completed task, not before it.
        assert log.active_s >= ACTIVE_BUDGET_S

    def test_jsonl_round_trip_header(self, completed, tmp_path):
        path = tmp_path / "session.jsonl"
        completed.save(path)
        lines = path.read_text().strip().split("\n")
        header = json.loads(lines[0])
        assert header["schema"] == "exobench/session-v1"
        assert header["subject_id"] == "S10"
        assert len(lines) == 1 + len(completed.events)

    def test_header_identity_comes_from_the_plan(self, completed):
        assert completed.plan == build_session_plans("S10")[0]
        plan = build_session_plans("S99")[4]
        header = json.loads(SessionLog(plan).to_jsonl().split("\n", 1)[0])
        assert header == {"schema": "exobench/session-v1", "subject_id": "S99", "session_index": 5,
                          "date": "2026-01-14", "active_s": 0.0, "last_completed_task": None,
                          "overflow": False, "free_training_s": 0.0}
        for name in ("subject_id", "session_index", "session_date"):
            with pytest.raises(TypeError, match=name):
                SessionLog(plan, **{name: getattr(plan, name)})

    def test_duration_model_override_skips_episodes(self, monkeypatch):
        subject = Subject(subject_id="S12", group="SH", seed=2)
        plan = build_session_plans(subject.subject_id)[0]
        _use_duration_model(monkeypatch, lambda task: 10.0)
        log = run_session(plan, subject)
        completed = [e for e in log.events if e.kind == "task_complete"]
        assert len(completed) == 23
        assert log.overflow is False
        assert any(e.kind == "free_training" for e in log.events)

    def test_duration_model_runs_once_per_task_until_the_budget(self, monkeypatch):
        subject = Subject(subject_id="S13", group="SH", seed=4)
        plan = replace(build_session_plans(subject.subject_id)[0], active_budget_s=100.0)
        asked = []

        def duration(task):
            asked.append(task.task_id)
            return 30.0

        _use_duration_model(monkeypatch, duration)
        log = run_session(plan, subject)
        completed = [e.detail["task"] for e in log.events if e.kind == "task_complete"]
        assert asked == completed == [task.task_id for task in plan.tasks[:4]]
        assert log.overflow is True

    def test_aborted_episode_logs_an_adjustment(self, monkeypatch):
        subject = Subject(subject_id="S13", group="SH", seed=4)
        plan = replace(build_session_plans(subject.subject_id)[0], active_budget_s=100.0)
        _use_duration_model(monkeypatch, lambda task: 30.0)
        plain = run_session(plan, subject)
        # A NaN stiffness makes every episode's state non-finite on its first
        # tick. HandPlant rejects one, so the test sets it past that check.
        nan_plant = controller.default_plant(subject.hand_size)
        object.__setattr__(nan_plant, "stiffness_nmm_deg", np.full((4, 2), math.nan))
        monkeypatch.setattr(controller, "default_plant", lambda *_args: nan_plant)
        aborted = run_session(plan, subject)
        adjustments = [e for e in aborted.events if e.kind == "adjustment"]
        assert [e.detail["task"] for e in adjustments] == [task.task_id for task in plan.tasks[:4]]
        assert {e.detail["reason"] for e in adjustments} == {"non-finite state at t=0.000"}
        assert [e.kind for e in aborted.events if e.kind != "adjustment"] == [e.kind for e in plain.events]
        assert aborted.active_s == plain.active_s
        assert aborted.events[-1].t_s == plain.events[-1].t_s + 4 * 120.0
