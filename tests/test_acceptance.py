"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Each test prints its verdict so the mapping from criterion
to result stays visible in captured output as well.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import exobench
from exobench import intent as intent_mod, signals
from exobench.controller import (
    TENSION_CAP_N,
    Episode,
    SafetyAbort,
    calibrate_rom,
    count_direction_reversals,
    default_plant,
    flexed_plant,
    run_episode,
    run_episodes,
    time_to_open,
)
from exobench.intent import CLASS_ORDER, ShConfig, detect_trace, screening_script
from exobench.outcomes import golden, report
from exobench.outcomes.model import display_round
from exobench.outcomes.stats import bh_procedure, paired_t
from exobench.signals import IntentLabel, ShoulderPosture
from exobench.subject import preset_subject
from reference import exact_wilcoxon_p

OPEN, RELAX, CLOSE = IntentLabel.OPEN, IntentLabel.RELAX, IntentLabel.CLOSE


# The eighteen primary rows as published: label, p, and BH threshold, in
# publication rank order (the two p = 0.001 rows keep their published tie
# assignment: the grip follow-up contrast ranks first).
PUBLISHED_ROWS = (
    ("ARAT-grip (C)", "0.001", "0.003"),
    ("FM-distal", "0.001", "0.006"),
    ("ARAT-grasp (B)", "0.004", "0.008"),
    ("ARAT-grasp (C)", "0.007", "0.011"),
    ("FM-total", "0.026", "0.014"),
    ("ARAT-grip (A)", "0.054", "0.017"),
    ("ARAT-pinch (C)", "0.077", "0.019"),
    ("ARAT-gross (C)", "0.079", "0.022"),
    ("ARAT-total (C)", "0.103", "0.025"),
    ("ARAT-pinch (B)", "0.104", "0.028"),
    ("ARAT-total (A)", "0.12", "0.031"),
    ("ARAT-gross (B)", "0.161", "0.033"),
    ("ARAT-grip (B)", "0.176", "0.036"),
    ("ARAT-gross (A)", "0.271", "0.039"),
    ("FM-proximal", "0.372", "0.042"),
    ("ARAT-total (B)", "0.385", "0.044"),
    ("ARAT-grasp (A)", "0.444", "0.047"),
    ("ARAT-pinch (A)", "0.705", "0.05"),
)

PUBLISHED_REJECTIONS = {
    "FM-distal",
    "ARAT-grasp (B)",
    "ARAT-grasp (C)",
    "ARAT-grip (C)",
}

# Natural reading order of the same rows: motor table first, then the arm
# test family by family.
TABLE_ORDER = (
    "FM-distal", "FM-proximal", "FM-total",
    "ARAT-grasp (A)", "ARAT-grasp (B)", "ARAT-grasp (C)",
    "ARAT-grip (A)", "ARAT-grip (B)", "ARAT-grip (C)",
    "ARAT-pinch (A)", "ARAT-pinch (B)", "ARAT-pinch (C)",
    "ARAT-gross (A)", "ARAT-gross (B)", "ARAT-gross (C)",
    "ARAT-total (A)", "ARAT-total (B)", "ARAT-total (C)",
)


def test_criterion_1_bh_reproduction():
    started = time.perf_counter()
    tests = [(label, Fraction(p)) for label, p, _thr in PUBLISHED_ROWS]
    decisions = bh_procedure(tests, q=Fraction(1, 20))

    by_label = {d.label: d for d in decisions}
    threshold_matches = sum(
        display_round(by_label[label].threshold, 3) == float(expected)
        for label, _p, expected in PUBLISHED_ROWS
    )
    assert threshold_matches == 18

    rejected = {d.label for d in decisions if d.significant}
    assert rejected == PUBLISHED_REJECTIONS
    assert len(rejected) == 4

    # Tie order independence: feeding the rows in table-reading order keeps
    # the same rejection set and the same sorted threshold column.
    p_by_label = {label: Fraction(p) for label, p, _thr in PUBLISHED_ROWS}
    reordered = bh_procedure([(label, p_by_label[label]) for label in TABLE_ORDER], q=0.05)
    assert {d.label for d in reordered if d.significant} == PUBLISHED_REJECTIONS
    assert sorted(display_round(d.threshold, 3) for d in reordered) == sorted(
        float(thr) for _label, _p, thr in PUBLISHED_ROWS
    )

    # Float-typed p values must reach the same verdicts as the exact decimals.
    float_run = bh_procedure([(label, float(p)) for label, p in tests], q=0.05)
    assert {d.label for d in float_run if d.significant} == PUBLISHED_REJECTIONS

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1 (BH reproduction): PASS in {elapsed:.3f} s")


def test_criterion_2_table_arithmetic():
    started = time.perf_counter()
    cohort = golden.golden_cohort()
    rep = report.analyze_cohort(cohort)
    means = {r.label: r.mean_gain for r in rep.primary}

    def shown(value, digits=2):
        return display_round(value, digits)

    # Motor-score table: integer gain sums 25 / 4 / 29 over 11 subjects.
    assert means["FM-distal"] == Fraction(25, 11)
    assert means["FM-proximal"] == Fraction(4, 11)
    assert means["FM-total"] == Fraction(29, 11)
    assert shown(means["FM-distal"]) == 2.27
    assert shown(means["FM-proximal"]) == 0.36
    assert shown(means["FM-total"]) == 2.64

    # Group table (a) cells, and their exact recombination into the pooled rows.
    emg = rep.fm_by_group["EMG"]
    sh = rep.fm_by_group["SH"]
    assert emg.n == 6 and sh.n == 5
    assert [shown(emg.means[k]) for k in ("FM-distal", "FM-proximal", "FM-total")] == [3.0, -0.33, 2.67]
    assert [shown(sh.means[k]) for k in ("FM-distal", "FM-proximal", "FM-total")] == [1.4, 1.2, 2.6]
    for key in ("FM-distal", "FM-proximal", "FM-total"):
        assert (6 * emg.means[key] + 5 * sh.means[key]) / 11 == means[key]

    # Group table (c) totals row, and its recombination into the pooled
    # arm-test total rows (A)/(B)/(C).
    emg_arat = rep.arat_by_group["EMG"].means
    sh_arat = rep.arat_by_group["SH"].means
    assert [shown(emg_arat[f"ARAT-total ({c})"]) for c in "ABC"] == [1.33, -2.5, -3.83]
    assert [shown(sh_arat[f"ARAT-total ({c})"]) for c in "ABC"] == [1.4, 2.2, 0.8]
    for c in "ABC":
        key = f"ARAT-total ({c})"
        assert (6 * emg_arat[key] + 5 * sh_arat[key]) / 11 == means[key]
    assert shown(means["ARAT-total (A)"]) == 1.36
    assert shown(means["ARAT-total (B)"]) == -0.36

    # The published follow-up row is the difference of the two displayed
    # rows, not the display of the exact mean (which lands one cent lower).
    assert means["ARAT-total (C)"] == means["ARAT-total (B)"] - means["ARAT-total (A)"]
    assert shown(means["ARAT-total (C)"]) == -1.73
    published_c = display_round(
        Fraction(str(shown(means["ARAT-total (B)"]))) - Fraction(str(shown(means["ARAT-total (A)"]))), 2
    )
    assert published_c == -1.72

    # Spot checks on family rows whose printed cells equal the exact display.
    assert shown(means["ARAT-grasp (A)"]) == 0.09
    assert shown(means["ARAT-grasp (B)"]) == 1.73
    assert shown(means["ARAT-grip (A)"]) == 0.82
    assert shown(means["ARAT-grip (B)"]) == -0.64

    # Documented pinch-(A) exemption: the recombination identity holds
    # exactly, but the printed cell (-0.1) disagrees in sign with the exact
    # pooled mean (+1/11), so no display-level assertion is possible there.
    key = "ARAT-pinch (A)"
    assert (6 * emg_arat[key] + 5 * sh_arat[key]) / 11 == means[key]
    assert means[key] == Fraction(1, 11)
    assert shown(means[key]) == 0.09

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 2 (table arithmetic): PASS in {elapsed:.3f} s")


def test_criterion_3_wilcoxon_enumeration():
    started = time.perf_counter()

    def enumeration_p(diffs) -> Fraction:
        d = np.asarray([v for v in diffs if v != 0], dtype=float)
        n = len(d)
        doubled = np.rint(2.0 * scipy.stats.rankdata(np.abs(d))).astype(np.int64)
        assignments = (np.arange(2**n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
        w_plus = assignments @ doubled
        observed = int(doubled[d > 0].sum())
        le = int(np.count_nonzero(w_plus <= observed))
        ge = int(np.count_nonzero(w_plus >= observed))
        return min(Fraction(1), Fraction(2 * min(le, ge), 2**n))

    rng = np.random.default_rng(2026)
    checked = 0
    while checked < 500:
        n = int(rng.integers(1, 13))
        diffs = rng.integers(-9, 10, size=n).astype(float)
        if not np.any(diffs):
            continue
        assert exact_wilcoxon_p(diffs.tolist()) == enumeration_p(diffs)
        checked += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 3 (wilcoxon enumeration, 500 vectors): PASS in {elapsed:.2f} s")


def test_criterion_4_paired_t_reference():
    result = paired_t(np.subtract([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]))
    assert result.t == pytest.approx(3.464, abs=1e-3)
    assert result.df == 2
    # t-distribution oracle, exact for 2 degrees of freedom.
    oracle = 1.0 - result.t / (result.t**2 + 2.0) ** 0.5
    assert result.p == pytest.approx(oracle, abs=1e-12)
    assert result.p == pytest.approx(0.0742, abs=1e-3)
    print(f"criterion 4 (paired-t reference): PASS t={result.t:.4f} p={result.p:.4f}")


def test_criterion_5_controller_timing_and_safety():
    rom = calibrate_rom("M")
    log = run_episode((np.zeros(1), np.array([CLASS_ORDER.index(OPEN)])), 2.5, rom,
                      plant=flexed_plant("M"))
    opened = time_to_open(log)
    assert opened is not None
    assert 1.8 * 0.9 <= opened <= 1.8 * 1.1

    rng = np.random.default_rng(55)
    labels = (OPEN, RELAX, CLOSE)
    episodes = []
    for _ in range(1000):
        stiffness = float(rng.uniform(1.0, 4.0))
        plant = flexed_plant("M", stiffness) if rng.random() < 0.5 else default_plant("M", stiffness)
        n_events = int(rng.integers(1, 5))
        times = np.sort(rng.uniform(0.0, 1.8, size=n_events))
        codes = [CLASS_ORDER.index(labels[int(rng.integers(0, 3))]) for _t in times]
        episodes.append(Episode((times, np.array(codes)), 2.0, rom, plant=plant))
    tension_violations = 0
    angle_violations = 0
    ticks_checked = 0
    for outcome in run_episodes(episodes):
        assert not isinstance(outcome, SafetyAbort), outcome.diagnostic
        ticks = outcome.ticks
        tension_violations += int(np.count_nonzero(ticks.tension_n > TENSION_CAP_N + 1e-9))
        angle_violations += int(np.count_nonzero(ticks.angles_deg.min(axis=1) < 0.0))
        ticks_checked += len(ticks)
    assert ticks_checked == 1000 * 400
    assert tension_violations == 0
    assert angle_violations == 0
    print(
        f"criterion 5 (timing and safety): PASS open={opened:.3f} s, "
        "0 violations over 1000 episodes"
    )


def test_criterion_6_hysteresis_and_dither():
    # A 16 N wide band around the harness's 20 N rest level.
    config = ShConfig(t_open=7.0, t_close=23.0)

    # Any trace confined to the open interval leaves the detector constant.
    relax = CLASS_ORDER.index(RELAX)
    rng = np.random.default_rng(66)
    for _ in range(200):
        n = int(rng.integers(1, 300))
        tensions = rng.uniform(config.t_open + 1e-6, config.t_close - 1e-6, size=n)
        trace = signals.SignalTrace(kind="load", rate_hz=50.0,
                                    samples=tensions, annotations=())
        _t, codes = detect_trace(config, trace)
        assert set(codes.tolist()) == {relax}

    # Scripted dither: +/- 2 N sway around 3 N below the close threshold,
    # well inside the 16 N wide band, end to end through detection and the
    # position controller.
    assert signals.DEFAULT_REST_TENSION_N == config.t_close - 3.0
    trace = signals.gen_load_trace([(ShoulderPosture.REST, 10.0)], dither_amp=2.0, seed=6)
    decisions = detect_trace(config, trace)
    assert set(decisions[1].tolist()) == {relax}

    rom = calibrate_rom("M")
    log = run_episode(decisions, trace.duration_s, rom, plant=flexed_plant("M"))
    assert count_direction_reversals(log) == 0
    print("criterion 6 (hysteresis and dither): PASS, 0 reversals end-to-end")


def _run_screening(preset_name: str, script=screening_script, seed: int = 0):
    subject = preset_subject(preset_name, seed=seed)
    train_script = [(label, 4.0) for label in intent_mod.CLASS_ORDER]
    train = signals.gen_emg_trace(subject.emg_profile("screen:train"), train_script)
    classifier = intent_mod.train_classifier(intent_mod.labeled_windows(train))
    traces = {}
    for condition in intent_mod.SCREENING_CONDITIONS:
        label = IntentLabel(condition.split("_", 1)[0])
        off_table = condition.endswith(intent_mod.OFF_TABLE)
        profile = subject.emg_profile(f"screen:{condition}", off_table=off_table)
        traces[condition] = signals.gen_emg_trace(profile, script(label))
    return intent_mod.screen_emg_eligibility(traces, classifier)


def test_criterion_7_screening_verdicts():
    separable = _run_screening("separable")
    assert separable.verdict == "EMG"
    assert all(c.passed for c in separable.conditions)

    # Crosstalk 0.6 with drift 0.06 is the documented distortion level that
    # flips the verdict.
    distorted = _run_screening("distorted")
    assert distorted.verdict == "SH"

    # Strict 2 s boundary: capping every attempt at 1.9 s fails regardless
    # of classifier quality.
    def short_holds_script(label):
        if label is RELAX:
            return [(RELAX, 1.9)] * 3
        return [(RELAX, 1.0), (label, 1.9)] * 3

    short_holds = _run_screening("separable", short_holds_script)
    assert short_holds.verdict == "SH"
    for condition in short_holds.conditions:
        assert max(condition.attempt_holds_s) <= 1.9
    print("criterion 7 (screening verdicts): PASS (EMG / SH / SH)")


def test_criterion_8_protocol_fidelity():
    from exobench import cli

    from exobench.protocol import (
        ACTIVE_BUDGET_S,
        ProtocolPhase,
        build_protocol,
        build_session_plans,
        run_session,
    )
    from exobench.subject import Subject

    tasks = build_protocol()
    drill = [t for t in tasks if t.phase is ProtocolPhase.REPETITIVE_DRILL]
    tray = [t for t in tasks if t.phase is ProtocolPhase.TRAY]
    irregular = [t for t in tasks if t.phase is ProtocolPhase.IRREGULAR]
    bimanual = [t for t in tasks if t.phase is ProtocolPhase.BIMANUAL]

    assert len({t.object_name for t in drill}) == 5
    assert len(drill) == 10  # each object once supported, once unsupported
    assert all(t.repetitions == 5 for t in drill)
    assert [t.task_id for t in tray] == ["tray-remove", "tray-replace"]
    assert all(t.repetitions == 2 for t in tray)
    assert len(irregular) == 3
    assert all(t.repetitions == 2 for t in irregular)
    assert len(bimanual) == 8
    assert all(t.repetitions == 2 for t in bimanual)
    assert len(tasks) == 23

    code = cli.main(["protocol", "list-tasks"])
    assert code == 0

    subject = Subject(subject_id="S90", group="SH", seed=5, duration_scale=2.5)
    plan = build_session_plans(subject.subject_id)[0]
    log = run_session(plan, subject)
    assert log.overflow is True
    assert log.active_s >= ACTIVE_BUDGET_S
    completed = [e.detail["task"] for e in log.events if e.kind == "task_complete"]
    assert log.last_completed_task == completed[-1]
    kinds = [e.kind for e in log.events]
    budget_at = kinds.index("budget_reached")
    assert "task_start" not in kinds[budget_at:]
    print(
        "criterion 8 (protocol fidelity): PASS, overflow stopped after "
        f"{log.last_completed_task} at {log.active_s:.0f} s"
    )


# Every invocation documented in the command-line section of the README,
# pinned seeds included. Criterion 9 runs each twice and compares bytes.
DOCUMENTED_INVOCATIONS = (
    ["gen", "emg", "--intent-script", "open:2,relax:2,close:2", "--seed", "7", "--out", "emg.jsonl"],
    ["gen", "load", "--script", "rest:2,elevated:2,rest:2,depressed:2",
     "--noise-std", "0.4", "--dither-amp", "1.5", "--seed", "11", "--out", "load.jsonl"],
    ["gen", "cohort", "--out", "cohort.csv"],
    ["gen", "screening", "--subject", "separable", "--seed", "0", "--out", "screening"],
    ["screen", "screening", "--format", "json", "--out", "screening.json"],
    ["episode", "--intent-script", "open:3,relax:1,close:3",
     "--hand-size", "M", "--mas", "1", "--out", "episode.jsonl"],
    ["simulate", "--group", "SH", "--subject-id", "S01", "--sessions", "2",
     "--seed", "3", "--out", "sessions"],
    ["analyze", "cohort.csv", "--q", "0.05", "--format", "json", "--out", "report.json"],
    ["protocol", "list-tasks", "--out", "tasks.txt"],
)


# The package this process imported; criterion 9's children must run it too.
EXOBENCH_INIT = Path(exobench.__file__).resolve()

# sha256 of stdout and of every file of each documented invocation, as the
# benchmark records them (bench/record_digests.py).
DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"


def _cli_env() -> dict[str, str]:
    """Environment for CLI children: the checkout under test first on the path.

    The path is absolute because the children run in a temporary directory,
    where a relative ``PYTHONPATH=src`` finds nothing. ``EXO_CONFIG`` is
    dropped: a relative path would not resolve there either, and a user's
    config file would change the documented outputs.
    """
    env = dict(os.environ)
    env.pop("EXO_CONFIG", None)
    extra = env.get("PYTHONPATH")
    root = str(EXOBENCH_INIT.parent.parent)
    env["PYTHONPATH"] = root + (os.pathsep + extra if extra else "")
    return env


def _assert_children_import_checkout(workdir: Path, env: dict[str, str]) -> None:
    """Fail unless a child with ``env`` imports the ``exobench`` under test."""
    result = subprocess.run(
        [sys.executable, "-c",
         "import pathlib, exobench; print(pathlib.Path(exobench.__file__).resolve())"],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, f"child cannot import exobench: {result.stderr}"
    child = result.stdout.strip()
    assert child == str(EXOBENCH_INIT), (
        f"CLI children import exobench from {child}, "
        f"not from the checkout under test ({EXOBENCH_INIT})"
    )


def _run_documented_invocations(workdir: Path, env: dict[str, str]) -> dict[str, bytes]:
    workdir.mkdir()
    outputs = {}
    for index, argv in enumerate(DOCUMENTED_INVOCATIONS):
        result = subprocess.run(
            [sys.executable, "-m", "exobench.cli", *argv],
            cwd=workdir,
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert result.returncode == 0, f"{argv}: {result.stderr.decode()}"
        outputs[f"stdout:{index}:{argv[0]}"] = result.stdout
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            outputs[str(path.relative_to(workdir))] = path.read_bytes()
    return outputs


def _assert_outputs_match_digests(outputs: dict[str, bytes]) -> None:
    """Fail on any byte change against the recorded digests, naming the output."""
    records = json.loads(DIGESTS.read_text())["invocations"]
    assert [r["argv"] for r in records] == [list(argv) for argv in DOCUMENTED_INVOCATIONS]
    recorded_files = set()
    for index, (argv, record) in enumerate(zip(DOCUMENTED_INVOCATIONS, records)):
        stdout = outputs[f"stdout:{index}:{argv[0]}"]
        assert hashlib.sha256(stdout).hexdigest() == record["stdout"], f"{argv}: stdout changed"
        for name, digest in record["files"].items():
            assert hashlib.sha256(outputs[name]).hexdigest() == digest, f"{argv}: {name} changed"
        recorded_files.update(record["files"])
    assert recorded_files == {name for name in outputs if not name.startswith("stdout:")}


def test_criterion_9_cli_determinism(tmp_path):
    env = _cli_env()
    _assert_children_import_checkout(tmp_path, env)
    first = _run_documented_invocations(tmp_path / "run1", env)
    second = _run_documented_invocations(tmp_path / "run2", env)
    assert set(first) == set(second)
    assert len(first) >= 9
    for name in first:
        assert first[name] == second[name], f"output differs between runs: {name}"
    _assert_outputs_match_digests(first)
    shutil.rmtree(tmp_path / "run1")
    shutil.rmtree(tmp_path / "run2")
    print(f"criterion 9 (CLI determinism): PASS, {len(first)} files bit-identical and as recorded")
