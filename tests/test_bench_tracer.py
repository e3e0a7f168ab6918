"""The benchmark's span recorder still finds and counts what it traces, and
its screening workload still builds the package's screening bundle.

A traced function that the package renames, or a trajectory whose ticks
lose ``len``, would make the benchmark's per-layer metrics read 0 rather
than fail. ``bench/workloads.py`` keeps its own copy of
``intent.screening_bundle``, which would drift from the package unchecked.
These checks import ``bench/tracer.py`` and ``bench/workloads.py`` as
``bench/cli_child.py`` does, with ``bench/`` on ``sys.path``, and only read
them.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

from exobench import intent
from exobench.controller import Episode, calibrate_rom, run_episode, run_episodes
from exobench.signals import IntentLabel
from exobench.subject import preset_subject
from reference import stream

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def tracer():
    return _bench_module("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads")


def test_every_traced_name_resolves(tracer):
    _targets, missing = tracer.resolve()
    assert missing == []


def _aborting_episode():
    """An episode whose torque turns NaN after 0.2 s: it aborts on its 42nd tick."""
    return Episode(stream([(0.0, IntentLabel.OPEN)]), 0.5, calibrate_rom("M"),
                   voluntary_nmm=lambda t: math.nan if t > 0.2 else 0.0)


def test_tick_counters_read_an_episode_log(tracer):
    # A recorded abort's partial ticks are counted from its own log.
    whole = Episode(stream([(0.0, IntentLabel.OPEN)]), 0.5, calibrate_rom("M"))
    for episode, abort, ticks in ((whole, None, 100),
                                  (_aborting_episode(), "non-finite state at t=0.205", 42)):
        log = run_episode(episode)
        assert (log.abort, len(log.ticks)) == (abort, ticks)
        assert tracer._ticks_of_self((log,), None) == ticks
        assert tracer._ticks_of_result((), log) == ticks


def test_tick_counters_read_zero_for_an_unrecorded_abort(tracer):
    (log,) = run_episodes([_aborting_episode()], record=False)
    assert log.abort == "non-finite state at t=0.205"
    assert tracer._ticks_of_result((), log) == 0
    assert tracer._ticks_of_self((log,), None) == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_the_screening_workload_builds_the_package_s_bundle(workloads, seed):
    screening = workloads.Screening(seed)
    for preset, _verdict in workloads.SCREENING_PRESETS:
        report, texts, _traces = screening._bundle(preset, seed)
        bundle = intent.screening_bundle(preset_subject(preset, seed=seed))
        assert list(texts.items()) == [(name, trace.to_jsonl()) for name, trace in bundle.items()]
        classifier = intent.train_classifier(intent.labeled_windows(bundle["train"]))
        assert report.to_json() == intent.screen_emg_eligibility(bundle, classifier).to_json()
