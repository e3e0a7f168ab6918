"""The benchmark's span recorder still finds and counts what it traces.

A traced function that the package renames, or a trajectory whose ticks
lose ``len``, would make the benchmark's per-layer metrics read 0 rather
than fail. These checks import ``bench/tracer.py`` as ``bench/cli_child.py``
does, with ``bench/`` on ``sys.path``, and only read it.
"""

import math
import sys
from pathlib import Path

import pytest

from exobench.controller import Episode, SafetyAbort, calibrate_rom, run_episode, run_episodes
from exobench.signals import IntentLabel
from reference import stream

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(BENCH))
    return tracer


def test_every_traced_name_resolves(tracer):
    _targets, missing = tracer.resolve()
    assert missing == []


def test_tick_counters_read_an_episode_log(tracer):
    log = run_episode(Episode(stream([(0.0, IntentLabel.OPEN)]), 0.5, calibrate_rom("M")))
    assert len(log.ticks) == 100
    assert tracer._ticks_of_self((log,), None) == 100
    assert tracer._ticks_of_result((), log) == 100


def test_tick_counters_read_zero_for_an_unrecorded_abort(tracer):
    episode = Episode(stream([(0.0, IntentLabel.OPEN)]), 0.5, calibrate_rom("M"),
                      voluntary_nmm=lambda t: math.nan if t > 0.2 else 0.0)
    (abort,) = run_episodes([episode], record=False)
    assert isinstance(abort, SafetyAbort)
    assert tracer._ticks_of_result((), abort) == 0
    assert tracer._ticks_of_self((abort.log,), None) == 0
