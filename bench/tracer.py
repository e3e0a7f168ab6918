"""Span recorder for the traced benchmark run.

The traced run replaces public functions of the exobench modules with
wrappers that record one span per call: name, start, end, parent span and
op id. Callers inside the package look these functions up as module or
class attributes at call time, so a call made by the package itself (for
example ``controller.run_episode`` as called by ``protocol.run_session``)
is recorded as a child of the calling span. Spans stay in memory and are
written to a side file by the benchmark, never to stdout.

A layer's self time is its span's duration minus the time covered by its
direct child spans. Nothing in ``src/`` is modified: the wrappers are
installed and removed at run time.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path


def _len(obj) -> int:
    try:
        return len(obj)
    except TypeError:
        return 0


def _samples_of_result(args, outcome) -> int:
    return _len(getattr(outcome, "samples", ()))


def _samples_of_self(args, outcome) -> int:
    return _len(getattr(args[0], "samples", ())) if args else 0


def _samples_of_trace_arg(index):
    def count(args, outcome) -> int:
        return _len(getattr(args[index], "samples", ())) if len(args) > index else 0
    return count


def _ticks_of_result(args, outcome) -> int:
    # A SafetyAbort carries the partial trajectory in its ``log``.
    log = getattr(outcome, "log", outcome)
    return _len(getattr(log, "ticks", ()))


def _ticks_of_self(args, outcome) -> int:
    return _len(getattr(args[0], "ticks", ())) if args else 0


def _labels_of_result(args, outcome) -> int:
    return _len(outcome) if isinstance(outcome, list) else 0


#: (module, attribute, span name, unit counter or None). The span name is
#: the prefix of the per-layer metrics derived from it.
TRACED = (
    ("exobench.signals", "gen_emg_trace", "signals.gen_emg_trace", _samples_of_result),
    ("exobench.signals", "gen_load_trace", "signals.gen_load_trace", _samples_of_result),
    ("exobench.signals", "SignalTrace.to_jsonl", "signals.to_jsonl", _samples_of_self),
    ("exobench.signals", "SignalTrace.from_jsonl", "signals.from_jsonl", _samples_of_result),
    ("exobench.intent", "labeled_windows", "intent.labeled_windows", _samples_of_trace_arg(0)),
    ("exobench.intent", "train_classifier", "intent.train_classifier", None),
    ("exobench.intent", "classify_trace", "intent.classify_trace", _samples_of_trace_arg(1)),
    ("exobench.intent", "smooth_intents", "intent.smooth_intents", _labels_of_result),
    ("exobench.intent", "detect_trace", "intent.detect_trace", _samples_of_trace_arg(1)),
    ("exobench.intent", "screen_emg_eligibility", "intent.screen_emg_eligibility", None),
    ("exobench.controller", "run_episode", "controller.run_episode", _ticks_of_result),
    ("exobench.controller", "TrajectoryLog.to_jsonl", "controller.to_jsonl", _ticks_of_self),
    ("exobench.protocol", "run_session", "protocol.run_session", None),
    ("exobench.protocol", "session_calibration", "protocol.session_calibration", None),
    ("exobench.protocol", "task_intent_stream", "protocol.task_intent_stream", None),
    ("exobench.outcomes.model", "load_cohort_csv", "outcomes.load_cohort_csv", None),
    ("exobench.outcomes.report", "analyze_cohort", "outcomes.analyze_cohort", None),
    ("exobench.outcomes.report", "render_text", "outcomes.render", None),
    ("exobench.outcomes.report", "render_json", "outcomes.render", None),
    ("exobench.cli", "main", "cli.main", None),
)


def resolve() -> tuple[list[tuple], list[str]]:
    """The traced functions as (owner, attribute, function, span name, counter),
    and the dotted names of those the package no longer has.

    A missing function would make its per-layer metrics read 0, which looks
    like a gain, so a traced run counts each missing name as a trace error.
    """
    targets, missing = [], []
    for module_name, attr, name, count in TRACED:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = getattr(owner, "__dict__", {}).get(leaf)
        if raw is None:
            missing.append(f"{module_name}.{attr}")
        else:
            targets.append((owner, leaf, raw, name, count))
    return targets, missing


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    units: int = 0
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; install() patches the traced functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def current(self) -> int | None:
        """Index of the innermost open span."""
        return self._stack[-1] if self._stack else None

    def call(self, name, fn, args=(), kwargs=None, count=None):
        span = Span(name, 0.0, 0.0, self.current(), self.op)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        outcome = None
        span.start = time.perf_counter()
        try:
            outcome = fn(*args, **(kwargs or {}))
            return outcome
        except Exception as exc:
            outcome = exc
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if count is not None:
                span.units = count(args, outcome)

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Patch every traced function that exists in the package."""
        if self._patches:
            return
        for owner, leaf, raw, name, count in resolve()[0]:
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(name, raw.__func__, count))
            else:
                patched = self._wrap(name, raw, count)
            setattr(owner, leaf, patched)
            self._patches.append((owner, leaf, raw))

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._patches):
            setattr(owner, leaf, raw)
        self._patches = []

    def adopt(self, spans: list[dict], parent: int, op: int | None) -> None:
        """Append spans recorded by a child process under ``parent``."""
        offset = len(self.spans)
        for doc in spans:
            p = doc["parent"]
            self.spans.append(Span(doc["name"], doc["start"], doc["end"],
                                   parent if p is None else p + offset, op,
                                   doc.get("units", 0), doc.get("error")))

    def dump(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__, separators=(",", ":")) + "\n")


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0


def aggregate(spans: list[Span]) -> dict[str, LayerStats]:
    """Calls, total time, self time and counted units per span name."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.duration
    stats: dict[str, LayerStats] = {}
    for span, covered in zip(spans, child_s):
        s = stats.setdefault(span.name, LayerStats())
        s.calls += 1
        s.total_s += span.duration
        s.self_s += span.duration - covered
        s.units += span.units
    return stats


def nesting_errors(spans: list[Span], slack_s: float = 1e-6) -> list[str]:
    """Children must lie inside their parent and siblings must not overlap.

    When this holds, a parent's self time plus its children's time is exactly
    its own duration, so self times add up to the op span.
    """
    errors = []
    last_end: dict[int, float] = {}
    for i, span in enumerate(spans):
        if span.end < span.start:
            errors.append(f"span {i} {span.name} ends before it starts")
        if span.parent is None:
            continue
        parent = spans[span.parent]
        if span.start < parent.start - slack_s or span.end > parent.end + slack_s:
            errors.append(f"span {i} {span.name} lies outside its parent {parent.name}")
        if span.start < last_end.get(span.parent, span.start) - slack_s:
            errors.append(f"span {i} {span.name} overlaps a sibling")
        last_end[span.parent] = span.end
    return errors
