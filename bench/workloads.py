"""The benchmark's three workloads: sessions, screening and cli.

Each workload is closed loop with one client: the next op starts only when
the previous one has finished. Ops come in cycles of fixed composition, and
a run executes whole cycles, so the mix of inputs behind every statistic is
the same on every run and every seed; the seed only changes the inputs
within each slot of the cycle.

An op returns the program's result; its ``check`` verifies that result
outside the timed region and returns a fingerprint of the output, so the
traced and the untraced execution of the same op can be compared.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

CHILD_TIMEOUT_S = 120.0


class CheckFailed(Exception):
    """The program ran but its output is wrong."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str]
    #: Traced execution in another process; None runs ``run`` under the
    #: in-process wrappers.
    run_traced: Callable[[object], object] | None = None


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_digests() -> list[dict]:
    return json.loads(DIGESTS.read_text())["invocations"]


def child_env() -> dict:
    """Environment for CLI children: an absolute ``src`` path works from any cwd."""
    env = dict(os.environ)
    env.pop("EXO_CONFIG", None)  # a user config file would change the outputs
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def new_workdir(tag: str) -> Path:
    path = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# CLI children


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    maxrss_kb: int
    stdout: Path
    stderr: Path


def spawn(cmd: list[str], cwd: Path, log_stem: Path) -> ChildResult:
    """Run one child to completion and return its exit code and peak RSS.

    ``os.wait4`` gives the child's own resource usage; a timer kills a child
    that hangs, so the benchmark always ends.
    """
    stdout, stderr = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss, stdout, stderr)


def out_target(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def collect_outputs(workdir: Path, argv: list[str], stdout: Path) -> dict:
    """sha256 of the child's stdout and of every file under its --out target."""
    files = {}
    target = out_target(argv)
    if target is not None:
        path = workdir / target
        paths = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for p in paths:
            if p.is_file():
                files[p.relative_to(workdir).as_posix()] = sha256(p.read_bytes())
    return {"stdout": sha256(stdout.read_bytes()), "files": files}


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "exobench.cli", *argv]


# ---------------------------------------------------------------------------
# sessions


#: (group, duration_scale range, active budget in s or None for the
#: protocol's 30 minutes, tasks or None for the whole protocol) per slot.
#: Sessions are short, a few episodes each, so that a run holds enough ops
#: for its tail to be a real tail. Budgets of a few minutes end some
#: sessions at the budget (overflow, fewer episodes); plans of the first two
#: or three protocol tasks end others before it, so they log free training.
SESSION_SLOTS = (
    ("EMG", (0.70, 0.85), 150.0, None),
    ("SH", (0.70, 0.85), 150.0, None),
    ("EMG", (1.40, 1.50), 240.0, None),
    ("SH", (1.40, 1.50), 240.0, None),
    ("EMG", (2.10, 2.25), None, 3),
    ("SH", (2.10, 2.25), None, 3),
    ("EMG", (1.00, 1.10), None, 2),
    ("SH", (1.00, 1.10), None, 2),
)
#: Rounds of SESSION_SLOTS per cycle. Each cycle also runs one session of
#: the documented ``simulate`` invocation (SH, full protocol).
SLOT_ROUNDS = 5


class Sessions:
    """One ``protocol.run_session`` call per op over a seeded mixed cohort."""

    name = "sessions"
    cycle_s = 14.0  # nominal seconds per cycle, see run.cycles_for
    in_children = False  # ops run in this process

    def __init__(self, seed: int) -> None:
        from exobench import protocol, subject as subject_mod

        self.protocol = protocol
        self.subject_mod = subject_mod
        self.seed = seed
        documented = next(d for d in load_digests() if d["argv"][0] == "simulate")
        self.documented = self._documented_sessions(documented)
        self.task_ids = [t.task_id for t in protocol.build_protocol()]
        self._warm_up()

    def _documented_sessions(self, entry: dict) -> list[tuple]:
        """The documented ``simulate`` invocation, rebuilt in process."""
        argv = entry["argv"]

        def value(flag: str) -> str:
            return argv[argv.index(flag) + 1]

        subject = self.subject_mod.Subject(
            subject_id=value("--subject-id"), group=value("--group"),
            hand_size="M", mas="1", duration_scale=1.0, seed=int(value("--seed")),
        )
        plans = self.protocol.build_session_plans(subject.subject_id)[:int(value("--sessions"))]
        out = value("--out")
        return [(plan, subject, entry["files"][f"{out}/session_{plan.session_index:02d}.jsonl"])
                for plan in plans]

    def _warm_up(self) -> None:
        plan, subject, _ = self.documented[0]
        short = replace(plan, tasks=plan.tasks[:2])
        for group in ("EMG", "SH"):
            self.protocol.run_session(short, self.subject_mod.Subject("W", group))

    def cycle(self, c: int) -> list[Op]:
        rng = random.Random(f"sessions:{self.seed}:{c}")
        sessions = [self.documented[c % len(self.documented)]]
        for r in range(SLOT_ROUNDS):
            for slot, (group, (lo, hi), budget, tasks) in enumerate(SESSION_SLOTS):
                subject = self.subject_mod.Subject(
                    subject_id=f"P{c:03d}{r}{slot}", group=group,
                    hand_size=rng.choice(self.subject_mod.HAND_SIZES),
                    mas=rng.choice(self.subject_mod.MAS_GRADES),
                    duration_scale=round(rng.uniform(lo, hi), 3),
                    seed=rng.randrange(2**31),
                )
                index = rng.randrange(self.protocol.TOTAL_SESSIONS)
                plan = self.protocol.build_session_plans(subject.subject_id)[index]
                plan = replace(plan, tasks=plan.tasks[:tasks],
                               active_budget_s=budget or plan.active_budget_s)
                sessions.append((plan, subject, None))
        return [Op(
            label=f"{subject.group}:{subject.subject_id}:s{plan.session_index}",
            run=lambda plan=plan, subject=subject: self.protocol.run_session(plan, subject),
            check=lambda log, plan=plan, digest=digest: self._check(log, plan, digest),
        ) for plan, subject, digest in sessions]

    def _check(self, log, plan, digest: str | None) -> str:
        times = [e.t_s for e in log.events]
        if any(b < a for a, b in zip(times, times[1:])):
            raise CheckFailed("session event times decrease")
        started = [e.detail["task"] for e in log.events if e.kind == "task_start"]
        if started != self.task_ids[:len(started)] or not started:
            raise CheckFailed("tasks out of protocol order")
        budget = plan.active_budget_s
        if not ((log.overflow and log.active_s >= budget)
                or (not log.overflow and log.active_s == budget)):
            raise CheckFailed(f"active_s {log.active_s} neither equals the budget nor overflows")
        text = log.to_jsonl()
        if digest is not None and sha256(text) != digest:
            raise CheckFailed("documented simulate session differs from its recorded digest")
        return sha256(text)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# screening

SCREENING_PRESETS = (("separable", "EMG"), ("distorted", "SH"), ("table_bound", "SH"))


class Screening:
    """Generate, JSONL round-trip, train and screen one subject bundle per op."""

    name = "screening"
    cycle_s = 1.0
    in_children = False

    def __init__(self, seed: int) -> None:
        from exobench import intent, signals, subject as subject_mod

        self.intent, self.signals, self.subject_mod = intent, signals, subject_mod
        self.seed = seed
        self.train_script = [(label, 4.0) for label in intent.CLASS_ORDER]
        self._bundle("separable", 0)

    def _bundle(self, preset: str, subject_seed: int):
        intent, signals = self.intent, self.signals
        subject = self.subject_mod.preset_subject(preset, seed=subject_seed)
        texts = {"train": signals.gen_emg_trace(subject.emg_profile("screen:train"),
                                                self.train_script).to_jsonl()}
        for condition in intent.SCREENING_CONDITIONS:
            label = signals.IntentLabel(condition.split("_", 1)[0])
            profile = subject.emg_profile(f"screen:{condition}",
                                          off_table=condition.endswith(intent.OFF_TABLE))
            texts[condition] = signals.gen_emg_trace(
                profile, intent.screening_script(label)).to_jsonl()
        traces = {name: signals.SignalTrace.from_jsonl(text) for name, text in texts.items()}
        conditions = {c: traces[c] for c in intent.SCREENING_CONDITIONS}
        classifier = intent.train_classifier(intent.labeled_windows(traces["train"]))
        report = intent.screen_emg_eligibility(conditions, classifier)
        return report, texts, traces

    def cycle(self, c: int) -> list[Op]:
        rng = random.Random(f"screening:{self.seed}:{c}")
        ops = []
        for preset, verdict in SCREENING_PRESETS:
            subject_seed = rng.randrange(2**31)
            ops.append(Op(
                label=f"{preset}:{subject_seed}",
                run=lambda p=preset, s=subject_seed: self._bundle(p, s),
                check=lambda result, v=verdict: self._check(result, v),
            ))
        return ops

    def _check(self, result, verdict: str) -> str:
        report, texts, traces = result
        if report.verdict != verdict:
            raise CheckFailed(f"verdict {report.verdict}, expected {verdict}")
        if len(report.conditions) != len(self.intent.SCREENING_CONDITIONS):
            raise CheckFailed("screening report lacks conditions")
        for name, text in texts.items():
            if traces[name].to_jsonl() != text:
                raise CheckFailed(f"JSONL round trip changed the {name} trace")
        return sha256(report.to_json())

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# cli


class Cli:
    """One fresh ``python -m exobench.cli`` process per op.

    Even cycles run the eight short documented invocations verbatim and
    compare every output with its recorded digest. Odd cycles run them with
    seeds drawn from the workload seed, in their own directory, and compare
    each output with the first run of the same argv.
    """

    name = "cli"
    cycle_s = 6.0
    in_children = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.workdir = new_workdir("cli")
        self.logs = self.workdir / "logs"
        self.logs.mkdir()
        documented = [d for d in load_digests() if d["argv"][0] != "simulate"]
        rng = random.Random(f"cli:{seed}")
        self.variants = {
            "documented": [(d["argv"], d) for d in documented],
            "seeded": [(self._reseed(d["argv"], rng), None) for d in documented],
        }
        self.seen: dict[tuple, str] = {}
        self.maxrss_kb = 0
        for variant in self.variants:
            (self.workdir / variant).mkdir()
        warm = self.variants["documented"][-1][0]
        spawn(cli_command(warm), self.workdir / "documented", self.logs / "warm")

    @staticmethod
    def _reseed(argv: list[str], rng: random.Random) -> list[str]:
        argv = list(argv)
        if "--seed" in argv:
            argv[argv.index("--seed") + 1] = str(rng.randrange(10_000))
        return argv

    def cycle(self, c: int) -> list[Op]:
        variant = "documented" if c % 2 == 0 else "seeded"
        cwd = self.workdir / variant
        ops = []
        for index, (argv, digest) in enumerate(self.variants[variant]):
            key = (variant, index)
            stem = self.logs / f"{variant}-{index}"
            ops.append(Op(
                label=" ".join(argv),
                run=lambda argv=argv, cwd=cwd, stem=stem: self._run(cli_command(argv), cwd, stem),
                check=lambda r, argv=argv, cwd=cwd, digest=digest, key=key:
                    self._check(r, argv, cwd, digest, key),
                run_traced=lambda tracer, argv=argv, cwd=cwd, stem=stem:
                    self._run_traced(tracer, argv, cwd, stem),
            ))
        return ops

    def _run(self, cmd, cwd, stem) -> ChildResult:
        result = spawn(cmd, cwd, stem)
        self.maxrss_kb = max(self.maxrss_kb, result.maxrss_kb)
        return result

    def _run_traced(self, tracer, argv, cwd, stem) -> ChildResult:
        spans_path = stem.with_suffix(".spans.json")
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(spans_path), *argv]
        result = spawn(cmd, cwd, stem)
        if spans_path.is_file():
            tracer.adopt(json.loads(spans_path.read_text()), tracer.current(), tracer.op)
            spans_path.unlink()
        return result

    def _check(self, result: ChildResult, argv, cwd, digest, key) -> str:
        if result.returncode != 0:
            err = result.stderr.read_text(errors="replace").strip().splitlines()
            raise CheckFailed(f"exit code {result.returncode}: {err[-1] if err else ''}")
        if argv[0] == "screen":
            verdict = json.loads((cwd / out_target(argv)).read_text())["verdict"]
            if verdict != "EMG":
                raise CheckFailed(f"separable screening verdict {verdict}, expected EMG")
        outputs = collect_outputs(cwd, argv, result.stdout)
        if digest is not None and outputs != {"stdout": digest["stdout"], "files": digest["files"]}:
            raise CheckFailed("output differs from the recorded digest")
        fingerprint = json.dumps(outputs, sort_keys=True)
        if self.seen.setdefault(key, fingerprint) != fingerprint:
            raise CheckFailed("same argv gave different bytes on a second run")
        return fingerprint

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sessions, Screening, Cli)}
