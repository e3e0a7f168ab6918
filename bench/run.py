"""exobench benchmark: one command, three workloads, end-to-end and per-layer metrics.

Usage:
    python3 bench/run.py --workload {sessions,screening,cli} --seed N --seconds S --trace {0,1}

Runs the package from ``src/`` of the checkout that holds this file. With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` every op runs twice, untraced and then under the span
recorder, and it prints the per-layer metrics. Either way the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, with the environment record, goes to
``bench/out/<workload>-seed<N>-trace<T>.json`` and the spans of a traced run
to ``bench/out/<workload>-seed<N>.spans.jsonl``.

An op fails on an exception, a nonzero exit code, a wrong screening
verdict, a broken session invariant or a digest mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import speed
from tracer import LayerStats, Tracer, aggregate, nesting_errors, resolve
from workloads import (OUT, ROOT, SRC, WORKLOADS, CheckFailed, child_env, new_workdir,
                       sha256, spawn)

#: Fresh set-up processes, each paired with a reference child, behind ``setup_s``.
SETUP_PROBES = 7
#: Pairs of ``python -c pass`` / ``python -c "import exobench.cli"`` per traced run.
IMPORT_PROBES = 5
#: The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
#: A run starts no further cycle after this long, so that a much slower
#: program still ends within the three minutes a run may take.
HARD_STOP_S = 120.0
#: Least wall time between two speed samples: kernels for ops in this
#: process, reference children for ops in child processes.
KERNEL_EVERY_S = 0.5
CHILD_EVERY_S = 2.5
#: Typical seconds of one kernel and of one reference child on the 2-core
#: host the benchmark was defined on. ``.ref`` metrics are scaled to it.
KERNEL_REF_S = 0.055
CHILD_REF_S = 0.60
#: The controller's fixed 5 ms step, to turn ticks into simulated seconds.
CONTROL_DT_S = 0.005

PER_TICK_SPANS = {  # span -> unit its self time is divided by
    "controller.run_episode": "tick",
    "controller.to_jsonl": "tick",
    "signals.gen_emg_trace": "frame",
    "signals.gen_load_trace": "sample",
    "signals.to_jsonl": "sample",
    "signals.from_jsonl": "sample",
    "intent.classify_trace": "frame",
    "intent.labeled_windows": "frame",
    "intent.smooth_intents": "label",
    "intent.detect_trace": "sample",
}
SELF_TIME_SPANS = (  # reported as mean self time per call
    "intent.train_classifier",
    "intent.screen_emg_eligibility",
    "protocol.run_session",
    "protocol.session_calibration",
    "protocol.task_intent_stream",
    "outcomes.load_cohort_csv",
    "outcomes.analyze_cohort",
    "outcomes.render",
    "cli.main",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Measurement


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up time of fresh benchmark processes, each after a reference child.

    A probe is a fresh process that builds the workload and reports ready.
    Both probes and reference children are mostly interpreter start and
    imports, which the host slows far more than computation, so each probe
    is paired with the reference child (``speed.time_child``) run just
    before it; ``setup_s`` is the median probe/reference ratio scaled to
    the reference host.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples, references = [], []
    for _ in range(SETUP_PROBES):
        references.append(speed.time_child(child_env()))
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(ready)
    return samples, references


def measure_imports() -> tuple[list[float], list[float]]:
    """Wall time of ``python -c pass`` and of ``python -c "import exobench.cli"``."""
    workdir = new_workdir("imports")
    interpreter, imports = [], []
    try:
        for i in range(IMPORT_PROBES):
            for code, into in (("pass", interpreter), ("import exobench.cli", imports)):
                result = spawn([sys.executable, "-c", code], workdir, workdir / f"{i}")
                if result.returncode != 0:
                    raise RuntimeError(f"python -c {code!r} failed")
                into.append(result.wall_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return interpreter, imports


def timed(fn):
    start = time.perf_counter()
    try:
        outcome, error = fn(), None
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    return outcome, time.perf_counter() - start, error


def cycles_for(workload, seconds: float, trace: int) -> int:
    """Whole cycles in a run: about ``seconds`` of work at the nominal cycle time.

    The count depends only on ``seconds``, never on measured speed, so every
    run of every commit executes the same ops and the tail percentile stays
    the same percentile. A traced run executes each op twice, in half as
    many cycles.
    """
    per_cycle = len(workload.cycle(0))
    cycles = max(-(-(TAIL_BEYOND + 1) // per_cycle), round(seconds / workload.cycle_s))
    return max(1, cycles // 2) if trace else cycles


class Run:
    """The closed loop: one client running whole cycles of ops."""

    def __init__(self, workload, tracer: Tracer | None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[float] = []
        #: Index in ``speed_s`` of the last speed sample before each latency.
        self.sample_before: list[int] = []
        #: (untraced, traced) latency of each op that passed both times.
        self.pairs: list[tuple[float, float]] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        self.aside_s = 0.0
        self.wall_s = 0.0
        self.speed_s: list[float] = []
        self._last_sample = float("-inf")

    def _check(self, op, outcome, error) -> str | None:
        if error is not None:
            self.failures.append(f"{op.label}: {error}")
            return None
        start = time.perf_counter()
        try:
            return op.check(outcome)
        except CheckFailed as exc:
            self.failures.append(f"{op.label}: {exc}")
            return None
        except Exception as exc:  # output the check cannot read is wrong output
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.aside_s += time.perf_counter() - start

    def _traced(self, op):
        tracer = self.tracer
        tracer.op = self.attempted
        if op.run_traced is None:
            tracer.install()
            body = op.run
        else:
            body = lambda: op.run_traced(tracer)
        try:
            return timed(lambda: tracer.call(f"op.{self.workload.name}", body))
        finally:
            tracer.uninstall()

    def _sample_speed(self) -> None:
        in_children = self.workload.in_children
        if time.perf_counter() - self._last_sample >= (CHILD_EVERY_S if in_children
                                                       else KERNEL_EVERY_S):
            elapsed = speed.time_child(child_env()) if in_children else speed.time_kernel()
            self.speed_s.append(elapsed)
            self.aside_s += elapsed
            self._last_sample = time.perf_counter()

    def run_op(self, op) -> None:
        self._sample_speed()
        failed_before = len(self.failures)
        traced_first = self.tracer is not None and self.attempted % 2 == 1
        if traced_first:  # alternate which side of the pair runs first
            traced, traced_latency, traced_error = self._traced(op)
        outcome, latency, error = timed(op.run)
        fingerprint = self._check(op, outcome, error)
        if self.tracer is not None:
            if not traced_first:
                traced, traced_latency, traced_error = self._traced(op)
            traced_fingerprint = self._check(op, traced, traced_error)
            if fingerprint is not None and traced_fingerprint not in (None, fingerprint):
                self.failures.append(f"{op.label}: output changed under tracing")
        self.attempted += 1
        if len(self.failures) > failed_before:
            self.failed += 1
            return
        self.latencies.append(latency)
        self.sample_before.append(len(self.speed_s) - 1)
        if self.tracer is not None:
            self.pairs.append((latency, traced_latency))

    def execute(self, cycles: int) -> None:
        if not self.workload.in_children:
            speed.kernel()  # compiles the kernel's module; not a sample
        start = time.perf_counter()
        while self.cycles < cycles and time.perf_counter() - start < HARD_STOP_S:
            for op in self.workload.cycle(self.cycles):
                self.run_op(op)
            self.cycles += 1
        self._last_sample = float("-inf")
        self._sample_speed()
        self.wall_s = time.perf_counter() - start

    def ref_latencies(self) -> list[float]:
        """Latencies scaled to the reference host speed.

        An op in this process is scaled by the mean of the kernel timed just
        before it and the next one after it, which follows the host's drift
        within the run. An op in a child process is scaled by the run's
        interquartile mean reference-child time.
        """
        k = self.speed_s
        if self.workload.in_children:
            scale = CHILD_REF_S / interquartile_mean(k)
            return [latency * scale for latency in self.latencies]
        return [latency * KERNEL_REF_S * 2.0 / (k[i] + k[i + 1])
                for latency, i in zip(self.latencies, self.sample_before)]


# ---------------------------------------------------------------------------
# Metrics


def interquartile_mean(samples: list[float]) -> float:
    """Mean of the middle half: robust to interruptions, tighter than the median."""
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    k = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[k - 1], 100.0 * k / len(ordered)


def end_to_end(run: Run, setup: tuple[list[float], list[float]]) -> tuple[dict, dict, dict]:
    """Declared metrics, notes, and the host-second figures behind them.

    The host's speed drifts by tens of percent over minutes, and the drift
    is shared by every process on it. Reference work (``speed.py``), timed
    between ops, measures that drift; ``.ref`` metrics scale each op by it
    (see Run.ref_latencies), which cancels most of it. Set-up times
    are scaled by reference children timed just before each set-up probe
    (see measure_setup). Memory is not scaled.
    """
    lat = run.latencies or [0.0]
    ref = run.ref_latencies() or [0.0]
    value, percentile = tail(lat)
    probes, references = setup
    if run.workload.in_children:
        rss_kb = run.workload.maxrss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops_per_s = len(run.latencies) / (run.wall_s - run.aside_s)
    host = {
        "op_s.p50": (statistics.median(lat), "s"),
        "op_s.tail": (value, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "host.reference_s": (interquartile_mean(run.speed_s), "s"),
        "setup_s.host": (statistics.median(probes), "s"),
    }
    metrics = {
        "setup_s": (statistics.median(CHILD_REF_S * p / r for p, r in zip(probes, references)),
                    "s"),
        "op_s.p50.ref": (statistics.median(ref), "s"),
        "op_s.tail.ref": (tail(ref)[0], "s"),
        "ops_per_s.ref": (ops_per_s * sum(lat) / sum(ref) if run.latencies else 0.0, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    tail_note = f"p{percentile:.1f} of {len(lat)} ops, {TAIL_BEYOND} beyond"
    notes = {
        "setup_s": f"median of {len(probes)} fresh processes, each scaled by a reference child",
        "setup_s.host": f"median of {len(probes)} fresh processes, unscaled",
        "op_s.tail": tail_note,
        "op_s.tail.ref": tail_note,
        "host.reference_s": f"interquartile mean of {len(run.speed_s)} speed samples",
    }
    return metrics, notes, host


def per_layer(run: Run, spans, imports) -> tuple[dict, dict]:
    stats = aggregate(spans)
    get = lambda name: stats.get(name, LayerStats())
    ops = max(1, run.attempted)
    metrics = {}
    for span, unit in PER_TICK_SPANS.items():
        s = get(span)
        metrics[f"{span}.us_per_{unit}"] = (1e6 * s.self_s / s.units if s.units else 0.0,
                                            f"us/{unit}")
    for span in SELF_TIME_SPANS:
        s = get(span)
        metrics[f"{span}.self_s"] = (s.self_s / s.calls if s.calls else 0.0, "s")
    episode = get("controller.run_episode")
    aborts = sum(1 for s in spans if s.name == "controller.run_episode"
                 and s.error == "SafetyAbort")
    in_session = sum(1 for s in spans if s.name == "controller.run_episode"
                     and s.parent is not None and spans[s.parent].name == "protocol.run_session")
    sessions = get("protocol.run_session").calls
    interpreter, imported = imports
    interpreter_s = statistics.median(interpreter)
    metrics.update({
        "controller.run_episode.calls": (episode.calls / ops, "count/op"),
        "controller.ticks": (episode.units / ops, "count/op"),
        "controller.realtime_factor": (
            episode.units * CONTROL_DT_S / episode.total_s if episode.total_s else 0.0, "ratio"),
        "controller.safety_aborts": (aborts / ops, "count/op"),
        "protocol.episodes_per_session": (in_session / sessions if sessions else 0.0, "count"),
        "cli.interpreter_s": (interpreter_s, "s"),
        "cli.import_s": (statistics.median(imported) - interpreter_s, "s"),
        "trace.overhead_ratio": (trace_overhead(run), "ratio"),
    })
    notes = {"trace.overhead_ratio":
             f"median traced/untraced latency over {len(run.pairs)} op pairs"}
    coverage = session_coverage(spans)
    if coverage is not None:
        notes["protocol.run_session.self_s"] = (
            f"run_session spans cover at least {coverage:.4f} of each session op span")
    return metrics, notes


def trace_overhead(run: Run) -> float:
    ratios = [traced / plain for plain, traced in run.pairs if plain > 0]
    return statistics.median(ratios) if ratios else 0.0


def session_coverage(spans) -> float | None:
    """Smallest share of a ``sessions`` op span covered by its run_session span."""
    shares = [s.duration / spans[s.parent].duration for s in spans
              if s.name == "protocol.run_session" and s.parent is not None
              and spans[s.parent].name == "op.sessions"]
    return min(shares) if shares else None


# ---------------------------------------------------------------------------
# Environment record and output


def environment(args, run: Run) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src = sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)
    tree = "".join(f"{p.relative_to(SRC).as_posix()}:{sha256(p.read_bytes())}\n" for p in src)
    return {
        "git_sha": git_sha,
        "src_sha256": sha256(tree),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": run.attempted,
        "cycles": run.cycles,
        "wall_s": run.wall_s,
    }


def declared_metrics(trace: int) -> dict | None:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "exobench" / "__init__.py").is_file():
        print(f"error: no exobench package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload_type = WORKLOADS[args.workload]

    if args.setup_probe:
        workload = workload_type(args.seed)
        print("ready", flush=True)
        workload.close()
        return 0

    missing = resolve()[1] if args.trace else []
    setup = ([], []) if args.trace else measure_setup(args)
    workload = workload_type(args.seed)
    tracer = Tracer() if args.trace else None
    run = Run(workload, tracer)
    try:
        run.execute(cycles_for(workload, args.seconds, args.trace))
        if args.trace:
            imports = measure_imports()
    finally:
        workload.close()

    errors = [f"traced function {name} is missing; its metrics would read 0"
              for name in missing] + (nesting_errors(tracer.spans) if tracer else [])
    if tracer:
        metrics, notes = per_layer(run, tracer.spans, imports)
        host = {}
    else:
        metrics, notes, host = end_to_end(run, setup)
    declared = declared_metrics(args.trace)
    produced = {name: unit for name, (_value, unit) in metrics.items()}
    if declared is not None and declared != produced:
        print(f"error: metrics {sorted(produced)} do not match BENCHMARK.json "
              f"{sorted(declared)}", file=sys.stderr)
        return 2

    failed = run.failed
    correct = failed == 0 and not errors

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    record = {
        "environment": environment(args, run),
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "failed_ratio": failed / run.attempted,
        "failures": run.failures[:50],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "host_metrics": {name: {"value": v, "unit": u} for name, (v, u) in host.items()},
        "notes": notes,
        "setup_samples_s": setup[0],
        "setup_reference_s": setup[1],
        "latencies_s": run.latencies,
        "latency_pairs_s": run.pairs,
        "speed_samples_s": run.speed_s,
        "sample_before": run.sample_before,

        "untraced_functions": missing,
        "trace_errors": errors[:50],
    }
    stem.with_name(f"{stem.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.dump(stem.with_name(f"{stem.name}.spans.jsonl"))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {run.attempted}  cycles {run.cycles}  wall {run.wall_s:.1f} s")
    for name, (value, unit) in {**metrics, **host}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<44} {value:>14.6g} {unit}{note}")
    print(f"{'failed_ratio':<44} {failed / run.attempted:>14.6g} ratio  "
          f"({failed} of {run.attempted} ops)")
    for failure in run.failures[:10]:
        print(f"failure: {failure}")
    for error in errors[:10]:
        print(f"trace error: {error}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
