"""Command-line interface.

Conventions: data goes to stdout (or the --out target), diagnostics go to
stderr. Exit codes: 0 success, 1 usage error, 2 data or file error,
3 safety abort. All outputs are deterministic for a fixed seed; file
formats carry schema-version headers.

``exobench.outcomes`` is imported only by ``gen cohort`` and ``analyze``,
and scipy (through ``outcomes.stats``) only by ``analyze``, the one command
that runs the statistics; the others start without paying for it.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from exobench import config as config_mod
from exobench import controller, intent as intent_mod, protocol, signals
from exobench.signals import IntentLabel, ShoulderPosture
from exobench.subject import Subject, preset_subject
from exobench import subject as subject_mod


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1."""

    def error(self, message: str):
        raise UsageError(message)


def _intent_script(text: str) -> list[tuple[IntentLabel, float]]:
    return _parse_script(text, IntentLabel)


def _posture_script(text: str) -> list[tuple[ShoulderPosture, float]]:
    return _parse_script(text, ShoulderPosture)


def _parse_script(text: str, enum_type):
    segments = []
    for part in text.split(","):
        name, sep, dur = part.strip().partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"segment {part.strip()!r} must look like label:seconds"
            )
        try:
            label = enum_type(name.strip().lower())
        except ValueError:
            valid = ", ".join(e.value for e in enum_type)
            raise argparse.ArgumentTypeError(f"unknown label {name.strip()!r} (expected one of {valid})")
        try:
            seconds = float(dur)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad duration {dur!r} in segment {part.strip()!r}")
        if seconds <= 0:
            raise argparse.ArgumentTypeError("segment durations must be positive")
        segments.append((label, seconds))
    if not segments:
        raise argparse.ArgumentTypeError("script must contain at least one segment")
    return segments


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"q must be a rational number, got {text!r}")
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"q must lie strictly between 0 and 1, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="exobench", description="Hand-orthosis study workbench.")
    parser.set_defaults(func=None)
    # Each command takes only the flags it reads: every one writes --out, the
    # generators and simulate draw from --seed, and a command that reads
    # settings takes --config (and only such a command loads $EXO_CONFIG).
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output file or directory")
    config = argparse.ArgumentParser(add_help=False, parents=[out])
    config.add_argument("--config", default=None,
                        help="key = value config file (default: $EXO_CONFIG if set)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[config])
    seeded.add_argument("--seed", type=int, default=None, help="base RNG seed (default 0)")

    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate synthetic inputs")
    gen.set_defaults(func=None)
    gen_sub = gen.add_subparsers(dest="what", parser_class=_Parser)

    g_emg = gen_sub.add_parser("emg", parents=[seeded], help="annotated EMG trace")
    g_emg.add_argument("--intent-script", type=_intent_script, required=True,
                       metavar="SCRIPT", help='e.g. "open:2,relax:2,close:2"')
    g_emg.add_argument("--profile", choices=("separable", "distorted", "clean"), default="separable")
    g_emg.add_argument("--rate", type=float, default=None, help="sample rate in Hz (default 50)")
    g_emg.set_defaults(func=cmd_gen_emg)

    g_load = gen_sub.add_parser("load", parents=[seeded], help="harness load-cell trace")
    g_load.add_argument("--script", type=_posture_script, required=True,
                        metavar="SCRIPT", help='e.g. "rest:2,elevated:1,rest:1,depressed:1"')
    g_load.add_argument("--rate", type=float, default=None, help="sample rate in Hz (default 50)")
    g_load.add_argument("--noise-std", type=float, default=0.0, help="gaussian noise, newtons")
    g_load.add_argument("--dither-amp", type=float, default=0.0,
                        help="postural sway amplitude, newtons")
    g_load.add_argument("--dither-hz", type=float, default=1.5, help="sway frequency")
    g_load.set_defaults(func=cmd_gen_load)

    g_cohort = gen_sub.add_parser("cohort", parents=[out],
                                  help="reference 11-subject outcome CSV")
    g_cohort.set_defaults(func=cmd_gen_cohort)

    g_screen = gen_sub.add_parser("screening", parents=[seeded],
                                  help="training trace plus the six screening conditions")
    g_screen.add_argument("--subject", choices=("separable", "distorted", "table_bound"),
                          default="separable")
    g_screen.set_defaults(func=cmd_gen_screening)

    p_screen = sub.add_parser("screen", parents=[out],
                              help="run the control-interface screening over a trace directory")
    p_screen.add_argument("dir", help="directory holding train.jsonl and the six condition traces")
    p_screen.add_argument("--format", choices=("text", "json"), default="text")
    p_screen.set_defaults(func=cmd_screen)

    p_episode = sub.add_parser("episode", parents=[config],
                               help="run one controller episode from an intent script")
    p_episode.add_argument("--intent-script", type=_intent_script, required=True,
                           metavar="SCRIPT", help='e.g. "open:3,relax:1,close:3"')
    p_episode.add_argument("--hand-size", choices=subject_mod.HAND_SIZES, default=None)
    p_episode.add_argument("--mas", choices=subject_mod.MAS_GRADES, default=None)
    p_episode.set_defaults(func=cmd_episode)

    p_sim = sub.add_parser("simulate", parents=[seeded],
                           help="simulate a subject's training sessions")
    p_sim.add_argument("--group", choices=("EMG", "SH"), default=None)
    p_sim.add_argument("--subject-id", default="S01")
    p_sim.add_argument("--hand-size", choices=subject_mod.HAND_SIZES, default=None)
    p_sim.add_argument("--mas", choices=subject_mod.MAS_GRADES, default=None)
    p_sim.add_argument("--sessions", type=int, default=None, help="number of sessions (default 12)")
    p_sim.add_argument("--duration-scale", type=float, default=None,
                       help="task duration multiplier (default 1.0)")
    p_sim.set_defaults(func=cmd_simulate)

    p_analyze = sub.add_parser("analyze", parents=[config],
                               help="analyze an outcome CSV")
    p_analyze.add_argument("csv", help="cohort scores, CSV")
    p_analyze.add_argument("--q", type=_fraction, default=None,
                           help="false discovery rate (default 0.05)")
    p_analyze.add_argument("--format", choices=("text", "json"), default="text")
    p_analyze.set_defaults(func=cmd_analyze)

    p_proto = sub.add_parser("protocol", help="protocol inspection")
    p_proto.set_defaults(func=None)
    proto_sub = p_proto.add_subparsers(dest="what", parser_class=_Parser)
    p_tasks = proto_sub.add_parser("list-tasks", parents=[out],
                                   help="list the training tasks in order")
    p_tasks.set_defaults(func=cmd_protocol_tasks)

    return parser


# ---------------------------------------------------------------------------
# Shared helpers


def _load_cfg(args) -> dict:
    """Settings for a command that takes --config: that file, else $EXO_CONFIG, else none."""
    if not hasattr(args, "config"):
        return {}
    path = args.config or os.environ.get("EXO_CONFIG")
    if not path:
        return {}
    return config_mod.load_config(path)


def _pick(args_value, cfg: dict, key: str, fallback):
    if args_value is not None:
        return args_value
    if key in cfg:
        return cfg[key]
    return fallback


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _out_dir(args) -> Path:
    if not args.out:
        raise UsageError("--out DIR is required for this command")
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_emg(args, cfg) -> int:
    seed = int(_pick(args.seed, cfg, "seed", 0))
    rate = float(_pick(args.rate, cfg, "rate_hz", signals.DEFAULT_EMG_RATE_HZ))
    if args.profile == "distorted":
        profile = signals.distorted_profile(seed)
    elif args.profile == "clean":
        profile = signals.make_profile(
            noise_std=float(_pick(None, cfg, "noise_std", 0.0)),
            drift_rate=float(_pick(None, cfg, "drift_rate", 0.0)),
            crosstalk=float(_pick(None, cfg, "crosstalk", 0.0)),
            seed=seed,
        )
    else:
        profile = signals.separable_profile(seed)
    trace = signals.gen_emg_trace(profile, args.intent_script, rate_hz=rate)
    _emit(trace.to_jsonl(), args.out)
    return 0


def cmd_gen_load(args, cfg) -> int:
    seed = int(_pick(args.seed, cfg, "seed", 0))
    rate = float(_pick(args.rate, cfg, "rate_hz", signals.DEFAULT_LOAD_RATE_HZ))
    trace = signals.gen_load_trace(
        args.script,
        rate_hz=rate,
        noise_std=args.noise_std,
        dither_amp=args.dither_amp,
        dither_hz=args.dither_hz,
        seed=seed,
    )
    _emit(trace.to_jsonl(), args.out)
    return 0


def cmd_gen_cohort(args, cfg) -> int:
    from exobench.outcomes import golden

    del cfg
    _emit(golden.golden_cohort_csv(), args.out)
    return 0


def cmd_gen_screening(args, cfg) -> int:
    seed = int(_pick(args.seed, cfg, "seed", 0))
    out = _out_dir(args)
    subject = preset_subject(args.subject, seed=seed)
    train_script = [(label, 4.0) for label in intent_mod.CLASS_ORDER]
    train = signals.gen_emg_trace(subject.emg_profile("screen:train"), train_script)
    train.save(out / "train.jsonl")
    for condition in intent_mod.SCREENING_CONDITIONS:
        intent = IntentLabel(condition.split("_", 1)[0])
        off_table = condition.endswith(intent_mod.OFF_TABLE)
        profile = subject.emg_profile(f"screen:{condition}", off_table=off_table)
        trace = signals.gen_emg_trace(profile, intent_mod.screening_script(intent))
        trace.save(out / f"{condition}.jsonl")
    print(f"wrote train.jsonl and {len(intent_mod.SCREENING_CONDITIONS)} "
          f"condition traces to {out}", file=sys.stderr)
    return 0


def cmd_screen(args, cfg) -> int:
    del cfg
    root = Path(args.dir)
    wanted = ["train.jsonl"] + [f"{c}.jsonl" for c in intent_mod.SCREENING_CONDITIONS]
    missing = [name for name in wanted if not (root / name).is_file()]
    if missing:
        print(f"error: missing screening inputs in {root}: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    train = signals.SignalTrace.load(root / "train.jsonl")
    classifier = intent_mod.train_classifier(intent_mod.labeled_windows(train))
    traces = {
        c: signals.SignalTrace.load(root / f"{c}.jsonl")
        for c in intent_mod.SCREENING_CONDITIONS
    }
    result = intent_mod.screen_emg_eligibility(traces, classifier)
    if args.format == "json":
        _emit(result.to_json(), args.out)
    else:
        lines = []
        for cond in result.conditions:
            holds = ", ".join(f"{h:.2f}" for h in cond.attempt_holds_s)
            lines.append(f"{cond.condition:<16} {'pass' if cond.passed else 'FAIL':<5} holds [s]: {holds}")
        lines.append(f"verdict: {result.verdict}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_episode(args, cfg) -> int:
    hand_size = _pick(args.hand_size, cfg, "hand_size", "M")
    mas = _pick(args.mas, cfg, "mas", "0")
    if mas not in controller.MAS_STIFFNESS:
        raise ValueError(f"unknown spasticity grade {mas!r}")
    rom = controller.calibrate_rom(hand_size)
    plant = controller.flexed_plant(hand_size, controller.MAS_STIFFNESS[mas])
    t = 0.0
    times, codes = [], []
    for label, seconds in args.intent_script:
        times.append(t)
        codes.append(intent_mod.CLASS_ORDER.index(label))
        t += seconds
    log = controller.run_episode((np.array(times), np.array(codes)), t, rom, plant=plant)
    _emit(log.to_jsonl(), args.out)
    return 0


def cmd_simulate(args, cfg) -> int:
    group = _pick(args.group, cfg, "group", None)
    if group is None:
        raise UsageError("--group is required (EMG or SH)")
    sessions = int(_pick(args.sessions, cfg, "sessions", protocol.TOTAL_SESSIONS))
    if not 1 <= sessions <= protocol.TOTAL_SESSIONS:
        raise UsageError(f"--sessions must be 1..{protocol.TOTAL_SESSIONS}")
    subject = Subject(
        subject_id=args.subject_id,
        group=group,
        hand_size=_pick(args.hand_size, cfg, "hand_size", "M"),
        mas=_pick(args.mas, cfg, "mas", "1"),
        duration_scale=float(_pick(args.duration_scale, cfg, "duration_scale", 1.0)),
        uses_arm_support=bool(_pick(None, cfg, "arm_support", False)),
        seed=int(_pick(args.seed, cfg, "seed", 0)),
    )
    out = _out_dir(args)
    plans = protocol.build_session_plans(subject.subject_id)[:sessions]
    summary = [
        f"subject {subject.subject_id}  group {subject.group}  "
        f"hand {subject.hand_size}  spasticity {subject.mas}"
    ]
    for plan in plans:
        log = protocol.run_session(plan, subject)
        path = out / f"session_{plan.session_index:02d}.jsonl"
        log.save(path)
        note = (
            f"protocol truncated after {log.last_completed_task} (budget reached)"
            if log.overflow
            else f"protocol complete, free training {log.free_training_s:.0f} s"
        )
        summary.append(
            f"session {plan.session_index:02d}  {plan.session_date.isoformat()}  "
            f"active {log.active_s:.0f} s  {note}"
        )
        print(f"wrote {path}", file=sys.stderr)
    _emit("\n".join(summary) + "\n", None)
    return 0


def cmd_analyze(args, cfg) -> int:
    from exobench.outcomes import model, report

    q = args.q
    if q is None:
        try:
            q = _fraction(str(_pick(None, cfg, "q", "0.05")))
        except argparse.ArgumentTypeError as exc:  # a bad config value, not bad usage
            raise ValueError(str(exc)) from None
    cohort = model.load_cohort_csv(args.csv)
    result = report.analyze_cohort(cohort, q=q)
    text = report.render_json(result) if args.format == "json" else report.render_text(result)
    _emit(text, args.out)
    return 0


def cmd_protocol_tasks(args, cfg) -> int:
    del cfg
    lines = []
    for task in protocol.build_protocol():
        support = f"  [{task.support.value}]" if task.support is not protocol.Support.NA else ""
        lines.append(
            f"{task.task_id:<14} {task.phase.value:<16} x{task.repetitions}  "
            f"{task.object_name}{support}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits via argparse
        return exc.code if isinstance(exc.code, int) else 0
    if args.func is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = _load_cfg(args)
        return args.func(args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except controller.SafetyAbort as exc:
        print(f"safety abort: {exc.diagnostic}", file=sys.stderr)
        return 3
    except (config_mod.ConfigError, protocol.CalibrationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
