"""Command-line interface.

Conventions: data goes to stdout (or the --out target), diagnostics go to
stderr. Exit codes: 0 success, 1 usage error, 2 data or file error,
3 safety abort. All outputs are deterministic for a fixed seed; file
formats carry schema-version headers.

Each command imports only the modules it runs, inside its ``cmd_``
function, and a script flag's parser imports its enum, so importing this
module loads ``exobench.config`` and no numpy. ``gen cohort`` starts without
numpy, only ``analyze`` loads scipy (through ``outcomes.stats``), and only
``episode``, ``simulate`` and ``protocol list-tasks`` (``protocol`` imports
it) load ``controller``. Start-up is most of a short command's time, more so
on hosts that set ``PYTHONDONTWRITEBYTECODE``, where each process compiles
every module it imports from source.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from exobench import config as config_mod


#: Distortion levels beyond which the screening verdict flips to the harness
#: interface for the canonical patterns (fixed generator seeds).
DISTORTED_CROSSTALK = 0.6
DISTORTED_DRIFT_RATE = 0.06

#: ``gen emg --profile``: each preset's (noise_std, drift_rate, crosstalk),
#: which the settings of the same names override.
EMG_PROFILES = {
    "separable": (0.02, 0.0, 0.0),
    "distorted": (0.05, DISTORTED_DRIFT_RATE, DISTORTED_CROSSTALK),
    "clean": (0.0, 0.0, 0.0),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1."""

    def error(self, message: str):
        raise UsageError(message)


def _intent_script(text: str) -> list[tuple]:
    from exobench.signals import IntentLabel

    return _parse_script(text, IntentLabel)


def _posture_script(text: str) -> list[tuple]:
    from exobench.signals import ShoulderPosture

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


def _command(subparsers, name: str, func, help: str) -> _Parser:
    """The parser of command ``name``: --out, and, if it reads settings,
    --config and the flag of each setting it reads."""
    parser = subparsers.add_parser(name.split()[-1], help=help)
    parser.add_argument("--out", default=None, help="output file or directory")
    settings = config_mod.settings_of(name)
    if settings:
        parser.add_argument("--config", default=None,
                            help="key = value config file (default: $EXO_CONFIG if set)")
    for setting in settings:
        if setting.flag:
            parser.add_argument(setting.flag, dest=setting.key, type=setting.parse,
                                choices=setting.choices, help=setting.help)
    parser.set_defaults(func=func, command=name)
    return parser


def build_parser() -> _Parser:
    parser = _Parser(prog="exobench", description="Hand-orthosis study workbench.")
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate synthetic inputs")
    gen_sub = gen.add_subparsers(parser_class=_Parser)

    g_emg = _command(gen_sub, "gen emg", cmd_gen_emg, "annotated EMG trace")
    g_emg.add_argument("--intent-script", type=_intent_script, required=True,
                       metavar="SCRIPT", help='e.g. "open:2,relax:2,close:2"')
    g_emg.add_argument("--profile", choices=tuple(EMG_PROFILES), default="separable")

    g_load = _command(gen_sub, "gen load", cmd_gen_load, "harness load-cell trace")
    g_load.add_argument("--script", type=_posture_script, required=True,
                        metavar="SCRIPT", help='e.g. "rest:2,elevated:1,rest:1,depressed:1"')
    g_load.add_argument("--dither-amp", type=float, default=0.0,
                        help="postural sway amplitude, newtons")
    g_load.add_argument("--dither-hz", type=float, default=1.5, help="sway frequency")

    _command(gen_sub, "gen cohort", cmd_gen_cohort, "reference 11-subject outcome CSV")

    g_screen = _command(gen_sub, "gen screening", cmd_gen_screening,
                        "training trace plus the six screening conditions")
    g_screen.add_argument("--subject", choices=("separable", "distorted", "table_bound"),
                          default="separable")

    p_screen = _command(sub, "screen", cmd_screen,
                        "run the control-interface screening over a trace directory")
    p_screen.add_argument("dir", help="directory holding train.jsonl and the six condition traces")
    p_screen.add_argument("--format", choices=("text", "json"), default="text")

    p_episode = _command(sub, "episode", cmd_episode,
                         "run one controller episode from an intent script")
    p_episode.add_argument("--intent-script", type=_intent_script, required=True,
                           metavar="SCRIPT", help='e.g. "open:3,relax:1,close:3"')

    p_sim = _command(sub, "simulate", cmd_simulate, "simulate a subject's training sessions")
    p_sim.add_argument("--subject-id", default="S01")

    p_analyze = _command(sub, "analyze", cmd_analyze, "analyze an outcome CSV")
    p_analyze.add_argument("csv", help="cohort scores, CSV")
    p_analyze.add_argument("--format", choices=("text", "json"), default="text")

    p_proto = sub.add_parser("protocol", help="protocol inspection")
    proto_sub = p_proto.add_subparsers(parser_class=_Parser)
    _command(proto_sub, "protocol list-tasks", cmd_protocol_tasks,
             "list the training tasks in order")

    return parser


# ---------------------------------------------------------------------------
# Shared helpers


def _resolve(args) -> None:
    """Set each setting the command reads: from its flag, else the --config
    file (else $EXO_CONFIG), else the command's default."""
    settings = config_mod.settings_of(args.command)
    if not settings:
        return
    path = args.config or os.environ.get("EXO_CONFIG")
    try:
        values = config_mod.parse_config(Path(path).read_text()) if path else {}
    except config_mod.ConfigError as exc:
        raise config_mod.ConfigError(f"{path}: {exc}") from None
    for setting in settings:
        value = getattr(args, setting.key, None)
        if value is None:
            value = values.get(setting.key, setting.defaults[args.command])
        if value is config_mod.REQUIRED:
            raise UsageError(f"{setting.flag} is required ({' or '.join(setting.choices)})")
        setattr(args, setting.key, value)


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


def cmd_gen_emg(args) -> int:
    from exobench import signals

    settings = (args.noise_std, args.drift_rate, args.crosstalk)
    values = [preset if value is None else value
              for value, preset in zip(settings, EMG_PROFILES[args.profile])]
    profile = signals.make_profile(*values, seed=args.seed)
    trace = signals.gen_emg_trace(profile, args.intent_script, rate_hz=args.rate_hz)
    _emit(trace.to_jsonl(), args.out)
    return 0


def cmd_gen_load(args) -> int:
    from exobench import signals

    trace = signals.gen_load_trace(
        args.script,
        rate_hz=args.rate_hz,
        noise_std=args.noise_std,
        dither_amp=args.dither_amp,
        dither_hz=args.dither_hz,
        seed=args.seed,
    )
    _emit(trace.to_jsonl(), args.out)
    return 0


def cmd_gen_cohort(args) -> int:
    from exobench.outcomes import golden

    _emit(golden.golden_cohort_csv(), args.out)
    return 0


def cmd_gen_screening(args) -> int:
    from exobench import intent as intent_mod, signals
    from exobench.signals import IntentLabel
    from exobench.subject import preset_subject

    out = _out_dir(args)
    subject = preset_subject(args.subject, seed=args.seed)
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


def cmd_screen(args) -> int:
    from exobench import intent as intent_mod, signals

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


def cmd_episode(args) -> int:
    import numpy as np

    from exobench import controller
    from exobench.signals import IntentLabel

    rom = controller.calibrate_rom(args.hand_size)
    plant = controller.flexed_plant(args.hand_size, controller.MAS_STIFFNESS[args.mas])
    order = list(IntentLabel)  # intent.CLASS_ORDER, without loading intent
    t = 0.0
    times, codes = [], []
    for label, seconds in args.intent_script:
        times.append(t)
        codes.append(order.index(label))
        t += seconds
    try:
        log = controller.run_episode((np.array(times), np.array(codes)), t, rom, plant=plant)
    except controller.SafetyAbort as exc:
        print(f"safety abort: {exc.diagnostic}", file=sys.stderr)
        return 3
    _emit(log.to_jsonl(), args.out)
    return 0


def cmd_simulate(args) -> int:
    from exobench import protocol
    from exobench.subject import Subject

    subject = Subject(
        subject_id=args.subject_id,
        group=args.group,
        hand_size=args.hand_size,
        mas=args.mas,
        duration_scale=args.duration_scale,
        uses_arm_support=args.arm_support,
        seed=args.seed,
    )
    out = _out_dir(args)
    plans = protocol.build_session_plans(subject.subject_id)[:args.sessions]
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


def cmd_analyze(args) -> int:
    from exobench.outcomes import model, report

    cohort = model.load_cohort_csv(args.csv)
    result = report.analyze_cohort(cohort, q=args.q)
    text = report.render_json(result) if args.format == "json" else report.render_text(result)
    _emit(text, args.out)
    return 0


def cmd_protocol_tasks(args) -> int:
    from exobench import protocol

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
        _resolve(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # ConfigError, CalibrationError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
