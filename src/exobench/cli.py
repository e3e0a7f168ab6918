"""Command-line interface.

Conventions: data goes to stdout (or the --out target), diagnostics go to
stderr. Exit codes: 0 success, 1 usage error, 2 data or file error,
3 safety abort. All outputs are deterministic for a fixed seed; file
formats carry schema-version headers. ``gen screening`` writes the traces of
``intent.screening_bundle``; ``screen`` prints the report ``intent`` makes.

Each command imports only the modules it runs, inside its ``cmd_``
function, and a script flag's parser imports ``signals``, so importing this
module loads ``exobench.config`` and no numpy. ``gen cohort`` and ``protocol
list-tasks`` (through ``tasks``) start without numpy, only ``analyze`` loads
scipy (through ``outcomes.stats``), and only ``episode`` and ``simulate``
load ``controller``. Start-up is most of a short command's time, more so
on hosts that set ``PYTHONDONTWRITEBYTECODE``, where each process compiles
every module it imports from source.
"""

from __future__ import annotations

import argparse
import itertools
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


def _quote_echoes(message: str, texts: list[str]) -> str:
    """``message`` with each argv text of over ``config.SHOWN_CHARS``
    characters that argparse echoes, whole or from a value after its option,
    raw or as its repr, quoted through ``config.quoted``."""
    for text in texts:
        for start in range(len(text) - config_mod.SHOWN_CHARS):
            tail = text[start:]
            if repr(tail) in message:
                message = message.replace(repr(tail), config_mod.quoted(tail))
                break
            if tail in message:
                message = message.replace(tail, config_mod.quoted(tail, short=str))
                break
    return message


def _script(enum_name: str):
    """The argparse type of a script flag: ``label:seconds,...`` text as the
    ``signals.<enum_name>`` segments that ``signals._check_script`` passes."""

    def parse(text: str) -> list[tuple]:
        from exobench import signals

        enum_type = getattr(signals, enum_name)
        quoted, labels, segments = config_mod.quoted, {e.value: e for e in enum_type}, []
        try:
            for part in (part.strip() for part in text.split(",")):
                name, sep, dur = part.partition(":")
                if not sep:
                    raise ValueError(f"segment {quoted(part)} must look like label:seconds")
                if (label := labels.get(name.strip().lower())) is None:
                    raise ValueError(f"unknown label {quoted(name.strip())} "
                                     f"(expected one of {', '.join(labels)})")
                try:
                    segments.append((label, float(dur)))
                except ValueError:
                    raise ValueError(f"bad duration {quoted(dur)} in segment {quoted(part)}") from None
            return signals._check_script(segments, enum_type)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


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
    g_emg.add_argument("--intent-script", type=_script("IntentLabel"), required=True,
                       metavar="SCRIPT", help='e.g. "open:2,relax:2,close:2"')
    g_emg.add_argument("--profile", choices=tuple(EMG_PROFILES), default="separable")

    g_load = _command(gen_sub, "gen load", cmd_gen_load, "harness load-cell trace")
    g_load.add_argument("--script", type=_script("ShoulderPosture"), required=True,
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
    p_episode.add_argument("--intent-script", type=_script("IntentLabel"), required=True,
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
    except ValueError as exc:  # a ConfigError, or a byte that is not UTF-8
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
    """The required ``--out`` directory; made only when there is a file to
    write, so a command that fails first leaves none behind."""
    if not args.out:
        raise UsageError("--out DIR is required for this command")
    return Path(args.out)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_emg(args) -> int:
    from exobench import signals

    settings = (args.noise_std, args.drift_rate, args.crosstalk)
    values = [preset if value is None else value
              for value, preset in zip(settings, EMG_PROFILES[args.profile])]
    profile = signals.SignalProfile(*values, seed=args.seed)
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
    from exobench import intent
    from exobench.subject import preset_subject

    out = _out_dir(args)
    bundle = intent.screening_bundle(preset_subject(args.subject, seed=args.seed))
    out.mkdir(parents=True, exist_ok=True)
    for name, trace in bundle.items():
        trace.save(out / f"{name}.jsonl")
    print(f"wrote train.jsonl and {len(bundle) - 1} condition traces to {out}", file=sys.stderr)
    return 0


def cmd_screen(args) -> int:
    from exobench import intent, signals

    root = Path(args.dir)
    files = {name: root / f"{name}.jsonl" for name in ("train", *intent.SCREENING_CONDITIONS)}
    missing = [path.name for path in files.values() if not path.is_file()]
    if missing:
        raise FileNotFoundError(f"missing screening inputs in {root}: {', '.join(missing)}")
    traces = {name: signals.SignalTrace.load(path) for name, path in files.items()}
    try:
        classifier = intent.train_classifier(intent.labeled_windows(traces["train"]))
    except ValueError as exc:  # name the file, as each read error does
        raise ValueError(f"{files['train']}: {exc}") from None
    report = intent.screen_emg_eligibility(traces, classifier)
    _emit(report.to_json() if args.format == "json" else report.to_text(), args.out)
    return 0


def cmd_episode(args) -> int:
    import numpy as np

    from exobench import controller, signals

    labels, seconds = zip(*args.intent_script)
    *times, t = itertools.accumulate(seconds, initial=0.0)
    codes = [signals.INTENT_CODE[label] for label in labels]
    episode = controller.Episode(
        (np.array(times), np.array(codes)), t, controller.calibrate_rom(args.hand_size),
        plant=controller.flexed_plant(args.hand_size, controller.MAS_STIFFNESS[args.mas]))
    log = controller.run_episode(episode)
    if log.abort is not None:
        print(f"safety abort: {log.abort}", file=sys.stderr)
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
        out.mkdir(parents=True, exist_ok=True)
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
    from exobench import tasks

    lines = []
    for task in tasks.build_protocol():
        support = f"  [{task.support.value}]" if task.support is not tasks.Support.NA else ""
        lines.append(
            f"{task.task_id:<14} {task.phase.value:<16} x{task.repetitions}  "
            f"{task.object_name}{support}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # quoted as one text: many short stray arguments join into a long one
            parser.error(f"unrecognized arguments: {config_mod.quoted(' '.join(extra), short=str)}")
    except UsageError as exc:
        print(f"usage error: {_quote_echoes(str(exc), argv)}", file=sys.stderr)
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
