"""Command-line interface: happy paths, exit codes, config handling."""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import string
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import exobench
from exobench import cli, intent, signals
from exobench import config as config_mod
from exobench.outcomes import golden
from exobench.outcomes.model import CSV_HEADER


#: How a screening trace's reader words a malformed sample row, before the row.
_ROW_RULE = ("sample 0 must be an object with keys 't' and 'emg' holding JSON numbers, "
             "8 channels under 'emg'")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env() -> dict[str, str]:
    """Environment for a CLI child process: this checkout first, no $EXO_CONFIG."""
    env = dict(os.environ)
    env.pop("EXO_CONFIG", None)
    src = str(Path(exobench.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestGen:
    def test_emg_trace_to_stdout(self, capsys):
        code, out, _err = run_cli(capsys, "gen", "emg", "--intent-script", "open:1,close:1")
        assert code == 0
        trace = signals.SignalTrace.from_jsonl(out)
        assert trace.kind == "emg"
        assert len(trace.samples) == 100

    def test_emg_seed_is_deterministic(self, capsys):
        args = ("gen", "emg", "--intent-script", "open:1", "--seed", "7")
        _code, first, _err = run_cli(capsys, *args)
        _code, second, _err = run_cli(capsys, *args)
        assert first == second
        _code, other, _err = run_cli(capsys, "gen", "emg", "--intent-script", "open:1", "--seed", "8")
        assert first != other

    def test_emg_out_file(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, out, err = run_cli(
            capsys, "gen", "emg", "--intent-script", "relax:1", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert str(path) in err
        assert signals.SignalTrace.load(path).kind == "emg"

    #: sha256 of ``gen emg --intent-script open:1`` per profile, no setting given.
    PRESET_DIGESTS = {
        "separable": "94fe27698ec258a33b408bc6451e5430fd1a70adce68ddf0e50522270546c9de",
        "distorted": "d6c86ffc773185b63f2aa7acbbcc6f9de55c40594113e253069ced2317b21d1b",
    }

    @pytest.mark.parametrize("profile", ["separable", "distorted", "clean"])
    def test_emg_settings_override_every_profile(self, capsys, tmp_path, profile):
        argv = ("gen", "emg", "--intent-script", "open:1", "--profile", profile)
        _code, preset, _err = run_cli(capsys, *argv)
        if profile in self.PRESET_DIGESTS:
            assert hashlib.sha256(preset.encode()).hexdigest() == self.PRESET_DIGESTS[profile]
        noise, drift, crosstalk = cli.EMG_PROFILES[profile]
        meta = signals.SignalTrace.from_jsonl(preset).meta["profile"]
        assert (meta["variances"]["open"][0], meta["drift_rate"], meta["crosstalk"]) == (
            noise * noise, drift, crosstalk)
        every, two = tmp_path / "every.cfg", tmp_path / "two.cfg"
        every.write_text("noise_std = 0.5\ndrift_rate = 0.01\ncrosstalk = 0.1\n")
        two.write_text("drift_rate = 0.01\ncrosstalk = 0.1\n")
        from_file = run_cli(capsys, *argv, "--config", str(every))
        from_flag = run_cli(capsys, *argv, "--config", str(two), "--noise-std", "0.5")
        assert from_file == from_flag and from_file[0] == 0
        meta = signals.SignalTrace.from_jsonl(from_file[1]).meta["profile"]
        assert (meta["variances"]["open"][0], meta["drift_rate"], meta["crosstalk"]) == (
            0.25, 0.01, 0.1)
        code, out, _err = run_cli(capsys, *argv, "--noise-std", "0.5")
        assert code == 0 and out not in (preset, from_file[1])

    def test_emg_bad_script_label(self, capsys):
        code, _out, err = run_cli(capsys, "gen", "emg", "--intent-script", "grip:1")
        assert code == 1
        assert "unknown label" in err

    def test_emg_bad_script_duration(self, capsys):
        code, _out, err = run_cli(capsys, "gen", "emg", "--intent-script", "open:zero")
        assert code == 1
        assert "bad duration" in err

    @pytest.mark.parametrize("argv", [
        ("gen", "emg", "--rate", "0.001", "--intent-script", "open:1"),
        ("gen", "load", "--rate", "0.001", "--dither-hz", "0", "--script", "rest:1"),
    ], ids=["emg", "load"])
    def test_script_with_no_sample_exits_2(self, capsys, argv):
        assert run_cli(capsys, *argv) == (
            2, "", "error: a 1.0 s trace at 0.001 Hz holds no sample: samples are 1000.0 s apart\n")

    def test_load_trace_dither_band(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "gen", "load",
            "--script", "rest:2",
            "--dither-amp", "2.0",
            "--seed", "11",
        )
        assert code == 0
        trace = signals.SignalTrace.from_jsonl(out)
        assert all(18.0 - 1e-9 <= t <= 22.0 + 1e-9 for t in trace.samples)

    def test_cohort_matches_reference(self, capsys):
        code, out, _err = run_cli(capsys, "gen", "cohort")
        assert code == 0
        assert out == golden.golden_cohort_csv()

    def test_screening_requires_out_dir(self, capsys):
        code, _out, err = run_cli(capsys, "gen", "screening", "--subject", "separable")
        assert code == 1
        assert "--out" in err

    def test_screening_writes_bundle(self, capsys, tmp_path):
        out_dir = tmp_path / "scr"
        code, _out, err = run_cli(
            capsys, "gen", "screening", "--subject", "separable", "--out", str(out_dir)
        )
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert "train.jsonl" in names
        assert len(names) == 7


class TestScreen:
    def test_missing_inputs_exit_2(self, capsys, tmp_path):
        code, _out, err = run_cli(capsys, "screen", str(tmp_path))
        assert code == 2
        assert "train.jsonl" in err
        assert "close_off_table.jsonl" in err

    def test_separable_verdict_emg(self, capsys, tmp_path):
        out_dir = tmp_path / "scr"
        run_cli(capsys, "gen", "screening", "--subject", "separable", "--out", str(out_dir))
        code, out, _err = run_cli(capsys, "screen", str(out_dir))
        assert code == 0
        assert "verdict: EMG" in out

    def test_json_format(self, capsys, tmp_path):
        out_dir = tmp_path / "scr"
        run_cli(capsys, "gen", "screening", "--subject", "distorted", "--out", str(out_dir))
        code, out, _err = run_cli(capsys, "screen", str(out_dir), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "SH"
        assert len(doc["conditions"]) == 6

    def test_training_error_names_the_training_file(self, capsys, tmp_path):
        run_cli(capsys, "gen", "screening", "--out", str(tmp_path))
        path = tmp_path / "train.jsonl"
        _code, trace, _err = run_cli(capsys, "gen", "emg", "--intent-script", "open:4,relax:4")
        path.write_text(trace)
        assert run_cli(capsys, "screen", str(tmp_path)) == (
            2, "", f"error: {path}: insufficient training data: no samples for close\n")

    #: sha256 of ``screen``'s text and JSON output over ``gen screening --subject S --seed N``.
    REPORT_DIGESTS = {
        ("separable", 0): ("0230f6a9a707deea9d7be4a2e894b95addb2c43cb1288b257fad8807ffc08c4d",
                         "f52e3e6ef3bfa26a90575b071d62142b61e8b5e6e4d11f13abf2ef28bdf4e30d"),
        ("separable", 1): ("3880d9aa8d561ac32e443eddc1cdf98274f756a4cc263600b910eaba865b3292",
                         "d7ad746bdc1382892d22874d33b271a87ef397dc54b6d1c0cf31ae281da012fa"),
        ("separable", 2): ("9207c82cce66f78630147fe10466191735745508c56af13a1061945f7e809637",
                         "e5c80b97029c3915add694c52438a8b95db690d9c03a99cf0cac85201fa20822"),
        ("distorted", 0): ("96691465215da58c304b376d80d8d837b88a203d2bdde677e0680d37c4ae5bc8",
                         "58e0dae4e891e8a5ef756e0676e299e672984c59f1952d10e42bb809b25b05a8"),
        ("distorted", 1): ("e154913cdfebcba120fabda173817b7531f1b0c7eaa3e1fe3c1cc461fc01cd66",
                         "0d8a64621acf422c3bdc8c4c3c711c00098e57e41dc87bc214c2115a4ec28515"),
        ("distorted", 2): ("f4d24a98dc518428d0490e718b8cca7f0df4123ee7e799e2557a61989ece3eef",
                         "6cfa0dd193c4f62884991d27aff8bbbd64f6dc0bde0ec4e0dacfeede45a3a4d6"),
        ("table_bound", 0): ("fd2c3ccc3e93eab4be7cc4b7bc4cd9d3a5da73fda02c11cad67a3a5d447a622d",
                           "6888036f8a65925ed30e0c2a12fa94f6008897491dcb2995f2de87a8911f226d"),
        ("table_bound", 1): ("f406b44e1de67a47a6e0c7cdebd1700b2605d72f31a6a640c55c6a914f4c2582",
                           "1e23f3d603709dd1566cb72d5f85ebe5a45ce4553ec72a3329238229d2b416e4"),
        ("table_bound", 2): ("5409525c0a5bb21243da10c3f57272a07285adb8e3919fa0a3b9716066850c4d",
                           "07e9770db07f046e86b90080113d59f3b6d809fa8bcccd73be68ac1bc65d1154"),
    }

    @pytest.mark.parametrize("subject, seed", list(REPORT_DIGESTS))
    def test_report_bytes_are_pinned(self, capsys, tmp_path, subject, seed):
        run_cli(capsys, "gen", "screening", "--subject", subject, "--seed", str(seed), "--out", str(tmp_path))
        outputs = [run_cli(capsys, "screen", str(tmp_path), "--format", fmt) for fmt in ("text", "json")]
        assert [code for code, _out, _err in outputs] == [0, 0]
        assert tuple(hashlib.sha256(out.encode()).hexdigest() for _code, out, _err in outputs) == (
            self.REPORT_DIGESTS[subject, seed])

    @pytest.mark.parametrize("line, text, error", [
        (1, '{"t":0.0}', f"{_ROW_RULE}, got '{{\"t\":0.0}}'"),
        (1, "[1,2]", f"{_ROW_RULE}, got '[1,2]'"),
        (1, "null", f"{_ROW_RULE}, got 'null'"),
        (0, "[]", "trace header must be a JSON object, got '[]'"),
        (0, json.dumps({"schema": signals.TRACE_SCHEMA, "rate_hz": 50.0, "annotations": []}),
         "trace header lacks kind"),
        (0, json.dumps({"schema": signals.TRACE_SCHEMA, "kind": "emg", "rate_hz": 50.0,
                        "annotations": [], "meta": 5}),
         "trace header meta must be a JSON object, got 5"),
        (2, '{"t":0.04,', "sample 1 is not valid JSON (Expecting property name enclosed in "
                          "double quotes at column 11), got '{\"t\":0.04,'"),
        (0, json.dumps({"schema": signals.TRACE_SCHEMA, "kind": "emg", "rate_hz": True,
                        "annotations": []}),
         "trace header needs a number rate_hz, got True"),
        (0, json.dumps({"schema": signals.TRACE_SCHEMA, "kind": "emg", "rate_hz": 50.0,
                        "annotations": [[0.0, " 1e1 ", "relax"]]}),
         "annotation 0 needs number bounds, got [0.0, ' 1e1 ']"),
        (1, '{"t":0.0,"emg":[" 1e1 ",0.1,0.1,0.1,0.1,0.1,0.1,0.1]}',
         f"{_ROW_RULE}, got '{{\"t\":0.0,\"emg\":[\" 1e1 \",0.1,0.1,0.1,0.1,0.1,0.1,0.1]}}'"),
        (1, '{"t":0.0,"emg":[true,0.1,0.1,0.1,0.1,0.1,0.1,0.1]}',
         f"{_ROW_RULE}, got '{{\"t\":0.0,\"emg\":[true,0.1,0.1,0.1,0.1,0.1,0.1,0.1]}}'"),
        (1, '{"t":0.0,"emg":[[0.1],0.1,0.1,0.1,0.1,0.1,0.1,0.1]}',
         f"{_ROW_RULE}, got '{{\"t\":0.0,\"emg\":[[0.1],0.1,0.1,0.1,0.1,0.1,0.1,0.1]}}'"),
        (1, '{"t":0.0,"emg":[' + "1" + "0" * 5000 + ',0.1,0.1,0.1,0.1,0.1,0.1,0.1]}',
         "sample 0: EMG activations must be finite and in [0, 1]"),
        (0, '{"schema": "exobench/trace-v1" "kind": "emg"}',
         "trace header is not valid JSON: Expecting ',' delimiter: line 1 column 32 (char 31)"),
        (0, json.dumps({"schema": signals.TRACE_SCHEMA, "kind": "emg", "rate_hz": 50.0,
                        "annotations": [[0.0, 1.0]]}),
         "annotation 0 must be [t_start, t_end, label]: not enough values to unpack (expected 3, got 2)"),
        (0, json.dumps({"schema": signals.TRACE_SCHEMA, "kind": "emg", "rate_hz": 50.0,
                        "annotations": [[0.0, 1.0, "relax"], [1.0, 2.0, "clse"]]}),
         "annotation 1 must be [t_start, t_end, label]: 'clse' is not a valid IntentLabel"),
        (0, json.dumps({"schema": signals.TRACE_SCHEMA, "kind": "emg", "rate_hz": "@",
                        "annotations": []}).replace('"@"', "1" + "0" * 400),
         "rate_hz must be positive and finite, as must 600 / rate_hz, got inf"),
    ], ids=["row-without-value", "row-list", "row-null", "header-list", "header-without-kind",
            "header-number-meta", "row-truncated", "header-bool-rate", "header-string-bound",
            "row-string-value", "row-bool-value", "row-list-value", "row-5000-digit-value",
            "header-not-json", "annotation-of-two-fields", "annotation-unknown-label",
            "header-400-digit-rate"])
    def test_malformed_trace_exit_2(self, capsys, tmp_path, line, text, error):
        out_dir = tmp_path / "scr"
        run_cli(capsys, "gen", "screening", "--subject", "separable", "--out", str(out_dir))
        path = out_dir / "close_off_table.jsonl"
        lines = path.read_text().splitlines()
        lines[line] = text
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "screen", str(out_dir))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {error}\n"

    @staticmethod
    def _screening_with_header(root: Path, edit) -> None:
        """The screening files into ``root``, ``edit`` applied to the header of
        ``open_on_table.jsonl``."""
        root.mkdir()
        for name, text in _screening_files():
            if name == "open_on_table.jsonl":
                header, rows = text.split("\n", 1)
                header = json.loads(header)
                edit(header)
                text = json.dumps(header) + "\n" + rows
            (root / name).write_text(text)

    @pytest.mark.parametrize("rate_hz, error", [
        (0.0, "rate_hz must be positive and finite, as must 600 / rate_hz, got 0.0"),
        (float("inf"), "rate_hz must be positive and finite, as must 600 / rate_hz, got inf"),
        (-50.0, "rate_hz must be positive and finite, as must 600 / rate_hz, got -50.0"),
        (1e-4, "sample 1 has t 0.02, not 1 / rate_hz = 10000.0"),
        (float("nan"), "rate_hz must be positive and finite, as must 600 / rate_hz, got nan"),
    ], ids=["zero", "inf", "negative", "tiny", "nan"])
    def test_rate_its_times_do_not_follow_exit_2(self, capsys, tmp_path, rate_hz, error):
        # Each used to raise, or screen with holds of rate-scaled seconds.
        self._screening_with_header(tmp_path / "scr", lambda header: header.update(rate_hz=rate_hz))
        path = tmp_path / "scr" / "open_on_table.jsonl"
        assert run_cli(capsys, "screen", str(tmp_path / "scr")) == (2, "", f"error: {path}: {error}\n")

    @pytest.mark.parametrize("end", [float("nan"), float("inf")])
    def test_annotation_bound_not_finite_exit_2(self, capsys, tmp_path, end):
        # A NaN end used to pass, and FAIL its attempt with a 0.00 s hold.
        def edit(header):
            header["annotations"][1][1] = end

        self._screening_with_header(tmp_path / "scr", edit)
        path = tmp_path / "scr" / "open_on_table.jsonl"
        assert run_cli(capsys, "screen", str(tmp_path / "scr")) == (
            2, "", f"error: {path}: annotation 1 must be finite with t_start < t_end, "
                   f"got [1.0, {end!r}]\n")

    @pytest.mark.parametrize("rate_hz", [6_834.0, 1e12, 1e308])
    def test_window_over_max_samples_exit_2(self, capsys, tmp_path, rate_hz):
        # A file true to its own huge rate: the 0.15 s window would have
        # made over a thousand passes over the trace, asked numpy for
        # terabytes, or for more than any array may hold.
        root = tmp_path / "scr"
        self._screening_with_header(root, lambda header: None)
        path = root / "open_on_table.jsonl"
        trace = signals.SignalTrace.load(path)
        signals.SignalTrace(kind="emg", rate_hz=rate_hz, samples=trace.samples,
                            annotations=trace.annotations, meta=trace.meta).save(path)
        with mock.patch.object(np, "zeros", _short_zeros):
            result = run_cli(capsys, "screen", str(root))
        assert result == (2, "", f"error: a 0.15 s window at {rate_hz!r} Hz would exceed "
                                 f"MAX_WINDOW_SAMPLES = 1024 samples\n")


class TestScriptFlags:
    """Both script flags read a script by ``signals._check_script``'s one rule."""

    @pytest.mark.parametrize("duration", ["inf", "nan", "1e400", "-1", "0"])
    @pytest.mark.parametrize("argv", [
        ("gen", "emg", "--intent-script", "open:1,close:{}"),
        ("gen", "load", "--script", "rest:{}"),
        ("episode", "--intent-script", "open:{}"),
    ], ids=["gen-emg", "gen-load", "episode"])
    def test_a_duration_not_positive_and_finite_is_a_usage_error(self, capsys, argv, duration):
        *argv, script = argv
        assert run_cli(capsys, *argv, script.format(duration)) == (
            1, "", f"usage error: argument {argv[-1]}: segment durations must be positive and finite\n")

    @pytest.mark.parametrize("script, shown", [
        ("grip:1", "unknown label 'grip' (expected one of open, relax, close)"),
        ("open:" + "x" * 5000, f"bad duration {'x' * 64!r}... of 5000 characters in segment "
                               f"{'open:' + 'x' * 59!r}... of 5005 characters"),
        ("x" * 65 + ":1", f"unknown label {'x' * 64!r}... of 65 characters (expected one of "
                          "open, relax, close)"),
    ], ids=["short", "long-duration", "long-label"])
    def test_rejected_text_is_quoted_by_prefix_and_length(self, capsys, script, shown):
        assert run_cli(capsys, "gen", "emg", "--intent-script", script) == (
            1, "", f"usage error: argument --intent-script: {shown}\n")


class TestEpisode:
    def test_trajectory_on_stdout(self, capsys):
        code, out, _err = run_cli(
            capsys, "episode", "--intent-script", "open:2", "--hand-size", "M", "--mas", "1"
        )
        assert code == 0
        lines = out.strip().split("\n")
        header = json.loads(lines[0])
        assert header["schema"] == "exobench/trajectory-v1"
        assert len(lines) == 1 + 400

    @pytest.mark.parametrize("seconds", ["0.001", "0.0024"])
    def test_script_with_no_tick_exits_2(self, capsys, seconds):
        assert run_cli(capsys, "episode", "--intent-script", f"open:{seconds}") == (
            2, "", f"error: a {seconds} s episode holds no 0.005 s control tick\n")

    def test_requires_script(self, capsys):
        code, _out, err = run_cli(capsys, "episode")
        assert code == 1
        assert "required" in err

    def test_unknown_config_mas_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "exo.cfg"
        cfg.write_text("mas = 3\n")
        code, out, err = run_cli(capsys, "episode", "--intent-script", "open:0.1", "--config", str(cfg))
        assert (code, out, err) == (
            2, "", f"error: {cfg}: mas must be one of 0, 1, 1+, 2, got '3' (line 1)\n")


class TestSimulate:
    def test_requires_group(self, capsys, tmp_path):
        code, _out, err = run_cli(capsys, "simulate", "--out", str(tmp_path / "sim"))
        assert code == 1
        assert "--group" in err
        assert not (tmp_path / "sim").exists()

    def test_one_session_writes_log(self, capsys, tmp_path):
        out_dir = tmp_path / "sim"
        code, out, err = run_cli(
            capsys,
            "simulate", "--group", "SH", "--sessions", "1", "--seed", "3",
            "--out", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "session_01.jsonl").is_file()
        assert "session 01" in out
        assert "wrote" in err

    def test_session_count_bounds(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys, "simulate", "--group", "EMG", "--sessions", "13",
            "--out", str(tmp_path / "sim"),
        )
        assert code == 1
        assert "1..12" in err
        assert not (tmp_path / "sim").exists()


class TestNonFiniteNumbers:
    """A NaN or infinite number is a clean error: exit 1 from a setting's
    flag, 2 from a config file or a flag that is not a setting."""

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    @pytest.mark.parametrize("argv", [
        ("gen", "emg", "--intent-script", "open:1", "--rate"),
        ("gen", "load", "--script", "rest:1", "--rate"),
    ], ids=["gen-emg", "gen-load"])
    def test_rate(self, capsys, argv, value):
        code, out, err = run_cli(capsys, *argv, value)
        assert (code, out) == (1, "")
        assert err == (f"usage error: argument --rate: rate_hz must be positive and finite, "
                       f"got {value!r}\n")

    @pytest.mark.parametrize("flags, code, message", [
        (("--noise-std", "nan"), 1,
         "usage error: argument --noise-std: noise_std must be non-negative and finite, "
         "got 'nan'"),
        (("--noise-std", "-1"), 1,
         "usage error: argument --noise-std: noise_std must be non-negative and finite, "
         "got '-1'"),
        (("--dither-amp", "nan"), 2, "error: dither_amp must be finite, got nan"),
        (("--dither-hz", "inf", "--dither-amp", "1"), 2, "error: dither_hz must be finite, got inf"),
        # 2π·dither_hz·t would overflow to NaN and the clip write zeros.
        (("--dither-hz", "1e308", "--dither-amp", "1"), 2,
         "error: dither_hz must be at most rate_hz / 2 = 25.0 Hz in size, got 1e+308"),
    ], ids=["noise-nan", "noise-negative", "dither-amp-nan", "dither-hz-inf", "dither-hz-huge"])
    def test_gen_load_noise_and_dither(self, capsys, flags, code, message):
        # The clip at zero would otherwise hide the NaN as an all-zero trace.
        result = run_cli(capsys, "gen", "load", "--script", "rest:1", *flags)
        assert result == (code, "", message + "\n")

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_gen_emg_config_noise_std(self, capsys, tmp_path, value):
        # A negative value would otherwise write its absolute value's bytes.
        cfg = tmp_path / "exo.cfg"
        cfg.write_text(f"noise_std = {value}\n")
        code, out, err = run_cli(capsys, "gen", "emg", "--profile", "clean",
                                 "--intent-script", "open:1", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == (f"error: {cfg}: noise_std must be non-negative and finite, "
                       f"got {value!r} (line 1)\n")

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_gen_emg_config_drift_rate(self, capsys, tmp_path, value):
        # The fade is clipped at zero, so NaN or inf would write all-zero activations.
        cfg = tmp_path / "exo.cfg"
        cfg.write_text(f"drift_rate = {value}\n")
        code, out, err = run_cli(capsys, "gen", "emg", "--profile", "clean",
                                 "--intent-script", "open:1", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == (f"error: {cfg}: drift_rate must be non-negative and finite, "
                       f"got {value!r} (line 1)\n")

    @pytest.mark.parametrize("argv, value", [
        (("gen", "emg", "--intent-script", "open:1"), "1e200"),  # the variance overflows
        (("gen", "load", "--script", "rest:1"), "1e308"),  # the noise overflows
    ], ids=["gen-emg", "gen-load"])
    def test_noise_std_that_overflows(self, capsys, argv, value):
        # Finite, so the flag's parser takes it: one line names the setting.
        result = run_cli(capsys, *argv, "--noise-std", value)
        assert result == (2, "", f"error: noise_std must have a finite square, the variance, "
                                 f"got {float(value)!r}\n")

    def test_drift_rate_that_overflows_the_fade_clamps_it(self, capsys, tmp_path):
        # drift_rate * t overflows to inf: the fade is far below zero and
        # clamps to 0, as it does for any drift that fades out in one sample.
        traces = {}
        for value in ("1e308", "1e300"):
            cfg = tmp_path / f"{value}.cfg"
            cfg.write_text(f"drift_rate = {value}\n")
            # pyproject's filterwarnings turns numpy's overflow warning into an error.
            code, out, err = run_cli(capsys, "gen", "emg", "--intent-script", "open:1",
                                     "--config", str(cfg))
            assert (code, err) == (0, "")
            traces[value] = signals.SignalTrace.from_jsonl(out)
        assert traces["1e308"].meta["profile"]["drift_rate"] == 1e308
        assert traces["1e308"].samples.tobytes() == traces["1e300"].samples.tobytes()

    @pytest.mark.parametrize("argv", [
        ("gen", "emg", "--intent-script", "open:1e9"),
        ("gen", "load", "--script", "rest:1e9"),
        ("episode", "--intent-script", "open:1e9"),
        ("gen", "emg", "--rate", "1e308", "--intent-script", "open:10"),
    ], ids=["gen-emg", "gen-load", "episode", "gen-emg-rate"])
    def test_sample_count_is_bounded(self, capsys, monkeypatch, argv):
        # The bound is checked before anything is allocated: should it fail
        # to, the huge arange fails the test instead of trying to allocate.
        arange = np.arange

        def bounded_arange(stop, *args, **kwargs):
            assert stop <= signals.MAX_SAMPLES, f"np.arange({stop})"
            return arange(stop, *args, **kwargs)

        monkeypatch.setattr(np, "arange", bounded_arange)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: a ") and err.count("\n") == 1
        assert f"would exceed MAX_SAMPLES = {signals.MAX_SAMPLES} " in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_duration_scale(self, capsys, tmp_path, value):
        out_dir = tmp_path / "sim"
        code, out, err = run_cli(
            capsys, "simulate", "--group", "SH", "--sessions", "1",
            "--duration-scale", value, "--out", str(out_dir),
        )
        assert (code, out) == (1, "")
        assert err == (f"usage error: argument --duration-scale: duration_scale must be "
                       f"positive and finite, got {value!r}\n")
        assert not out_dir.exists()

    def test_duration_scale_that_overflows_a_task(self, capsys, tmp_path):
        # Finite, so the flag's parser takes it; the first task's duration is inf.
        out_dir = tmp_path / "sim"
        code, out, err = run_cli(
            capsys, "simulate", "--group", "SH", "--sessions", "1",
            "--duration-scale", "1e308", "--out", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert err == ("error: duration_scale 1e+308 makes task drill-1-sup of session 1 "
                       "last inf s\n")
        assert not out_dir.exists()

    def test_duration_scale_that_makes_a_task_last_over_a_day(self, capsys, tmp_path):
        # Finite all the way, but the session log would carry a 202-digit time.
        out_dir = tmp_path / "sim"
        code, out, err = run_cli(
            capsys, "simulate", "--group", "SH", "--sessions", "1",
            "--duration-scale", "1e200", "--out", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert err == ("error: duration_scale 1e+200 makes task drill-1-sup of session 1 "
                       "last 5.02e+201 s, over MAX_TASK_S = 86400 s\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("key, value, argv", [
        ("rate_hz", "0", ["gen", "emg", "--intent-script", "open:1"]),
        ("rate_hz", "nan", ["gen", "load", "--script", "rest:1"]),
        ("noise_std", "-0.1", ["gen", "load", "--script", "rest:1"]),
        ("crosstalk", "nan", ["gen", "emg", "--profile", "clean", "--intent-script", "open:1"]),
        ("crosstalk", "1.5", ["gen", "emg", "--profile", "clean", "--intent-script", "open:1"]),
        ("duration_scale", "nan", ["simulate", "--group", "SH", "--sessions", "1"]),
    ])
    def test_out_of_range_file_value_exits_2(self, capsys, tmp_path, key, value, argv):
        cfg = tmp_path / "exo.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out), "--config", str(cfg))
        assert (code, stdout) == (2, "")
        what = config_mod.SETTINGS[key].what
        assert err == f"error: {cfg}: {key} must be {what}, got {value!r} (line 1)\n"
        assert not out.exists()


class TestAnalyze:
    @pytest.fixture()
    def cohort_csv(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text(golden.golden_cohort_csv())
        return path

    def test_text_report(self, capsys, cohort_csv):
        code, out, _err = run_cli(capsys, "analyze", str(cohort_csv))
        assert code == 0
        assert "Benjamini-Hochberg" in out
        assert "FM-distal" in out

    def test_json_report(self, capsys, cohort_csv):
        code, out, _err = run_cli(
            capsys, "analyze", str(cohort_csv), "--q", "0.05", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["m"] == 18

    def test_malformed_csv_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,group,measure,subscale,phase,score\nP01,XX,FM,distal,baseline,1\n")
        code, _out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "unknown group" in err

    @pytest.mark.parametrize("sid, score, error", [
        ("", "20", "line 3: blank subject_id"),
        ("P01", "0_5", "line 3: score '0_5' is not an integer"),
        ("P01", "\u0663", "line 3: score '\u0663' is not an integer"),
    ])
    def test_blank_id_or_non_ascii_score_exit_2(self, capsys, tmp_path, sid, score, error):
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,group,measure,subscale,phase,score\n"
                        f"P01,EMG,FM,distal,baseline,1\n{sid},EMG,FM,proximal,baseline,{score}\n")
        assert run_cli(capsys, "analyze", str(path)) == (2, "", f"error: {error}\n")

    def test_score_past_the_digit_limit_exit_2(self, capsys, tmp_path):
        # int() used to raise a bare "Exceeds the limit (4300 digits)" error.
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,group,measure,subscale,phase,score\n"
                        f"P01,EMG,FM,distal,baseline,1\nP01,EMG,FM,proximal,baseline,1{'0' * 5000}\n")
        assert run_cli(capsys, "analyze", str(path)) == (
            2, "", "error: line 3: score of 5001 characters is past the integer digit limit\n")

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _out, err = run_cli(capsys, "analyze", str(tmp_path / "absent.csv"))
        assert code == 2

    def test_exclusions_reach_only_the_report(self, tmp_path, irregular_cohort):
        from exobench.outcomes import model

        (tmp_path / "cohort.csv").write_text(model.write_cohort_csv(irregular_cohort))
        result = subprocess.run(
            [sys.executable, "-m", "exobench.cli", "analyze", "cohort.csv", "--out", "report.txt"],
            cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert result.stderr == "wrote report.txt\n"
        assert "  FM-distal: excluded 1 subject(s): R4\n" in (tmp_path / "report.txt").read_text()

    def test_bad_q_rejected(self, capsys, cohort_csv):
        code, _out, err = run_cli(capsys, "analyze", str(cohort_csv), "--q", "1.5")
        assert code == 1
        assert "between 0 and 1" in err

    @pytest.mark.parametrize("value", ["2", "abc"])
    def test_bad_config_q_exit_2(self, capsys, tmp_path, cohort_csv, value):
        cfg = tmp_path / "exo.cfg"
        cfg.write_text(f"q = {value}\n")
        code, out, err = run_cli(capsys, "analyze", str(cohort_csv), "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {cfg}: q must ")
        assert f"got {value!r}" in err


class TestProtocolCommand:
    def test_list_tasks_inventory(self, capsys):
        code, out, _err = run_cli(capsys, "protocol", "list-tasks")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 23
        assert lines[0].startswith("drill-1-sup")
        assert lines[-1].startswith("bimanual-8")
        assert sum("[supported]" in line for line in lines) == 5
        assert sum("[unsupported]" in line for line in lines) == 5


#: The nine documented invocations (each gets "--out out.txt") and what each
#: loads: its ``exobench`` modules besides ``exobench``, ``exobench.cli`` and
#: ``exobench.config``, and whether numpy and scipy. Only analyze runs the
#: statistics. Only episode and simulate run the controller; protocol
#: list-tasks reads the task table and loads no numpy.
INVOCATIONS = {
    "protocol list-tasks": (["protocol", "list-tasks"], {"tasks"}, False, False),
    "episode": (["episode", "--intent-script", "open:0.1"], {"controller", "signals"}, True, False),
    "gen cohort": (["gen", "cohort"], {"outcomes", "outcomes.golden", "outcomes.model"},
                   False, False),
    "gen emg": (["gen", "emg", "--intent-script", "open:2,relax:2,close:2", "--seed", "7"],
                {"signals"}, True, False),
    "gen load": (["gen", "load", "--script", "rest:2,elevated:2,rest:2,depressed:2",
                  "--noise-std", "0.4", "--dither-amp", "1.5", "--seed", "11"],
                 {"signals"}, True, False),
    "gen screening": (["gen", "screening", "--subject", "separable", "--seed", "0"],
                      {"intent", "signals", "subject"}, True, False),
    "screen": (["screen", "screening", "--format", "json"], {"intent", "signals"}, True, False),
    "simulate": (["simulate", "--group", "SH", "--subject-id", "S01", "--sessions", "2",
                  "--seed", "3"],
                 {"controller", "intent", "protocol", "signals", "subject", "tasks"}, True, False),
    "analyze": (["analyze", "cohort.csv", "--q", "0.05", "--format", "json"],
                {"outcomes", "outcomes.model", "outcomes.report", "outcomes.stats"}, True, True),
}

#: Prints the package modules loaded so far, and numpy and scipy if loaded.
_LOADED = ("import json, sys\n"
           "print(json.dumps(sorted(m for m in sys.modules if m in ('numpy', 'scipy')\n"
           "                        or m.partition('.')[0] == 'exobench')))\n")


def _loaded_modules(tmp_path: Path, code: str) -> list[str]:
    """The exobench modules, and numpy and scipy, that ``code`` loads in a
    fresh interpreter run in ``tmp_path``."""
    result = subprocess.run([sys.executable, "-c", code + _LOADED], cwd=tmp_path,
                            env=_child_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestImports:
    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        """What an invocation loads, each invocation run once in its own directory."""
        runs = {}

        def run(argv):
            if tuple(argv) not in runs:
                cwd = tmp_path_factory.mktemp("probe")
                (cwd / "cohort.csv").write_text(golden.golden_cohort_csv())
                if argv[0] == "screen":
                    assert cli.main(["gen", "screening", "--out", str(cwd / "screening")]) == 0
                code = ("from exobench import cli\n"
                        f"assert cli.main({argv + ['--out', 'out.txt']!r}) == 0\n")
                runs[tuple(argv)] = _loaded_modules(cwd, code)
            return runs[tuple(argv)]

        return run

    @pytest.mark.parametrize("argv, statistics", [
        (argv, scipy) for argv, _modules, _numpy, scipy in INVOCATIONS.values()])
    def test_scipy_is_imported_only_for_statistics(self, loaded, argv, statistics):
        assert ("scipy" in loaded(argv)) == statistics

    @pytest.mark.parametrize("name", INVOCATIONS)
    def test_each_command_loads_only_what_it_runs(self, loaded, name):
        argv, modules, numpy, scipy = INVOCATIONS[name]
        expected = {"exobench", "exobench.cli", "exobench.config"}
        expected |= {f"exobench.{module}" for module in modules}
        expected |= {lib for lib, wanted in (("numpy", numpy), ("scipy", scipy)) if wanted}
        assert set(loaded(argv)) == expected

    @pytest.mark.parametrize("module, expected", [
        ("exobench.cli", ["exobench", "exobench.cli", "exobench.config"]),
        ("exobench.config", ["exobench", "exobench.config"]),
        ("exobench.tasks", ["exobench", "exobench.tasks"]),
    ])
    def test_import_loads_no_numeric_module(self, tmp_path, module, expected):
        assert _loaded_modules(tmp_path, f"import {module}\n") == expected

    def test_the_settings_table_loads_the_standard_library_only(self, tmp_path):
        # The library checks its records by config.SETTINGS: the table must
        # stay free of numpy, scipy and every other exobench module.
        code = ("import json, sys\nbefore = set(sys.modules)\nimport exobench.config\n"
                "print(json.dumps(sorted(m for m in set(sys.modules) - before\n"
                "                        if m.partition('.')[0] not in sys.stdlib_module_names)))\n")
        result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_child_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == ["exobench", "exobench.config"]


class TestExitCodes:
    """``main`` maps the errors that only one command can raise."""

    def test_safety_abort_exits_3(self, capsys, monkeypatch):
        from exobench import controller

        run_episode = controller.run_episode

        def abort(episode):
            return replace(run_episode(episode), abort="tension cap breached at t=0.100: 101.00 N")

        monkeypatch.setattr(controller, "run_episode", abort)
        assert run_cli(capsys, "episode", "--intent-script", "open:0.1") == (
            3, "", "safety abort: tension cap breached at t=0.100: 101.00 N\n")

    def test_calibration_error_exits_2(self, capsys, monkeypatch, tmp_path):
        from exobench import protocol

        def fail(subject, session_index):
            raise protocol.CalibrationError("classifier calibration failed: singular matrix")

        monkeypatch.setattr(protocol, "session_calibration", fail)
        assert run_cli(capsys, "simulate", "--group", "EMG", "--sessions", "1",
                       "--out", str(tmp_path / "sim")) == (
            2, "", "error: classifier calibration failed: singular matrix\n")


class TestConfig:
    @pytest.mark.parametrize("via", ["file", "flag"])
    def test_a_long_rejected_value_is_quoted_by_prefix_and_length(self, capsys, tmp_path, via):
        cfg = tmp_path / "exo.cfg"
        value = "-1" + "0" * 4999
        cfg.write_text(f"seed = {value}\n")
        argv = ["--config", str(cfg)] if via == "file" else ["--seed", value]
        code, out, err = run_cli(capsys, "gen", "load", "--script", "rest:1", *argv)
        shown = f"got '-1{'0' * 62}'... of 5001 characters"
        assert (code, out) == (2 if via == "file" else 1, "")
        assert err.count("\n") == 1 and shown in err, err
        assert len(err) <= 200 + len(str(cfg))

    def test_config_file_supplies_seed(self, capsys, tmp_path):
        cfg = tmp_path / "exo.cfg"
        cfg.write_text("# reproducibility\nseed = 7\n")
        _code, from_cfg, _err = run_cli(
            capsys, "gen", "emg", "--intent-script", "open:1", "--config", str(cfg)
        )
        _code, from_flag, _err = run_cli(
            capsys, "gen", "emg", "--intent-script", "open:1", "--seed", "7"
        )
        assert from_cfg == from_flag

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "exo.cfg"
        cfg.write_text("seed = 7\n")
        _code, out, _err = run_cli(
            capsys, "gen", "emg", "--intent-script", "open:1",
            "--config", str(cfg), "--seed", "9",
        )
        _code, direct, _err = run_cli(capsys, "gen", "emg", "--intent-script", "open:1", "--seed", "9")
        assert out == direct

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "exo.cfg"
        cfg.write_text("seed = 7\n")
        monkeypatch.setenv("EXO_CONFIG", str(cfg))
        _code, via_env, _err = run_cli(capsys, "gen", "emg", "--intent-script", "open:1")
        monkeypatch.delenv("EXO_CONFIG")
        _code, via_flag, _err = run_cli(capsys, "gen", "emg", "--intent-script", "open:1", "--seed", "7")
        assert via_env == via_flag

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "exo.cfg"
        cfg.write_text("sedd = 7\n")
        code, _out, err = run_cli(
            capsys, "gen", "emg", "--intent-script", "open:1", "--config", str(cfg)
        )
        assert code == 2
        assert "sedd" in err

    def test_env_config_error_names_the_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "exo.cfg"
        cfg.write_text("sedd = 7\n")
        monkeypatch.setenv("EXO_CONFIG", str(cfg))
        assert run_cli(capsys, "gen", "emg", "--intent-script", "open:1") == (
            2, "", f"error: {cfg}: unknown key 'sedd' (line 1)\n")

    @pytest.mark.parametrize("key", ["window_s", "hop_s", "vote_k", "sh_noise_n"])
    def test_unread_keys_are_unknown(self, capsys, tmp_path, key):
        with pytest.raises(config_mod.ConfigError, match=f"unknown key '{key}'"):
            config_mod.parse_config(f"{key} = 1\n")
        cfg = tmp_path / "exo.cfg"
        cfg.write_text(f"{key} = 1\n")
        code, _out, err = run_cli(
            capsys, "gen", "emg", "--intent-script", "open:1", "--config", str(cfg)
        )
        assert code == 2
        assert f"unknown key '{key}'" in err

    def test_a_byte_that_is_not_utf_8_names_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "exo.cfg"
        cfg.write_bytes(b"seed = 7\xff\n")
        assert run_cli(capsys, "gen", "load", "--script", "rest:1", "--config", str(cfg)) == (
            2, "", f"error: {cfg}: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte\n")

    def test_malformed_line_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "exo.cfg"
        cfg.write_text("seed 7\n")
        code, _out, err = run_cli(
            capsys, "gen", "emg", "--intent-script", "open:1", "--config", str(cfg)
        )
        assert code == 2
        assert "line 1" in err


#: Commands that read no seed, as argv templates; ``{root}`` holds their inputs.
UNSEEDED = {
    "episode": ["episode", "--intent-script", "open:0.1"],
    "analyze": ["analyze", "{root}/cohort.csv"],
    "screen": ["screen", "{root}/screening"],
    "gen cohort": ["gen", "cohort"],
    "protocol list-tasks": ["protocol", "list-tasks"],
}
#: Commands that read no settings.
UNCONFIGURED = ("screen", "gen cohort", "protocol list-tasks")


class TestUnreadFlags:
    """A command takes only the flags it reads."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        assert cli.main(["gen", "screening", "--out", str(root / "screening")]) == 0
        (root / "cohort.csv").write_text(golden.golden_cohort_csv())
        return root

    @pytest.mark.parametrize("name", UNSEEDED)
    def test_seed_is_rejected(self, capsys, root, name):
        argv = [arg.format(root=root) for arg in UNSEEDED[name]]
        assert run_cli(capsys, *argv)[0] == 0
        code, _out, err = run_cli(capsys, *argv, "--seed", "1")
        assert code == 1
        assert "--seed" in err

    @pytest.mark.parametrize("name", UNCONFIGURED)
    def test_config_is_rejected_and_env_is_not_read(self, capsys, root, tmp_path, monkeypatch,
                                                    name):
        argv = [arg.format(root=root) for arg in UNSEEDED[name]]
        cfg = tmp_path / "exo.cfg"
        cfg.write_text("seed 7\n")
        code, _out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 1
        assert "--config" in err
        monkeypatch.setenv("EXO_CONFIG", str(cfg))
        assert run_cli(capsys, "gen", "emg", "--intent-script", "open:1")[0] == 2  # control
        assert run_cli(capsys, *argv)[0] == 0


class TestTopLevel:
    def test_no_arguments_prints_usage(self, capsys):
        code, _out, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_help_exits_zero(self, capsys):
        code, out, _err = run_cli(capsys, "--help")
        assert code == 0
        assert "exobench" in out

    def test_unknown_command(self, capsys):
        code, _out, err = run_cli(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (["gen", "emg", "--intent-script", "open:1", "--profile", "x" * 64],
         f"argument --profile: invalid choice: '{'x' * 64}' (choose from 'separable', 'distorted', 'clean')"),
        (["gen", "load", "--script", "rest:1", "--dither-amp", "abc"],
         "argument --dither-amp: invalid float value: 'abc'"),
        (["protocol", "list-tasks", "stray", "more"], "unrecognized arguments: stray more"),
        (["frobnicate"], "argument {gen,screen,episode,simulate,analyze,protocol}: invalid choice: "
                         "'frobnicate' (choose from 'gen', 'screen', 'episode', 'simulate', 'analyze', 'protocol')"),
        (["gen", "load", "--script", "rest:1", "--dither=" + "x" * 55],
         f"ambiguous option: --dither={'x' * 55} could match --dither-amp, --dither-hz"),
        (["protocol", "list-tasks", "--help=" + "x" * 64],
         f"argument -h/--help: ignored explicit argument '{'x' * 64}'"),
    ], ids=["choice", "typed value", "stray arguments", "command", "ambiguous option", "help value"])
    def test_a_value_of_at_most_64_characters_is_shown_whole(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"usage error: {message}\n")


# ---------------------------------------------------------------------------
# Every setting of every command, through its flag and through a config file.

#: Each command that reads settings: its argv (``{root}`` holds its inputs,
#: ``{out}`` is a fresh output directory) and the settings it passes by flag
#: to stay short. A case drops the one setting it tests from them.
SETTING_COMMANDS = {
    "gen emg": (["gen", "emg", "--intent-script", "open:0.5,close:0.5", "--profile", "clean"], {}),
    "gen load": (["gen", "load", "--script", "rest:1,elevated:1"], {"noise_std": "0.3"}),
    "gen screening": (["gen", "screening", "--out", "{out}"], {}),
    "episode": (["episode", "--intent-script", "open:0.2,close:0.2"], {}),
    "simulate": (["simulate", "--out", "{out}"],
                 {"group": "SH", "sessions": "1", "duration_scale": "0.1"}),
    "analyze": (["analyze", "{root}/cohort.csv"], {}),
}
#: Per setting, a good value that no command has as its default, and a bad one.
SETTING_VALUES = {
    "seed": ("7", "-1"),
    "rate_hz": ("40", "fast"),
    "group": ("EMG", "XX"),
    "hand_size": ("L", "XL"),
    "mas": ("2", "3"),
    "sessions": ("2", "13"),
    "duration_scale": ("0.2", "slow"),
    "noise_std": ("0.1", "loud"),
    "crosstalk": ("0.2", "some"),
    "drift_rate": ("0.05", "some"),
    "q": ("0.1", "2"),
    "arm_support": ("yes", "maybe"),
}
SETTING_CASES = [(command, setting.key) for command in SETTING_COMMANDS
                 for setting in config_mod.settings_of(command)]
FLAG_CASES = [(command, key) for command, key in SETTING_CASES if config_mod.SETTINGS[key].flag]

#: Each command's option strings: as they were before the settings table, and
#: ``gen emg --noise-std``, the flag of a setting it reads.
OPTION_STRINGS = {
    "gen emg": ["--config", "--help", "--intent-script", "--noise-std", "--out", "--profile",
                "--rate", "--seed", "-h"],
    "gen load": ["--config", "--dither-amp", "--dither-hz", "--help", "--noise-std", "--out",
                 "--rate", "--script", "--seed", "-h"],
    "gen cohort": ["--help", "--out", "-h"],
    "gen screening": ["--config", "--help", "--out", "--seed", "--subject", "-h"],
    "screen": ["--format", "--help", "--out", "-h"],
    "episode": ["--config", "--hand-size", "--help", "--intent-script", "--mas", "--out", "-h"],
    "simulate": ["--config", "--duration-scale", "--group", "--hand-size", "--help", "--mas",
                 "--out", "--seed", "--sessions", "--subject-id", "-h"],
    "analyze": ["--config", "--format", "--help", "--out", "--q", "-h"],
    "protocol list-tasks": ["--help", "--out", "-h"],
}
#: The value each command used for each setting it reads when given none, as
#: it was before the settings table (simulate's group has none: it is required).
#: ``gen emg``'s signal settings are None: each takes its ``--profile``'s value.
RESOLVED_DEFAULTS = {
    "gen emg": {"seed": "0", "rate_hz": "50.0", "noise_std": "None", "crosstalk": "None",
                "drift_rate": "None"},
    "gen load": {"seed": "0", "rate_hz": "50.0", "noise_std": "0.0"},
    "gen screening": {"seed": "0"},
    "episode": {"hand_size": "'M'", "mas": "'0'"},
    "simulate": {"group": "'SH'", "seed": "0", "hand_size": "'M'", "mas": "'1'",
                 "sessions": "12", "duration_scale": "1.0", "arm_support": "False"},
    "analyze": {"q": "Fraction(1, 20)"},
}


def _command_parsers(parser, prefix=()):
    """Each command's name and parser, walking the subcommand tree."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(prefix), parser
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _command_parsers(child, (*prefix, name))


class TestSettings:
    """Each setting is parsed once, the same way from a flag and from a file."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        (root / "cohort.csv").write_text(golden.golden_cohort_csv())
        return root

    @pytest.fixture(autouse=True)
    def no_env_config(self, monkeypatch):
        monkeypatch.delenv("EXO_CONFIG", raising=False)

    @staticmethod
    def _run(capsys, root, out, command, key, extra):
        """Run ``command`` with ``extra`` argv; its exit code, stdout, stderr and files."""
        argv, fixed = SETTING_COMMANDS[command]
        for name, value in fixed.items():
            if name != key:
                argv = argv + [config_mod.SETTINGS[name].flag, value]
        argv = [arg.format(root=root, out=out) for arg in argv] + list(extra)
        code, stdout, err = run_cli(capsys, *argv)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
        return code, stdout, err, files

    def test_every_command_and_setting_is_covered(self):
        readers = {command for s in config_mod.SETTINGS.values() for command in s.defaults}
        assert readers == set(SETTING_COMMANDS)
        assert set(SETTING_VALUES) == set(config_mod.SETTINGS)

    @pytest.mark.parametrize("command, key", FLAG_CASES)
    def test_bad_flag_value_exits_1(self, capsys, root, tmp_path, command, key):
        setting = config_mod.SETTINGS[key]
        out = tmp_path / "out"
        code, stdout, err, _files = self._run(capsys, root, out, command, key,
                                              [setting.flag, SETTING_VALUES[key][1]])
        assert (code, stdout) == (1, "")
        assert f"{key} must be" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, key", SETTING_CASES)
    def test_bad_file_value_exits_2(self, capsys, root, tmp_path, command, key):
        cfg = tmp_path / "exo.cfg"
        cfg.write_text(f"{key} = {SETTING_VALUES[key][1]}\n")
        out = tmp_path / "out"
        code, stdout, err, _files = self._run(capsys, root, out, command, key,
                                              ["--config", str(cfg)])
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {cfg}: {key} must be ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, key", SETTING_CASES)
    def test_good_file_value_is_read(self, capsys, root, tmp_path, command, key):
        good = SETTING_VALUES[key][0]
        cfg = tmp_path / "exo.cfg"
        cfg.write_text(f"{key} = {good}\n")
        from_file = self._run(capsys, root, tmp_path / "file", command, key,
                              ["--config", str(cfg)])
        assert from_file[0] == 0
        setting = config_mod.SETTINGS[key]
        if setting.flag:
            from_flag = self._run(capsys, root, tmp_path / "flag", command, key,
                                  [setting.flag, good])
            assert (from_flag[0], from_flag[1], from_flag[3]) == (0, from_file[1], from_file[3])
        if setting.defaults[command] is not config_mod.REQUIRED:
            default = self._run(capsys, root, tmp_path / "default", command, key, [])
            assert (default[1], default[3]) != (from_file[1], from_file[3])

    def test_option_strings(self):
        found = {name: sorted(o for a in parser._actions for o in a.option_strings)
                 for name, parser in _command_parsers(cli.build_parser())}
        assert found == OPTION_STRINGS

    @pytest.mark.parametrize("command", RESOLVED_DEFAULTS)
    def test_resolved_defaults(self, capsys, root, tmp_path, monkeypatch, command):
        seen = []
        for name in dir(cli):
            if name.startswith("cmd_"):
                monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
        argv = [arg.format(root=root, out=tmp_path) for arg in SETTING_COMMANDS[command][0]]
        if command == "simulate":
            argv += ["--group", "SH"]
        assert run_cli(capsys, *argv)[0] == 0
        assert {s.key for s in config_mod.settings_of(command)} == set(RESOLVED_DEFAULTS[command])
        resolved = {key: repr(getattr(seen[0], key)) for key in RESOLVED_DEFAULTS[command]}
        assert resolved == RESOLVED_DEFAULTS[command]

    def test_readme_lists_every_key_and_its_commands(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("| key | commands | meaning |\n", 1)[1].split("\n\n", 1)[0]
        listed = {}
        for row in table.splitlines()[1:]:
            key, commands, _meaning = (cell.strip() for cell in row.strip("|").split("|"))
            listed[key.strip("`")] = {c.strip().strip("`") for c in commands.split(",")}
        assert listed == {key: set(s.defaults) for key, s in config_mod.SETTINGS.items()}


#: Each library call that checks a value by ``config.SETTINGS``, and the setting's key.
LIBRARY_CHECKS = [("Subject", "group"), ("Subject", "hand_size"), ("Subject", "mas"),
                  ("Subject", "duration_scale"), ("SignalProfile", "noise_std"),
                  ("SignalProfile", "drift_rate"), ("SignalProfile", "crosstalk"),
                  ("gen_load_trace", "noise_std"), ("gen_emg_trace", "rate_hz"),
                  ("bh_procedure", "q"), ("analyze_cohort", "q")]

#: Numbers at the edges of every setting's range, and texts outside every choice.
_EDGE_NUMBERS = (math.nan, math.inf, -math.inf, -0.0, 0, 0.0, 0.5, 1, 1.0, 1e308)
_EDGE_TEXTS = ("", "x", "emg", "sh", "XL", "m", "1 ", "3", "x" * 5000)


def _library_call(name: str, key: str):
    """The call of ``name`` with the value of setting ``key`` as its one argument."""
    from exobench.outcomes import model, report, stats
    from exobench.subject import Subject

    no_testable_row = [model.SubjectOutcomes("S1", model.Group.EMG, {(model.BBT, model.Phase.BASELINE): 1})]
    return {
        "Subject": lambda v: Subject(**{"subject_id": "S01", "group": "EMG", key: v}),
        "SignalProfile": lambda v: signals.SignalProfile(**{key: v}),
        "gen_load_trace": lambda v: signals.gen_load_trace([(signals.ShoulderPosture.REST, 1.0)],
                                                           noise_std=v),
        "gen_emg_trace": lambda v: signals.gen_emg_trace(
            signals.SignalProfile(), [(signals.IntentLabel.OPEN, 1.0)], rate_hz=v),
        "bh_procedure": lambda v: stats.bh_procedure([("row", 0.01)], q=v),
        "analyze_cohort": lambda v: report.analyze_cohort(no_testable_row, q=v),
    }[name]


@pytest.mark.parametrize("name, key", LIBRARY_CHECKS)
def test_the_library_rejects_what_the_setting_rejects(name, key):
    """A call raises the setting's own message for exactly the values its
    ``ok`` rejects; a further rule of the call may reject others in its own words."""
    setting, call = config_mod.SETTINGS[key], _library_call(name, key)
    values = _EDGE_NUMBERS + ((_EDGE_TEXTS + setting.choices) if setting.choices else ())
    wrong = []
    for value in values:
        try:
            call(value)
            message = ""
        except ValueError as exc:
            message = str(exc)
        if message.startswith(f"{key} must be {setting.what}, got ") == setting.ok(value):
            wrong.append((value[:10] if isinstance(value, str) else value, message[:80]))
    assert wrong == []


# ---------------------------------------------------------------------------
# Every number a command reads is honoured or rejected, by flag or from a file.

#: Numbers as a flag or a config file spells them, in five kinds drawn alike:
#: zero or negative, not finite, huge but finite, small integers and small
#: floats. The square of 1e200 overflows, and so does twice 1e308 or ten
#: times 1e307; a 31-digit seed is an integer. A 401-digit integer is past
#: the float range, and a 5,001-digit one past the digits ``int()`` reads.
_NUMBERS = st.one_of(
    st.sampled_from(["0", "-0.0", "-1", "-1e308"]),
    st.sampled_from(["nan", "inf", "-inf", "-Infinity"]),
    st.sampled_from(["1" + "0" * 30, "1e200", "1e307", "1e308", "1.7976931348623157e308",
                     "1" + "0" * 400, "1" + "0" * 5000]),
    st.integers(0, 13).map(str),
    st.floats(0.0, 3.0).map(repr),
)

#: Per command: its argv, with script durations ``{0}`` and ``{1}``, ``{out}``
#: a fresh directory, ``{cohort}`` the reference cohort and ``{screening}``
#: the screening files with one number changed; the flags it is
#: always given (so that gen load's dither frequency is used, and simulate
#: runs one session); and its numeric flags that are not settings.
NUMBER_COMMANDS = {
    "gen emg": (["gen", "emg", "--intent-script", "open:{0},close:{1}"], {}, ()),
    "gen load": (["gen", "load", "--script", "rest:{0},elevated:{1}"], {"--dither-amp": "1"},
                 ("--dither-amp", "--dither-hz")),
    "gen screening": (["gen", "screening", "--out", "{out}"], {}, ()),
    "episode": (["episode", "--intent-script", "open:{0},close:{1}"], {}, ()),
    "simulate": (["simulate", "--out", "{out}"], {"--group": "SH", "--sessions": "1"}, ()),
    "analyze": (["analyze", "{cohort}", "--format", "json"], {}, ()),
    "screen": (["screen", "{screening}", "--format", "json"], {}, ()),
}
#: The numbers ``screen`` reads from a condition file: the header's rate, an
#: annotation bound and a sample's time.
TRACE_NUMBERS = ("rate_hz", "annotation", "t")
#: Each command and one number it reads: a setting's key, a flag, the
#: durations of its script, or a number in a trace file.
NUMBER_CASES = [
    (command, name) for command, (argv, _fixed, flags) in NUMBER_COMMANDS.items()
    for name in ([s.key for s in config_mod.settings_of(command) if s.cast in (int, float, Fraction)]
                 + list(flags) + ["script"] * ("{0}" in " ".join(argv))
                 + list(TRACE_NUMBERS) * (command == "screen"))
]
#: The most samples or ticks a short script may take; more is a missing bound.
_SHORT = 100_000
_ARANGE = np.arange


def _short_arange(*args, **kwargs):
    assert all(abs(a) <= _SHORT for a in args if isinstance(a, (int, float))), f"np.arange{args}"
    return _ARANGE(*args, **kwargs)


_ZEROS = np.zeros


def _short_zeros(shape, *args, **kwargs):
    assert all(d <= _SHORT for d in (shape if isinstance(shape, tuple) else (shape,))), \
        f"np.zeros({shape})"
    return _ZEROS(shape, *args, **kwargs)


def _strict_json(text: str) -> None:
    json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in {text!r}"))


def _strict_json_lines(text: str) -> None:
    for line in text.splitlines():
        _strict_json(line)


#: How each command's output reads back: its files if it writes any, else stdout.
_READERS = {"gen emg": signals.SignalTrace.from_jsonl, "gen load": signals.SignalTrace.from_jsonl,
            "gen screening": signals.SignalTrace.from_jsonl, "episode": _strict_json_lines,
            "simulate": _strict_json_lines, "analyze": _strict_json, "screen": _strict_json}


@functools.cache
def _screening_files() -> tuple[tuple[str, str], ...]:
    """The name and text of each file of ``gen screening --seed 0``."""
    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        assert cli.main(["gen", "screening", "--out", tmp]) == 0
        return tuple((path.name, path.read_text()) for path in sorted(Path(tmp).iterdir()))


def _write_screening(root: Path, name: str, value: str, data) -> None:
    """The screening files into ``root``, with one number of one condition
    file, ``name`` in TRACE_NUMBERS, spelled ``value`` as JSON spells it."""
    spelled = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(value, value)
    condition = data.draw(st.sampled_from(intent.SCREENING_CONDITIONS), label="condition")
    root.mkdir()
    for file_name, text in _screening_files():
        lines = text.splitlines()
        if file_name == f"{condition}.jsonl":
            # The number goes in as a placeholder string, swapped for its spelling.
            if name == "t":
                n = data.draw(st.integers(1, len(lines) - 1), label="sample")
                row = json.loads(lines[n])
                row["t"] = "@"
                lines[n] = json.dumps(row)
            else:
                header = json.loads(lines[0])
                if name == "rate_hz":
                    header["rate_hz"] = "@"
                else:
                    interval = data.draw(st.sampled_from(header["annotations"]), label="interval")
                    interval[data.draw(st.integers(0, 1), label="end")] = "@"
                lines[0] = json.dumps(header)
            lines = [line.replace('"@"', spelled) for line in lines]
        (root / file_name).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command, name", NUMBER_CASES)
@settings(max_examples=50)
@given(data=st.data())
def test_every_number_is_honoured_or_rejected(command, name, data):
    """Exit 0 with output that reads back and holds no NaN or Infinity, or a
    clean error; never a traceback, a numpy warning or a huge allocation."""
    argv, fixed, _flags = NUMBER_COMMANDS[command]
    flags, durations, config = dict(fixed), ["1", "1"], ""
    if name == "script":
        durations = [data.draw(_NUMBERS, label="duration") for _ in durations]
    elif name in TRACE_NUMBERS:
        value = data.draw(_NUMBERS, label=name)
    else:
        value = data.draw(_NUMBERS, label=name)
        setting = config_mod.SETTINGS.get(name)
        flag = setting.flag if setting else name
        if flag and flag not in fixed and (not setting or data.draw(st.booleans(), label="flag")):
            flags[flag] = value
        else:
            config = f"{name} = {value}\n"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "exo.cfg").write_text(config)
        if command == "analyze":
            (root / "cohort.csv").write_text(golden.golden_cohort_csv())
        if command == "screen":
            _write_screening(root / "screening", name, value, data)
        args = [a.format(*durations, out=root / "out", cohort=root / "cohort.csv",
                         screening=root / "screening") for a in argv]
        args += [item for pair in flags.items() for item in pair]
        if config_mod.settings_of(command):
            args += ["--config", str(root / "exo.cfg")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout),
              contextlib.redirect_stderr(stderr), mock.patch.object(np, "arange", _short_arange)):
            warnings.simplefilter("always")
            code = cli.main(args)
        files = sorted((root / "out").iterdir()) if (root / "out").is_dir() else []
        written = [path.read_text() for path in files]
    assert code in (0, 1, 2, 3), (args, stderr.getvalue())
    assert [str(w.message) for w in caught] == [], args
    assert "Traceback" not in stderr.getvalue()
    for text in [stdout.getvalue(), *written]:
        assert "NaN" not in text and "Infinity" not in text, args
    if code == 0:
        for text in written or [stdout.getvalue()]:
            _READERS[command](text)


# ---------------------------------------------------------------------------
# Every change to a file's structure is rejected by its place, or changes nothing.

#: Stands in for the value a mutation replaces, until its JSON text goes in.
_MARK = "@mutated@"
#: JSON texts of each type a value may be swapped for; "" blanks the value.
_SWAPS = ('"x"', '""', "true", "null", "[]", "{}", "5", "")
#: Spellings of a number that are not a float to JSON: with ``_``, in
#: Arabic-Indic digits, past the float range and past ``int()``'s digits.
_SPELLINGS = ("1_0", "\u0661\u0660", "1" + "0" * 400, "1" + "0" * 5000)


def _json_kind(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _mutate_line(obj, data) -> tuple[str, str | None]:
    """``obj``, one line of a trace file, as JSON with one thing changed: a
    value swapped for another type, blanked or spelled past what JSON reads,
    or a key or an annotation's field dropped or duplicated. Also the
    header key or the annotation changed, if one was."""
    container, place = obj, None
    if isinstance(obj.get("annotations"), list) and data.draw(st.booleans(), label="annotation"):
        k = data.draw(st.integers(0, len(obj["annotations"]) - 1), label="annotation")
        container, place = obj["annotations"][k], f"annotation {k}"
    elif "emg" in obj and data.draw(st.booleans(), label="channel"):
        container = obj["emg"]
    key = data.draw(st.sampled_from(sorted(container) if isinstance(container, dict)
                                    else range(len(container))), label="key")
    value = container[key]
    place = place or (key if "schema" in obj else None)
    ops = ["swap", "drop", "duplicate"] + ["spell"] * (_json_kind(value) == "number")
    op = data.draw(st.sampled_from(ops), label="op")
    if op == "drop":
        del container[key]
    elif op == "duplicate" and container is obj:  # a key twice: JSON keeps the last
        return "{" + json.dumps(key) + ": " + json.dumps(value) + ", " + json.dumps(obj)[1:], place
    elif op == "duplicate":
        container.insert(key, value)
    else:
        texts = _SPELLINGS if op == "spell" else [
            text for text in _SWAPS if not text or _json_kind(json.loads(text)) != _json_kind(value)]
        container[key] = _MARK
        text = data.draw(st.sampled_from(texts), label="as")
        return json.dumps(obj).replace(json.dumps(_MARK), text), place
    return json.dumps(obj), place


#: The score's column in the cohort CSV.
CSV_SCORE = CSV_HEADER.index("score")


def _mutate_cohort(lines: list[str], data) -> tuple[list[str], int]:
    """The cohort CSV with one cell blanked, swapped for a word or a number, or
    its score spelled past what the reader takes; a cell, a column or a row
    dropped or duplicated. Also the line an error must name."""
    rows = [line.split(",") for line in lines]
    n = data.draw(st.integers(1, len(rows) - 1), label="row")
    op = data.draw(st.sampled_from(["blank", "swap", "spell", "drop", "duplicate", "drop column",
                                    "duplicate column", "duplicate row"]), label="op")
    # A swap leaves the id alone: a number for an id is another id.
    column = data.draw(st.integers(int(op == "swap"), len(CSV_HEADER) - 1), label="column")
    if op == "blank":
        rows[n][column] = ""
    elif op == "swap":  # a word for a score, a number for any other cell
        rows[n][column] = "abc" if column == CSV_SCORE else "5"
    elif op == "spell":
        rows[n][CSV_SCORE] = data.draw(st.sampled_from(_SPELLINGS), label="as")
    elif op == "duplicate row":
        rows.insert(n, rows[n])
        n += 1
    else:
        for row in rows if op.endswith("column") else [rows[n]]:
            row[column:column + 1] = row[column:column + 1] * (2 if op.startswith("duplicate") else 0)
        n = 0 if op.endswith("column") else n
    return [",".join(row) for row in rows], n + 1


def _write_input(root: Path, command: str, data) -> tuple[list[str], list[tuple[str, str]]]:
    """Write the input of ``command`` into ``root``, with one thing of its
    structure changed if ``data`` draws it. Return the argv that reads it
    and the places an error may name, each as the start of the message and
    a word it holds: the line for ``analyze``; for ``screen`` the file, and
    in it the sample, the annotation, the header key or the header."""
    places = []
    if command == "analyze":
        lines = golden.golden_cohort_csv().splitlines()
        if data is not None:
            lines, line = _mutate_cohort(lines, data)
            places = [(f"line {line}: ", f"line {line}")]
        (root / "cohort.csv").write_text("\n".join(lines) + "\n")
        return ["analyze", str(root / "cohort.csv")], places
    files = dict(_screening_files())
    if data is not None:
        name = data.draw(st.sampled_from(sorted(files)), label="file")
        lines = files[name].splitlines()
        n = 0 if data.draw(st.booleans(), label="header") else data.draw(
            st.integers(1, len(lines) - 1), label="line")
        lines[n], place = _mutate_line(json.loads(lines[n]), data)
        words = [place, "trace header"] if n == 0 else [f"sample {n - 1}"]
        files[name] = "\n".join(lines) + "\n"
        places = [(f"{root / name}: ", word) for word in words]
    for name, text in files.items():
        (root / name).write_text(text)
    return ["screen", str(root)], places


@functools.cache
def _unchanged_stdout(command: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(_write_input(Path(tmp), command, None)[0]) == 0
        return stdout.getvalue()


def _check_structure_change(command: str, data) -> None:
    """Exit 2 with one line that names the file and the place, or the
    unchanged input's stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        argv, places = _write_input(Path(tmp), command, data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    if code == 0:
        assert stdout.getvalue() == _unchanged_stdout(command)
        return
    err = stderr.getvalue()
    assert (code, stdout.getvalue(), err.count("\n"), err[-1:]) == (2, "", 1, "\n"), err
    assert any(err.startswith(f"error: {start}") and re.search(rf"\b{re.escape(word)}\b", err)
               for start, word in places), f"{err!r} names none of {places}"


@settings(max_examples=100)
@given(data=st.data())
def test_every_trace_structure_change_is_rejected_by_place_or_changes_nothing(data):
    _check_structure_change("screen", data)


@settings(max_examples=150)
@given(data=st.data())
def test_every_cohort_structure_change_is_rejected_by_place(data):
    _check_structure_change("analyze", data)


#: A valid ``--config`` file per command that reads one, and its argv.
CONFIG_FILES = {
    "gen load": (["gen", "load", "--script", "rest:0.2,elevated:0.2"],
                 "# sway-free harness\nseed = 12\nrate_hz = 50.0  # Hz\nnoise_std = 0.25\n"),
    "simulate": (["simulate", "--out", "{out}"],
                 "seed = 12\ngroup = EMG\nhand_size = M\nmas = 1+\nsessions = 1\n"
                 "duration_scale = 0.5\narm_support = yes\n"),
}
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x0660, 0x066A))))


def _mutate_config(text: str, data) -> tuple[bytes, str]:
    """``text`` with one thing changed: a line's ``=`` dropped, its value
    blanked or swapped (a word for a number, a number for a choice), its key
    duplicated or misspelt, a number spelled with ``_`` or other scripts'
    digits, past the float range or past ``int()``'s digits; or a byte that
    is not UTF-8 inserted. Also the place an error must name."""
    lines = text.splitlines()
    op = data.draw(st.sampled_from(["drop =", "blank", "swap", "duplicate", "misspell", "spell",
                                    "byte"]), label="op")
    if op == "byte":
        at = data.draw(st.integers(0, len(text)), label="at")
        return text[:at].encode() + b"\xff" + text[at:].encode(), f"position {at}"
    n = data.draw(st.sampled_from([n for n, line in enumerate(lines) if "=" in line]), label="line")
    key, _, rest = (part.strip() for part in lines[n].partition("="))
    value = rest.partition("#")[0].strip()
    comment = rest[rest.index("#"):] if "#" in rest else ""
    setting = config_mod.SETTINGS[key]
    if op == "drop =":
        lines[n] = lines[n].replace("=", " ", 1)
    elif op == "blank":
        lines[n] = f"{key} = {comment}"
    elif op == "duplicate":
        lines.insert(n, lines[n])
        n += 1
    elif op == "misspell":
        lines[n] = lines[n].replace(key, key[:-1], 1)
    else:
        number = setting.cast in (int, float)
        if op == "swap":
            spelled = data.draw(st.sampled_from(["abc", "nan", "inf", "true"]), label="word") if number else "5"
        else:  # the same number respelled, or one past what the setting holds
            spellings = ([re.sub(r"(\d)(\d)", r"\1_\2", value, count=1), value.translate(_ARABIC_INDIC)]
                         * number + ["1" + "0" * 400] * (setting.cast is float) + ["1" + "0" * 5000])
            spelled = data.draw(st.sampled_from(spellings), label="as")
        lines[n] = f"{key} = {spelled} {comment}"
    return ("\n".join(lines) + "\n").encode(), f"line {n + 1}"


def _run_config(root: Path, command: str, config: bytes) -> tuple[int, str, str]:
    argv, _text = CONFIG_FILES[command]
    (root / "exo.cfg").write_bytes(config)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([a.format(out=root / "out") for a in argv] + ["--config", str(root / "exo.cfg")])
    return code, stdout.getvalue(), stderr.getvalue()


@functools.cache
def _config_stdout(command: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, _stderr = _run_config(Path(tmp), command, CONFIG_FILES[command][1].encode())
    assert code == 0
    return stdout


@settings(max_examples=100)
@given(data=st.data())
def test_every_config_structure_change_is_rejected_by_place_or_changes_nothing(data):
    """Exit 1 or 2 with one line that names the file and the line (the
    position, for a byte), or the unchanged file's stdout."""
    command = data.draw(st.sampled_from(sorted(CONFIG_FILES)), label="command")
    config, place = _mutate_config(CONFIG_FILES[command][1], data)
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, err = _run_config(Path(tmp), command, config)
    if code == 0:
        assert stdout == _config_stdout(command)
        return
    assert (code in (1, 2), stdout, err.count("\n"), err[-1:]) == (True, "", 1, "\n"), err
    assert err.startswith(f"error: {Path(tmp) / 'exo.cfg'}: ") and re.search(rf"\b{place}\b", err), (
        f"{err[:300]!r} names not {place}")


# ---------------------------------------------------------------------------
# An error echoes an input of any size in one bounded line.

#: Text of 65 to 6,000 characters, a drawn pattern repeated: letters, digits,
#: ``._-+`` and spaces, none of which a script, a config line or a CSV row
#: splits on; the leading ``x`` keeps it from reading as a number.
_OVERSIZED = st.builds(lambda unit, size: ("x" + unit * size)[:size],
                       st.text(st.sampled_from(string.ascii_letters + string.digits + " ._-+"),
                               min_size=1, max_size=40),
                       st.integers(config_mod.SHOWN_CHARS + 1, 6000))


def _with_cell(text: str, line: int, column: int, cell: str) -> str:
    lines = text.splitlines()
    row = lines[line].split(",")
    row[column] = cell
    lines[line] = ",".join(row)
    return "\n".join(lines) + "\n"


def _oversized_input(root: Path, site: str, big: str) -> list[str]:
    """The argv of a command whose input holds ``big`` at ``site``, written under ``root``."""
    script = {"script label": ["gen", "emg", "--intent-script", f"{big}:1"],
              "script duration": ["gen", "load", "--script", f"rest:{big}"],
              "script segment": ["episode", "--intent-script", f"open:1,{big}"]}
    flags = {"emg profile": ["gen", "emg", "--intent-script", "open:1", "--profile", big],
             "screening subject": ["gen", "screening", "--subject", big, "--out", str(root)],
             "analyze format": ["analyze", "--format", big, str(root / "cohort.csv")],
             "dither amp": ["gen", "load", "--script", "rest:1", "--dither-amp", big],
             "stray argument": ["protocol", "list-tasks", big],
             "ambiguous option": ["gen", "load", "--script", "rest:1", f"--dither={big}"],
             "help value": ["protocol", "list-tasks", f"--help={big}"]}
    config = {"config line": big, "config key": f"{big} = 1", "config value": f"noise_std = {big}"}
    csv = {"csv header": 0, "csv group": 1, "csv measure": 2, "csv subscale": 3,
           "csv phase": 4, "csv score": 5}
    if site in script:
        return script[site]
    if site in flags:
        return flags[site]
    if site in config:
        (root / "exo.cfg").write_text(config[site] + "\n")
        return ["gen", "load", "--script", "rest:1", "--config", str(root / "exo.cfg")]
    if site in csv:
        text = _with_cell(golden.golden_cohort_csv(), site != "csv header", csv[site], big)
        (root / "cohort.csv").write_text(text)
        return ["analyze", str(root / "cohort.csv")]
    if site == "csv subject":  # a duplicate row, and the subject under the other group
        lines = golden.golden_cohort_csv().replace("P01,", f"{big},").splitlines()
        lines += [lines[1], lines[1].replace(",EMG,", ",SH,")]
        (root / "cohort.csv").write_text("\n".join(lines) + "\n")
        return ["analyze", str(root / "cohort.csv")]
    files = dict(_screening_files())
    lines = files["open_off_table.jsonl"].splitlines()
    if site in ("trace label", "trace rate", "trace bound"):
        header = json.loads(lines[0])
        if site == "trace label":
            header["annotations"][0][2] = big
        elif site == "trace rate":
            header["rate_hz"] = [big]
        else:
            header["annotations"][0][0] = big
        lines[0] = json.dumps(header)
    elif site == "trace channel":
        row = json.loads(lines[3])
        row["emg"][0] = big
        lines[3] = json.dumps(row)
    else:
        lines[3] = big
    files["open_off_table.jsonl"] = "\n".join(lines) + "\n"
    for name, text in files.items():
        (root / name).write_text(text)
    return ["screen", str(root)]


_OVERSIZED_SITES = ["script label", "script duration", "script segment", "emg profile",
                    "screening subject", "analyze format", "dither amp", "stray argument",
                    "ambiguous option", "help value", "config line", "config key", "config value",
                    "csv header", "csv group", "csv measure", "csv subscale", "csv phase", "csv score",
                    "csv subject", "trace label", "trace rate", "trace bound", "trace channel", "trace line"]


@pytest.mark.parametrize("site", _OVERSIZED_SITES)
@settings(max_examples=15, deadline=None)
@given(big=_OVERSIZED)
def test_an_oversized_input_is_rejected_in_one_bounded_line(site, big):
    """Exit 1 or 2 with one line of at most 400 bytes besides the paths it
    names, however long the rejected text."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = _oversized_input(Path(tmp), site, big)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    err = stderr.getvalue()
    assert (code in (1, 2), stdout.getvalue(), err.count("\n"), err[-1:]) == (True, "", 1, "\n"), err[:500]
    assert len(err.replace(tmp, "").encode()) <= 400, err[:500]
