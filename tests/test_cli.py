"""Command-line interface: happy paths, exit codes, config handling."""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
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

    @pytest.mark.parametrize("line, text, error", [
        (1, '{"t":0.0}', "sample 0 must be an object with keys 't' and 'emg', got '{\"t\":0.0}'"),
        (1, "[1,2]", "sample 0 must be an object with keys 't' and 'emg', got '[1,2]'"),
        (1, "null", "sample 0 must be an object with keys 't' and 'emg', got 'null'"),
        (0, "[]", "trace header must be a JSON object, got '[]'"),
        (0, json.dumps({"schema": signals.TRACE_SCHEMA, "rate_hz": 50.0, "annotations": []}),
         "trace header lacks kind"),
        (0, json.dumps({"schema": signals.TRACE_SCHEMA, "kind": "emg", "rate_hz": 50.0,
                        "annotations": [], "meta": 5}),
         "trace header meta must be a JSON object, got 5"),
        (2, '{"t":0.04,', "sample 1 is not valid JSON (Expecting property name enclosed in "
                          "double quotes at column 11), got '{\"t\":0.04,'"),
    ], ids=["row-without-value", "row-list", "row-null", "header-list", "header-without-kind",
            "header-number-meta", "row-truncated"])
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
        assert err == f"error: {error}\n"

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
        assert run_cli(capsys, "screen", str(tmp_path / "scr")) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize("end", [float("nan"), float("inf")])
    def test_annotation_bound_not_finite_exit_2(self, capsys, tmp_path, end):
        # A NaN end used to pass, and FAIL its attempt with a 0.00 s hold.
        def edit(header):
            header["annotations"][1][1] = end

        self._screening_with_header(tmp_path / "scr", edit)
        assert run_cli(capsys, "screen", str(tmp_path / "scr")) == (
            2, "", f"error: annotation interval must be finite with t_start < t_end, "
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
            2, "", f"error: a {seconds} s intent script holds no 0.005 s control tick\n")

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


class TestExitCodes:
    """``main`` maps the errors that only one command can raise."""

    def test_safety_abort_exits_3(self, capsys, monkeypatch):
        from exobench import controller

        def abort(*args, **kwargs):
            raise controller.SafetyAbort("tension cap breached at t=0.100: 101.00 N", None)

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


# ---------------------------------------------------------------------------
# Every number a command reads is honoured or rejected, by flag or from a file.

#: Numbers as a flag or a config file spells them, in five kinds drawn alike:
#: zero or negative, not finite, huge but finite, small integers and small
#: floats. The square of 1e200 overflows, and so does twice 1e308 or ten
#: times 1e307; a 31-digit seed is an integer.
_NUMBERS = st.one_of(
    st.sampled_from(["0", "-0.0", "-1", "-1e308"]),
    st.sampled_from(["nan", "inf", "-inf", "-Infinity"]),
    st.sampled_from(["1" + "0" * 30, "1e200", "1e307", "1e308", "1.7976931348623157e308"]),
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
