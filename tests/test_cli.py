"""Command-line interface: happy paths, exit codes, config handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exobench
from exobench import cli, signals
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

    def test_emg_bad_script_label(self, capsys):
        code, _out, err = run_cli(capsys, "gen", "emg", "--intent-script", "grip:1")
        assert code == 1
        assert "unknown label" in err

    def test_emg_bad_script_duration(self, capsys):
        code, _out, err = run_cli(capsys, "gen", "emg", "--intent-script", "open:zero")
        assert code == 1
        assert "bad duration" in err

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
    ], ids=["row-without-value", "row-list", "row-null", "header-list", "header-without-kind"])
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

    def test_requires_script(self, capsys):
        code, _out, err = run_cli(capsys, "episode")
        assert code == 1
        assert "required" in err

    def test_unknown_config_mas_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "exo.cfg"
        cfg.write_text("mas = 3\n")
        code, out, err = run_cli(capsys, "episode", "--intent-script", "open:0.1", "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: unknown spasticity grade '3'\n")


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
    """A NaN or infinite number on the command line is a clean error, exit 2."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ("gen", "emg", "--intent-script", "open:1", "--rate"),
        ("gen", "load", "--script", "rest:1", "--rate"),
    ], ids=["gen-emg", "gen-load"])
    def test_rate(self, capsys, argv, value):
        code, out, err = run_cli(capsys, *argv, value)
        assert code == 2
        assert out == ""
        assert f"rate_hz must be positive and finite, got {float(value)!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, message", [
        (("--noise-std", "nan"), "noise_std must be non-negative and finite, got nan"),
        (("--noise-std", "-1"), "noise_std must be non-negative and finite, got -1.0"),
        (("--dither-amp", "nan"), "dither_amp must be finite, got nan"),
        (("--dither-hz", "inf", "--dither-amp", "1"), "dither_hz must be finite, got inf"),
    ], ids=["noise-nan", "noise-negative", "dither-amp-nan", "dither-hz-inf"])
    def test_gen_load_noise_and_dither(self, capsys, flags, message):
        # The clip at zero would otherwise hide the NaN as an all-zero trace.
        code, out, err = run_cli(capsys, "gen", "load", "--script", "rest:1", *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_gen_emg_config_noise_std(self, capsys, tmp_path, value):
        # A negative value would otherwise write its absolute value's bytes.
        cfg = tmp_path / "exo.cfg"
        cfg.write_text(f"noise_std = {value}\n")
        code, out, err = run_cli(capsys, "gen", "emg", "--profile", "clean",
                                 "--intent-script", "open:1", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"error: noise_std must be non-negative and finite, got {float(value)!r}\n"

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_gen_emg_config_drift_rate(self, capsys, tmp_path, value):
        # The fade is clipped at zero, so NaN or inf would write all-zero activations.
        cfg = tmp_path / "exo.cfg"
        cfg.write_text(f"drift_rate = {value}\n")
        code, out, err = run_cli(capsys, "gen", "emg", "--profile", "clean",
                                 "--intent-script", "open:1", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"error: drift_rate must be non-negative and finite, got {float(value)!r}\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_duration_scale(self, capsys, tmp_path, value):
        out_dir = tmp_path / "sim"
        code, out, err = run_cli(
            capsys, "simulate", "--group", "SH", "--sessions", "1",
            "--duration-scale", value, "--out", str(out_dir),
        )
        assert code == 2
        assert out == ""
        assert f"duration scale must be positive and finite, got {float(value)!r}" in err
        assert "Traceback" not in err
        assert not out_dir.exists()


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
        assert err.startswith("error: q must ")
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


class TestImports:
    # The nine documented invocations (each gets "--out out.txt"): only
    # analyze uses the statistics, so only analyze may load scipy.
    @pytest.mark.parametrize("argv, statistics", [
        (["protocol", "list-tasks"], False),
        (["episode", "--intent-script", "open:0.1"], False),
        (["gen", "cohort"], False),
        (["gen", "emg", "--intent-script", "open:2,relax:2,close:2", "--seed", "7"], False),
        (["gen", "load", "--script", "rest:2,elevated:2,rest:2,depressed:2",
          "--noise-std", "0.4", "--dither-amp", "1.5", "--seed", "11"], False),
        (["gen", "screening", "--subject", "separable", "--seed", "0"], False),
        (["screen", "screening", "--format", "json"], False),
        (["simulate", "--group", "SH", "--subject-id", "S01", "--sessions", "2", "--seed", "3"], False),
        (["analyze", "cohort.csv", "--q", "0.05", "--format", "json"], True),
    ])
    def test_scipy_is_imported_only_for_statistics(self, capsys, tmp_path, argv, statistics):
        (tmp_path / "cohort.csv").write_text(golden.golden_cohort_csv())
        if argv[0] == "screen":
            run_cli(capsys, "gen", "screening", "--out", str(tmp_path / "screening"))
        probe = (
            "import sys\n"
            "from exobench import cli\n"
            f"code = cli.main({argv + ['--out', 'out.txt']!r})\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=_child_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == f"0 {statistics}"


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
