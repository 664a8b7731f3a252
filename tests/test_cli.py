import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import asmux
from asmux.cli import _COMMANDS, _build_parser, main, resolve_run_config
from asmux.optimize import OptimizerSettings

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def loss_point(command):
    """The flags that set one loss point: ``table1`` takes them as a row."""
    return (["--rows", "0.95,0.9,0.9"] if command == "table1"
            else ["--v-r", "0.95", "--v-b", "0.9", "--v-d", "0.9"])


class TestEval:
    def test_vacuum_pump(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--n", "1", "--v-r", "0.9", "--v-b", "0.9",
            "--v-d", "0.9", "--lambda", "0",
        )
        assert code == 0
        assert out.splitlines()[0] == "P_0 1.0"

    def test_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--n", "1", "--v-r", "0.99", "--v-b", "0.98",
            "--v-d", "1.0", "--lambda", "0.5", "--strategy", "spd",
        )
        assert code == 0
        p1 = float(out.splitlines()[1].split()[1])
        assert p1 == pytest.approx(0.5 * math.exp(-0.5) * 0.98, rel=1e-12)

    def test_pump_file_round_trip(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "optimize", "--n", "4", "--v-r", "0.95", "--v-b", "0.9",
            "--v-d", "0.9", "--out", str(out_json),
        )
        assert code == 0
        stored_p1 = float(out.splitlines()[0].split()[1])
        code, out, _ = run(
            capsys, "eval", "--n", "4", "--v-r", "0.95", "--v-b", "0.9",
            "--v-d", "0.9", "--pump-file", str(out_json),
        )
        assert code == 0
        p1 = float(out.splitlines()[1].split()[1])
        assert abs(p1 - stored_p1) <= 1e-12

    def test_csv_output(self, capsys, tmp_path):
        out = tmp_path / "dist.csv"
        code, _, _ = run(
            capsys, "eval", "--n", "1", "--v-r", "0.99", "--v-b", "0.98",
            "--v-d", "1.0", "--lambda", "0.5", "--format", "csv", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "i,probability"
        assert float(data[2].split(",")[1]) == pytest.approx(
            0.5 * math.exp(-0.5) * 0.98, rel=1e-12
        )

    def test_json_output_of_a_pump_list(self, capsys, tmp_path):
        # a comma list gives each unit its own mean
        out = tmp_path / "dist.json"
        code, text, err = run(
            capsys, "eval", "--n", "2", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
            "--lambda", "0.4,0.7", "--i-max", "3", "--format", "json", "--out", str(out),
        )
        assert code == 0, err
        payload = json.loads(out.read_text())
        assert payload["lambdas"] == [0.4, 0.7]
        assert payload["config"]["lam"] == "0.4,0.7"
        dist = asmux.output_distribution(
            asmux.MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=2),
            asmux.PumpProfile((0.4, 0.7)),
            asmux.DetectionStrategy.single_photon(),
            i_max=3,
        )
        assert payload["probs"] == dist.probs.tolist()
        assert payload["truncation_mass"] == dist.truncation_mass
        assert text.splitlines() == [f"P_{i} {p!r}" for i, p in enumerate(payload["probs"])] + [
            f"truncation_mass {dist.truncation_mass!r}"
        ]

    def test_truncation_failure_is_domain_error(self, capsys):
        # the search grids' series cutoff stops at 400 pairs, and a thermal
        # mean of 20 needs 566: eval of that mean succeeds, and a search up
        # to it fails
        common = (
            "--n", "1", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9", "--source", "thermal",
        )
        code, out, _ = run(capsys, "eval", *common, "--lambda", "20")
        assert code == 0
        # P_0..P_10 followed by truncation_mass
        assert abs(sum(float(line.split()[1]) for line in out.splitlines()) - 1.0) <= 1e-13
        code, _, err = run(capsys, "optimize", *common, "--lambda-upper", "20")
        assert code == 3
        assert "tail" in err


class TestSearchBoundPastTheSeriesCutoff:
    @pytest.mark.parametrize(
        "mode,status", [("uniform", 0), ("scaled-reference", 0), ("per-unit", 3)]
    )
    def test_thermal_bound_of_20(self, capsys, mode, status):
        # only the per-unit grid cuts the pair-number series, which stops at
        # 400 pairs; a thermal bound of 20 needs 566
        code, _, err = run(
            capsys, "find-n", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
            "--source", "thermal", "--lambda-upper", "20", "--mode", mode,
        )
        assert code == status, err
        assert ("tail" in err) == (status == 3)


class TestOneParameterSearchAtALargeBound:
    def test_uniform_optimum_of_three_units(self, capsys):
        # the default bound's optimum; a linear search grid printed p1 0.17805209351980988
        code, out, err = run(
            capsys, "optimize", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9", "--n", "3",
            "--mode", "uniform", "--lambda-upper", "1e13",
        )
        assert code == 0, err
        assert out.splitlines()[0] == "p1 0.5770322096639123"


class TestStrategyPastTheSearchGrid:
    # the per-unit grid stops at 400 pairs; set:401 accepts no count on it,
    # and its search used to report p1 0.0 with every mean 0
    POINT = ("optimize", "--n", "3", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9")
    ARGS = (*POINT, "--lambda-upper", "275")

    @pytest.mark.parametrize("args", [POINT, ARGS])
    def test_per_unit_search_is_refused(self, capsys, args):
        code, out, err = run(capsys, *args, "--strategy", "set:401")
        assert code == 3
        assert out == ""
        assert err == (
            "error: strategy set:401 accepts no count up to the per-unit search grid's "
            "hard cap 400\n"
        )

    def test_uniform_search_is_unchanged(self, capsys):
        code, out, err = run(capsys, *self.ARGS, "--strategy", "set:401", "--mode", "uniform")
        assert code == 0, err
        assert out == "p1 7.608175120909282e-253\nn_units 3\nlambdas 275.0,275.0,275.0\n"

    def test_the_cap_itself_still_runs(self, capsys):
        code, out, err = run(capsys, *self.ARGS, "--strategy", "set:400")
        assert code == 0, err
        assert float(out.splitlines()[0].split()[1]) > 0.0


class TestExitCodes:
    def test_missing_parameter_is_config_error(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "1", "--lambda", "0.5")
        assert code == 2
        assert "missing" in err

    def test_unknown_config_key_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("v_r = 0.9\nwavelength = 780\n")
        code, _, err = run(capsys, "eval", "--config", str(cfg), "--lambda", "0.5")
        assert code == 2
        assert "unknown config keys" in err

    def test_domain_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--n", "1", "--v-r", "1.5", "--v-b", "0.9",
            "--v-d", "0.9", "--lambda", "0.5",
        )
        assert code == 3
        assert "[0, 1]" in err

    @pytest.mark.parametrize("mode", ["per-unit", "uniform", "scaled-reference"])
    def test_blocked_arms_find_no_photon(self, capsys, mode):
        # v_b = 0 transmits nothing on any arm: every mode reports P1 = 0
        code, out, err = run(
            capsys, "find-n", "--v-r", "0.9", "--v-b", "0", "--v-d", "0.9", "--mode", mode,
        )
        assert code == 0, err
        assert "p1 0.0" in out.splitlines()

    def test_out_of_memory_is_domain_error(self, capsys, monkeypatch):
        # stands in for the (sizes x n_max) table of a huge --n-ref, which is
        # never allocated here
        import asmux.optimize

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(asmux.optimize, "_search", out_of_memory)
        code, _, err = run(
            capsys, "find-n", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
            "--n-ref", "100000",
        )
        assert code == 3
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["0", "-0.01", "nan", "inf"])
    def test_bad_stability_resolution_is_domain_error(self, capsys, value):
        # a zero resolution used to hang and a negative one to invert the interval
        code, out, err = run(
            capsys, "stability", "--v-r", "0.95", "--v-b", "0.9", "--v-d", "0.9",
            "--n-ref", "10", "--resolution", value,
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: resolution must be positive and finite")

    @pytest.mark.parametrize(
        "command", ["find-n", "scan-strategies", "stability", "sweep", "table1"]
    )
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_threshold_is_domain_error(self, capsys, command, value):
        # no size met a threshold <= 0 or NaN, which reported n_opt = 1
        point = loss_point(command)
        code, out, err = run(capsys, command, *point, "--n-ref", "20", "--threshold", value)
        assert code == 3
        assert "n_opt" not in out
        assert err.startswith("error: threshold must be positive and finite")

    @pytest.mark.parametrize("command,flags", [
        ("find-n", ["--n-ref", str(10**20)]),
        ("stability", ["--n-ref", str(10**20)]),
        ("scan-strategies", ["--n-ref", str(10**20)]),
        ("table1", ["--n-ref", str(10**20)]),
        ("sweep", ["--n-ref", str(10**20)]),
        ("optimize", ["--n", str(10**20)]),
        ("eval", ["--lambda", "0.5", "--n", str(10**20)]),
        ("eval", ["--n", "1", "--lambda", "0.5", "--i-max", str(10**20)]),
        # within numpy's index range, but a float64 array this long has
        # more bytes than it can address
        ("optimize", ["--n", str(2**62)]),
        ("eval", ["--n", "1", "--lambda", "0.5", "--i-max", str(2**62)]),
    ])
    def test_count_past_the_index_range_is_domain_error(self, capsys, command, flags):
        # each used to end in an OverflowError or ValueError traceback; the
        # count is refused where it enters, before any array is sized by it
        point = loss_point(command)
        code, out, err = run(capsys, command, *point, *flags)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.endswith(f"{2**59 - 1}), got {flags[-1]}\n")

    @pytest.mark.parametrize(
        "command", ["optimize", "find-n", "scan-strategies", "sweep", "table1", "stability"]
    )
    def test_subnormal_lambda_upper_is_domain_error(self, capsys, command):
        # a scaled-reference search at this bound used to run forever: its
        # slope root's tolerance underflowed to 0
        size = ["--n", "3"] if command == "optimize" else []
        point = loss_point(command)
        code, out, err = run(capsys, command, *point, *size, "--lambda-upper", "1e-315")
        assert code == 3
        assert out == ""
        assert err == (
            "error: lambda_upper must be >= 2.2250738585072014e-308, the smallest normal float, "
            "got 1e-315\n"
        )

    def test_infinite_lambda_upper_is_domain_error(self, capsys):
        # it used to fail later, on a mean photon number, without naming the flag
        code, out, err = run(
            capsys, "find-n", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
            "--lambda-upper", "inf",
        )
        assert code == 3
        assert out == ""
        assert err == "error: lambda_upper must be > 0 and finite, got inf\n"

    @pytest.mark.parametrize("extra,message", [
        ([], "specify --lambda or --pump-file"),
        (["--lambda", "0.5,x"], "cannot parse pump means '0.5,x'"),
    ])
    def test_eval_without_pump_means_is_config_error(self, capsys, extra, message):
        code, out, err = run(
            capsys, "eval", "--n", "2", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9", *extra,
        )
        assert code == 2
        assert out == ""
        assert err == f"config error: {message}\n"

    def test_pump_file_without_lambdas_is_config_error(self, capsys, tmp_path):
        pump = tmp_path / "pump.json"
        pump.write_text(json.dumps({"lambda": [0.5]}))
        code, _, err = run(
            capsys, "eval", "--n", "1", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
            "--pump-file", str(pump),
        )
        assert code == 2
        assert err == f"config error: pump file {str(pump)!r} holds no 'lambdas'\n"

    def test_unpinned_sweep_parameter_is_config_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--v-r", "0.9", "--v-b", "0.9", "--n-ref", "3")
        assert code == 2
        assert out == ""
        assert err == "config error: parameter v_d is neither an axis nor fixed\n"

    @pytest.mark.parametrize("rows", ["0.9,0.9", "0.9,0.9,x", "0.9,0.9,0.9;"])
    def test_bad_table_row_is_config_error(self, capsys, rows):
        code, out, err = run(capsys, "table1", "--rows", rows, "--n-ref", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("config error: bad table row ")
        assert err.endswith("; expected v_r,v_d,v_b\n")

    def test_max_j_zero_is_domain_error(self, capsys):
        # it used to scan threshold detection alone
        code, out, err = run(
            capsys, "scan-strategies", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
            "--n-ref", "10", "--max-j", "0",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: max_accept must be >= 1")

    def test_bad_flag_is_config_error(self, capsys):
        assert main(["eval", "--no-such-flag"]) == 2

    def test_non_numeric_config_value_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("v_r = 0.9\nv_b = 0.9\nv_d = 0.9\nn = abc\n")
        code, _, err = run(capsys, "eval", "--config", str(cfg), "--lambda", "0.5")
        assert code == 2
        assert "n must be a number" in err

    def test_non_numeric_pump_file_is_config_error(self, capsys, tmp_path):
        pump = tmp_path / "pump.json"
        pump.write_text(json.dumps({"lambdas": ["a", 0.5]}))
        code, _, err = run(
            capsys, "eval", "--n", "2", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
            "--pump-file", str(pump),
        )
        assert code == 2
        assert "malformed" in err

    def test_unparsable_strategy_is_config_error(self, capsys):
        code, _, err = run(
            capsys, "find-n", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
            "--strategy", "upto:x",
        )
        assert code == 2
        assert "upto:x" in err

    def test_bad_mode_in_config_file_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("v_r = 0.9\nv_b = 0.9\nv_d = 0.9\nmode = foo\n")
        code, _, err = run(capsys, "find-n", "--config", str(cfg))
        assert code == 2
        assert "mode must be one of" in err

    def test_bad_sweep_mode_is_config_error(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9", "--modes", "foo",
        )
        assert code == 2
        assert "foo" in err

    def test_mc_validation_failure(self, capsys):
        code, out, err = run(
            capsys, "mc-validate", "--cases", "1", "--trials", "50000",
            "--sigma", "0.0001",
        )
        assert code == 4
        assert "FAIL" in out

    @pytest.mark.parametrize("status,argv", [
        (0, ["eval", "--n", "1", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
             "--lambda", "0.5"]),
        (2, ["eval", "--no-such-flag"]),
        (3, ["optimize", "--n", "0", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9"]),
        (4, ["mc-validate", "--cases", "1", "--trials", "50000", "--sigma", "0.0001"]),
        # files that cannot be decoded or written; {tmp} holds bad.cfg and
        # bad.json, which are not UTF-8, and the directory dir
        (2, ["find-n", "--config", "{tmp}/bad.cfg"]),
        (2, ["eval", "--n", "1", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
             "--pump-file", "{tmp}/bad.json"]),
        (2, ["find-n", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9", "--n-ref", "5",
             "--out", "/nonexistent/x.json"]),
        (2, ["eval", "--n", "1", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
             "--lambda", "0.5", "--out", "{tmp}/dir"]),
        (2, ["sweep", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9", "--n-ref", "3",
             "--format", "csv", "--out", "{tmp}/dir"]),
        # an accepted count beyond the bound is refused before its set is built
        (2, ["eval", "--n", "1", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
             "--lambda", "0.5", "--strategy", "upto:99999999"]),
        (2, ["sweep", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9", "--n-ref", "3",
             "--strategies", "spd,upto:99999999"]),
        # a pump whose output-count tables pass their budget is refused
        # before they are built
        (3, ["eval", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9", "--n", "2",
             "--lambda", "1e300"]),
        (3, ["eval", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9", "--n", "2",
             "--lambda", "1e300", "--source", "thermal"]),
    ])
    def test_process_exit_status(self, status, argv, tmp_path):
        # the status a shell sees, and no traceback on stderr; a file that
        # fails is named there
        (tmp_path / "bad.cfg").write_bytes(b"v_r = 0.9\xff\n")
        (tmp_path / "bad.json").write_bytes(b'{"lambdas": [0.5]}\xff')
        (tmp_path / "dir").mkdir()
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        src = Path(asmux.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "asmux.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == status, proc.stderr
        assert "Traceback" not in proc.stderr
        for flag, path in zip(argv, argv[1:]):
            if flag in ("--config", "--pump-file", "--out"):
                assert path in proc.stderr

    @pytest.mark.parametrize("flag,value,message", [
        ("--seed", "-5000", "seed must be >= 0"),
        ("--sigma", "-1", "sigma must be positive"),
        ("--cases", "0", "cases must be >= 1"),
        ("--trials", "100000000000000000000", "trials must be in"),
    ])
    def test_mc_validate_domain_error(self, capsys, flag, value, message):
        code, out, err = run(capsys, "mc-validate", "--cases", "1", "--trials", "1000",
                             flag, value)
        assert code == 3
        assert out == ""
        assert err.startswith("error: " + message) and err.count("\n") == 1

    def test_max_count_above_400_is_domain_error(self, capsys, monkeypatch):
        # every bucket up to max_count is built and written for each case
        # (1e8 got the process killed)
        import asmux.cli

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking max_count")

        with monkeypatch.context() as patch:
            patch.setattr(asmux.cli, "compare_with_analytic", no_sampling)
            code, out, err = run(capsys, "mc-validate", "--cases", "1", "--trials", "1000",
                                 "--max-count", "401")
        assert code == 3
        assert out == ""
        assert err.startswith("error: max_count must not exceed 400, got 401")
        code, out, _ = run(capsys, "mc-validate", "--cases", "1", "--trials", "1000",
                           "--max-count", "400")
        assert code == 0
        assert out.startswith("case 00 PASS")

    @pytest.mark.parametrize(
        "axis", ["0.8:0.82:nan", "nan:0.9:0.01", "0.8:0.82:inf", "0.8:0.82:1e-300"]
    )
    def test_bad_axis_range_is_domain_error(self, capsys, axis):
        # NaN and vanishing steps used to end in a traceback, an infinite one
        # in a message about v_d
        code, out, err = run(
            capsys, "sweep", "--axis", "v_d=" + axis, "--v-r", "0.9", "--v-b", "0.9",
            "--n-ref", "3",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "axis" in err


class TestConfigResolution:
    def test_file_plus_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "v_r = 0.99\nv_b = 0.98\nv_d = 1.0\nn = 1\nlambda = 0.5\nstrategy = spd\n"
        )
        code, out_file, _ = run(capsys, "eval", "--config", str(cfg))
        assert code == 0
        # flag overrides the file value
        code, out_flag, _ = run(capsys, "eval", "--config", str(cfg), "--lambda", "0")
        assert code == 0
        assert out_flag.splitlines()[0] == "P_0 1.0"
        assert out_file.splitlines()[0] != "P_0 1.0"

    def test_json_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"v_r": 0.99, "v_b": 0.98, "v_d": 1.0, "n": 1, "lambda": 0.5}
        ))
        code, out, _ = run(capsys, "eval", "--config", str(cfg))
        assert code == 0
        assert float(out.splitlines()[1].split()[1]) > 0.29

    def test_colon_line_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("v_r: 0.9\nv_b = 0.9\nv_d = 0.9\n")
        code, _, err = run(capsys, "find-n", "--config", str(cfg), "--n-ref", "5")
        assert code == 2
        assert "config line 1 has no '='" in err

    def test_hash_inside_value_is_kept(self, capsys, tmp_path):
        # only a line whose first non-blank character is '#' is a comment
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"# a comment\nv_r = 0.9\nv_b = 0.9\nv_d = 0.9\n  # another\n"
            f"out = {tmp_path}/run#1.json\n"
        )
        code, _, err = run(capsys, "find-n", "--config", str(cfg), "--n-ref", "5")
        assert code == 0, err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run#1.json", "run#1.json.log", "run.cfg",
        ]

    def test_inline_comment_after_number_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("v_r = 0.9\nv_b = 0.9\nv_d = 0.9\nn_ref = 5  # small\n")
        code, _, err = run(capsys, "find-n", "--config", str(cfg))
        assert code == 2
        assert "n_ref must be a number" in err

    @pytest.mark.parametrize("text,message", [
        ('{"v_r": 0.9,}', "config file is not valid JSON: "),
        ("[0.9, 0.9, 0.9]", "config line 1 has no '='"),  # only an object is read as JSON
        ("resume = maybe\n", "resume: expected true or false, got 'maybe'"),
        ("strategies = spd,upto:x\n", "strategies: cannot parse detection strategy 'upto:x'"),
    ])
    def test_bad_config_file_is_config_error(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(
            capsys, "sweep", "--config", str(cfg), "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("config error: " + message)

    def test_json_null(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"v_r": 0.9, "v_b": 0.9, "v_d": 0.9, "n_ref": 5, "out": None}))
        assert main(["find-n", "--config", str(cfg)]) == 0  # no default: unset
        assert list(tmp_path.iterdir()) == [cfg]
        cfg.write_text(json.dumps({"v_r": 0.9, "v_b": 0.9, "v_d": 0.9, "n_ref": None}))
        code, _, err = run(capsys, "find-n", "--config", str(cfg))
        assert code == 2
        assert "n_ref must be a number" in err


# every (command, key) pair the commands accepted without reading it
REMOVED_KEYS = (
    [(command, "threads") for command in _COMMANDS]
    + [(command, "i_max") for command in _COMMANDS if command != "eval"]
    + [(command, "n") for command in ("find-n", "scan-strategies", "sweep", "stability")]
    + [(command, "strategy") for command in ("scan-strategies", "sweep", "table1")]
    + [(command, "mode") for command in ("sweep", "table1", "stability")]
    + [("mc-validate", "format"), ("mc-validate", "chunk_trials")]
    + [(command, "lambda_lower")
       for command in ("optimize", "find-n", "scan-strategies", "sweep", "table1", "stability")]
    + [(command, key) for command in _COMMANDS for key in ("tail_epsilon", "l_hard_cap")]
)
REMOVED_VALUES = {
    "threads": "2", "i_max": "3", "n": "3", "strategy": "thd", "mode": "uniform",
    "format": "json", "chunk_trials": "50000", "lambda_lower": "0.1",
    "tail_epsilon": "1e-10", "l_hard_cap": "300",
}


class TestRemovedKeys:
    def test_count(self):
        assert len(REMOVED_KEYS) == 49

    @pytest.mark.parametrize("command,key", REMOVED_KEYS)
    def test_flag_is_config_error(self, capsys, command, key):
        flag = "--" + key.replace("_", "-")
        code, _, err = run(capsys, command, flag, REMOVED_VALUES[key])
        assert code == 2
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("command,key", REMOVED_KEYS)
    def test_config_key_is_config_error(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {REMOVED_VALUES[key]}\n")
        code, _, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert "unknown config keys" in err


# every key each command accepts, as a flag and as a config-file key
ACCEPTED_KEYS = {
    "eval": "config format i_max lam n out pump_file source strategy v_b v_d v_r v_t",
    "optimize": "config format lambda_upper mode n out source strategy v_b v_d v_r v_t",
    "find-n": (
        "config format full_curve lambda_upper mode n_ref out source strategy threshold "
        "v_b v_d v_r v_t"
    ),
    "scan-strategies": (
        "config format lambda_upper max_j mode n_ref out source threshold v_b v_d v_r v_t"
    ),
    "sweep": (
        "axis config format lambda_upper modes n_ref out resume source strategies threshold "
        "v_b v_d v_r v_t"
    ),
    "table1": "config format lambda_upper n_ref out rows threshold",
    "stability": (
        "config format lambda_upper n_ref out resolution source strategy threshold "
        "v_b v_d v_r v_t"
    ),
    "mc-validate": "cases config max_count out seed sigma trials",
}


class TestOptionInventory:
    """A new or dropped option shows up here as a reviewed diff."""

    def test_commands(self):
        assert sorted(_COMMANDS) == sorted(ACCEPTED_KEYS)

    @pytest.mark.parametrize("command", sorted(ACCEPTED_KEYS))
    def test_accepted_keys(self, command):
        dests = [o.dest for o in _COMMANDS[command][2]]
        assert len(dests) == len(set(dests))
        assert sorted(dests) == ACCEPTED_KEYS[command].split()

    def test_count(self):
        assert sum(len(keys.split()) for keys in ACCEPTED_KEYS.values()) == 94


# value strategies for the options whose text a converter checks
OPTION_VALUES = {
    "strategy": st.sampled_from(["spd", "thd", "upto:3", "set:1,3"]),
    "strategies": st.lists(st.sampled_from(["spd", "thd", "upto:2"]), min_size=1, max_size=3)
    .map(",".join),
    "modes": st.lists(
        st.sampled_from(["per-unit", "uniform", "scaled-reference"]), min_size=1, max_size=3
    ).map(",".join),
    "lam": st.lists(st.floats(0, 5), min_size=1, max_size=3)
    .map(lambda xs: ",".join(map(repr, xs))),
    "rows": st.just("0.9,0.9,0.9;0.95,0.9,0.8"),
    "axis": st.lists(
        st.sampled_from(["v_d=0.8:0.9:0.05", "v_r=0.9:0.95:0.05"]), min_size=1, max_size=2
    ),
}


def _values(option):
    if option.dest in OPTION_VALUES:
        return OPTION_VALUES[option.dest]
    if option.choices:
        return st.sampled_from(option.choices)
    if option.type is float:
        return st.floats(0, 10)
    if option.type is int:
        return st.integers(0, 10**6)
    if option.action in ("store_true", "store_false"):
        return st.booleans()
    return st.from_regex(r"[a-z][a-z0-9_.]{0,8}", fullmatch=True)


def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _as_flags(options, values) -> list[str]:
    argv = []
    for dest, value in values.items():
        option = options[dest]
        if option.action in ("store_true", "store_false"):
            if value != option.default:
                argv.append(option.flag)
        elif option.action == "append":
            argv += [f"{option.flag}={v}" for v in value]
        else:
            argv.append(f"{option.flag}={_text(value)}")
    return argv


def _key(dest: str) -> str:
    return "lambda" if dest == "lam" else dest


def _kv_text(value) -> str:
    if isinstance(value, (bool, list)):
        return json.dumps(value)
    return _text(value)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_flags_and_files_resolve_alike(self, tmp_path, command, data):
        options = {o.dest: o for o in _COMMANDS[command][2] if o.dest != "config"}
        values = data.draw(st.fixed_dictionaries(
            {}, optional={dest: _values(o) for dest, o in options.items()}
        ))
        parser = _build_parser()

        def resolve(*argv):
            cfg = resolve_run_config(parser.parse_args([command, *argv]))
            del cfg["config"]
            return cfg

        kv_file = tmp_path / "run.cfg"
        kv_file.write_text(
            "".join(f"{_key(d)} = {_kv_text(v)}\n" for d, v in values.items())
        )
        json_file = tmp_path / "run.json"
        json_file.write_text(json.dumps({_key(d): v for d, v in values.items()}))
        from_flags = resolve(*_as_flags(options, values))
        assert {d: from_flags[d] for d in values} == values
        assert resolve("--config", str(kv_file)) == from_flags
        assert resolve("--config", str(json_file)) == from_flags


# (command, option) for every option whose text a converter or a choice
# list reads; a flag that takes no text has nothing to compare
CONVERTED = [
    (command, option)
    for command, (_, _, options) in sorted(_COMMANDS.items())
    for option in options
    if (option.type is not str or option.choices)
    and option.action not in ("store_true", "store_false")
]


class TestOneConverter:
    """A flag's text and the same text in a config file are read by one
    converter, so both end with the same message."""

    def test_count(self):
        assert len(CONVERTED) == 72

    @pytest.mark.parametrize(
        "command,option", CONVERTED, ids=[f"{c}-{o.dest}" for c, o in CONVERTED]
    )
    def test_malformed_text_fails_alike(self, capsys, tmp_path, command, option):
        # neither a number, an integer, a strategy, a mode nor any choice
        text = "1.5" if option.type is int else "0.9x"
        kv_file = tmp_path / "run.cfg"
        kv_file.write_text(f"{option.dest} = {json.dumps(text)}\n")
        json_file = tmp_path / "run.json"
        json_file.write_text(json.dumps({option.dest: text}))
        outcomes = [
            run(capsys, command, *argv)
            for argv in ([option.flag, text], ["--config", str(kv_file)],
                         ["--config", str(json_file)])
        ]
        code, out, err = outcomes[0]
        assert outcomes == [outcomes[0]] * 3
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: {option.dest}") and err.endswith(f"{text!r}\n")
        assert err.count("\n") == 1

    def test_unknown_flag_prints_the_usage(self, capsys):
        code, _, err = run(capsys, "find-n", "--v-r", "0.9", "--no-such-flag", "1")
        assert code == 2
        assert err.startswith("usage: asmux")
        assert err.endswith("error: unrecognized arguments: --no-such-flag 1\n")


class TestReproducibleOutputs:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "optimize", "--n", "3", "--v-r", "0.95", "--v-b", "0.9", "--v-d", "0.9",
        ]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        payload_a = a.read_bytes()
        payload_b = b.read_bytes()
        # identical apart from the self-referential output path in the config
        assert payload_a.replace(b"a.json", b"x.json") == payload_b.replace(
            b"b.json", b"x.json"
        )
        assert (tmp_path / "a.json.log").exists()

    def test_output_embeds_config(self, capsys, tmp_path):
        out = tmp_path / "row.json"
        assert main([
            "find-n", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
            "--n-ref", "20", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["config"]["v_r"] == 0.9
        assert payload["config"]["n_ref"] == 20
        assert len(payload["rows"]) == 1


class TestSweepCommand:
    def test_degenerate_sweep_equals_find_n(self, capsys, tmp_path):
        find_out = tmp_path / "direct.json"
        assert main([
            "find-n", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.85",
            "--n-ref", "20", "--out", str(find_out),
        ]) == 0
        sweep_out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.85",
            "--n-ref", "20", "--format", "csv", "--out", str(sweep_out),
        ]) == 0
        capsys.readouterr()
        direct = json.loads(find_out.read_text())["rows"][0]
        from asmux.experiments import read_csv

        swept = read_csv(sweep_out)[0]
        assert swept.p1 == direct["p1"]
        assert list(swept.lambdas) == direct["lambdas"]

    def test_axis_sweep_rows(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--axis", "v_d=0.85:0.9:0.05", "--v-r", "0.9", "--v-b", "0.9",
            "--n-ref", "15", "--format", "csv", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        from asmux.experiments import read_csv

        rows = read_csv(out)
        assert [r.v_d for r in rows] == [0.85, 0.9]

    def test_resume_refuses_other_config(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        common = ["sweep", "--v-r", "0.9", "--v-b", "0.9", "--format", "csv", "--out", str(out)]
        first = [*common, "--axis", "v_d=0.85:0.9:0.05", "--n-ref", "5"]
        assert main(first) == 0
        written = out.read_bytes()
        assert main(first) == 0  # the same configuration resumes
        assert out.read_bytes() == written
        other = [*common, "--axis", "v_d=0.85:0.95:0.05", "--n-ref", "9"]
        code, _, err = run(capsys, *other)
        assert code == 3
        assert "another configuration" in err
        assert out.read_bytes() == written
        # refused before a torn last record would be cut off
        torn = written[:-30]
        out.write_bytes(torn)
        assert main(other) == 3
        assert out.read_bytes() == torn

    def test_resume_refuses_a_row_of_another_job(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        args = [
            "sweep", "--axis", "v_d=0.85:0.9:0.05", "--v-r", "0.9", "--v-b", "0.9",
            "--n-ref", "5", "--format", "csv", "--out", str(out),
        ]
        assert main(args) == 0
        written = out.read_bytes()
        edited = written.replace(b"\n0.9,0.985,", b"\n0.9,0.9,", 1)  # v_t of the first row
        assert edited != written
        out.write_bytes(edited)
        code, _, err = run(capsys, *args)
        assert code == 3
        assert "does not run" in err
        assert out.read_bytes() == edited

    def test_resume_after_no_resume(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        args = [
            "sweep", "--axis", "v_d=0.85:0.9:0.05", "--v-r", "0.9", "--v-b", "0.9",
            "--n-ref", "5", "--format", "csv", "--out", str(out),
        ]
        assert main([*args, "--no-resume"]) == 0
        written = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == written
        # the same settings from a config file resume it too
        cfg = tmp_path / "run.cfg"
        cfg.write_text('axis = ["v_d=0.85:0.9:0.05"]\nv_r = 0.9\nv_b = 0.9\nn_ref = 5\n')
        assert main([
            "sweep", "--config", str(cfg), "--format", "csv", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == written

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_set_strategy_in_list(self, capsys, tmp_path, source):
        out = tmp_path / "sweep.csv"
        args = [
            "sweep", "--axis", "v_d=0.85:0.9:0.05", "--v-r", "0.9", "--v-b", "0.9",
            "--n-ref", "5", "--format", "csv", "--out", str(out),
        ]
        if source == "flag":
            args += ["--strategies", "spd,set:1,3"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("strategies = spd,set:1,3\n")
            args += ["--config", str(cfg)]
        assert main(args) == 0
        capsys.readouterr()
        from asmux.experiments import read_csv

        rows = read_csv(out)
        assert [r.strategy for r in rows] == ["spd", "set:1,3"] * 2

    def test_json_output(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code, text, err = run(
            capsys, "sweep", "--axis", "v_d=0.85:0.9:0.05", "--v-r", "0.9", "--v-b", "0.9",
            "--n-ref", "5", "--format", "json", "--out", str(out),
        )
        assert code == 0, err
        assert text == "cells 2\n"
        payload = json.loads(out.read_text())
        assert [r["v_d"] for r in payload["rows"]] == [0.85, 0.9]
        assert payload["config"]["axis"] == ["v_d=0.85:0.9:0.05"]

    def test_integer_after_upto_is_config_error(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
            "--strategies", "upto:2,3",
        )
        assert code == 2
        assert "'3'" in err

    def test_bad_axis_is_config_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--axis", "v_d=0.85")
        assert code == 2


class TestFullCurve:
    @pytest.mark.parametrize("source", ["poisson", "thermal"])
    @pytest.mark.parametrize("mode", ["per-unit", "uniform", "scaled-reference"])
    def test_csv_rows_reevaluate_exactly(self, capsys, tmp_path, source, mode):
        from asmux.experiments import read_csv

        for strategy in ("spd", "thd", "set:1,3"):
            out = tmp_path / f"{strategy}.csv"
            code, _, _ = run(
                capsys, "find-n", "--v-r", "0.9", "--v-b", "0.8", "--v-d", "0.85",
                "--source", source, "--strategy", strategy, "--mode", mode, "--n-ref", "30",
                "--full-curve", "--format", "csv", "--out", str(out),
            )
            assert code == 0
            rows = read_csv(out)
            assert len(rows) == 30
            for row in rows:
                assert row.reevaluate() == row.p1, (strategy, row.n_units)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_one_row_per_size(self, capsys, tmp_path, fmt):
        from asmux.experiments import ResultRow, read_csv
        from asmux.multiplexer import MultiplexerSpec
        from asmux.optimize import find_optimal_n
        from asmux.statistics import DetectionStrategy

        out = tmp_path / f"curve.{fmt}"
        code, text, _ = run(
            capsys, "find-n", "--v-r", "0.95", "--v-b", "0.9", "--v-d", "0.9",
            "--n-ref", "20", "--full-curve", "--format", fmt, "--out", str(out),
        )
        assert code == 0
        if fmt == "csv":
            rows = read_csv(out)
        else:
            rows = [
                ResultRow(**{**r, "lambdas": tuple(r["lambdas"])})
                for r in json.loads(out.read_text())["rows"]
            ]
        search = find_optimal_n(
            MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=1),
            DetectionStrategy.single_photon(),
            n_ref=20,
        )
        assert text.splitlines()[0] == f"n_opt {search.n_opt}"
        assert [r.n_units for r in rows] == list(range(1, 21))
        assert [r.n_opt for r in rows] == [
            search.n_opt if n == search.n_opt else None for n in range(1, 21)
        ]
        assert [r.p1 for r in rows] == search.p1_by_n.tolist()
        for row in rows:
            assert len(row.lambdas) == row.n_units
            assert row.reevaluate() == row.p1


class TestSearchFlags:
    """Each searching command hands every search flag to its size search."""

    @pytest.mark.parametrize("command,target", [
        ("find-n", "asmux.cli.find_optimal_n"),
        ("scan-strategies", "asmux.cli.strategy_scan"),
        ("sweep", "asmux.experiments.run_sweep"),
        ("table1", "asmux.experiments.reproduce_table1"),
        ("stability", "asmux.experiments.stability_report"),
    ])
    def test_non_default_values_reach_the_search(self, monkeypatch, command, target):
        class Searched(Exception):
            pass

        module, name = target.rsplit(".", 1)
        signature = inspect.signature(getattr(importlib.import_module(module), name))
        received = {}

        def record(*args, **kwargs):
            received.update(signature.bind(*args, **kwargs).arguments)
            raise Searched

        monkeypatch.setattr(target, record)
        spec = [] if command == "table1" else ["--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9"]
        with pytest.raises(Searched):
            main([command, *spec, "--lambda-upper", "3", "--n-ref", "7", "--threshold", "0.002"])
        assert {key: received.get(key) for key in ("settings", "n_ref", "threshold")} == {
            "settings": OptimizerSettings(lambda_upper=3.0),
            "n_ref": 7,
            "threshold": 0.002,
        }


class TestOtherCommands:
    def test_stability_smoke(self, capsys, tmp_path):
        out = tmp_path / "stab.json"
        code, text, _ = run(
            capsys, "stability", "--v-r", "0.95", "--v-b", "0.9", "--v-d", "0.9",
            "--n-ref", "25", "--out", str(out),
        )
        assert code == 0
        assert text.startswith("interval [")
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["delta_plus"] is not None

    def test_table1_subset(self, capsys, tmp_path):
        out = tmp_path / "t1.csv"
        code, text, _ = run(
            capsys, "table1", "--rows", "0.90,0.90,0.90",
            "--n-ref", "30", "--format", "csv", "--out", str(out),
        )
        assert code == 0
        assert "per-unit" in text and "uniform" in text
        from asmux.experiments import read_csv

        rows = read_csv(out)
        assert {r.mode for r in rows} == {"per-unit", "uniform"}

    def test_table1_golden_row_end_to_end(self, capsys, tmp_path):
        # full-depth size search through the CLI against reference values
        out = tmp_path / "golden.csv"
        code, _, _ = run(
            capsys, "table1", "--rows", "0.90,0.90,0.90",
            "--n-ref", "100", "--format", "csv", "--out", str(out),
        )
        assert code == 0
        from asmux.experiments import read_csv

        rows = {r.mode: r for r in read_csv(out)}
        assert rows["per-unit"].p1 == pytest.approx(0.716, abs=0.002)
        assert abs(rows["per-unit"].n_opt - 12) <= 1
        assert abs(rows["uniform"].n_opt - 13) <= 1
        assert rows["uniform"].lambda_uniform == pytest.approx(0.868, abs=0.005)

    def test_scan_strategies_smoke(self, capsys):
        code, text, _ = run(
            capsys, "scan-strategies", "--v-r", "0.9", "--v-b", "0.9", "--v-d", "0.9",
            "--n-ref", "15", "--max-j", "2",
        )
        assert code == 0
        assert "spd" in text and "thd" in text

    def test_mc_validate_quick_pass(self, capsys, tmp_path):
        out = tmp_path / "mc.json"
        code, text, _ = run(
            capsys, "mc-validate", "--cases", "2", "--trials", "100000",
            "--sigma", "5", "--out", str(out),
        )
        assert code == 0
        assert text.count("PASS") == 2
        # 2 cases x 11 buckets, each beyond 5 sigma with probability erfc(5/sqrt(2))
        assert text.splitlines()[-1] == (
            "expected buckets beyond 5.0 sigma if the model holds: 1.26e-05 of 22"
        )
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "cases"}
        assert len(payload["cases"]) == 2
