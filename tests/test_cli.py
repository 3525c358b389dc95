"""Command line surface: exit codes, config file handling, deterministic
file outputs."""

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from qshoot.cli import (
    RunConfig,
    build_parser,
    load_run_config,
    main,
    parse_config_text,
)
from qshoot.errors import ConfigError


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestExitCodes:
    def test_successful_shot(self, capsys):
        code, out, err = run_cli(capsys, "shoot", "--family", "linear",
                                 "--gamma", "1")
        assert code == 0
        assert err == ""
        assert "R=2.404825557" in out

    def test_bad_flag_value_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "shoot", "--q", "abc",
                                 "--gamma", "2")
        assert code == 1
        assert "--q" in err
        assert err.startswith("qshoot: error:")

    def test_missing_gamma(self, capsys):
        code, _, err = run_cli(capsys, "shoot", "--family", "exp")
        assert code == 1
        assert "gamma" in err

    def test_unknown_config_key_names_the_line(self, capsys, tmp_path):
        cfile = tmp_path / "bad.cfg"
        cfile.write_text("family=exp\nwibble=3\n")
        code, _, err = run_cli(capsys, "shoot", "--config", str(cfile),
                               "--gamma", "2")
        assert code == 1
        assert "line 2" in err and "wibble" in err

    def test_unreachable_zero_is_a_solver_error(self, capsys):
        # multiplier so small the profile stays positive inside the outward
        # march's reach, ode.R_MAX
        code, _, err = run_cli(capsys, "shoot", "--family", "pow_exp",
                               "--gamma", "0.001", "--lambda", "1e-30")
        assert code == 2
        assert err.startswith("qshoot: solver error:")

    @pytest.mark.parametrize("flag,value,name", [
        ("--lambda", "nan", "lambda"), ("--lambda", "inf", "lambda"),
        ("--a", "nan", "a"), ("--q", "nan", "q"), ("--p", "nan", "p"),
        ("--rho-beta", "nan", "rho_beta")])
    def test_non_finite_parameter_is_a_config_error(self, capsys, flag,
                                                    value, name):
        code, out, err = run_cli(capsys, "shoot", "--gamma", "3", flag, value)
        assert (code, out) == (1, "")
        assert err == f"qshoot: error: {name} must be finite, got " \
            f"{float(value)}\n"

    @pytest.mark.parametrize("argv,name", [
        (("shoot", "--n", "1", "--gamma", "3"), "dimension n"),
        (("shoot", "--n", "0", "--gamma", "3"), "dimension n"),
        (("sweep", "--beta-weight", "2.5", "--gamma-min", "2",
          "--gamma-max", "3", "--gamma-steps", "2"), "beta_weight")])
    def test_dimension_and_weight_are_refused_up_front(self, capsys, argv,
                                                       name):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("qshoot: error:") and name in err

    @pytest.mark.parametrize("where,value", [("flag", "json"),
                                             ("file", "xml")])
    def test_format_must_be_csv_or_svg(self, capsys, tmp_path, where, value):
        out = tmp_path / "s.out"
        argv = ["sweep", "--family", "exp", "--gamma-min", "1",
                "--gamma-max", "2", "--gamma-steps", "2", "--out", str(out)]
        if where == "flag":
            argv += ["--format", value]
        else:
            cfile = tmp_path / "run.cfg"
            cfile.write_text(f"format={value}\n")
            argv += ["--config", str(cfile)]
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err.startswith("qshoot: error:") and repr(value) in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # the floor scan overflows g' at u = 1e-6
        ("shoot", "--q", "-50", "--gamma", "2"),
        # the tail refuses, then log f(gamma) overflows at the radius start
        ("shoot", "--gamma", "1e160")])
    def test_overflowing_exponent_is_a_typed_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code in (1, 2) and out == ""
        assert err.startswith("qshoot: ") and err.count("\n") == 1

    def test_no_command_prints_usage(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "qshoot" in capsys.readouterr().out

    def test_console_script_is_installed(self):
        res = subprocess.run([sys.executable, "-m", "qshoot.cli",
                              "shoot", "--family", "exp", "--gamma", "2"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert "R=1.3639476" in res.stdout


class TestRunConfig:
    def test_text_round_trip(self):
        rc = RunConfig(family="exp", gamma=2.5, n=3, tol=1e-9,
                       out="x.csv", fmt="svg")
        text = "family=exp\nformat=svg\ngamma=2.5\nn=3\nout=x.csv\ntol=1e-09\n"
        assert load_run_config(None, parse_config_text(text)) == rc

    def test_flags_override_the_file(self, tmp_path, capsys):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("family=exp\ngamma=1.0\n")
        code, out, _ = run_cli(capsys, "shoot", "--config", str(cfile),
                               "--gamma", "2")
        assert code == 0
        assert "gamma=2" in out.replace("gamma=2.0", "gamma=2")
        assert "R=1.3639476" in out  # the gamma=2 closed-form radius

    def test_file_overrides_the_defaults(self, tmp_path):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("n=3\ntol=1e-8\n")
        rc = load_run_config(str(cfile), {})
        assert rc.n == 3
        assert rc.tol == 1e-8
        assert rc.family == "pow_exp"

    def test_unknown_key_raises(self):
        with pytest.raises(ConfigError):
            parse_config_text("nope=1\n")


class TestSweepCommand:
    def test_csv_schema_and_grid(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        code, text, _ = run_cli(capsys, "sweep", "--family", "pow_exp",
                                "--gamma-min", "2", "--gamma-max", "4",
                                "--gamma-steps", "5", "--out", str(out))
        assert code == 0
        assert "points=5" in text and "solved=5" in text
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "gamma,T,R,lambda,yprime_T"
        gam = [float(l.split(",")[0]) for l in lines[1:]]
        assert gam == sorted(gam) and len(gam) == 5
        meta_text = (tmp_path / "curve.csv.meta.json").read_text()
        meta = json.loads(meta_text)
        assert meta["gamma_count"] == 5
        assert meta["n"] == 2
        # the march counters stay in Trajectory.diagnostics
        for counter in ("nfev", "rejected", "aimed", "landing"):
            assert counter not in text + out.read_text() + meta_text

    def test_sweep_rows_match_single_shots(self, capsys, tmp_path):
        out = tmp_path / "c.csv"
        code1, out1, _ = run_cli(capsys, "shoot", "--family", "exp",
                                 "--gamma", "2")
        code2, _, _ = run_cli(capsys, "sweep", "--family", "exp",
                              "--gamma-min", "2", "--gamma-max", "3",
                              "--gamma-steps", "2", "--out", str(out))
        assert code1 == code2 == 0
        r_line = next(l for l in out1.splitlines() if l.startswith("R="))
        first_row = out.read_text().splitlines()[1].split(",")
        assert first_row[0] == "2.0"
        assert first_row[2] == r_line.split("=")[1]

    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path):
        args = ("sweep", "--family", "pow_exp", "--gamma-min", "2",
                "--gamma-max", "6", "--gamma-steps", "4")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *args, "--out", str(a))
        run_cli(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_bytes() == \
               (tmp_path / "b.csv.meta.json").read_bytes()

    def test_svg_output(self, capsys, tmp_path):
        out = tmp_path / "curve.svg"
        code, _, _ = run_cli(capsys, "sweep", "--family", "pow_exp",
                             "--gamma-min", "2", "--gamma-max", "5",
                             "--gamma-steps", "4", "--format", "svg",
                             "--out", str(out))
        assert code == 0
        body = out.read_text()
        assert body.startswith("<svg") and "<polyline" in body

    def test_bad_grid_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--family", "exp",
                               "--gamma-min", "5", "--gamma-max", "2",
                               "--gamma-steps", "3")
        assert code == 1
        assert "gamma" in err


    @pytest.mark.parametrize("lo,hi", [("1", "inf"), ("nan", "5"),
                                       ("-inf", "5")])
    def test_non_finite_grid_bound_is_a_config_error(self, capsys, lo, hi):
        code, _, err = run_cli(capsys, "sweep", f"--gamma-min={lo}",
                               f"--gamma-max={hi}", "--gamma-steps", "3")
        assert code == 1
        assert "must be finite" in err

    def test_non_finite_amplitude_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "shoot", "--gamma", "nan")
        assert code == 1
        assert err == "qshoot: error: gamma must be finite, got nan\n"


class TestLinearizeCommand:
    def test_single_amplitude_report(self, capsys):
        code, out, _ = run_cli(capsys, "linearize", "--family", "pow_exp",
                               "--gamma", "4")
        assert code == 0
        vals = dict(l.split("=", 1) for l in out.strip().splitlines())
        assert float(vals["Tprime_v1"]) == pytest.approx(
            float(vals["Tprime_fd"]), rel=1e-3)
        assert "S" in vals and "S_predicted" in vals

    def test_linear_family_derivative_vanishes(self, capsys):
        code, out, _ = run_cli(capsys, "linearize", "--family", "linear",
                               "--gamma", "1")
        assert code == 0
        vals = dict(l.split("=", 1) for l in out.strip().splitlines())
        assert abs(float(vals["Tprime_v1"])) <= 1e-6

    def test_grid_mode_reports_the_uniqueness_window(self, capsys, tmp_path):
        out = tmp_path / "lin.csv"
        code, text, _ = run_cli(
            capsys, "linearize", "--family", "pow_exp", "--q", "1.5",
            "--p", "1", "--rho-beta", "1", "--gamma-min", "2",
            "--gamma-max", "8", "--gamma-steps", "4", "--out", str(out))
        assert code == 0
        line = next(l for l in text.splitlines() if l.startswith("gamma0="))
        assert line != "gamma0=not found"
        gamma0 = float(line.split("=")[1])
        assert 2.0 <= gamma0 <= 8.0
        header = out.read_text().splitlines()[0]
        assert header == "gamma,T,R,lambda,yprime_T,Tprime_v1,Tprime_fd"

    def test_single_amplitude_and_grid_row_agree(self, capsys, tmp_path):
        flags = ("--family", "pow_exp", "--q", "1.5", "--p", "1",
                 "--rho-beta", "1")
        _, text, _ = run_cli(capsys, "linearize", *flags, "--gamma", "6")
        single = dict(l.split("=", 1) for l in text.strip().splitlines())
        out = tmp_path / "grid.csv"
        run_cli(capsys, "linearize", *flags, "--gamma-min", "6",
                "--gamma-max", "7", "--gamma-steps", "2", "--out", str(out))
        row = dict(zip(*(l.split(",")
                         for l in out.read_text().splitlines()[:2])))
        assert row["gamma"] == "6.0"
        assert (row["T"], row["Tprime_v1"]) == \
            (single["T"], single["Tprime_v1"])

    def test_trajectory_export_needs_the_tail_route(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, _, err = run_cli(capsys, "linearize", "--family", "pow_exp",
                               "--gamma", "0.5", "--out", str(out))
        assert code == 1
        assert "route" in err or "gamma" in err

    def test_trajectory_export_schema(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, _, _ = run_cli(capsys, "linearize", "--family", "pow_exp",
                             "--gamma", "4", "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[0] == "t,y,yprime,V1,V1prime"


class TestVerifyCommand:
    def test_identity_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "identities")
        assert code == 0
        assert out.startswith("suite identities: pass")

    def test_reports_are_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "verify", "--suite", "identities", "--out", str(a))
        run_cli(capsys, "verify", "--suite", "identities", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        rows = json.loads(a.read_text())
        assert rows[0]["suite"] == "identities"
        assert all(r["passed"] for r in rows[0]["rows"])


class TestOtherCommands:
    def test_regimes_explicit_grid(self, capsys):
        code, out, _ = run_cli(capsys, "regimes", "--family", "pow_exp",
                               "--p", "1", "--gamma-min", "1e-3",
                               "--gamma-max", "1e-1", "--gamma-steps", "3")
        assert code == 0
        vals = dict(l.split("=", 1) for l in out.strip().splitlines()
                    if not l.startswith("T["))
        assert vals["verdict"] == "bounded"
        assert float(vals["p_estimate"]) == pytest.approx(1.0, abs=1e-5)

    def test_singular_compares_both_marches(self, capsys):
        code, out, _ = run_cli(capsys, "singular", "--family", "exp",
                               "--beta-weight", "1", "--gamma", "2")
        assert code == 0
        vals = dict(l.split("=", 1) for l in out.strip().splitlines())
        assert float(vals["rel_difference"]) <= 1e-5
        want = 2.0 * (2.718281828459045 ** 1.0 - 1.0) / 2.718281828459045 ** 2
        assert float(vals["R_reduced"]) == pytest.approx(want, rel=1e-6)

    def test_singular_weight_range_is_checked(self, capsys):
        code, _, err = run_cli(capsys, "singular", "--family", "exp",
                               "--beta-weight", "2", "--gamma", "1")
        assert code == 1
        assert "beta" in err


class TestParserReuse:
    """`main` parses with one parser per process; no call leaves state in
    it for the next."""

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_repeated_suite_flags_do_not_accumulate(self, capsys):
        run_cli(capsys, "verify", "--suite", "identities")
        code, out, _ = run_cli(capsys, "verify", "--suite", "oracles")
        assert code == 0
        assert [l.split(":")[0] for l in out.splitlines()
                if l.startswith("suite")] == ["suite oracles"]

    def test_an_amplitude_is_not_remembered(self, capsys):
        assert run_cli(capsys, "shoot", "--gamma", "3")[0] == 0
        code, out, err = run_cli(capsys, "shoot")
        assert (code, out) == (1, "")
        assert "shoot needs --gamma" in err

    def test_config_file_values_are_not_remembered(self, capsys, tmp_path):
        fresh = run_cli(capsys, "shoot", "--gamma", "2")
        cfile = tmp_path / "run.cfg"
        cfile.write_text("family=exp\nn=3\n")
        with_file = run_cli(capsys, "shoot", "--config", str(cfile),
                            "--gamma", "2")
        assert with_file != fresh
        assert run_cli(capsys, "shoot", "--gamma", "2") == fresh

    def test_usage_and_version_are_unchanged_by_a_solve(self, capsys):
        def usage_and_version():
            usage = run_cli(capsys)
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            return usage, exc.value.code, capsys.readouterr()

        before = usage_and_version()
        assert run_cli(capsys, "shoot", "--family", "exp", "--gamma", "3")[0] \
            == 0
        assert usage_and_version() == before


class TestCallCost:
    """A warm call leaves no cyclic garbage, and a cold one imports no
    scipy."""

    @pytest.mark.parametrize("argv", [
        ("shoot", "--family", "exp", "--n", "2", "--gamma", "3"),
        ("sweep", "--family", "exp", "--n", "2", "--gamma-min", "2",
         "--gamma-max", "4", "--gamma-steps", "3")])
    def test_a_warm_call_leaves_no_cyclic_garbage(self, capsys, argv):
        run_cli(capsys, *argv)
        gc.collect()
        gc.disable()
        try:
            assert run_cli(capsys, *argv)[0] == 0
            freed = gc.collect()
        finally:
            gc.enable()
        assert freed <= 20

    def test_importing_the_cli_loads_no_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import sys\n"
                f"sys.path.insert(0, {src!r})\n"
                "import qshoot.cli\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m == 'scipy' or m.startswith('scipy.')))\n")
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"
