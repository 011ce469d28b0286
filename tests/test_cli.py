import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from adareg.cli import _PRESET_FLAGS, build_parser, main
from adareg.presets import ALGORITHMS
from adareg.problems import OnlineProblem

HEADER = "t,loss,cum_loss,cum_regret,delta_t,bound_prefix"


def run_cli(*argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    return code


def quick_run(tmp_path, name="run.csv", *extra):
    out = tmp_path / name
    code = run_cli(
        "run", "--algo", "adagrad-full", "--problem", "adv-linear",
        "--dim", "4", "--horizon", "40", "--seed", "3",
        "--set", "ball", "--radius", "1", "--out", str(out), *extra,
    )
    return code, out


class TestUsageErrors:
    def test_missing_required_flag(self, tmp_path):
        assert run_cli("run", "--problem", "adv-linear", "--horizon", "5",
                       "--out", str(tmp_path / "x.csv")) == 2

    def test_bad_horizon(self, tmp_path):
        assert run_cli(
            "run", "--algo", "adagrad-full", "--problem", "adv-linear",
            "--horizon", "0", "--out", str(tmp_path / "x.csv"),
        ) == 2

    def test_unknown_algorithm_choice(self, tmp_path):
        assert run_cli(
            "run", "--algo", "nope", "--problem", "adv-linear",
            "--horizon", "5", "--out", str(tmp_path / "x.csv"),
        ) == 2

    def test_zero_trials(self):
        assert run_cli("verify", "--suite", "lemmas", "--trials", "0") == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algo": "adagrad-full", "bogus": 1}))
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2

    def test_unreadable_config(self, tmp_path):
        assert run_cli(
            "run", "--config", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "x.csv"),
        ) == 2


class TestRun:
    def test_successful_run_writes_csv_and_summary(self, tmp_path, capsys):
        code, out = quick_run(tmp_path)
        assert code == 0
        captured = capsys.readouterr().out
        assert "certificate: satisfied" in captured
        lines = out.read_text().splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 41  # header + one row per round
        first = lines[1].split(",")
        assert first[0] == "1"
        assert len(first) == 6

    def test_seventeen_digit_rendering(self, tmp_path):
        _, out = quick_run(tmp_path)
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        # values survive a text round trip exactly
        assert float(row["bound_prefix"]) == float(repr(float(row["bound_prefix"])))

    def test_summary_json_block_parses(self, tmp_path, capsys):
        code, _ = quick_run(tmp_path)
        assert code == 0
        captured = capsys.readouterr().out
        json_line = [l for l in captured.splitlines() if l.startswith("json: ")][0]
        payload = json.loads(json_line[len("json: "):])
        assert payload["algo"] == "adagrad-full"
        assert payload["certificate"] == "satisfied"
        assert payload["horizon"] == 40

    def test_summary_out_matches_stdout(self, tmp_path, capsys):
        summary_path = tmp_path / "summary.txt"
        code, _ = quick_run(tmp_path, "run.csv", "--summary-out", str(summary_path))
        assert code == 0
        assert capsys.readouterr().out == summary_path.read_text()

    def test_byte_identical_reruns(self, tmp_path):
        _, first = quick_run(tmp_path, "a.csv")
        _, second = quick_run(tmp_path, "b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "algo": "adagrad-diag", "problem": "adv-linear", "dim": 3,
            "horizon": 30, "seed": 5, "set": "box",
        }))
        out_a = tmp_path / "a.csv"
        assert run_cli("run", "--config", str(cfg), "--out", str(out_a)) == 0
        payload = json.loads(
            [l for l in capsys.readouterr().out.splitlines() if l.startswith("json: ")][0][6:]
        )
        assert payload["algo"] == "adagrad-diag"
        assert payload["seed"] == 5
        out_b = tmp_path / "b.csv"
        assert run_cli("run", "--config", str(cfg), "--seed", "9",
                       "--out", str(out_b)) == 0
        payload = json.loads(
            [l for l in capsys.readouterr().out.splitlines() if l.startswith("json: ")][0][6:]
        )
        assert payload["seed"] == 9
        assert out_a.read_bytes() != out_b.read_bytes()

    @pytest.mark.parametrize("algo,extra", [
        ("adagrad-diag", ()),
        ("adaptive-ogd", ()),
        ("pnorm", ("--p", "2")),
        ("sc-ogd", ()),
    ])
    def test_other_presets_run(self, tmp_path, algo, extra):
        out = tmp_path / "r.csv"
        problem = "rot-quad" if algo == "sc-ogd" else "adv-linear"
        code = run_cli(
            "run", "--algo", algo, "--problem", problem, "--dim", "3",
            "--horizon", "40", "--set", "ball", "--radius", "1",
            "--out", str(out), *extra,
        )
        assert code == 0

    def test_ons_on_matched_problem(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli(
            "run", "--algo", "ons-full", "--problem", "sq-loss", "--dim", "3",
            "--horizon", "40", "--set", "ball", "--radius", "1", "--out", str(out),
        )
        assert code == 0


def run_summary(capsys, algo, problem, set_kind, *extra):
    """Exit code and parsed JSON summary of a short run (d=3, T=60, seed 4)."""
    code = run_cli(
        "run", "--algo", algo, "--problem", problem, "--dim", "3", "--horizon", "60",
        "--seed", "4", "--set", set_kind, "--out", "r.csv", *extra,
    )
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("json: ")]
    return code, json.loads(lines[0][len("json: "):]) if lines else None


class TestOverrides:
    """Each run flag that overrides a preset parameter or a problem constant.

    The final regrets pin the trajectories the overrides produce; a bound is
    pinned where the override leaves the certificate's formula unchanged.
    """

    @pytest.mark.parametrize("algo,problem,set_kind,extra,final_regret,bound", [
        ("adagrad-full", "adv-linear", "ball", ("--eta", "0.3"), 9.315569046579867, None),
        ("adagrad-full", "adv-linear", "ball", ("--epsilon", "0.01"),
         6.073914977970315, 37.829504851638355),
        ("adagrad-full", "adv-linear", "ball", ("--eta", "0.3", "--epsilon", "0.01"),
         9.308629375804028, None),
        ("adagrad-diag", "adv-linear", "box", ("--eta", "0.3"), 5.823551249569055, None),
        ("adagrad-diag", "adv-linear", "box", ("--epsilon", "0.01"),
         5.591809550155818, 18.97840878472165),
        ("adagrad-diag", "adv-linear", "box", ("--eta", "0.3", "--epsilon", "0.01"),
         5.831926093243051, None),
        ("pnorm", "adv-linear", "ball", ("--eta", "0.3"), 7.940795071752584, None),
        ("pnorm", "adv-linear", "ball", ("--epsilon", "0.01"),
         6.218144925745426, 32.77355192744261),
        ("pnorm", "adv-linear", "ball", ("--eta", "0.3", "--epsilon", "0.01", "--p", "3"),
         7.3599714881393945, None),
        ("ons-full", "sq-loss", "ball", ("--beta", "0.2"),
         0.5429365784491589, 70.03015120194625),
        ("ons-diag", "sq-loss", "ball", ("--beta", "0.2"),
         0.5370630838976693, 70.03015120194625),
        ("sc-ogd", "rot-quad", "ball", ("--alpha", "0.5"),
         14.177483048766563, 387.01902599110724),
        ("sc-ogd", "rot-quad", "ball", ("--alpha", "0.5", "--gamma", "9"),
         31.665262942713927, 1959.2838190799805),
    ])
    def test_override_runs(self, tmp_path, monkeypatch, capsys, algo, problem, set_kind, extra,
                           final_regret, bound):
        monkeypatch.chdir(tmp_path)
        code, payload = run_summary(capsys, algo, problem, set_kind, *extra)
        assert code == 0
        assert payload["certificate"] == "satisfied"
        assert payload["final_regret"] == pytest.approx(final_regret, rel=1e-9)
        if bound is not None:
            assert payload["bound"] == pytest.approx(bound, rel=1e-9)

    @pytest.mark.parametrize("algo", ["adagrad-full", "adagrad-diag", "pnorm"])
    def test_negative_epsilon_is_a_usage_error(self, tmp_path, monkeypatch, capsys, algo):
        # -1e-12 passes the positive-semidefinite check on g0, which allows
        # round-off; the preset must still reject it as input
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "run", "--algo", algo, "--problem", "adv-linear", "--dim", "3",
            "--horizon", "20", "--out", "r.csv", "--epsilon=-1e-12",
        )
        assert code == 2
        assert "epsilon must be nonnegative and finite" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("algo", ["adagrad-full", "adagrad-diag", "pnorm"])
    def test_nonfinite_epsilon_is_a_usage_error(self, tmp_path, monkeypatch, capsys, algo, value):
        # pnorm tunes eta from eps*I + sum g g' before the preset is built, so
        # epsilon is checked ahead of that eigendecomposition too
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "run", "--algo", algo, "--problem", "adv-linear", "--dim", "3",
            "--horizon", "20", "--out", "r.csv", f"--epsilon={value}",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: epsilon must be nonnegative and finite")
        assert "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("algo,flag", [
        ("ons-full", "--beta"), ("ons-diag", "--beta"), ("sc-ogd", "--alpha"),
    ])
    def test_missing_constant_is_a_usage_error(self, tmp_path, monkeypatch, capsys, algo, flag):
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "run", "--algo", algo, "--problem", "adv-linear", "--dim", "3",
            "--horizon", "20", "--out", "r.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and flag in err
        assert not (tmp_path / "r.csv").exists()


UNUSED_FLAG_CASES = [
    ("ons-full", "sq-loss", "--epsilon", "5"),
    ("ons-full", "sq-loss", "--gamma", "100"),
    ("ons-full", "sq-loss", "--eta", "3"),
    ("ons-full", "sq-loss", "--p", "4"),
    ("adagrad-full", "adv-linear", "--beta", "2"),
    ("adaptive-ogd", "adv-linear", "--epsilon", "0.01"),
]


class TestUnusedFlags:
    """A run flag the algorithm does not take is a usage error, not a silent no-op."""

    @staticmethod
    def assert_usage_error(code, capsys, tmp_path, flag):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and flag in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("algo,problem,flag,value", UNUSED_FLAG_CASES)
    def test_flag(self, tmp_path, monkeypatch, capsys, algo, problem, flag, value):
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "run", "--algo", algo, "--problem", problem, "--dim", "3", "--horizon", "50",
            "--seed", "1", "--out", "r.csv", flag, value,
        )
        self.assert_usage_error(code, capsys, tmp_path, flag)

    @pytest.mark.parametrize("algo,problem,flag,value", UNUSED_FLAG_CASES)
    def test_config_key(self, tmp_path, monkeypatch, capsys, algo, problem, flag, value):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "algo": algo, "problem": problem, "dim": 3, "horizon": 50, "seed": 1,
            flag[2:]: float(value),
        }))
        code = run_cli("run", "--config", str(cfg), "--out", "r.csv")
        self.assert_usage_error(code, capsys, tmp_path, flag)

    def test_preset_flags_are_the_registry_flags(self):
        # the parser offers exactly the flags that some algorithm reads
        assert set(_PRESET_FLAGS) == {"alpha", "beta", "epsilon", "eta", "gamma", "p"}
        assert set(_PRESET_FLAGS) == set().union(*(s.flags for s in ALGORITHMS.values()))
        assert build_parser().parse_args(["run", "--p", "3"]).p == 3.0

    def test_gamma_goes_to_the_problem_that_consumes_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        plain, base = run_summary(capsys, "adagrad-full", "adv-linear", "ball")
        code, scaled = run_summary(capsys, "adagrad-full", "adv-linear", "ball", "--gamma", "3")
        assert (plain, code) == (0, 0)
        assert scaled["certificate"] == "satisfied"
        # the gradients, and so the realized regret, scale with gamma
        assert scaled["final_regret"] != pytest.approx(base["final_regret"])


class TestUserSetEtaCertificate:
    def test_adaptive_ogd_certifies_against_its_step_scale(self, tmp_path, monkeypatch, capsys):
        # Before the bound read the user-set scale, this run printed bound
        # 0.894 (a diameter of c * sqrt(2) in place of the ball's 2) and
        # "certificate: violated" with exit 1.
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "run", "--algo", "adaptive-ogd", "--eta", "0.01", "--problem", "adv-linear",
            "--dim", "5", "--horizon", "2000", "--seed", "3", "--out", "r.csv",
        )
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("json: ")]
        payload = json.loads(lines[0][len("json: "):])
        assert code == 0
        assert payload["certificate"] == "satisfied"
        assert payload["final_regret"] == pytest.approx(58.555261241507679, rel=1e-9)
        # (c + b^2 / (2 c)) sqrt(sum |g|^2) with c = 0.01, b = 2; the old value
        # 0.894 was sqrt(2) * (0.01 sqrt(2)) * sqrt(sum |g|^2)
        root_sum_sq = 0.89442719099991597 / 0.02
        assert payload["bound"] == pytest.approx((0.01 + 4.0 / 0.02) * root_sum_sq, rel=1e-9)


def test_run_draws_each_round_twice(tmp_path, monkeypatch):
    draws = []
    round_rng = OnlineProblem.round_rng

    def counting(self, t):
        draws.append(t)
        return round_rng(self, t)

    monkeypatch.setattr(OnlineProblem, "round_rng", counting)
    code = run_cli(
        "run", "--algo", "sc-ogd", "--problem", "rot-quad", "--dim", "3", "--horizon", "200",
        "--seed", "6", "--out", str(tmp_path / "r.csv"),
    )
    assert code == 0
    # 32 for the constant checks, 200 for the comparator and 256 for the run,
    # in four 64-round blocks; regret reads f_t(x*) from the run's blocks
    assert len(draws) == 32 + 200 + 256


class TestInternalErrors:
    def test_numerical_failure_exits_3_without_traceback(self, tmp_path, monkeypatch, capsys):
        from adareg import cli
        from adareg.errors import ConvergenceError

        def fail(*_args, **_kwargs):
            raise ConvergenceError("ball multiplier search did not converge")

        monkeypatch.setattr(cli, "engine_run", fail)
        code, _ = quick_run(tmp_path)
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == "error: ball multiplier search did not converge\n"
        assert "Traceback" not in captured.out + captured.err


class TestCurves:
    def test_header_only_input(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text(HEADER + "\n")
        out = tmp_path / "curves.csv"
        assert run_cli("curves", "--in", str(src), "--out", str(out)) == 0
        assert out.read_text() == "run,t,regret,bound\n"

    def test_two_run_merge_tags_rows(self, tmp_path):
        _, a = quick_run(tmp_path, "first.csv")
        _, b = quick_run(tmp_path, "second.csv")
        out = tmp_path / "curves.csv"
        assert run_cli("curves", "--in", str(a), str(b), "--out", str(out)) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "run,t,regret,bound"
        tags = {r.split(",")[0] for r in rows[1:]}
        assert tags == {"first", "second"}
        assert len(rows) == 1 + 2 * 40

    def test_missing_columns_are_a_usage_error(self, tmp_path, capsys):
        src = tmp_path / "other.csv"
        src.write_text("t,loss\n1,0.5\n")
        out = tmp_path / "curves.csv"
        assert run_cli("curves", "--in", str(src), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert str(src) in err and "cum_regret, bound_prefix" in err
        assert not out.exists()

    def test_bound_column_monotone_for_adagrad(self, tmp_path):
        _, src = quick_run(tmp_path)
        out = tmp_path / "curves.csv"
        assert run_cli("curves", "--in", str(src), "--out", str(out)) == 0
        bounds = [float(r.split(",")[3]) for r in out.read_text().splitlines()[1:]]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))


class TestVerify:
    def test_small_clean_pass(self, capsys):
        assert run_cli("verify", "--suite", "matrix", "--trials", "40") == 0
        assert "suite matrix: ok" in capsys.readouterr().out

    def test_fault_injection_fails_with_manifest(self, capsys):
        code = run_cli(
            "verify", "--suite", "bounds", "--trials", "1",
            "--inject-fault", "bound-shrink",
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL suite=bounds" in out
        assert "seed=" in out


class TestList:
    def test_lists_registries(self, capsys):
        assert run_cli("list") == 0
        out = capsys.readouterr().out
        for name in ("adagrad-full", "ons-diag", "sc-ogd",
                     "adv-linear", "coord-sq", "lemmas", "bounds"):
            assert name in out


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "r.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "adareg.cli", "run", "--algo", "adagrad-full",
         "--problem", "adv-linear", "--dim", "3", "--horizon", "20",
         "--set", "ball", "--radius", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "certificate: satisfied" in proc.stdout
