"""Every ``adareg run`` flag combination ends with a documented exit code.

The sweep covers each algorithm on each problem family and each set shape.
A combination that the flags alone make invalid must be a usage error
(exit 2) before round 1, never an internal numerical failure (exit 3)
after the run, and no combination may print a traceback.
"""

import itertools

import pytest

from adareg.cli import main
from adareg.presets import ALGORITHMS, PRESET_BUILDERS
from adareg.problems import PROBLEM_FAMILIES

SET_FLAGS = {
    "ball": ("--set", "ball"),
    "box": ("--set", "box"),
    "none": ("--set", "none", "--diameter", "2"),
}


def run_main(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects arguments this way
        return exc.code


def test_every_run_combination_exits_with_a_documented_code(tmp_path, capsys):
    combos = list(itertools.product(sorted(PRESET_BUILDERS), sorted(PROBLEM_FAMILIES), SET_FLAGS))
    assert len(combos) == 84
    codes = {}
    for algo, problem, set_kind in combos:
        out = tmp_path / f"{algo}-{problem}-{set_kind}.csv"
        argv = [
            "run", "--algo", algo, "--problem", problem, *SET_FLAGS[set_kind],
            "--dim", "3", "--horizon", "60", "--seed", "1", "--out", str(out),
        ]
        code = run_main(argv)
        err = capsys.readouterr().err
        codes[algo, problem, set_kind] = code
        assert code in (0, 1, 2, 3), (algo, problem, set_kind, code)
        assert code != 3, (algo, problem, set_kind, err)
        assert "Traceback" not in err, (algo, problem, set_kind, err)
        if code == 2:
            assert not out.exists(), (algo, problem, set_kind)
    for algo in PRESET_BUILDERS:
        assert codes[algo, "adv-linear", "none"] == 2


@pytest.mark.parametrize("algo", ["adagrad-full", "adagrad-diag", "adaptive-ogd", "pnorm"])
def test_linear_loss_over_an_unbounded_set_is_a_usage_error(algo, tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = run_main([
        "run", "--algo", algo, "--problem", "adv-linear", "--set", "none", "--diameter", "2",
        "--dim", "3", "--horizon", "60", "--out", str(out),
    ])
    assert code == 2
    assert "invalid choice: 'none'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_unbounded_set_options_are_usage_errors(algo, tmp_path, capsys):
    # --set none and --diameter are gone: whether given as flags or as a
    # config key, they stop the run before any file is written
    problem, set_kind = ALGORITHMS[algo].matched
    config = tmp_path / "config.json"
    config.write_text('{"diameter": 2}')
    out = tmp_path / "run.csv"
    base = ["run", "--algo", algo, "--problem", problem, "--dim", "3", "--horizon", "60",
            "--out", str(out)]
    for extra in (
        ["--set", "none"],
        ["--set", set_kind, "--diameter", "2"],
        ["--set", set_kind, "--config", str(config)],
    ):
        assert run_main(base + extra) == 2, extra
        assert "Traceback" not in capsys.readouterr().err, extra
        assert not out.exists(), extra
