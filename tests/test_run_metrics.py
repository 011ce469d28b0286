"""A run's counters and the ``metrics`` object of the ``run`` summary, against recounts."""

import json

import numpy as np
import pytest

import adareg.engine
from adareg.cli import _run_metrics, main
from adareg.engine import run
from adareg.presets import build_preset, make_preset
from adareg.problems import make_problem
from adareg.sets import Ball, Box, Unconstrained

from test_kernel import PullProblem


def counting_project(monkeypatch):
    """Wrap the engine's ``project`` to count the calls that moved their point."""
    moved = []
    original = adareg.engine.project

    def project(x, fset, h):
        result = original(x, fset, h)
        moved.append(result is not x)
        return result

    monkeypatch.setattr(adareg.engine, "project", project)
    return moved


CASES = [
    ("adagrad-full", Ball(np.zeros(4), 0.3), 0),
    ("adagrad-diag", Box(-0.2 * np.ones(4), 0.2 * np.ones(4)), 0),
    ("adaptive-ogd", Ball(np.zeros(4), 0.3), 6),
    ("sc-ogd", Ball(np.zeros(4), 0.3), 0),
    ("adagrad-diag", Unconstrained(dim=4, declared_euclidean_diameter=2.0), 0),
]


@pytest.mark.parametrize("algo_id,fset,quiet", CASES)
def test_counters_match_independent_recounts(algo_id, fset, quiet, monkeypatch):
    params = {"alpha": 1.0, "gamma": 2.0} if algo_id == "sc-ogd" else {}
    config = make_preset(algo_id, fset, **params).config
    moved = counting_project(monkeypatch)
    result = run(config, PullProblem(4, 9, fset, quiet=quiet), 150)
    assert type(result.projection_active) is int
    assert type(result.deferred_rounds) is int
    assert result.projection_active == sum(moved)
    assert result.deferred_rounds == int((~result.h_defined).sum()) == quiet
    if isinstance(fset, Unconstrained):
        assert result.projection_active == 0
    else:
        assert 0 < result.projection_active < 150 - quiet


def test_counters_are_not_history_bytes():
    fset = Ball(np.zeros(3), 1.0)
    result = run(make_preset("adagrad-full", fset).config, PullProblem(3, 2, fset), 20)
    assert not hasattr(result.projection_active, "nbytes")
    assert not hasattr(result.deferred_rounds, "nbytes")
    # derived from the h_defined flags, not kept as a second record
    assert "deferred_rounds" not in vars(result)


def summary_json(stdout):
    return json.loads(stdout.rsplit("json: ", 1)[1])


@pytest.mark.parametrize(
    "algo,problem,set_kind",
    [
        ("adagrad-full", "adv-linear", "ball"),
        ("adagrad-diag", "adv-linear", "box"),
        ("sc-ogd", "rot-quad", "ball"),
        ("adaptive-ogd", "adv-linear", "ball"),
    ],
)
def test_run_summary_metrics(algo, problem, set_kind, tmp_path, capsys, monkeypatch):
    argv = [
        "run", "--algo", algo, "--problem", problem, "--set", set_kind,
        "--dim", "4", "--horizon", "80", "--seed", "5", "--out", str(tmp_path / "run.csv"),
    ]
    moved = counting_project(monkeypatch)
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    metrics = summary_json(stdout)["metrics"]
    assert not any(line.startswith("metrics") for line in stdout.splitlines())
    assert metrics["projection_active"] == sum(moved)
    assert metrics["deferred_rounds"] == 0

    fset = Ball(np.zeros(4), 1.0) if set_kind == "ball" else Box(-0.5 * np.ones(4), 0.5 * np.ones(4))
    prob = make_problem(problem, 4, 5, fset)
    result = run(build_preset(algo, fset, prob, horizon=80).config, prob, 80)
    lam = np.linalg.eigvalsh(result.final_state.g_mat.mat)
    assert metrics["g_min_eig"] == pytest.approx(lam[0], rel=1e-10)
    assert metrics["g_cond"] == pytest.approx(lam[-1] / lam[0], rel=1e-10)


def run_summary(argv_tail, tmp_path, capsys):
    argv = ["run", *argv_tail, "--out", str(tmp_path / "run.csv")]
    main(argv)
    return summary_json(capsys.readouterr().out)


@pytest.mark.parametrize(
    "algo,problem", [("adagrad-full", "adv-linear"), ("sc-ogd", "rot-quad")]
)
def test_phase_times_cover_the_run(algo, problem, tmp_path, capsys):
    payload = run_summary(
        ["--algo", algo, "--problem", problem, "--dim", "3", "--horizon", "60"], tmp_path, capsys
    )
    phases = payload["metrics"]["phase_s"]
    assert set(phases) == {"setup", "run", "comparator", "regret", "bounds", "csv"}
    assert all(type(value) is float and value >= 0.0 for value in phases.values())
    assert sum(phases.values()) <= payload["wall_time_s"] + 1e-3


@pytest.mark.parametrize(
    "algo,problem,set_kind",
    [
        ("adagrad-full", "adv-linear", "ball"),
        ("adagrad-diag", "adv-linear", "box"),
        ("adaptive-ogd", "adv-linear", "ball"),
    ],
)
def test_worst_condition_number_over_the_run(algo, problem, set_kind, tmp_path, capsys):
    metrics = run_summary(
        ["--algo", algo, "--problem", problem, "--set", set_kind, "--dim", "4",
         "--horizon", "50", "--seed", "2"],
        tmp_path, capsys,
    )["metrics"]
    fset = Ball(np.zeros(4), 1.0) if set_kind == "ball" else Box(-0.5 * np.ones(4), 0.5 * np.ones(4))
    prob = make_problem(problem, 4, 2, fset)
    result = run(build_preset(algo, fset, prob, horizon=50).config, prob, 50)
    worst = None
    for t in range(50):
        if result.h_defined[t]:
            spectrum = result.g_spectra[t]
            cond = spectrum.max() / spectrum.min()
            worst = cond if worst is None else max(worst, cond)
    assert metrics["g_cond_max"] == worst
    assert metrics["g_cond_max"] >= metrics["g_cond"]


def test_worst_condition_number_is_null_when_every_round_defers():
    fset = Ball(np.zeros(3), 1.0)
    config = make_preset("adaptive-ogd", fset).config
    result = run(config, PullProblem(3, 4, fset, quiet=20), 20)
    assert result.deferred_rounds == 20
    metrics = _run_metrics(result)
    assert metrics["g_cond_max"] is None and metrics["g_cond"] is None
