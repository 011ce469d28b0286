"""Inputs that used to end in a traceback: each now ends with a documented exit code.

A negative seed is a usage error (exit 2) before anything is drawn or
written.  A constant derived from a flag (an ``epsilon``, sc-ogd's
``beta``, a potential's ``eta^2`` or ``eta^(p+1)``) that leaves the float
range is a usage error naming it.  ``SymmetricMatrix`` symmetrizes entries
near the float range without overflowing.
"""

import contextlib
import io
import json
import traceback
import warnings

import numpy as np
import pytest

from adareg.cli import main
from adareg.engine import run
from adareg.linalg import SymmetricMatrix
from adareg.oracles import bound_prefix_series
from adareg.potentials import AdaGradPotential, PNormPotential
from adareg.presets import build_preset
from adareg.problems import best_fixed_comparator, make_problem, regret
from adareg.sets import Ball, Box


def run_cli(argv):
    """(exit code, stderr) of ``main(argv)``, with RuntimeWarnings as errors.

    An exception that escapes ``main`` is rendered into stderr as the
    interpreter would print it, so a case can assert that none did.
    """
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # noqa: BLE001 - the case reports it as a traceback
            traceback.print_exc()
            code = None
    return code, err.getvalue()


def run_argv(out, *flags):
    return ["run", *flags, "--dim", "3", "--horizon", "10", "--out", str(out)]


USAGE_ERRORS = {
    "negative-seed": ("--algo", "sc-ogd", "--problem", "rot-quad", "--seed", "-1"),
    "ons-full-tiny-beta": ("--algo", "ons-full", "--problem", "sq-loss", "--beta", "1e-300"),
    "ons-diag-tiny-beta": (
        "--algo", "ons-diag", "--problem", "coord-sq", "--set", "box", "--beta", "1e-170",
    ),
    "sc-ogd-tiny-gamma": ("--algo", "sc-ogd", "--problem", "rot-quad", "--gamma", "1e-170"),
    "adagrad-full-huge-eta": (
        "--algo", "adagrad-full", "--problem", "adv-linear", "--eta", "1e200",
    ),
    "adagrad-full-huge-radius": (
        "--algo", "adagrad-full", "--problem", "adv-linear", "--radius", "1e300",
    ),
    "pnorm-huge-radius": ("--algo", "pnorm", "--problem", "adv-linear", "--radius", "1e300"),
    "adagrad-diag-huge-box": (
        "--algo", "adagrad-diag", "--problem", "adv-linear", "--set", "box", "--upper", "1e300",
    ),
    "adaptive-ogd-huge-eta": (
        "--algo", "adaptive-ogd", "--problem", "adv-linear", "--eta", "1e200",
    ),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_run_usage_error(tmp_path, case):
    out = tmp_path / "trace.csv"
    code, err = run_cli(run_argv(out, *USAGE_ERRORS[case]))
    assert code == 2
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_negative_seed_is_a_usage_error():
    code, err = run_cli(["verify", "--suite", "bounds", "--trials", "1", "--seed", "-1"])
    assert code == 2
    assert "Traceback" not in err


def test_config_negative_seed_is_a_usage_error(tmp_path):
    out = tmp_path / "trace.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "algo": "sc-ogd", "problem": "rot-quad", "dim": 3, "horizon": 10, "seed": -1,
        "out": str(out),
    }))
    code, err = run_cli(["run", "--config", str(cfg)])
    assert code == 2
    assert "Traceback" not in err
    assert not out.exists()


def test_derived_constant_is_named(tmp_path):
    code, err = run_cli(run_argv(tmp_path / "t.csv", *USAGE_ERRORS["sc-ogd-tiny-gamma"]))
    assert code == 2
    assert "beta = alpha d / gamma^2" in err


def test_seed_accumulator_near_the_float_range_runs(tmp_path):
    out = tmp_path / "trace.csv"
    code, err = run_cli(run_argv(
        out, "--algo", "adagrad-full", "--problem", "adv-linear", "--epsilon", "1e308",
    ))
    assert code in (0, 1)
    assert "Traceback" not in err
    assert out.exists()


def test_symmetrizing_entries_near_the_float_range_keeps_them():
    a = np.array([[1.5e308, -1.7e308], [-1.7e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.array_equal(SymmetricMatrix(a).mat, a)


@pytest.mark.parametrize("eta", [1e-3, 0.7, 3.0, 1e30])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 7.5])
def test_constants_computed_once_give_the_per_call_floats(eta, p):
    x = np.array([1e-6, 0.3, 2.0, 5e5])
    pnorm = PNormPotential(eta=eta, p=p)
    np.testing.assert_array_equal(pnorm.phi(x), -(eta ** (p + 1) / p) * x ** (-p))
    np.testing.assert_array_equal(pnorm.phi_prime(x), eta ** (p + 1) * x ** (-(p + 1)))
    adagrad = AdaGradPotential(eta=eta)
    np.testing.assert_array_equal(adagrad.phi(x), -eta**2 / x)
    np.testing.assert_array_equal(adagrad.phi_prime(x), eta**2 / x**2)


# One run per regularizer domain: full, diagonal, isotropic.
TRACE_RUNS = {
    "adagrad-full": ("adv-linear", Ball(np.zeros(4), 1.0)),
    "adagrad-diag": ("adv-linear", Box(-0.5 * np.ones(4), 0.5 * np.ones(4))),
    "sc-ogd": ("rot-quad", Ball(np.zeros(4), 1.0)),
}


@pytest.mark.parametrize("algo_id", sorted(TRACE_RUNS))
def test_trace_rows_render_the_library_arrays(tmp_path, algo_id):
    problem_id, fset = TRACE_RUNS[algo_id]
    set_flags = ("--set", "ball") if isinstance(fset, Ball) else ("--set", "box")
    out = tmp_path / "trace.csv"
    code, _ = run_cli([
        "run", "--algo", algo_id, "--problem", problem_id, *set_flags,
        "--dim", "4", "--horizon", "70", "--seed", "5", "--out", str(out),
    ])
    assert code == 0

    problem = make_problem(problem_id, 4, 5, fset)
    preset = build_preset(algo_id, fset, problem, horizon=70)
    x_star, _ = best_fixed_comparator(problem, 70)
    problem.watch(x_star[None, :], 70)
    result = run(preset.config, problem, 70)
    record = regret(result, problem, x_star)
    columns = (
        result.losses,
        np.cumsum(result.losses),
        record.cum_regret,
        record.deltas,
        bound_prefix_series(preset.algo_id, preset.bound_params, result),
    )
    expected = [
        ",".join([str(t), *(f"{column[t - 1]:.17g}" for column in columns)])
        for t in range(1, 71)
    ]
    lines = out.read_text().splitlines()
    assert lines[0] == "t,loss,cum_loss,cum_regret,delta_t,bound_prefix"
    assert lines[1:] == expected
