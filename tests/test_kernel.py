"""``run`` against a chain of ``step`` calls, and the errors a run raises.

``run`` and ``step`` share one round rule, so a run must equal the chain of
single steps bit for bit in every recorded array, on every preset and set
shape.  ``step`` must leave the state it is given untouched.  Bad gradients
and bad accumulator seeds must raise the same error types through ``run``
that the public API documents.
"""

import numpy as np
import pytest

from adareg.engine import AdaRegConfig, init, run, step
from adareg.errors import ConfigError, DomainError, SingularMatrixError, ValidationError
from adareg.linalg import SymmetricMatrix
from adareg.potentials import AdaGradPotential, OnsPotential, RegularizerDomain
from adareg.presets import make_preset
from adareg.problems import OnlineProblem
from adareg.sets import Ball, Box, Unconstrained

PRESET_PARAMS = {
    "adagrad-full": {},
    "adagrad-diag": {},
    "adaptive-ogd": {},
    "pnorm": {"p": 2.0},
    "ons-full": {"beta": 0.5},
    "ons-diag": {"beta": 0.5},
    "sc-ogd": {"alpha": 1.0, "gamma": 2.0},
}


def make_set(kind, dim):
    if kind == "ball":
        return Ball(np.zeros(dim), 1.0)
    if kind == "box":
        return Box(-0.5 * np.ones(dim), 0.5 * np.ones(dim))
    return Unconstrained(dim=dim, declared_euclidean_diameter=2.0)


class PullProblem(OnlineProblem):
    """f_t(x) = |x - z_t|^2 / 2 with z_t drawn per round, zero for the first ``quiet`` rounds.

    The gradient depends on the iterate, so any drift in x shows up in
    every later gradient.
    """

    problem_id = "pull"

    def __init__(self, dim, seed, feasible_set, quiet=0):
        super().__init__(dim, seed, feasible_set, gamma=1.0)
        self.quiet = quiet

    def loss_and_gradient(self, t, x):
        if t <= self.quiet:
            return 0.0, np.zeros(self.dim)
        z = 0.8 * self.round_rng(t).standard_normal(self.dim)
        g = x - z
        return 0.5 * float(g @ g), g


def step_chain(config, problem, horizon):
    """The records of ``run`` rebuilt from ``horizon`` single ``step`` calls.

    The local norm |g|^2_H and the dual step H^{-1} (x_t - x_{t+1}) (g itself
    when the projection left x_t - H g alone) come from each step's solution.
    """
    d = config.dim
    state = init(config)
    xs = [state.x]
    local_norms = np.zeros(horizon)
    dual_steps = np.zeros((horizon, d))
    h_defined = np.zeros(horizon, dtype=bool)
    phis = np.zeros(horizon)
    ghs = np.zeros(horizon)
    g_spectra = np.zeros((horizon, d))
    for i in range(horizon):
        _, g = problem.loss_and_gradient(i + 1, state.x)
        x = state.x
        state = step(state, g)
        xs.append(state.x)
        solution = state.solution
        if solution is None:
            continue
        h_defined[i] = True
        hg = solution.apply(g)
        local_norms[i] = g.dot(hg)
        projected = not np.array_equal(state.x, x - hg)
        dual_steps[i] = solution.apply(x - state.x, inverse=True) if projected else g
        phis[i] = solution.phi_h
        ghs[i] = solution.g_dot_h
        g_spectra[i] = solution.g_spectrum
    return {
        "xs": np.array(xs),
        "local_norms": local_norms,
        "dual_steps": dual_steps,
        "h_defined": h_defined,
        "phis": phis,
        "ghs": ghs,
        "g_spectra": g_spectra,
        "g_mat": state.g_mat.mat,
    }


def assert_run_equals_chain(config, problem, horizon):
    result = run(config, problem, horizon)
    chain = step_chain(config, problem, horizon)
    for name in ("xs", "local_norms", "dual_steps", "h_defined", "phis", "ghs", "g_spectra"):
        np.testing.assert_array_equal(getattr(result, name), chain[name], err_msg=name)
    np.testing.assert_array_equal(result.final_state.g_mat.mat, chain["g_mat"])
    return result


@pytest.mark.parametrize("dim", [1, 5])
@pytest.mark.parametrize("set_kind", ["ball", "box", "none"])
@pytest.mark.parametrize("algo_id", sorted(PRESET_PARAMS))
def test_run_equals_step_chain(algo_id, set_kind, dim):
    fset = make_set(set_kind, dim)
    config = make_preset(algo_id, fset, **PRESET_PARAMS[algo_id]).config
    problem = PullProblem(dim, 11 + dim, fset)
    result = assert_run_equals_chain(config, problem, 200)
    assert result.h_defined.all()


def test_deferred_start_equals_step_chain_and_replays_the_iterate():
    fset = make_set("ball", 5)
    config = make_preset("adaptive-ogd", fset).config
    problem = PullProblem(5, 3, fset, quiet=4)
    result = assert_run_equals_chain(config, problem, 200)
    assert not result.h_defined[:4].any() and result.h_defined[4:].all()
    for t in range(1, 5):
        np.testing.assert_array_equal(result.xs[t], result.xs[0])
    assert result.phi_h0 == 0.0


@pytest.mark.parametrize("algo_id", sorted(PRESET_PARAMS))
def test_step_leaves_its_input_state_unchanged(algo_id):
    fset = make_set("box", 4)
    config = make_preset(algo_id, fset, **PRESET_PARAMS[algo_id]).config
    problem = PullProblem(4, 5, fset)
    state = init(config)
    for t in range(1, 6):
        _, g = problem.loss_and_gradient(t, state.x)
        x_before = state.x.copy()
        g_before = state.g_mat.mat.copy()
        h_before = None if state.h_mat is None else state.h_mat.mat.copy()
        spectrum_before = None if state.solution is None else state.solution.h_spectrum.copy()
        nxt = step(state, 3.0 * g)
        np.testing.assert_array_equal(state.x, x_before)
        np.testing.assert_array_equal(state.g_mat.mat, g_before)
        if h_before is not None:
            np.testing.assert_array_equal(state.h_mat.mat, h_before)
            np.testing.assert_array_equal(state.solution.h_spectrum, spectrum_before)
        assert nxt.t == state.t + 1
        state = step(state, g)


class ScriptedProblem(OnlineProblem):
    """Plays the gradients ``script(t)`` returns, recording every round it was asked for."""

    problem_id = "scripted"

    def __init__(self, dim, feasible_set, script):
        super().__init__(dim, 0, feasible_set, gamma=1.0)
        self.script = script
        self.asked = []

    def loss_and_gradient(self, t, x):
        self.asked.append(t)
        return 0.0, self.script(t)


def config_for(domain, potential=None, g0=None, dim=3):
    g0 = SymmetricMatrix.identity(dim, 0.5) if g0 is None else g0
    return AdaRegConfig(
        potential=AdaGradPotential(eta=1.0) if potential is None else potential,
        domain=domain,
        feasible_set=Ball(np.zeros(dim), 1.0),
        x1=np.zeros(dim),
        g0=g0,
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("domain", list(RegularizerDomain))
def test_nonfinite_gradient_at_round_7_is_a_validation_error(domain, bad):
    def script(t):
        g = np.array([0.3, -0.2, 0.1])
        if t == 7:
            g[1] = bad
        return g

    problem = ScriptedProblem(3, Ball(np.zeros(3), 1.0), script)
    with pytest.raises(ValidationError):
        run(config_for(domain), problem, 20)
    assert problem.asked == list(range(1, 8))


@pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
@pytest.mark.parametrize("domain", list(RegularizerDomain))
def test_gradient_of_the_wrong_shape_is_a_validation_error(domain, shape):
    problem = ScriptedProblem(3, Ball(np.zeros(3), 1.0), lambda t: np.full(shape, 0.1))
    with pytest.raises(ValidationError):
        run(config_for(domain), problem, 5)


def test_zero_diagonal_seed_fails_on_the_first_round_that_leaves_it_zero():
    g0 = SymmetricMatrix.from_diagonal([1.0, 0.0, 1.0])
    config = config_for(RegularizerDomain.DIAGONAL, g0=g0)
    assert init(config).solution is None
    left_zero = ScriptedProblem(3, config.feasible_set, lambda t: np.array([0.2, 0.0, 0.1]))
    with pytest.raises(SingularMatrixError):
        run(config, left_zero, 10)
    assert left_zero.asked == [1]
    filled = ScriptedProblem(3, config.feasible_set, lambda t: np.array([0.2, 0.3, 0.1]))
    result = run(config, filled, 10)
    assert result.h_defined.all()
    assert result.phi_h0 == 0.0


@pytest.mark.parametrize("domain", [RegularizerDomain.FULL, RegularizerDomain.DIAGONAL])
def test_singular_seed_for_ons_is_a_config_error(domain):
    g0 = SymmetricMatrix.from_diagonal([1.0, 0.0, 1.0])
    config = config_for(domain, potential=OnsPotential(beta=1.0), g0=g0)
    problem = ScriptedProblem(3, config.feasible_set, lambda t: np.array([0.2, 0.3, 0.1]))
    with pytest.raises(ConfigError):
        run(config, problem, 5)
    assert problem.asked == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("domain", list(RegularizerDomain))
def test_regularizer_past_the_float_range_is_a_domain_error(domain):
    # beta * diag(G) overflows, so (phi')^{-1} underflows to H = 0
    config = config_for(domain, potential=OnsPotential(beta=10.0), g0=SymmetricMatrix.identity(3))
    problem = ScriptedProblem(3, config.feasible_set, lambda t: np.array([1.2e154, 0.0, 0.0]))
    with pytest.raises(DomainError):
        run(config, problem, 5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("domain", list(RegularizerDomain))
def test_accumulator_past_the_float_range_is_a_domain_error(domain):
    # each |g|^2 = 1e308 is finite; their sum over two rounds is not
    problem = ScriptedProblem(3, Ball(np.zeros(3), 1.0), lambda t: np.array([1e154, 0.0, 0.0]))
    with pytest.raises(DomainError):
        run(config_for(domain), problem, 5)
    assert problem.asked == [1, 2]
