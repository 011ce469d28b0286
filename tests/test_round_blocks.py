"""Blocked round data: round_block, the cached oracle, losses and validation."""

import numpy as np
import pytest

from adareg.engine import run
from adareg.errors import ValidationError
from adareg.presets import build_preset
from adareg.problems import BLOCK_ROUNDS, make_problem
from adareg.sets import Ball, Box, Unconstrained
from test_problems import FAMILIES, FixedLinear, FixedQuadratics


def lone_draw(problem, t):
    """Round t's factors drawn the way a single round was drawn before blocks."""
    rng = problem.round_rng(t)
    d = problem.dim
    if problem.problem_id == "adv-linear":
        signs = rng.integers(0, 2, size=d) * 2 - 1
        return ((problem.gamma / np.sqrt(d)) * signs,)
    if problem.problem_id == "rot-quad":
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = rng.uniform(problem.alpha, problem.alpha * problem.kappa, size=d)
        a = q @ (lam[:, None] * q.T)
        return (a + a.T) / 2.0, problem.feasible_set.sample(rng)
    if problem.problem_id == "sq-loss":
        w = rng.standard_normal(d)
        w *= problem.w_scale * rng.uniform(0.5, 1.0) / max(np.linalg.norm(w), 1e-300)
        return w, float(w @ problem.target) + rng.uniform(-problem.y_scale, problem.y_scale)
    w = rng.uniform(-1.0, 1.0, size=d)
    return w, rng.uniform(-problem.y_scale, problem.y_scale, size=d)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("t0,t1", [(1, 65), (60, 70), (37, 38), (5, 200), (129, 130)])
def test_block_rows_match_lone_draws(family, t0, t1):
    problem = FAMILIES[family](23)
    block = problem.round_block(t0, t1)
    assert all(factor.shape[0] == t1 - t0 for factor in block)
    for i, t in enumerate(range(t0, t1)):
        for name, (got, want) in enumerate(zip((f[i] for f in block), lone_draw(problem, t))):
            if family == "rot-quad" and name == 0:
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
            else:
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_round_data_rows_match_lone_draws(family):
    problem = FAMILIES[family](29)
    for t in (1, 64, 65, 130):
        for got, want in zip(problem.round_data(t), lone_draw(problem, t)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
    if family == "adv-linear":
        np.testing.assert_array_equal(problem.gradient_of_round(7), lone_draw(problem, 7)[0])


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("t0,t1", [(0, 3), (-2, 5), (4, 4), (9, 2)])
def test_invalid_blocks_are_rejected(family, t0, t1):
    with pytest.raises(ValidationError):
        FAMILIES[family](1).round_block(t0, t1)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_out_of_order_oracle_calls_match_a_fresh_problem(family, rng):
    problem = FAMILIES[family](31)
    x = problem.feasible_set.sample(rng)
    for t in (200, 3, 200, 64, 65):
        loss, g = problem.loss_and_gradient(t, x)
        fresh_loss, fresh_g = FAMILIES[family](31).loss_and_gradient(t, x)
        assert loss == fresh_loss
        np.testing.assert_array_equal(g, fresh_g)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cached_block_is_read_only(family):
    problem = FAMILIES[family](2)
    _, g = problem.loss_and_gradient(5, problem.feasible_set.center_point())
    first = problem.round_data(5)[0]
    with pytest.raises(ValueError):
        first[...] = 0.0
    if family == "adv-linear":
        with pytest.raises(ValueError):
            g[0] = 0.0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_losses_match_per_round_loss(family, rng):
    problem = FAMILIES[family](37)
    points = np.array([problem.feasible_set.sample(rng) for _ in range(4)])
    got = problem.losses(3, 140, points)
    want = np.array([[problem.loss(t, p) for p in points] for t in range(3, 140)])
    assert got.shape == (137, 4)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_losses_default_loops_over_loss():
    quadratics = FixedQuadratics([1.0, -2.0, 0.5], Unconstrained(dim=1))
    points = np.array([[0.0], [1.5]])
    np.testing.assert_allclose(
        quadratics.losses(1, 4, points),
        [[quadratics.loss(t, p) for p in points] for t in (1, 2, 3)],
        rtol=1e-12,
    )
    linear = FixedLinear([np.array([1.0, 2.0]), np.array([-3.0, 0.5])], Ball(np.zeros(2), 1.0))
    points = np.array([[0.1, 0.2], [-0.3, 0.4], [0.0, 0.0]])
    np.testing.assert_allclose(
        linear.losses(2, 3, points), [[linear.loss(2, p) for p in points]], rtol=1e-12
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cumulative_quadratic_over_several_blocks(family, rng):
    problem = FAMILIES[family](41)
    horizon = 2 * BLOCK_ROUNDS + 9
    a, b, c = problem.cumulative_quadratic(horizon)
    for _ in range(3):
        x = problem.feasible_set.sample(rng)
        direct = sum(problem.loss(t, x) for t in range(1, horizon + 1))
        assert 0.5 * x @ a @ x + b @ x + c == pytest.approx(direct, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize(
    "family,fset",
    [
        ("adv-linear", Ball(np.zeros(4), 1.0)),
        ("rot-quad", Ball(np.zeros(4), 1.0)),
        ("sq-loss", Ball(np.zeros(4), 1.0)),
        ("coord-sq", Box(-0.5 * np.ones(4), 0.5 * np.ones(4))),
    ],
)
def test_validation_draws_each_sampled_round_once(family, fset):
    problem = make_problem(family, 4, 3, fset, validate=False)
    drawn = []
    round_rng = problem.round_rng

    def counted(t):
        drawn.append(t)
        return round_rng(t)

    problem.round_rng = counted
    problem.validate_constants()
    assert 0 < len(drawn) <= 32


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("algo,family", [("sc-ogd", "rot-quad"), ("adagrad-diag", "adv-linear")])
def test_problem_memory_is_bounded_after_a_long_run(algo, family):
    fset = Ball(np.zeros(3), 1.0)
    problem = make_problem(family, 3, 5, fset, validate=False)
    preset = build_preset(algo, fset, problem, horizon=5000)
    run(preset.config, problem, 5000)
    held = [a for value in vars(problem).values() for a in _arrays(value)]
    assert any(a.ndim >= 1 and a.shape[0] == BLOCK_ROUNDS for a in held)
    assert all(a.ndim == 0 or a.shape[0] <= 64 for a in held)
