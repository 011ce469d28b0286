"""Watched losses: a run's own block draws record f_t at the watched points."""

import numpy as np
import pytest

from adareg.errors import ValidationError
from adareg.sets import Unconstrained
from test_problems import FAMILIES, FixedQuadratics


def count_draws(problem):
    """Wrap the problem's ``round_rng`` and return the list its calls append to."""
    calls = []
    original = problem.round_rng

    def counting(t):
        calls.append(t)
        return original(t)

    problem.round_rng = counting
    return calls


def play(problem, rounds):
    """Read each round's data through the oracle, as ``engine.run`` does."""
    x = problem.feasible_set.center_point()
    for t in rounds:
        problem.loss_and_gradient(t, x)


def sample_points(problem, k, seed=5):
    rng = np.random.default_rng(seed)
    return np.array([problem.feasible_set.sample(rng) for _ in range(k)])


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("horizon", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("k", [1, 3])
def test_watched_rows_equal_a_fresh_problems_losses(family, horizon, k):
    problem = FAMILIES[family](43)
    points = sample_points(problem, k)
    problem.watch(points, horizon)
    play(problem, range(1, horizon + 1))
    draws = count_draws(problem)
    got = problem.losses(1, horizon + 1, points)
    assert draws == []
    assert got.shape == (horizon, k)
    np.testing.assert_array_equal(got, FAMILIES[family](43).losses(1, horizon + 1, points))
    with pytest.raises(ValueError):
        got[0, 0] = 0.0
    middle = problem.losses(2, horizon + 1, points) if horizon > 1 else got
    np.testing.assert_array_equal(middle, got[horizon - middle.shape[0] :])
    assert draws == []


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_other_points_are_drawn(family):
    problem = FAMILIES[family](47)
    points = sample_points(problem, 3)
    problem.watch(points, 70)
    play(problem, range(1, 71))
    draws = count_draws(problem)
    for other in (sample_points(problem, 3, seed=6), points[:1]):
        del draws[:]
        got = problem.losses(1, 71, other)
        assert len(draws) == 70
        np.testing.assert_array_equal(got, FAMILIES[family](47).losses(1, 71, other))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rows_past_the_watched_horizon_are_drawn(family):
    problem = FAMILIES[family](53)
    points = sample_points(problem, 2)
    problem.watch(points, 65)
    play(problem, range(1, 131))
    draws = count_draws(problem)
    within = problem.losses(1, 66, points)
    assert draws == []
    np.testing.assert_array_equal(within, FAMILIES[family](53).losses(1, 66, points))
    beyond = problem.losses(1, 131, points)
    assert len(draws) == 130
    np.testing.assert_array_equal(beyond, FAMILIES[family](53).losses(1, 131, points))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rounds_read_out_of_order_are_drawn(family):
    problem = FAMILIES[family](59)
    points = sample_points(problem, 1)
    problem.watch(points, 130)
    # the second block is read before the first, so only the first fills
    play(problem, [*range(65, 131), *range(1, 65)])
    draws = count_draws(problem)
    first = problem.losses(1, 65, points)
    assert draws == []
    whole = problem.losses(1, 131, points)
    assert len(draws) == 130
    fresh = FAMILIES[family](59).losses(1, 131, points)
    np.testing.assert_array_equal(whole, fresh)
    np.testing.assert_array_equal(first, fresh[:64])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_second_watch_replaces_the_first(family):
    problem = FAMILIES[family](61)
    first, second = sample_points(problem, 2), sample_points(problem, 2, seed=7)
    problem.watch(first, 80)
    play(problem, range(1, 81))
    problem.watch(second, 80)
    draws = count_draws(problem)
    for points in (first, second):
        del draws[:]
        problem.losses(1, 81, points)
        assert len(draws) == 80
    # the cached block is dropped, so a replay from round 1 fills the new rows
    play(problem, range(1, 81))
    del draws[:]
    got = problem.losses(1, 81, second)
    assert draws == []
    np.testing.assert_array_equal(got, FAMILIES[family](61).losses(1, 81, second))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_watched_points_are_a_private_copy(family):
    problem = FAMILIES[family](67)
    points = sample_points(problem, 2)
    kept = points.copy()
    problem.watch(points, 64)
    points[0, 0] += 0.25
    play(problem, range(1, 65))
    draws = count_draws(problem)
    got = problem.losses(1, 65, kept)
    assert draws == []
    np.testing.assert_array_equal(got, FAMILIES[family](67).losses(1, 65, kept))
    problem.losses(1, 65, points)
    assert len(draws) == 64


@pytest.mark.parametrize("points,horizon", [
    (np.zeros(3), 10), (np.zeros((1, 2)), 10), (np.zeros((1, 3)), 0),
])
def test_invalid_watch_is_rejected(points, horizon):
    with pytest.raises(ValidationError):
        FAMILIES["adv-linear"](1).watch(points, horizon)


def test_watch_is_a_no_op_on_a_custom_problem():
    problem = FixedQuadratics([1.0, -2.0, 0.5], Unconstrained(dim=1))
    points = np.array([[0.0], [1.5]])
    before = problem.losses(1, 4, points)
    problem.watch(points, 3)
    for t in (1, 2, 3):
        problem.loss_and_gradient(t, points[0])
    np.testing.assert_array_equal(problem.losses(1, 4, points), before)
