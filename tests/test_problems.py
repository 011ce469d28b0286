"""Loss streams, curvature checkers, comparators, and regret accounting."""

from types import SimpleNamespace

import numpy as np
import pytest

from adareg.engine import run
from adareg.errors import ValidationError
from adareg.linalg import SymmetricMatrix
from adareg.presets import adagrad_full, ons_full
from adareg.problems import (
    OnlineProblem,
    best_fixed_comparator,
    check_exp_concave,
    check_strongly_convex,
    make_problem,
    online_to_batch,
    regret,
)
from adareg.sets import Ball, Box, Unconstrained

FAMILIES = {
    "adv-linear": lambda seed: make_problem(
        "adv-linear", 3, seed, Ball(np.zeros(3), 1.0), validate=False
    ),
    "rot-quad": lambda seed: make_problem(
        "rot-quad", 3, seed, Ball(np.zeros(3), 1.0), validate=False
    ),
    "sq-loss": lambda seed: make_problem(
        "sq-loss", 3, seed, Ball(np.zeros(3), 1.0), validate=False
    ),
    "coord-sq": lambda seed: make_problem(
        "coord-sq", 3, seed, Box(-0.5 * np.ones(3), 0.5 * np.ones(3)), validate=False
    ),
}


class FixedQuadratics(OnlineProblem):
    """Scalar rounds 1/2 (x - z_t)^2 for a fixed list of targets."""

    problem_id = "fixed-quadratics"

    def __init__(self, zs, feasible_set):
        self.zs = [float(z) for z in zs]
        super().__init__(1, 0, feasible_set, gamma=max(abs(z) for z in self.zs) + 10.0)

    def loss_and_gradient(self, t, x):
        z = self.zs[t - 1]
        return 0.5 * float((x[0] - z) ** 2), np.array([x[0] - z])

    def cumulative_quadratic(self, horizon):
        zs = np.array(self.zs[:horizon])
        return (
            np.array([[float(horizon)]]),
            np.array([-zs.sum()]),
            0.5 * float(zs @ zs),
        )


class FixedLinear(OnlineProblem):
    problem_id = "fixed-linear"

    def __init__(self, gradients, feasible_set):
        self.grads = [np.asarray(g, dtype=float) for g in gradients]
        gamma = max(float(np.linalg.norm(g)) for g in self.grads)
        super().__init__(len(self.grads[0]), 0, feasible_set, gamma=max(gamma, 1.0))

    def loss_and_gradient(self, t, x):
        g = self.grads[t - 1]
        return float(g @ x), g

    def cumulative_quadratic(self, horizon):
        d = self.dim
        b = np.sum(self.grads[:horizon], axis=0)
        return np.zeros((d, d)), b, 0.0


class TestLossStreams:
    def test_linear_loss_is_inner_product(self):
        problem = FAMILIES["adv-linear"](3)
        x = np.array([2.0, 3.0, -1.0])
        loss, g = problem.loss_and_gradient(1, x)
        assert loss == pytest.approx(float(g @ x))

    def test_quadratic_vanishes_at_its_target(self):
        problem = FAMILIES["rot-quad"](5)
        _, z = problem.round_data(2)
        loss, g = problem.loss_and_gradient(2, z)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(g, np.zeros(3), atol=1e-12)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_gradients_match_finite_differences(self, family, rng):
        problem = FAMILIES[family](11)
        eps = 1e-6
        for trial in range(100):
            t = int(rng.integers(1, 20))
            x = problem.feasible_set.sample(rng)
            _, g = problem.loss_and_gradient(t, x)
            fd = np.empty_like(g)
            for i in range(len(x)):
                e = np.zeros_like(x)
                e[i] = eps
                fd[i] = (problem.loss(t, x + e) - problem.loss(t, x - e)) / (2 * eps)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_round_streams_are_reproducible(self, family):
        problem_a = FAMILIES[family](21)
        problem_b = FAMILIES[family](21)
        x = problem_a.feasible_set.center_point()
        for t in (1, 5, 17):
            la, ga = problem_a.loss_and_gradient(t, x)
            lb, gb = problem_b.loss_and_gradient(t, x)
            assert la == lb
            np.testing.assert_array_equal(ga, gb)

    def test_round_numbering_starts_at_one(self):
        problem = FAMILIES["adv-linear"](0)
        with pytest.raises(ValidationError):
            problem.round_rng(0)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_cumulative_quadratic_matches_summed_losses(self, family, rng):
        problem = FAMILIES[family](7)
        horizon = 9
        a, b, c = problem.cumulative_quadratic(horizon)
        for _ in range(10):
            x = problem.feasible_set.sample(rng)
            direct = sum(problem.loss(t, x) for t in range(1, horizon + 1))
            assert 0.5 * x @ a @ x + b @ x + c == pytest.approx(direct, abs=1e-9)


class TestCurvatureCheckers:
    def test_exp_concavity_equality_case(self):
        # f(x) = x^2 restricted to [-1, 1] is exp-concave with beta = 1/2,
        # with equality on the pair (1, 0) where both sides evaluate to 1
        fset = Box(np.array([-1.0]), np.array([1.0]))
        f = lambda x: (float(x[0] ** 2), np.array([2.0 * x[0]]))
        assert check_exp_concave(f, 0.5, fset, n_samples=400)
        # widen the domain and the same modulus is no longer valid
        wide = Box(np.array([-1.5]), np.array([1.5]))
        assert not check_exp_concave(f, 0.5, wide, n_samples=400)

    def test_modulus_too_large_is_rejected(self):
        fset = Box(np.array([-1.5]), np.array([1.5]))
        f = lambda x: (float(x[0] ** 2), np.array([2.0 * x[0]]))
        # x^2 is exactly 2-strongly convex; alpha = 3 fails on any distinct pair
        assert check_strongly_convex(f, 2.0, fset, n_samples=400)
        assert not check_strongly_convex(f, 3.0, fset, n_samples=400)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_shipped_constants_validate(self, family):
        problem = FAMILIES[family](13)
        problem.validate_constants(n_samples=320)

    def test_inflated_constant_fails_validation(self):
        problem = FAMILIES["rot-quad"](13)
        problem.alpha = problem.alpha * problem.kappa * 2.0
        with pytest.raises(ValidationError):
            problem.validate_constants(n_samples=320)

    def test_understated_gradient_bound_fails_validation(self):
        problem = FAMILIES["sq-loss"](13)
        problem.gamma = problem.gamma / 10.0
        with pytest.raises(ValidationError):
            problem.validate_constants(n_samples=320)


class TestComparator:
    def test_mean_of_quadratic_targets(self):
        problem = FixedQuadratics([1.0, 3.0], Unconstrained(dim=1))
        x_star, flat = best_fixed_comparator(problem, 2)
        assert not flat
        assert x_star[0] == pytest.approx(2.0)

    def test_cancelling_linear_losses_are_flat(self):
        fset = Box(np.array([-1.0]), np.array([1.0]))
        problem = FixedLinear([np.array([1.0]), np.array([-1.0])], fset)
        x_star, flat = best_fixed_comparator(problem, 2)
        assert flat
        assert x_star[0] == pytest.approx(0.0)

    def test_linear_on_a_ball_hits_the_boundary(self):
        fset = Ball(np.zeros(2), 1.0)
        problem = FixedLinear([np.array([3.0, 4.0])], fset)
        x_star, flat = best_fixed_comparator(problem, 1)
        assert not flat
        np.testing.assert_allclose(x_star, [-0.6, -0.8], atol=1e-12)

    @pytest.mark.parametrize("family", ["rot-quad", "sq-loss"])
    def test_matches_dense_grid_search(self, family):
        problem = FAMILIES[family](17)
        horizon = 5
        a, b, c = problem.cumulative_quadratic(horizon)
        x_star, _ = best_fixed_comparator(problem, horizon)
        star_val = 0.5 * x_star @ a @ x_star + b @ x_star + c
        # dense grid over the bounding cube, masked to the ball
        axis = np.linspace(-1.0, 1.0, 81)
        xx, yy, zz = np.meshgrid(axis, axis, axis, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=-1)
        pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
        vals = 0.5 * np.einsum("ti,ij,tj->t", pts, a, pts) + pts @ b + c
        assert star_val <= vals.min() + 1e-3

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_first_order_optimality(self, family, rng):
        problem = FAMILIES[family](19)
        horizon = 12
        a, b, _ = problem.cumulative_quadratic(horizon)
        x_star, flat = best_fixed_comparator(problem, horizon)
        if flat:
            return
        grad = a @ x_star + b
        for _ in range(100):
            y = problem.feasible_set.sample(rng)
            assert float(grad @ (y - x_star)) >= -1e-6


class TestRegret:
    def run_case(self, seed=3, horizon=50):
        fset = Ball(np.zeros(3), 1.0)
        problem = make_problem("adv-linear", 3, seed, fset, validate=False)
        preset = adagrad_full(fset)
        result = run(preset.config, problem, horizon)
        x_star, _ = best_fixed_comparator(problem, horizon)
        return result, problem, x_star

    def test_zero_losses_give_zero_regret(self):
        fset = Unconstrained(dim=1)
        problem = FixedLinear([np.array([0.0])] * 4, fset)
        cfg = adagrad_full(Ball(np.zeros(1), 1.0), b=2.0).config
        from dataclasses import replace

        cfg = replace(cfg, feasible_set=fset)
        result = run(cfg, problem, 4)
        record = regret(result, problem, np.zeros(1))
        assert record.final_regret == 0.0

    def test_comparator_at_start_single_round(self):
        fset = Ball(np.zeros(2), 1.0)
        problem = FixedLinear([np.array([0.0, 2.0])], fset)
        preset = adagrad_full(fset)
        result = run(preset.config, problem, 1)
        # x1 = 0 and the comparator is forced to x1: the single-round regret
        # is f_1(x_1) - f_1(x_star) = 0
        record = regret(result, problem, result.config.x1)
        assert record.final_regret == pytest.approx(0.0, abs=1e-12)

    def test_recomputation_from_raw_losses(self):
        result, problem, x_star = self.run_case()
        record = regret(result, problem, x_star)
        direct = sum(
            problem.loss(t + 1, result.xs[t]) - problem.loss(t + 1, x_star)
            for t in range(result.horizon)
        )
        assert record.final_regret == pytest.approx(direct, abs=1e-9)
        np.testing.assert_allclose(
            record.cum_regret,
            np.cumsum(result.losses - record.comparator_losses),
            atol=1e-9,
        )

    def test_record_keeps_no_copy_of_the_run_losses(self):
        result, problem, x_star = self.run_case()
        record = regret(result, problem, x_star)
        assert not hasattr(record, "losses")
        assert record.comparator_losses.shape == result.losses.shape


class TestOnlineToBatch:
    def test_two_iterates(self):
        fake = SimpleNamespace(xs=np.array([[1.0], [3.0], [99.0]]))
        # the last row is the unplayed x_{T+1}; only played iterates average
        assert online_to_batch(fake)[0] == pytest.approx(2.0)

    def test_constant_trajectory(self):
        fake = SimpleNamespace(xs=np.full((5, 2), 0.7))
        np.testing.assert_allclose(online_to_batch(fake), [0.7, 0.7])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_averaged_iterate_beats_regret_rate(self, seed):
        fset = Ball(np.zeros(3), 1.0)
        problem = make_problem("sq-loss", 3, seed, fset, validate=False)
        preset = ons_full(fset, beta=problem.beta)
        horizon = 80
        result = run(preset.config, problem, horizon)
        x_star, _ = best_fixed_comparator(problem, horizon)
        record = regret(result, problem, x_star)
        xbar = online_to_batch(result)
        a, b, c = problem.cumulative_quadratic(horizon)
        total = lambda v: 0.5 * v @ a @ v + b @ v + c
        suboptimality = (total(xbar) - total(x_star)) / horizon
        assert suboptimality <= record.final_regret / horizon + 1e-9


def test_unknown_problem_id():
    with pytest.raises(ValidationError, match="unknown problem"):
        make_problem("no-such-family", 2, 0, Ball(np.zeros(2), 1.0))
