import numpy as np
import pytest

from adareg.engine import (
    AdaRegConfig,
    init,
    mirror_step_argmin,
    run,
    step,
)
from adareg.errors import ConfigError
from adareg.linalg import SymmetricMatrix, matrix_power_psd, min_eigenvalue, psd_geq
from adareg.potentials import AdaGradPotential, OnsPotential, RegularizerDomain
from adareg.oracles import mirror_descent_lemma_check
from adareg.presets import adagrad_full, adaptive_ogd, build_preset, make_preset, sc_ogd
from adareg.problems import OnlineProblem, make_problem, regret
from adareg.sets import Ball, Box, Unconstrained


def unconstrained_config(dim, potential, domain, epsilon):
    return AdaRegConfig(
        potential=potential,
        domain=domain,
        feasible_set=Unconstrained(dim=dim),
        x1=np.zeros(dim),
        g0=SymmetricMatrix.identity(dim, scale=epsilon) if epsilon else SymmetricMatrix.zero(dim),
        epsilon=epsilon,
    )


class OneShotProblem(OnlineProblem):
    """Gradient g on round 1, zero afterwards."""

    problem_id = "one-shot"

    def __init__(self, dim, feasible_set, first_gradient):
        super().__init__(dim, 0, feasible_set, gamma=float(np.linalg.norm(first_gradient)))
        self.first_gradient = np.asarray(first_gradient, dtype=float)

    def loss_and_gradient(self, t, x):
        g = self.first_gradient if t == 1 else np.zeros(self.dim)
        return float(g @ x), g


class TestConfig:
    def test_infeasible_start_rejected(self):
        with pytest.raises(ConfigError, match="x1"):
            AdaRegConfig(
                potential=AdaGradPotential(eta=1.0),
                domain=RegularizerDomain.FULL,
                feasible_set=Ball(np.zeros(2), 1.0),
                x1=np.array([3.0, 0.0]),
                g0=SymmetricMatrix.identity(2, scale=1e-8),
                epsilon=1e-8,
            )

    def test_indefinite_g0_rejected(self):
        with pytest.raises(ConfigError):
            AdaRegConfig(
                potential=AdaGradPotential(eta=1.0),
                domain=RegularizerDomain.FULL,
                feasible_set=Unconstrained(dim=2),
                x1=np.zeros(2),
                g0=SymmetricMatrix.from_diagonal([1.0, -1.0]),
            )

    def test_epsilon_must_match_g0(self):
        with pytest.raises(ConfigError, match="epsilon"):
            AdaRegConfig(
                potential=AdaGradPotential(eta=1.0),
                domain=RegularizerDomain.FULL,
                feasible_set=Unconstrained(dim=2),
                x1=np.zeros(2),
                g0=SymmetricMatrix.identity(2, scale=0.5),
                epsilon=0.25,
            )


class TestInit:
    def test_adagrad_identity_start(self):
        cfg = unconstrained_config(3, AdaGradPotential(eta=1.0), RegularizerDomain.FULL, 1.0)
        state = init(cfg)
        np.testing.assert_allclose(state.h_mat.mat, np.eye(3), atol=1e-12)
        assert state.t == 0

    def test_ons_scaled_identity_start(self):
        cfg = unconstrained_config(2, OnsPotential(beta=1.0), RegularizerDomain.FULL, 4.0)
        state = init(cfg)
        np.testing.assert_allclose(state.h_mat.mat, np.eye(2) / 4.0, atol=1e-12)

    def test_zero_start_defers_the_regularizer(self):
        cfg = unconstrained_config(2, AdaGradPotential(eta=1.0), RegularizerDomain.ISOTROPIC, 0.0)
        state = init(cfg)
        assert state.h_mat is None
        problem = OneShotProblem(2, cfg.feasible_set, np.array([1.0, 0.0]))
        assert run(cfg, problem, 1).phi_h0 == 0.0

    def test_ons_zero_start_is_a_config_error(self):
        cfg = unconstrained_config(2, OnsPotential(beta=1.0), RegularizerDomain.FULL, 0.0)
        with pytest.raises(ConfigError):
            init(cfg)


class TestStep:
    def test_scalar_worked_example(self):
        # eta=1, eps=0, x=0, one gradient g=2: G=4, H=1/2, x' = 0 - 0.5*2 = -1
        cfg = unconstrained_config(1, AdaGradPotential(eta=1.0), RegularizerDomain.FULL, 0.0)
        state = step(init(cfg), np.array([2.0]))
        assert state.g_mat.mat[0, 0] == 4.0
        assert state.h_mat.mat[0, 0] == pytest.approx(0.5)
        assert state.x[0] == pytest.approx(-1.0)

    def test_ons_worked_example(self):
        cfg = unconstrained_config(2, OnsPotential(beta=1.0), RegularizerDomain.FULL, 1.0)
        state = step(init(cfg), np.array([1.0, 0.0]))
        np.testing.assert_allclose(state.g_mat.mat, np.diag([2.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(state.h_mat.mat, np.diag([0.5, 1.0]), atol=1e-12)
        np.testing.assert_allclose(state.x, [-0.5, 0.0], atol=1e-12)

    def test_zero_gradient_changes_nothing(self, rng):
        cfg = unconstrained_config(3, AdaGradPotential(eta=1.0), RegularizerDomain.FULL, 0.5)
        state = step(init(cfg), rng.standard_normal(3))
        after = step(state, np.zeros(3))
        np.testing.assert_array_equal(after.x, state.x)
        np.testing.assert_array_equal(after.h_mat.mat, state.h_mat.mat)

    def test_projection_form_matches_argmin_form(self, rng):
        fset = Ball(np.zeros(3), 0.4)
        cfg = AdaRegConfig(
            potential=AdaGradPotential(eta=0.7),
            domain=RegularizerDomain.FULL,
            feasible_set=fset,
            x1=np.zeros(3),
            g0=SymmetricMatrix.identity(3, scale=1e-4),
            epsilon=1e-4,
        )
        state = init(cfg)
        for _ in range(25):
            g = rng.standard_normal(3)
            nxt = step(state, g)
            via_argmin = mirror_step_argmin(state.x, g, nxt.h_mat, fset)
            np.testing.assert_allclose(nxt.x, via_argmin, atol=1e-6)
            state = nxt


class TestRunBookkeeping:
    def make_run(self, horizon=60, seed=4):
        fset = Ball(np.zeros(4), 1.0)
        problem = make_problem("adv-linear", 4, seed, fset)
        preset = adagrad_full(fset)
        return run(preset.config, problem, horizon), problem

    def test_shapes(self):
        result, _ = self.make_run(horizon=30)
        assert result.xs.shape == (31, 4)
        assert result.losses.shape == (30,)
        assert result.hs.shape == (30, 4, 4)

    def test_horizon_one_is_a_single_step(self):
        result, problem = self.make_run(horizon=1)
        state = init(result.config)
        _, g = problem.loss_and_gradient(1, state.x)
        np.testing.assert_array_equal(result.xs[1], step(state, g).x)

    def test_incremental_g_matches_batch(self):
        result, _ = self.make_run()
        acc = result.config.g0.mat.copy()
        for t in range(result.horizon):
            acc = acc + np.outer(result.gradients[t], result.gradients[t])
            np.testing.assert_allclose(
                result.final_state.g_mat.mat if t == result.horizon - 1 else acc,
                acc,
                atol=1e-10,
            )

    def test_h_positive_definite_every_round(self):
        result, _ = self.make_run()
        for t in range(result.horizon):
            assert min_eigenvalue(SymmetricMatrix(result.hs[t])) > 0.0

    @pytest.mark.parametrize("algo_id,kwargs", [
        ("adagrad-full", {"epsilon": 1e-3}),
        ("ons-full", {"beta": 1.0}),
    ])
    def test_h_shrinks_in_psd_order(self, algo_id, kwargs):
        # a well-conditioned start keeps eigensolver round-off far below the
        # 1e-8 comparison tolerance; the ordering itself is scale-free
        fset = Ball(np.zeros(4), 1.0)
        problem = make_problem("adv-linear", 4, 4, fset)
        preset = make_preset(algo_id, fset, **kwargs)
        result = run(preset.config, problem, 60)
        prev = None
        for t in range(result.horizon):
            h = SymmetricMatrix(result.hs[t])
            if prev is not None:
                assert psd_geq(prev, h, tol=1e-8)
            prev = h

    def test_trace_telescoping(self):
        result, _ = self.make_run()
        g0 = result.config.g0
        total = 0.0
        prev_root = matrix_power_psd(g0, 0.5)
        acc = g0.mat.copy()
        for t in range(result.horizon):
            acc = acc + np.outer(result.gradients[t], result.gradients[t])
            root = matrix_power_psd(SymmetricMatrix(acc), 0.5)
            increment = SymmetricMatrix(root.mat - prev_root.mat)
            assert min_eigenvalue(increment) >= -1e-10
            total += increment.trace()
            prev_root = root
        assert total == pytest.approx(
            prev_root.trace() - matrix_power_psd(g0, 0.5).trace(), abs=1e-8
        )

    def test_adagrad_matches_hand_rolled_recomputation(self):
        result, problem = self.make_run(horizon=20)
        eta = result.config.potential.eta
        acc = result.config.g0.mat.copy()
        x = result.config.x1.copy()
        fset = result.config.feasible_set
        from adareg.sets import project

        for t in range(20):
            _, g = problem.loss_and_gradient(t + 1, x)
            acc = acc + np.outer(g, g)
            root = matrix_power_psd(SymmetricMatrix(acc), 0.5).mat
            h = eta * np.linalg.inv(root)  # H = eta * G^{-1/2}
            move = x - h @ g
            h_inv = root / eta
            x = project(move, fset, SymmetricMatrix((h_inv + h_inv.T) / 2.0))
            np.testing.assert_allclose(result.xs[t + 1], x, atol=1e-8)

    def test_constant_iterates_after_gradients_stop(self):
        fset = Unconstrained(dim=2)
        problem = OneShotProblem(2, fset, np.array([1.0, -2.0]))
        cfg = unconstrained_config(2, AdaGradPotential(eta=1.0), RegularizerDomain.FULL, 0.1)
        result = run(cfg, problem, 6)
        for t in range(2, 7):
            np.testing.assert_array_equal(result.xs[t], result.xs[1])

    def test_repeat_runs_are_identical(self):
        a, _ = self.make_run(seed=9)
        b, _ = self.make_run(seed=9)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.losses, b.losses)


class TestPresets:
    def test_sc_ogd_first_scale(self):
        # alpha=0.5, gamma=1, d=2: beta=1, eps=1; after g1=(1,0) the scalar
        # regularizer is (d/beta)/(eps + |g1|^2) = 1
        fset = Ball(np.zeros(2), 2.0)
        preset = sc_ogd(fset, alpha=0.5, gamma=1.0)
        state = step(init(preset.config), np.array([1.0, 0.0]))
        np.testing.assert_allclose(state.h_mat.mat, np.eye(2), atol=1e-12)

    def test_adaptive_ogd_scale_sequence(self):
        fset = Ball(np.zeros(2), 50.0)
        preset = adaptive_ogd(fset, c=1.0)
        state = init(preset.config)
        state = step(state, np.array([3.0, 0.0]))
        state = step(state, np.array([0.0, 4.0]))
        # squared norms sum to 25, so the scalar scale is c/5
        np.testing.assert_allclose(state.h_mat.mat, np.eye(2) / 5.0, atol=1e-12)

    def test_registry_round_trip(self):
        fset = Ball(np.zeros(3), 1.0)
        for algo_id, kwargs in [
            ("adagrad-full", {}),
            ("adagrad-diag", {}),
            ("adaptive-ogd", {}),
            ("pnorm", {"p": 2.0}),
            ("ons-full", {"beta": 0.5}),
            ("ons-diag", {"beta": 0.5}),
            ("sc-ogd", {"alpha": 1.0, "gamma": 2.0}),
        ]:
            preset = make_preset(algo_id, fset, **kwargs)
            assert preset.algo_id == algo_id
            assert preset.config.feasible_set is fset

    def test_default_eta_uses_the_diameter(self):
        preset = adagrad_full(Ball(np.zeros(2), 1.0))
        assert preset.config.potential.eta == pytest.approx(2.0 / np.sqrt(2.0))


class LateStartProblem(OnlineProblem):
    """Linear losses with zero gradients for the first ``quiet`` rounds."""

    problem_id = "late-start"

    def __init__(self, dim, seed, feasible_set, quiet):
        super().__init__(dim, seed, feasible_set, gamma=1.0)
        self.quiet = quiet

    def loss_and_gradient(self, t, x):
        g = np.zeros(self.dim)
        if t > self.quiet:
            g = self.round_rng(t).standard_normal(self.dim)
            g /= np.linalg.norm(g)
        return float(g @ x), g


def history_run(case, horizon=40, dim=4, seed=6):
    """(result, problem, reference point) of one run in each regularizer domain."""
    ball = Ball(np.zeros(dim), 1.0)
    box = Box(lower=-0.5 * np.ones(dim), upper=0.5 * np.ones(dim))
    if case == "adaptive-ogd-late":
        fset = ball
        problem = LateStartProblem(dim, seed, fset, quiet=5)
        preset = adaptive_ogd(fset)
    else:
        problem_id, fset = {
            "adagrad-full": ("adv-linear", ball),
            "adagrad-diag": ("adv-linear", box),
            "sc-ogd": ("rot-quad", ball),
        }[case]
        problem = make_problem(problem_id, dim, seed, fset, validate=False)
        preset = build_preset(case, fset, problem)
    x_ref = 0.5 * fset.sample(np.random.default_rng(seed))
    return run(preset.config, problem, horizon), problem, x_ref


HISTORY_CASES = ("adagrad-full", "adagrad-diag", "sc-ogd", "adaptive-ogd-late")


def assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.all(np.abs(actual - expected) <= 1e-10 * (1.0 + np.abs(expected))), (
        actual, expected,
    )


class TestRunHistory:
    """What a run's regularizer history answers, against dense recomputations."""

    @pytest.mark.parametrize("case", HISTORY_CASES)
    def test_regret_deltas_match_dense_inverse(self, case):
        result, problem, x_ref = history_run(case)
        deltas = regret(result, problem, x_ref).deltas
        for i in range(result.horizon):
            if not result.h_defined[i]:
                assert deltas[i] == 0.0
                continue
            h_inv = np.linalg.inv(result.hs[i])
            before = result.xs[i] - x_ref
            after = result.xs[i + 1] - x_ref
            assert_close(deltas[i], before @ h_inv @ before - after @ h_inv @ after)

    @pytest.mark.parametrize("case", HISTORY_CASES)
    def test_mirror_lemma_matches_dense_loop(self, case):
        result, _, x_ref = history_run(case)
        worst = np.inf
        lhs_total = rhs_total = 0.0
        for i in range(result.horizon):
            g = result.gradients[i]
            lhs = g @ (result.xs[i] - x_ref)
            rhs = 0.0
            if result.h_defined[i]:
                h = result.hs[i]
                h_inv = np.linalg.inv(h)
                before = result.xs[i] - x_ref
                after = result.xs[i + 1] - x_ref
                rhs = 0.5 * g @ h @ g + 0.5 * (before @ h_inv @ before - after @ h_inv @ after)
            worst = min(worst, (rhs - lhs) / (1.0 + abs(rhs)))
            lhs_total += lhs
            rhs_total += rhs
        ok, got_worst, got_cumulative = mirror_descent_lemma_check(result, x_ref)
        assert ok
        assert_close(got_worst, worst)
        assert_close(got_cumulative, (rhs_total - lhs_total) / (1.0 + abs(rhs_total)))

    @pytest.mark.parametrize("case", HISTORY_CASES)
    def test_dense_history_shape_and_deferred_rows(self, case):
        result, _, _ = history_run(case)
        hs = result.hs
        assert hs.shape == (result.horizon, result.dim, result.dim)
        assert np.isnan(hs[~result.h_defined]).all()
        assert np.isfinite(hs[result.h_defined]).all()
        if case == "adaptive-ogd-late":
            assert not result.h_defined[:5].any() and result.h_defined[5:].all()
        else:
            assert result.h_defined.all()


class TestBoundedHistory:
    """A run keeps O(T d) history outside the full domain and one basis per round in it."""

    @pytest.mark.parametrize("case", HISTORY_CASES)
    def test_history_is_bounded_outside_the_full_domain(self, case):
        result, _, _ = history_run(case, horizon=50, dim=6)
        arrays = {k: v for k, v in vars(result).items() if isinstance(v, np.ndarray)}
        three_d = sorted(k for k, v in arrays.items() if v.ndim == 3)
        horizon, dim = result.horizon, result.dim
        if case == "adagrad-full":
            assert three_d == ["h_bases"]
        else:
            assert three_d == []
            total = sum(v.nbytes for v in arrays.values())
            assert total <= 8 * horizon * (6 * dim + 4) + dim * dim
