"""Independent certificates: prefix-minimizer inequality, the linearized
regret lemma, the numeric regularizer argmin, and the bound formulas."""

import math
import types

import numpy as np
import pytest

from adareg.engine import run
from adareg.errors import DomainError, ValidationError
from adareg.linalg import SymmetricMatrix
from adareg.oracles import (
    BOUND_ALGO_IDS,
    FtlBtlInstance,
    KinkFn,
    QuadraticFn,
    bound_prefix_series,
    bound_value,
    ftl_btl_check,
    mirror_descent_lemma_check,
    numeric_potential_argmin,
    prefix_minimizers,
    random_kink_instance,
    random_quadratic_instance,
    regret_bound,
    theorem1_check,
    trace_product_check,
)
from adareg.potentials import (
    AdaGradPotential,
    OnsPotential,
    PNormPotential,
    RegularizerDomain,
    solve_regularizer,
)
from adareg.presets import (
    ALGORITHMS,
    PRESET_BUILDERS,
    adagrad_full,
    build_preset,
    optimal_pnorm_eta,
)
from adareg.problems import best_fixed_comparator, make_problem, regret
from adareg.sets import Ball, Box, Unconstrained
from adareg.suites import _matched_setups, build_matched_preset
from conftest import random_pd
from test_problems import FixedLinear


def interval(lo=-5.0, hi=5.0):
    return Box(np.array([lo]), np.array([hi]))


class TestFtlBtl:
    def test_two_quadratics_worked_example(self):
        # psi_0 = x^2, psi_1 = (x-1)^2: prefix minimizers 0 and 1/2,
        # LHS = 0.25, RHS = 0.25 + 0.25 - 0 = 0.5
        inst = FtlBtlInstance(
            functions=[
                QuadraticFn(a=np.array([[2.0]]), z=np.array([0.0])),
                QuadraticFn(a=np.array([[2.0]]), z=np.array([1.0])),
            ],
            domain=interval(),
        )
        ok, slack = ftl_btl_check(inst)
        assert ok
        assert slack == pytest.approx(0.25)

    def test_identical_functions_have_zero_slack(self):
        fn = QuadraticFn(a=np.array([[1.0, 0.2], [0.2, 2.0]]), z=np.array([0.3, -0.4]))
        inst = FtlBtlInstance(
            functions=[fn, fn, fn],
            domain=Ball(np.zeros(2), 3.0),
        )
        ok, slack = ftl_btl_check(inst)
        assert ok
        assert slack == pytest.approx(0.0, abs=1e-12)

    def test_random_quadratic_sweep(self, rng):
        for _ in range(100):
            inst = random_quadratic_instance(
                rng, int(rng.integers(1, 21)), dim=int(rng.integers(1, 4))
            )
            ok, slack = ftl_btl_check(inst)
            assert ok, f"slack {slack}"

    def test_random_kink_sweep(self, rng):
        for _ in range(30):
            inst = random_kink_instance(rng, int(rng.integers(1, 21)))
            ok, slack = ftl_btl_check(inst)
            assert ok, f"slack {slack}"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kink_minimizers_match_per_prefix_grid_loop(self, seed):
        def per_prefix_loop(inst):
            lo, hi = float(inst.domain.lower[0]), float(inst.domain.upper[0])
            out, candidates = [], [lo, hi]
            for i, fn in enumerate(inst.functions):
                candidates.extend(float(k) for k in fn.kinks)
                grid = np.clip(np.unique(np.asarray(candidates)), lo, hi)
                totals = np.zeros_like(grid)
                for prior in inst.functions[: i + 1]:
                    totals += np.array([prior.value(gx) for gx in grid])
                out.append([grid[int(np.argmin(totals))]])
            return np.array(out)

        rng = np.random.default_rng(seed)
        for _ in range(40):
            inst = random_kink_instance(rng, int(rng.integers(1, 21)))
            np.testing.assert_array_equal(prefix_minimizers(inst), per_prefix_loop(inst))

    def test_mixed_function_kinds_rejected(self):
        with pytest.raises(ValidationError):
            FtlBtlInstance(
                functions=[
                    QuadraticFn(a=np.array([[2.0]]), z=np.array([0.0])),
                    KinkFn(kinks=np.array([0.0]), weights=np.array([1.0])),
                ],
                domain=interval(),
            )


class TestMirrorDescentLemma:
    def ball_run(self, horizon=200, seed=2):
        fset = Ball(np.zeros(5), 1.0)
        problem = make_problem("adv-linear", 5, seed, fset, validate=False)
        preset = adagrad_full(fset)
        return run(preset.config, problem, horizon), problem

    def test_single_unconstrained_step_is_tight(self):
        fset = Unconstrained(dim=2)
        problem = FixedLinear([np.array([0.6, -0.2])], fset)
        from dataclasses import replace

        cfg = replace(adagrad_full(Ball(np.zeros(2), 1.0)).config, feasible_set=fset)
        result = run(cfg, problem, 1)
        ok, worst, cumulative = mirror_descent_lemma_check(result, np.array([0.3, 0.1]))
        assert ok
        # exact unconstrained mirror step: the inequality is an identity
        assert worst == pytest.approx(0.0, abs=1e-10)
        assert cumulative == pytest.approx(0.0, abs=1e-10)

    def test_zero_gradients_give_zero_sides(self):
        fset = Unconstrained(dim=2)
        problem = FixedLinear([np.zeros(2)] * 3, fset)
        from dataclasses import replace

        cfg = replace(adagrad_full(Ball(np.zeros(2), 1.0)).config, feasible_set=fset)
        result = run(cfg, problem, 3)
        ok, worst, cumulative = mirror_descent_lemma_check(result, np.array([1.0, -1.0]))
        assert ok
        assert worst == pytest.approx(0.0, abs=1e-12)
        assert cumulative == pytest.approx(0.0, abs=1e-12)

    def test_constrained_run_holds_every_round(self):
        result, problem = self.ball_run()
        x_star, _ = best_fixed_comparator(problem, result.horizon)
        ok, worst, cumulative = mirror_descent_lemma_check(result, x_star)
        assert ok
        assert worst >= -1e-8
        assert cumulative >= -1e-8


class TestNumericArgmin:
    def test_adagrad_identity(self):
        h = numeric_potential_argmin(
            AdaGradPotential(eta=1.0), SymmetricMatrix.identity(3), RegularizerDomain.FULL
        )
        np.testing.assert_allclose(h.mat, np.eye(3), atol=1e-6)

    def test_ons_diagonal(self):
        h = numeric_potential_argmin(
            OnsPotential(beta=1.0),
            SymmetricMatrix.from_diagonal([2.0, 4.0]),
            RegularizerDomain.FULL,
        )
        np.testing.assert_allclose(h.mat, np.diag([0.5, 0.25]), atol=1e-6)

    @pytest.mark.parametrize("domain", list(RegularizerDomain))
    @pytest.mark.parametrize(
        "potential",
        [AdaGradPotential(eta=1.3), OnsPotential(beta=0.7), PNormPotential(eta=0.9, p=2.0)],
        ids=["adagrad", "ons", "pnorm"],
    )
    def test_agrees_with_closed_form(self, potential, domain, rng):
        for _ in range(5):
            dim = int(rng.integers(2, 6))
            g = random_pd(rng, dim)
            closed = solve_regularizer(potential, g, domain).h
            numeric = numeric_potential_argmin(potential, g, domain)
            err = np.linalg.norm(numeric.mat - closed.mat) / np.linalg.norm(closed.mat)
            assert err <= 1e-4

    def test_singular_g_rejected(self):
        with pytest.raises(DomainError):
            numeric_potential_argmin(
                AdaGradPotential(eta=1.0),
                SymmetricMatrix.from_diagonal([1.0, 0.0]),
                RegularizerDomain.FULL,
            )


class TestBoundFormulas:
    def test_adagrad_full_frozen_value(self):
        # b=2 and spectrum (4, 9): tr G^{1/2} = 5, bound = 10 sqrt(2)
        val = bound_value("adagrad-full", {"b": 2.0}, g_spectrum=np.array([4.0, 9.0]))
        assert val == pytest.approx(14.142135623730951)

    def test_sc_ogd_frozen_value(self):
        val = bound_value("sc-ogd", {"gamma": 1.0, "alpha": 0.5}, horizon=100)
        assert val == pytest.approx(25.210340371976184)

    def test_adaptive_ogd_formula(self):
        val = bound_value("adaptive-ogd", {"b": 2.0}, sum_sq_grads=25.0)
        assert val == pytest.approx(2.0 * math.sqrt(2.0) * 5.0)

    def test_pnorm_reduces_to_adagrad_at_p_one(self):
        lam = np.array([0.5, 2.0, 4.0])
        p1 = bound_value("pnorm", {"b": 2.0, "p": 1.0}, g_spectrum=lam)
        ada = bound_value("adagrad-full", {"b": 2.0}, g_spectrum=lam)
        assert p1 == pytest.approx(ada, rel=1e-12)

    def test_unknown_algorithm(self):
        with pytest.raises(ValidationError):
            bound_value("no-such-algo", {})

    def test_certificate_on_seeded_run(self):
        fset = Ball(np.zeros(4), 1.0)
        problem = make_problem("adv-linear", 4, 5, fset, validate=False)
        preset = adagrad_full(fset)
        result = run(preset.config, problem, 300)
        x_star, _ = best_fixed_comparator(problem, 300)
        record = regret(result, problem, x_star)
        cert = regret_bound(preset.algo_id, preset.bound_params, result, record.final_regret)
        assert cert.satisfied
        assert cert.realized <= cert.bound

    def test_prefix_series_monotone_for_adagrad(self):
        fset = Ball(np.zeros(4), 1.0)
        problem = make_problem("adv-linear", 4, 5, fset, validate=False)
        preset = adagrad_full(fset)
        result = run(preset.config, problem, 120)
        series = bound_prefix_series(preset.algo_id, preset.bound_params, result)
        assert series.shape == (120,)
        assert np.all(np.diff(series) >= -1e-12)

    def test_all_bound_ids_covered(self):
        assert set(BOUND_ALGO_IDS) == {
            "adagrad-full", "adagrad-diag", "adaptive-ogd", "pnorm",
            "ons-full", "ons-diag", "sc-ogd",
        }


def _closed_form_bound(algo_id, q, lam, sum_sq, horizon):
    """One prefix of each preset's guarantee, written out scalar by scalar."""
    lam = np.where((lam < 0.0) & (lam > -1e-12 * max(1.0, np.abs(lam).max())), 0.0, lam)
    if algo_id in ("adagrad-full", "adagrad-diag"):
        b, eta = q["b" if algo_id == "adagrad-full" else "b_inf"], q["eta"]
        return (eta + b * b / (2.0 * eta)) * sum(math.sqrt(x) for x in lam)
    if algo_id == "adaptive-ogd":
        b, c = q["b"], q["c"]
        return (c + b * b / (2.0 * c)) * math.sqrt(sum_sq)
    if algo_id == "pnorm":
        b, p, eta = q["b"], q["p"], q["eta"]
        t1 = sum(x ** (1.0 / (p + 1.0)) for x in lam)
        t2 = sum(x ** (p / (p + 1.0)) for x in lam)
        return eta * (p + 1.0) / (2.0 * p) * t2 + b * b / (2.0 * eta) * t1
    if algo_id in ("ons-full", "ons-diag"):
        beta, gamma, b, d = q["beta"], q["gamma"], q["b"], q["d"]
        return d / beta * (1.0 + math.log((beta * gamma * b) ** 2 * horizon / d))
    assert algo_id == "sc-ogd"
    return q["gamma"] ** 2 / q["alpha"] * (8.0 + math.log(horizon))


class TestBoundRegistry:
    def test_every_view_has_the_registry_keys(self):
        assert set(PRESET_BUILDERS) == set(ALGORITHMS)
        assert set(BOUND_ALGO_IDS) == set(ALGORITHMS)
        assert set(_matched_setups()) == set(ALGORITHMS)

    @pytest.mark.parametrize("algo_id", sorted(ALGORITHMS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_array_formula_matches_per_prefix_closed_form(self, algo_id, seed):
        problem_id, fset = _matched_setups(5)[algo_id]
        problem = make_problem(problem_id, 5, seed, fset, validate=False)
        preset = build_matched_preset(algo_id, fset, problem, horizon=300)
        result = run(preset.config, problem, 300)
        series = bound_prefix_series(algo_id, preset.bound_params, result)
        sums = result.sum_sq_gradients()
        expected = [
            _closed_form_bound(algo_id, preset.bound_params, result.g_spectra[i], sums[i], i + 1)
            for i in range(300)
        ]
        assert series.shape == (300,)
        np.testing.assert_allclose(series, expected, rtol=1e-12, atol=0.0)
        x_star, _ = best_fixed_comparator(problem, 300)
        realized = regret(result, problem, x_star).final_regret
        cert = regret_bound(algo_id, preset.bound_params, result, realized)
        assert cert.bound == series[-1]

    def test_scalar_shim_needs_the_input_its_formula_reads(self):
        with pytest.raises(ValidationError):
            bound_value("sc-ogd", {"gamma": 1.0, "alpha": 0.5})

    def test_negative_spectrum_beyond_round_off_is_a_domain_error(self):
        with pytest.raises(DomainError):
            bound_value("adagrad-full", {"b": 2.0}, g_spectrum=np.array([-1e-3, 1.0]))
        # inside the round-off band the entry counts as zero
        val = bound_value("adagrad-full", {"b": 2.0}, g_spectrum=np.array([-1e-14, 4.0]))
        assert val == pytest.approx(2.0 * math.sqrt(2.0) * 2.0)

    def test_round_off_band_scales_with_each_prefix(self):
        # -5e-10 lies in the band of a prefix whose largest eigenvalue is 1e3,
        # -5e-11 outside the band of a prefix whose largest eigenvalue is 1
        clamped = types.SimpleNamespace(horizon=2, g_spectra=np.array([[1.0, 1.0], [-5e-10, 1e3]]))
        series = bound_prefix_series("adagrad-full", {"b": 2.0}, clamped)
        assert series[1] == pytest.approx(2.0 * math.sqrt(2.0) * math.sqrt(1e3))
        outside = types.SimpleNamespace(horizon=2, g_spectra=np.array([[-5e-11, 1.0], [1e3, 1e3]]))
        with pytest.raises(DomainError):
            bound_prefix_series("adagrad-full", {"b": 2.0}, outside)


class TestUserSetEta:
    """Certificates under a user-set step scale use the eta-explicit bound."""

    @pytest.mark.parametrize("algo_id,b_name", [
        ("adagrad-full", "b"), ("adagrad-diag", "b_inf"), ("adaptive-ogd", "b"), ("pnorm", "b"),
    ])
    @pytest.mark.parametrize("scale", [0.01, 0.1, 1.0, 10.0])
    def test_every_certificate_holds(self, algo_id, b_name, scale):
        problem_id, fset = _matched_setups(5)[algo_id]
        b = fset.diameter("infinity" if b_name == "b_inf" else "euclidean")
        for seed in (0, 1):
            problem = make_problem(problem_id, 5, seed, fset, validate=False)
            preset = build_preset(algo_id, fset, problem, horizon=200, eta=scale * b)
            assert preset.bound_params[b_name] == b
            result = run(preset.config, problem, 200)
            x_star, _ = best_fixed_comparator(problem, 200)
            record = regret(result, problem, x_star)
            cert = regret_bound(algo_id, preset.bound_params, result, record.final_regret)
            assert cert.satisfied, (seed, cert)
            series = bound_prefix_series(algo_id, preset.bound_params, result)
            # regret against the full-horizon comparator never exceeds the
            # regret against each prefix's own best point
            assert np.all(record.cum_regret <= series * (1.0 + 1e-9))

    def test_default_eta_reproduces_the_minimized_bound(self):
        lam = np.array([0.5, 2.0, 4.0])
        at_default = bound_value("adagrad-full", {"b": 2.0, "eta": math.sqrt(2.0)}, g_spectrum=lam)
        minimized = bound_value("adagrad-full", {"b": 2.0}, g_spectrum=lam)
        assert at_default == pytest.approx(minimized, rel=1e-15)
        eta = optimal_pnorm_eta(2.0, 3.0, lam)
        at_tuned = bound_value("pnorm", {"b": 2.0, "p": 3.0, "eta": eta}, g_spectrum=lam)
        minimized = bound_value("pnorm", {"b": 2.0, "p": 3.0}, g_spectrum=lam)
        assert at_tuned == pytest.approx(minimized, rel=1e-12)

    def test_off_optimal_eta_loosens_the_bound(self):
        lam = np.array([1.0, 9.0])
        at_opt = bound_value("adagrad-full", {"b": 2.0}, g_spectrum=lam)
        off = bound_value("adagrad-full", {"b": 2.0, "eta": 0.02}, g_spectrum=lam)
        assert off == pytest.approx((0.02 + 4.0 / 0.04) * 4.0)
        assert off > at_opt


class TestTraceProduct:
    def test_p_one_is_equality(self, rng):
        g = random_pd(rng, 4)
        ok, slack = trace_product_check(g, 1.0)
        assert ok
        assert slack == pytest.approx(0.0, abs=1e-9)

    def test_identity_is_equality_for_any_p(self):
        ok, slack = trace_product_check(SymmetricMatrix.identity(3), 3.0)
        assert ok
        assert slack == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 2.0, 4.0, 8.0])
    def test_random_sweep_with_strictness(self, p, rng):
        for _ in range(50):
            g = random_pd(rng, int(rng.integers(2, 6)))
            ok, slack = trace_product_check(g, p)
            assert ok
            # distinct eigenvalues make the inequality strict
            assert slack > 0.0

    def test_invalid_p(self):
        with pytest.raises(ValidationError):
            trace_product_check(SymmetricMatrix.identity(2), 0.0)


class TestOptimalPnormScale:
    def test_p_one_matches_default_rule(self):
        lam = np.array([1.0, 4.0, 9.0])
        assert optimal_pnorm_eta(2.0, 1.0, lam) == pytest.approx(2.0 / math.sqrt(2.0))

    def test_formula(self):
        lam = np.array([1.0, 16.0])
        p = 3.0
        t1 = np.sum(lam ** (1.0 / 4.0))
        t2 = np.sum(lam ** (3.0 / 4.0))
        assert optimal_pnorm_eta(1.5, p, lam) == pytest.approx(
            1.5 * math.sqrt(p / (p + 1.0) * t1 / t2)
        )


class TestTheorem1:
    def test_zero_gradient_run(self):
        fset = Unconstrained(dim=2)
        problem = FixedLinear([np.zeros(2)] * 4, fset)
        from dataclasses import replace

        cfg = replace(adagrad_full(Ball(np.zeros(2), 1.0)).config, feasible_set=fset)
        result = run(cfg, problem, 4)
        report = theorem1_check(result, problem, x_refs=[np.array([0.5, -0.5])])
        assert report.ok
        assert report.final_lhs == pytest.approx(0.0, abs=1e-12)

    def test_comparator_at_start(self):
        fset = Ball(np.zeros(2), 1.0)
        problem = FixedLinear(
            [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([-0.5, 0.5])], fset
        )
        preset = adagrad_full(fset)
        result = run(preset.config, problem, 3)
        report = theorem1_check(result, problem, x_refs=[result.config.x1])
        assert report.ok

    def test_seeded_run_all_prefixes(self):
        fset = Ball(np.zeros(3), 1.0)
        problem = make_problem("adv-linear", 3, 8, fset, validate=False)
        preset = adagrad_full(fset)
        result = run(preset.config, problem, 150)
        report = theorem1_check(result, problem, n_random_refs=10, seed=1)
        assert report.ok
        assert report.worst_margin >= -1e-8
        assert report.n_refs == 11
