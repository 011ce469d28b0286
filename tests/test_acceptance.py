"""Acceptance gate: every headline guarantee exercised at full scale.

Each test prints one PASS/FAIL line with the measured quantity next to
its threshold (run with ``pytest -s`` to see the report even when all
criteria pass).  The criteria mirror the package's public claims:
closed-form regularizer argmins against an independent numeric solver,
every shipped regret bound on its matched problem family, the two
supporting lemmas, the master regret decomposition, the operator-order
facts behind the analysis, and bit-level reproducibility of the CLI.
"""

import math
import time

import numpy as np
import pytest

from adareg.cli import main as cli_main
from adareg.engine import mirror_step_argmin, run
from adareg.linalg import SymmetricMatrix, matrix_power_psd, psd_geq
from adareg.oracles import (
    bound_value,
    ftl_btl_check,
    mirror_descent_lemma_check,
    numeric_potential_argmin,
    random_quadratic_instance,
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
    adagrad_diag,
    adagrad_full,
    adaptive_ogd,
    ons_full,
    optimal_pnorm_eta,
    pnorm,
    sc_ogd,
)
from adareg.problems import best_fixed_comparator, make_problem
from adareg.sets import Ball, Box, project
from adareg.suites import _matched_setups, build_matched_preset, matrix_suite
from conftest import random_pd


def report(num, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {num:2d} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def realized_regret(problem, result, horizon):
    """Cumulative loss of the run minus the best fixed point's total."""
    a, b, c = problem.cumulative_quadratic(horizon)
    x_star, _ = best_fixed_comparator(problem, horizon)
    star_total = 0.5 * float(x_star @ a @ x_star) + float(b @ x_star) + c
    return float(np.sum(result.losses[:horizon])) - star_total


def test_01_closed_form_vs_numeric_argmin():
    rng = np.random.default_rng(101)
    potentials = [
        AdaGradPotential(eta=1.2),
        OnsPotential(beta=0.8),
        PNormPotential(eta=1.0, p=2.0),
    ]
    started = time.perf_counter()
    worst = 0.0
    cases = 0
    for potential in potentials:
        for domain in RegularizerDomain:
            for _ in range(50):
                dim = int(rng.integers(2, 6))
                g = random_pd(rng, dim)
                closed = solve_regularizer(potential, g, domain).h
                numeric = numeric_potential_argmin(potential, g, domain)
                err = np.linalg.norm(numeric.mat - closed.mat) / np.linalg.norm(closed.mat)
                worst = max(worst, err)
                cases += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "closed-form vs numeric argmin",
        worst <= 1e-4 and elapsed < 120.0,
        f"max rel err {worst:.3g} (tol 1e-4) over {cases} cases in {elapsed:.1f}s (limit 120s)",
    )


def _adagrad_family_criterion(num, name, build, fset_factory, bound_from):
    started = time.perf_counter()
    worst_slack = -math.inf
    for seed in range(10):
        fset = fset_factory()
        problem = make_problem("adv-linear", 10, seed, fset, validate=False)
        preset = build(fset)
        result = run(preset.config, problem, 2000)
        realized = realized_regret(problem, result, 2000)
        bound = bound_from(preset, result)
        slack = (realized - bound) / max(bound, 1.0)
        worst_slack = max(worst_slack, slack)
    elapsed = time.perf_counter() - started
    report(
        num,
        name,
        worst_slack <= 1e-6 and elapsed < 60.0,
        f"worst rel slack {worst_slack:.3g} (tol 1e-6) over 10 seeds in {elapsed:.1f}s",
    )


def test_02_adagrad_full_bound():
    _adagrad_family_criterion(
        2,
        "full-matrix adaptive bound",
        lambda fset: adagrad_full(fset),
        lambda: Ball(np.zeros(10), 1.0),
        lambda preset, result: bound_value(
            "adagrad-full", preset.bound_params, g_spectrum=result.g_spectra[-1]
        ),
    )


def test_03_adagrad_diag_bound():
    _adagrad_family_criterion(
        3,
        "diagonal adaptive bound",
        lambda fset: adagrad_diag(fset),
        lambda: Box(np.full(10, -0.5), np.full(10, 0.5)),
        lambda preset, result: bound_value(
            "adagrad-diag", preset.bound_params, g_spectrum=result.g_spectra[-1]
        ),
    )


def test_04_adaptive_scalar_bound():
    _adagrad_family_criterion(
        4,
        "adaptive scalar-step bound",
        lambda fset: adaptive_ogd(fset),
        lambda: Ball(np.zeros(10), 1.0),
        lambda preset, result: bound_value(
            "adaptive-ogd",
            preset.bound_params,
            sum_sq_grads=float(result.sum_sq_gradients()[-1]),
        ),
    )


def test_05_ons_log_regret_prefixes():
    prefixes = (10, 100, 1_000, 10_000)
    worst_slack = -math.inf
    sublog_ok = True
    for seed in range(5):
        fset = Ball(np.zeros(5), 1.0)
        problem = make_problem("sq-loss", 5, seed, fset)  # validates exp-concavity
        preset = ons_full(fset, beta=problem.beta, gamma=problem.gamma)
        result = run(preset.config, problem, prefixes[-1])
        regs = {}
        for t_prime in prefixes:
            realized = realized_regret(problem, result, t_prime)
            bound = bound_value(
                "ons-full",
                dict(preset.bound_params, gamma=problem.gamma),
                horizon=t_prime,
            )
            worst_slack = max(worst_slack, (realized - bound) / max(bound, 1.0))
            regs[t_prime] = realized
        sublog_ok &= regs[10_000] - regs[1_000] <= regs[1_000] + 1e-9
    report(
        5,
        "log-regret bound at every prefix",
        worst_slack <= 1e-6 and sublog_ok,
        f"worst rel slack {worst_slack:.3g} (tol 1e-6), "
        f"sublogarithmic growth {'held' if sublog_ok else 'violated'}, 5 seeds",
    )


def test_06_strongly_convex_scalar_bound():
    worst_slack = -math.inf
    for seed in range(5):
        fset = Ball(np.zeros(5), 1.0)
        problem = make_problem("rot-quad", 5, seed, fset)  # validates strong convexity
        preset = sc_ogd(fset, alpha=problem.alpha, gamma=problem.gamma)
        result = run(preset.config, problem, 10_000)
        realized = realized_regret(problem, result, 10_000)
        bound = bound_value("sc-ogd", preset.bound_params, horizon=10_000)
        worst_slack = max(worst_slack, (realized - bound) / max(bound, 1.0))
    report(
        6,
        "strongly-convex log bound at T=10^4",
        worst_slack <= 1e-6,
        f"worst rel slack {worst_slack:.3g} (tol 1e-6) over 5 seeds",
    )


def test_07_pnorm_family_and_p1_minimality():
    ps = (0.5, 1.0, 2.0, 4.0)
    worst_slack = -math.inf
    for p in ps:
        for seed in range(2):
            fset = Ball(np.zeros(10), 1.0)
            problem = make_problem("adv-linear", 10, seed, fset, validate=False)
            b = fset.diameter("euclidean")
            spectrum = np.linalg.eigvalsh(
                1e-8 * np.eye(10)
                + sum(
                    np.outer(g, g)
                    for g in (problem.round_data(t)[0] for t in range(1, 2001))
                )
            )
            preset = pnorm(fset, p, eta=optimal_pnorm_eta(b, p, spectrum))
            result = run(preset.config, problem, 2000)
            realized = realized_regret(problem, result, 2000)
            bound = bound_value(
                "pnorm", {"b": b, "p": p}, g_spectrum=result.g_spectra[-1]
            )
            worst_slack = max(worst_slack, (realized - bound) / max(bound, 1.0))
    rng = np.random.default_rng(107)
    min_trace_slack = math.inf
    for _ in range(500):
        g = random_pd(rng, int(rng.integers(2, 8)), lo=0.05, hi=5.0)
        for p in (0.5, 2.0, 4.0):
            ok, slack = trace_product_check(g, p, tol=1e-9)
            min_trace_slack = min(min_trace_slack, slack)
            if not ok:
                break
    report(
        7,
        "p-family bounds and p=1 minimality",
        worst_slack <= 1e-6 and min_trace_slack >= -1e-9,
        f"worst rel slack {worst_slack:.3g} (tol 1e-6) for p in {ps}; "
        f"min trace-product slack {min_trace_slack:.3g} (tol -1e-9) over 500 matrices",
    )


def test_08_prefix_minimizer_inequality():
    rng = np.random.default_rng(108)
    min_slack = math.inf
    for _ in range(1000):
        inst = random_quadratic_instance(
            rng, int(rng.integers(1, 21)), dim=int(rng.integers(1, 4))
        )
        ok, slack = ftl_btl_check(inst, tol=1e-8)
        min_slack = min(min_slack, slack)
        if not ok:
            break
    report(
        8,
        "prefix-minimizer inequality",
        min_slack >= -1e-8,
        f"min slack {min_slack:.3g} (tol -1e-8) over 1000 instances",
    )


def test_09_linearized_regret_lemma():
    worst_step = math.inf
    worst_cum = math.inf
    for seed in range(100):
        fset = Ball(np.zeros(4), 1.0)
        problem = make_problem("adv-linear", 4, seed, fset, validate=False)
        preset = adagrad_full(fset)
        result = run(preset.config, problem, 200)
        x_star, _ = best_fixed_comparator(problem, 200)
        ok, step_slack, cum_slack = mirror_descent_lemma_check(result, x_star)
        worst_step = min(worst_step, step_slack)
        worst_cum = min(worst_cum, cum_slack)
    report(
        9,
        "linearized regret lemma",
        worst_step >= -1e-8 and worst_cum >= -1e-8,
        f"worst per-step slack {worst_step:.3g}, worst cumulative slack "
        f"{worst_cum:.3g} (tol -1e-8) over 100 runs of 200 rounds",
    )


def test_10_projection_vs_argmin_equivalence():
    rng = np.random.default_rng(110)
    sets = [Ball(np.zeros(4), 1.0), Box(np.full(4, -0.6), np.full(4, 0.6))]
    worst = 0.0
    active = 0
    while active < 200:
        fset = sets[active % 2]
        h = random_pd(rng, 4, lo=0.2, hi=2.5)
        x = fset.sample(rng)
        g = rng.standard_normal(4) * 2.0
        move = x - h.mat @ g
        if fset.contains(move):
            continue  # only count steps where the constraint bites
        h_inv = np.linalg.inv(h.mat)
        via_projection = project(move, fset, SymmetricMatrix((h_inv + h_inv.T) / 2.0))
        via_argmin = mirror_step_argmin(x, g, h, fset)
        worst = max(worst, float(np.linalg.norm(via_projection - via_argmin)))
        active += 1
    report(
        10,
        "projection form vs argmin form",
        worst <= 1e-6,
        f"max disagreement {worst:.3g} (tol 1e-6) over 200 active steps",
    )


def test_11_master_decomposition_every_preset():
    worst_margin = math.inf
    combos = 0
    for algo_id, (problem_id, fset) in _matched_setups().items():
        for seed in range(5):
            problem = make_problem(problem_id, fset.dim, seed, fset, validate=False)
            preset = build_matched_preset(algo_id, fset, problem, horizon=250)
            result = run(preset.config, problem, 250)
            rep = theorem1_check(result, problem, n_random_refs=20, seed=seed)
            worst_margin = min(worst_margin, rep.worst_margin)
            combos += 1
            if not rep.ok:
                break
    report(
        11,
        "master decomposition on all presets",
        worst_margin >= -1e-8,
        f"worst prefix margin {worst_margin:.3g} (tol -1e-8) over {combos} "
        "preset/seed combinations, every prefix, 21 reference points each",
    )


def test_12_operator_monotonicity():
    failures = matrix_suite(trials=500, seed=112)
    counter_a = SymmetricMatrix([[2.0, 1.0], [1.0, 1.0]])
    counter_b = SymmetricMatrix([[1.0, 0.0], [0.0, 0.0]])
    detected = psd_geq(counter_a, counter_b) and not psd_geq(
        matrix_power_psd(counter_a, 2.0), matrix_power_psd(counter_b, 2.0)
    )
    report(
        12,
        "fractional-power operator monotonicity",
        not failures and detected,
        f"{len(failures)} violations over 500 pairs at powers 0.25/0.5/1.0; "
        f"order-breaking squaring example {'detected' if detected else 'missed'}",
    )


def test_13_determinism_golden(tmp_path):
    argv_tail = [
        "run", "--algo", "adagrad-full", "--problem", "adv-linear",
        "--dim", "10", "--horizon", "2000", "--seed", "7",
        "--set", "ball", "--radius", "1",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a = cli_main(argv_tail + ["--out", str(out_a)])
    code_b = cli_main(argv_tail + ["--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    report(
        13,
        "bit-identical command-line reruns",
        code_a == 0 and code_b == 0 and identical,
        f"exit codes ({code_a}, {code_b}), payload "
        f"{'identical' if identical else 'differs'} across repeated runs",
    )
