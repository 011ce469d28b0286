"""Verification sweeps behind the command-line ``verify`` subcommand.

Each suite runs a batch of randomized checks and returns a list of
:class:`Failure` records; an empty list means the suite passed.  The
bounds suite accepts a fault-injection mode that deliberately shrinks
every bound by 10 percent, which must make certificates fail; it exists
so the failure path of the harness can itself be exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import oracles, presets
from .engine import run as engine_run
from .errors import ValidationError
from .linalg import SymmetricMatrix, matrix_power_psd, psd_geq
from .potentials import (
    AdaGradPotential,
    OnsPotential,
    PNormPotential,
    RegularizerDomain,
    solve_regularizer,
)
from .problems import best_fixed_comparator, make_problem, regret
from .sets import Ball, Box

SUITE_NAMES = ("lemmas", "argmin", "bounds", "matrix")


@dataclass(frozen=True)
class Failure:
    suite: str
    case: str
    seed: int
    detail: str

    def manifest_line(self) -> str:
        return f"FAIL suite={self.suite} case={self.case} seed={self.seed} detail={self.detail}"


def random_pd_matrix(rng, dim, lo=0.3, hi=3.0) -> SymmetricMatrix:
    """Random positive-definite matrix with log-uniform spectrum in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lam = np.exp(rng.uniform(np.log(lo), np.log(hi), size=dim))
    a = q @ (lam[:, None] * q.T)
    return SymmetricMatrix((a + a.T) / 2.0)


def random_psd_matrix(rng, dim, rank=None) -> SymmetricMatrix:
    rank = rank if rank is not None else dim
    w = rng.standard_normal((dim, rank))
    return SymmetricMatrix(w @ w.T / rank)


def lemma_suite(trials: int = 1000, seed: int = 0, tol: float = 1e-8) -> List[Failure]:
    """Prefix-minimizer inequality sweep plus mirror-descent trajectory checks."""
    failures = []
    rng = np.random.default_rng(seed)
    for i in range(trials):
        horizon = int(rng.integers(1, 21))
        dim = int(rng.integers(1, 4))
        inst = oracles.random_quadratic_instance(rng, horizon, dim)
        ok, slack = oracles.ftl_btl_check(inst, tol=tol)
        if not ok:
            failures.append(Failure("lemmas", f"leader-quad[{i}]", seed, f"slack={slack:.3e}"))
    for i in range(max(1, trials // 4)):
        inst = oracles.random_kink_instance(rng, int(rng.integers(1, 21)))
        ok, slack = oracles.ftl_btl_check(inst, tol=tol)
        if not ok:
            failures.append(Failure("lemmas", f"leader-kink[{i}]", seed, f"slack={slack:.3e}"))
    n_runs = max(2, min(12, trials // 80))
    for i in range(n_runs):
        run_seed = seed + 1000 + i
        fset = Ball(center=np.zeros(4), radius=1.0)
        problem = make_problem("adv-linear", 4, run_seed, fset, validate=False)
        preset = presets.adagrad_full(fset)
        result = engine_run(preset.config, problem, 120)
        x_star, _ = best_fixed_comparator(problem, 120)
        refs = [x_star] + [fset.sample(rng) for _ in range(3)]
        for j, ref in enumerate(refs):
            ok, worst, cum = oracles.mirror_descent_lemma_check(result, ref, tol=tol)
            if not ok:
                failures.append(
                    Failure(
                        "lemmas",
                        f"mirror-descent[{i}:{j}]",
                        run_seed,
                        f"worst={worst:.3e} cumulative={cum:.3e}",
                    )
                )
    return failures


def _argmin_cases():
    return (
        ("inverse-trace", lambda rng: AdaGradPotential(eta=float(rng.uniform(0.5, 2.0)))),
        ("log-det", lambda rng: OnsPotential(beta=float(rng.uniform(0.5, 2.0)))),
        (
            "inverse-power",
            lambda rng: PNormPotential(
                eta=float(rng.uniform(0.5, 2.0)), p=float(rng.choice([0.5, 2.0, 4.0]))
            ),
        ),
    )


def argmin_suite(trials: int = 20, seed: int = 0, tol: float = 1e-4) -> List[Failure]:
    """Closed-form regularizer choice versus the from-scratch numeric argmin."""
    failures = []
    rng = np.random.default_rng(seed)
    for kind, make_potential in _argmin_cases():
        for domain in RegularizerDomain:
            for i in range(trials):
                dim = 2 + i % 4
                potential = make_potential(rng)
                g_mat = random_pd_matrix(rng, dim)
                closed = solve_regularizer(potential, g_mat, domain).h
                try:
                    numeric = oracles.numeric_potential_argmin(potential, g_mat, domain)
                except Exception as exc:  # noqa: BLE001 - suite reports, not raises
                    failures.append(
                        Failure("argmin", f"{kind}-{domain.value}[{i}]", seed, f"oracle: {exc}")
                    )
                    continue
                rel = np.linalg.norm(numeric.mat - closed.mat) / np.linalg.norm(closed.mat)
                if rel > tol:
                    failures.append(
                        Failure(
                            "argmin",
                            f"{kind}-{domain.value}[{i}]",
                            seed,
                            f"relative distance {rel:.3e} exceeds {tol:.1e}",
                        )
                    )
    return failures


def _matched_setups(dim=5):
    """(problem family, feasible set) of each preset's matched problem."""
    sets = {
        "ball": Ball(center=np.zeros(dim), radius=1.0),
        "box": Box(lower=-0.5 * np.ones(dim), upper=0.5 * np.ones(dim)),
    }
    return {
        algo_id: (spec.matched[0], sets[spec.matched[1]])
        for algo_id, spec in presets.ALGORITHMS.items()
    }


def build_matched_preset(algo_id, fset, problem, p=None, horizon=None):
    """Preset wired to a problem's declared constants (tuned eta for pnorm).

    ``p`` is pnorm's exponent; the default ``None`` leaves every preset's own.
    """
    return presets.build_preset(algo_id, fset, problem, horizon=horizon, p=p)


def bounds_suite(
    trials: int = 3,
    seed: int = 0,
    horizon: int = 400,
    fault: Optional[str] = None,
) -> List[Failure]:
    """Regret-bound certificates for every preset on its matched problem."""
    checks = (
        _bounds_case(algo_id, problem_id, fset, run_seed, horizon, fault)
        for algo_id, (problem_id, fset) in _matched_setups().items()
        for run_seed in range(seed, seed + trials)
    )
    return [failure for failure in checks if failure is not None]


def _bounds_case(algo_id, problem_id, fset, run_seed, horizon, fault) -> Optional[Failure]:
    # One case per call, so a run's history is freed before the next starts.
    case = f"{algo_id}/{problem_id}"
    problem = make_problem(problem_id, fset.dim, run_seed, fset, validate=False)
    preset = build_matched_preset(algo_id, fset, problem, horizon=horizon)
    result = engine_run(preset.config, problem, horizon)
    x_star, _ = best_fixed_comparator(problem, horizon)
    record = regret(result, problem, x_star)
    cert = oracles.regret_bound(preset.algo_id, preset.bound_params, result, record.final_regret)
    bound = cert.bound
    if fault == "bound-shrink":
        bound *= 0.9
    satisfied = cert.realized <= bound + oracles.CERT_RTOL * (1.0 + abs(bound))
    if not satisfied:
        return Failure("bounds", case, run_seed, f"realized={cert.realized:.6g} bound={bound:.6g}")
    # The certificate must equal the guarantee at the final prefix of the
    # series the trace reports; a perturbed certificate trips this even when
    # the realized regret sits far below the bound.
    series = oracles.bound_prefix_series(preset.algo_id, preset.bound_params, result)
    reference = float(series[-1])
    if abs(bound - reference) > 1e-9 * (1.0 + abs(reference)):
        detail = f"certificate={bound:.6g} disagrees with prefix value {reference:.6g}"
        return Failure("bounds", case, run_seed, detail)
    return None


def matrix_suite(trials: int = 500, seed: int = 0, tol: float = 1e-8) -> List[Failure]:
    """Operator-monotonicity sweep, its alpha = 2 counterexample, trace products."""
    failures = []
    rng = np.random.default_rng(seed)
    for i in range(trials):
        dim = int(rng.integers(2, 7))
        b_mat = random_psd_matrix(rng, dim)
        a_mat = SymmetricMatrix(b_mat.mat + random_psd_matrix(rng, dim).mat)
        for alpha in (0.25, 0.5, 1.0):
            if not psd_geq(matrix_power_psd(a_mat, alpha), matrix_power_psd(b_mat, alpha), tol):
                failures.append(
                    Failure(
                        "matrix",
                        f"monotone[{i}]",
                        seed,
                        f"power {alpha} broke the ordering at dim {dim}",
                    )
                )
    a_mat = SymmetricMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
    b_mat = SymmetricMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    if not psd_geq(a_mat, b_mat, tol):
        failures.append(Failure("matrix", "counterexample-premise", seed, "A - B not psd"))
    if psd_geq(matrix_power_psd(a_mat, 2.0), matrix_power_psd(b_mat, 2.0), tol):
        failures.append(
            Failure("matrix", "counterexample", seed, "squaring preserved the ordering")
        )
    for i in range(max(1, trials // 5)):
        g_mat = random_psd_matrix(rng, int(rng.integers(2, 7)))
        for p in (0.5, 2.0, 4.0):
            ok, slack = oracles.trace_product_check(g_mat, p, tol=1e-9)
            if not ok:
                failures.append(
                    Failure("matrix", f"trace-product[{i}] p={p}", seed, f"slack={slack:.3e}")
                )
    return failures


def run_suite(name: str, trials: Optional[int] = None, seed: int = 0, **kwargs) -> List[Failure]:
    """Run one suite, at its own default trial count unless ``trials`` is given."""
    if trials is not None:
        kwargs["trials"] = trials
    if name == "lemmas":
        return lemma_suite(seed=seed, **kwargs)
    if name == "argmin":
        return argmin_suite(seed=seed, **kwargs)
    if name == "bounds":
        return bounds_suite(seed=seed, **kwargs)
    if name == "matrix":
        return matrix_suite(seed=seed, **kwargs)
    raise ValidationError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
