"""Independent numerical checks for the analysis behind the algorithms.

This module certifies, on concrete instances, the chain of facts the
regret guarantees rest on:

* the prefix-minimizer ("be the leader") inequality for arbitrary
  function sequences;
* the per-step and cumulative mirror-descent inequalities along a
  recorded trajectory;
* agreement of the closed-form regularizer choice with a from-scratch
  numerical minimization of <G, H> + Phi(H);
* the closed-form regret-bound formulas and their certificates against
  realized regret;
* the trace-product inequality underlying the p = 1 optimality claim;
* the master regret decomposition (potential terms plus telescoping
  distances) at every prefix of a run.

Everything here favors independence over speed: the numeric argmin, for
example, rebuilds the objective from the potential's scalar functions
and descends from a neutral starting point rather than reusing any
closed-form inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError
from .linalg import SymmetricMatrix, clamp_spectrum
from .potentials import RegularizerDomain, SpectralPotential
from .presets import ALGORITHMS, algorithm_spec
from .problems import best_fixed_comparator
from .sets import Box, FeasibleSet, project

# ---------------------------------------------------------------------------
# Prefix-minimizer (leader) inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticFn:
    """1/2 (x - z)' A (x - z) + c with positive-definite A."""

    a: np.ndarray
    z: np.ndarray
    c: float = 0.0

    def value(self, x):
        v = np.asarray(x, dtype=float) - self.z
        return 0.5 * float(v @ self.a @ v) + self.c


@dataclass(frozen=True)
class KinkFn:
    """One-dimensional piecewise-linear sum_j w_j |x - k_j| + slope * x."""

    kinks: np.ndarray
    weights: np.ndarray
    slope: float = 0.0

    def value(self, x):
        x = float(np.asarray(x).reshape(()))
        return float(self.weights @ np.abs(x - self.kinks)) + self.slope * x


@dataclass(frozen=True)
class FtlBtlInstance:
    """A sequence psi_0 .. psi_T of convex functions over a compact domain."""

    functions: Sequence
    domain: FeasibleSet

    def __post_init__(self):
        if len(self.functions) < 2:
            raise ValidationError("an instance needs psi_0 and at least one round")
        kinds = {type(f) for f in self.functions}
        if not (kinds <= {QuadraticFn} or kinds <= {KinkFn}):
            raise ValidationError("functions must be all quadratic or all piecewise-linear")


def _prefix_minimizers_quadratic(instance: FtlBtlInstance) -> np.ndarray:
    d = instance.domain.dim
    a_sum = np.zeros((d, d))
    b_sum = np.zeros(d)
    out = np.empty((len(instance.functions), d))
    for i, fn in enumerate(instance.functions):
        a_sum = a_sum + fn.a
        b_sum = b_sum + fn.a @ fn.z
        x_hat = np.linalg.solve(a_sum, b_sum)
        if instance.domain.contains(x_hat, tol=1e-12):
            out[i] = x_hat
        else:
            out[i] = project(x_hat, instance.domain, SymmetricMatrix(a_sum))
    return out


def _prefix_minimizers_kink(instance: FtlBtlInstance) -> np.ndarray:
    domain = instance.domain
    if not isinstance(domain, Box) or domain.dim != 1:
        raise ValidationError("piecewise-linear instances must live on an interval")
    lo, hi = float(domain.lower[0]), float(domain.upper[0])
    fns = instance.functions
    # Every prefix's minimizer lies among the domain ends and the kinks seen
    # so far; keep running totals on the merged grid of all of them.
    grid = np.unique(np.clip(np.concatenate([[lo, hi], *(fn.kinks for fn in fns)]), lo, hi))
    seen = np.isin(grid, (lo, hi))
    totals = np.zeros_like(grid)
    out = np.empty((len(fns), 1))
    for i, fn in enumerate(fns):
        seen[np.searchsorted(grid, np.clip(fn.kinks, lo, hi))] = True
        totals += np.abs(grid[:, None] - fn.kinks) @ fn.weights + fn.slope * grid
        out[i, 0] = grid[int(np.argmin(np.where(seen, totals, np.inf)))]
    return out


def prefix_minimizers(instance: FtlBtlInstance) -> np.ndarray:
    """x_t in argmin of psi_0 + ... + psi_t for every prefix, t = 0 .. T."""
    if isinstance(instance.functions[0], QuadraticFn):
        return _prefix_minimizers_quadratic(instance)
    return _prefix_minimizers_kink(instance)


def ftl_btl_check(instance: FtlBtlInstance, tol: float = 1e-8):
    """Check sum_t psi_t(x_t) <= sum_t psi_t(x_T) + psi_0(x_T) - psi_0(x_0).

    Here x_t minimizes the prefix psi_0 + .. + psi_t.  Returns
    ``(ok, slack)`` with slack = RHS - LHS; ok means slack >= -tol.
    """
    xs = prefix_minimizers(instance)
    fns = instance.functions
    x_final = xs[-1]
    lhs = sum(fn.value(xs[i]) for i, fn in enumerate(fns) if i >= 1)
    rhs = sum(fn.value(x_final) for i, fn in enumerate(fns) if i >= 1)
    rhs += fns[0].value(x_final) - fns[0].value(xs[0])
    slack = rhs - lhs
    return slack >= -tol, float(slack)


def random_quadratic_instance(rng, horizon, dim=2) -> FtlBtlInstance:
    """A random all-quadratic instance on the box [-1, 1]^dim."""
    fns = []
    for _ in range(horizon + 1):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        lam = rng.uniform(0.2, 2.0, size=dim)
        a = q @ (lam[:, None] * q.T)
        fns.append(QuadraticFn(a=(a + a.T) / 2.0, z=rng.uniform(-1.2, 1.2, size=dim)))
    domain = Box(lower=-np.ones(dim), upper=np.ones(dim))
    return FtlBtlInstance(functions=fns, domain=domain)


def random_kink_instance(rng, horizon) -> FtlBtlInstance:
    """A random piecewise-linear instance on the interval [-1, 1]."""
    fns = []
    for _ in range(horizon + 1):
        k = rng.integers(1, 4)
        fns.append(
            KinkFn(
                kinks=rng.uniform(-1.0, 1.0, size=k),
                weights=rng.uniform(0.2, 1.0, size=k),
                slope=rng.uniform(-0.5, 0.5),
            )
        )
    domain = Box(lower=np.array([-1.0]), upper=np.array([1.0]))
    return FtlBtlInstance(functions=fns, domain=domain)


# ---------------------------------------------------------------------------
# Mirror-descent inequality along a trajectory
# ---------------------------------------------------------------------------


def mirror_descent_lemma_check(run_result, x_ref, tol: float = 1e-8):
    """Check the linearized-regret inequality against a fixed reference point.

    Per round:  g_t . (x_t - x_ref) <= 1/2 |g_t|^2_{H_t} + 1/2 Delta_t,
    where Delta_t telescopes the squared H_t^{-1}-distances to x_ref;
    cumulatively the same with sums.  Returns (ok, worst per-step slack,
    cumulative slack).
    """
    x_ref = np.asarray(x_ref, dtype=float)
    lhs = np.einsum("ti,ti->t", run_result.gradients, run_result.xs[:-1] - x_ref)
    rhs = 0.5 * run_result.local_norms + 0.5 * run_result.distance_terms(x_ref)
    worst = float(np.min((rhs - lhs) / (1.0 + np.abs(rhs))))
    rhs_total = float(np.sum(rhs))
    cumulative = (rhs_total - float(np.sum(lhs))) / (1.0 + abs(rhs_total))
    ok = worst >= -tol and cumulative >= -tol
    return ok, worst, cumulative


# ---------------------------------------------------------------------------
# Numeric regularizer argmin (the oracle for the closed forms)
# ---------------------------------------------------------------------------


def _phi_prime_root(potential: SpectralPotential, target: float) -> float:
    """Solve phi'(s) = target by bisection; phi' is strictly decreasing."""
    if target <= 0:
        raise DomainError(f"phi' root requires a positive target, got {target}")
    lo, hi = 1.0, 1.0
    for _ in range(200):
        if float(potential.phi_prime(lo)) > target:
            break
        lo *= 0.5
    for _ in range(200):
        if float(potential.phi_prime(hi)) < target:
            break
        hi *= 2.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if float(potential.phi_prime(mid)) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def numeric_potential_argmin(
    potential: SpectralPotential,
    g_mat: SymmetricMatrix,
    domain: RegularizerDomain,
    max_iter: int = 10_000,
    grad_tol: float = 1e-8,
) -> SymmetricMatrix:
    """Minimize <G, H> + Phi(H) numerically over the domain.

    Uses gradient descent with backtracking on a square-root
    parameterization (H = L L', diagonal entries, or a scalar), started
    from an isotropic point found by scalar bisection.  Stops when the
    parameter-space gradient norm falls below ``grad_tol`` times the
    scale of G.  Deliberately avoids the closed-form inverse of phi'.
    """
    d = g_mat.dim
    gm = g_mat.mat
    lam_g = clamp_spectrum(np.linalg.eigvalsh(gm))
    if np.any(lam_g <= 0) and domain is not RegularizerDomain.ISOTROPIC:
        raise DomainError("numeric argmin requires a positive definite G")
    mean_eig = float(np.trace(gm)) / d
    if mean_eig <= 0:
        raise DomainError("numeric argmin requires positive trace")
    s0 = math.sqrt(_phi_prime_root(potential, mean_eig))

    if domain is RegularizerDomain.FULL:
        x0 = s0 * np.eye(d)

        def fg(l_mat):
            h = l_mat @ l_mat.T
            lam, u = np.linalg.eigh(h)
            if lam[0] <= 0 or not np.all(np.isfinite(lam)):
                return math.inf, np.zeros_like(l_mat)
            f = float(np.sum(gm * h)) - float(np.sum(potential.phi(lam)))
            phi_p = np.asarray(potential.phi_prime(lam), dtype=float)
            grad_h = gm - u @ (phi_p[:, None] * u.T)
            return f, 2.0 * grad_h @ l_mat

        def build(l_mat):
            return SymmetricMatrix(l_mat @ l_mat.T)

    elif domain is RegularizerDomain.DIAGONAL:
        g_diag = np.diag(gm).copy()
        if np.any(g_diag <= 0):
            raise DomainError("numeric argmin requires positive diagonal entries")
        x0 = np.full(d, s0)

        def fg(ell):
            h_diag = ell * ell
            if np.any(h_diag <= 0):
                return math.inf, np.zeros_like(ell)
            f = float(g_diag @ h_diag) - float(np.sum(potential.phi(h_diag)))
            grad = 2.0 * ell * (g_diag - np.asarray(potential.phi_prime(h_diag)))
            return f, grad

        def build(ell):
            return SymmetricMatrix.from_diagonal(ell * ell)

    elif domain is RegularizerDomain.ISOTROPIC:
        trace_g = float(np.trace(gm))
        x0 = np.array([2.0 * s0])

        def fg(sigma):
            s = float(sigma[0])
            h_val = s * s
            if h_val <= 0:
                return math.inf, np.zeros(1)
            f = trace_g * h_val - d * float(potential.phi(h_val))
            grad = 2.0 * s * (trace_g - d * float(potential.phi_prime(h_val)))
            return f, np.array([grad])

        def build(sigma):
            return SymmetricMatrix.identity(d, float(sigma[0]) ** 2)

    else:  # pragma: no cover - enum is exhaustive
        raise ValidationError(f"unknown regularizer domain {domain!r}")

    grad_tol_abs = grad_tol * max(1.0, float(np.linalg.norm(gm)))
    x = np.asarray(x0, dtype=float)
    f, grad = fg(x)
    recent = [f]
    prev_x = prev_grad = None
    step = 1.0 / max(1.0, mean_eig)
    for _ in range(max_iter):
        gn = float(np.linalg.norm(grad))
        if gn <= grad_tol_abs:
            return build(x)
        if prev_x is not None:
            # Barzilai-Borwein step: a secant estimate of the local curvature,
            # far faster than a fixed step on ill-conditioned spectra.
            s = x - prev_x
            y = grad - prev_grad
            sy = float(np.vdot(s, y))
            if sy > 0:
                step = min(1e12, max(1e-12, float(np.vdot(s, s)) / sy))
        f_ref = max(recent)
        trial = step
        accepted = False
        for _ in range(60):
            x_new = x - trial * grad
            f_new, grad_new = fg(x_new)
            if f_new <= f_ref - 1e-4 * trial * gn * gn:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            raise ConvergenceError(
                f"numeric argmin line search stalled (gradient norm {gn:.3e})"
            )
        prev_x, prev_grad = x, grad
        x, f, grad = x_new, f_new, grad_new
        recent.append(f)
        if len(recent) > 10:
            recent.pop(0)
    raise ConvergenceError(
        f"numeric argmin did not reach gradient tolerance in {max_iter} iterations "
        f"(gradient norm {float(np.linalg.norm(grad)):.3e})"
    )


# ---------------------------------------------------------------------------
# Regret-bound formulas and certificates
# ---------------------------------------------------------------------------

BOUND_ALGO_IDS = tuple(ALGORITHMS)

CERT_RTOL = 1e-6


@dataclass(frozen=True)
class BoundCertificate:
    """Comparison of realized regret against a closed-form guarantee."""

    algo_id: str
    bound: float
    realized: float
    satisfied: bool
    params: dict = field(default_factory=dict)


def _prefix_bounds(algo_id, params, run_result, rows) -> np.ndarray:
    """The guarantee at the prefixes ``rows`` selects, from the statistic it reads."""
    spec = algorithm_spec(algo_id)
    if spec.reads == "spectra":
        values = run_result.g_spectra[rows]
    elif spec.reads == "sum_sq":
        values = run_result.sum_sq_gradients()[rows]
    else:
        values = np.arange(1.0, run_result.horizon + 1.0)[rows]
    return spec.bound(params, values)


def bound_value(algo_id, params, g_spectrum=None, sum_sq_grads=None, horizon=None) -> float:
    """Evaluate the closed-form regret guarantee for one algorithm at one prefix.

    ``g_spectrum`` is the spectrum of the final accumulator (eigenvalues
    for full domains, diagonal entries for diagonal ones);
    ``sum_sq_grads`` the sum of squared gradient norms; ``horizon`` the
    number of rounds.  Only the input the formula reads is required.
    """
    spec = algorithm_spec(algo_id)
    value = {"spectra": g_spectrum, "sum_sq": sum_sq_grads, "horizons": horizon}[spec.reads]
    if value is None:
        raise ValidationError(f"the {algo_id} bound needs the {spec.reads} input")
    return float(spec.bound(params, np.asarray(value, dtype=float)[None])[0])


def regret_bound(algo_id, params, run_result, realized: float) -> BoundCertificate:
    """Certificate comparing a run's realized regret with its guarantee."""
    bound = float(_prefix_bounds(algo_id, params, run_result, slice(-1, None))[0])
    satisfied = realized <= bound + CERT_RTOL * (1.0 + abs(bound))
    return BoundCertificate(
        algo_id=algo_id, bound=bound, realized=realized, satisfied=satisfied, params=dict(params)
    )


def bound_prefix_series(algo_id, params, run_result) -> np.ndarray:
    """The guarantee evaluated at every prefix (one value per round)."""
    return _prefix_bounds(algo_id, params, run_result, slice(None))


def trace_product_check(g_mat: SymmetricMatrix, p: float, tol: float = 1e-9):
    """Check tr(G^{1/(p+1)}) tr(G^{p/(p+1)}) >= tr(G^{1/2})^2.

    Returns (ok, slack) with slack normalized by tr(G^{1/2})^2; the
    inequality is the reason p = 1 minimizes the spectrum-dependent part
    of the p-family guarantee.
    """
    if p <= 0:
        raise ValidationError(f"p must be positive, got {p}")
    lam = clamp_spectrum(np.linalg.eigvalsh(g_mat.mat))
    if np.any(lam < 0):
        raise DomainError("trace product check requires a positive-semidefinite matrix")
    lhs = float(np.sum(lam ** (1.0 / (p + 1.0)))) * float(np.sum(lam ** (p / (p + 1.0))))
    ref = float(np.sum(np.sqrt(lam))) ** 2
    slack = lhs - ref
    return slack >= -tol * max(ref, 1e-300), float(slack)


# ---------------------------------------------------------------------------
# Master regret decomposition at every prefix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem1Report:
    """Outcome of the prefix-wise regret-decomposition check."""

    ok: bool
    worst_margin: float
    final_lhs: float
    final_rhs: float
    n_refs: int


def theorem1_check(
    run_result,
    problem,
    x_refs: Optional[List[np.ndarray]] = None,
    n_random_refs: int = 20,
    seed: int = 0,
    tol: float = 1e-8,
) -> Theorem1Report:
    """Verify the master inequality at every prefix and many references.

    For each reference point x and every prefix length T':

        sum_{t<=T'} (f_t(x_t) - f_t(x)) <=
            1/2 (<G_T', H_T'> + Phi(H_T') - Phi(H_0)) + 1/2 sum_{t<=T'} Delta_t(x)

    with Delta_t the telescoping squared distances in the H_t^{-1} norm.
    References default to the run's best fixed comparator plus
    ``n_random_refs`` random feasible points.
    """
    horizon = run_result.horizon
    if x_refs is None:
        comparator, _ = best_fixed_comparator(problem, horizon)
        rng = np.random.default_rng(seed)
        x_refs = [comparator] + [problem.feasible_set.sample(rng) for _ in range(n_random_refs)]
    refs = np.asarray(x_refs, dtype=float)
    k = refs.shape[0]
    ref_losses = problem.losses(1, horizon + 1, refs)
    lhs_running = np.cumsum(run_result.losses[:, None] - ref_losses, axis=0)
    delta_running = np.cumsum(run_result.distance_terms(refs), axis=0)
    potential_term = run_result.ghs + run_result.phis - run_result.phi_h0
    rhs = 0.5 * potential_term[:, None] + 0.5 * delta_running
    worst = float(np.min((rhs - lhs_running) / (1.0 + np.abs(rhs))))
    final_lhs = float(np.max(lhs_running[-1]))
    final_rhs = float(np.min(rhs[-1]))
    return Theorem1Report(
        ok=worst >= -tol, worst_margin=worst, final_lhs=final_lhs, final_rhs=final_rhs, n_refs=k
    )
