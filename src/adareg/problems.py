"""Online problem families, comparators, and regret accounting.

Every problem draws its round-t data from a counter-based random stream
(seeded by ``(seed, t)``), so round t is reproducible without replaying
rounds 1..t-1.  All shipped families are linear or quadratic in the
decision variable, which lets the cumulative objective be collapsed to
closed-form coefficients and the best fixed comparator be computed
either exactly or by a short projected solve.

Families:

* ``adv-linear``: linear losses with adversarial sign patterns,
  f_t(x) = g_t . x with g_t a scaled random sign vector.  Gradients do
  not depend on the iterate (an oblivious stream).
* ``rot-quad``: quadratics 1/2 (x - z_t)' A_t (x - z_t) with randomly
  rotated curvature; strongly convex.
* ``sq-loss``: squared prediction losses (w_t . x - y_t)^2 on a ball;
  exp-concave because predictions are bounded.
* ``coord-sq``: sums of per-coordinate squared losses on a box;
  coordinatewise exp-concave.

Declared constants (gradient bound gamma, strong convexity alpha,
exp-concavity beta) are checked empirically at construction time with
sampled-pair inequality tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, ValidationError
from .linalg import SymmetricMatrix
from .sets import Ball, Box, FeasibleSet, minimize_quadratic_over_set, project

GRAD_NORM_SLACK = 1e-9
_VALIDATION_ROUNDS = 32


def _sample_inequality(f, penalty, fset, n_samples, rng, tol):
    """Shared loop: first-order gap must dominate the curvature penalty.

    Checks f(x) - f(y) <= grad_f(x) . (x - y) - penalty(grad, x - y) over
    sampled pairs.  Returns (ok, witness) where witness is the violating
    pair, if any.
    """
    for _ in range(n_samples):
        x = fset.sample(rng)
        y = fset.sample(rng)
        fx, gx = f(x)
        fy, _ = f(y)
        lhs = fx - fy
        rhs = float(gx @ (x - y)) - penalty(gx, x - y)
        if lhs - rhs > tol * (1.0 + abs(rhs)):
            return False, (x, y)
    return True, None


def check_strongly_convex(f, alpha, fset, n_samples=1000, rng=None, tol=1e-9):
    """Sampled test of the strong-convexity inequality with modulus alpha."""
    rng = rng if rng is not None else np.random.default_rng(0)
    ok, _ = _sample_inequality(
        f, lambda g, d: 0.5 * alpha * float(d @ d), fset, n_samples, rng, tol
    )
    return ok


def check_exp_concave(f, beta, fset, n_samples=1000, rng=None, tol=1e-9):
    """Sampled test of exp-concavity in the first-order (gradient) form."""
    rng = rng if rng is not None else np.random.default_rng(0)
    ok, _ = _sample_inequality(
        f, lambda g, d: 0.5 * beta * float(g @ d) ** 2, fset, n_samples, rng, tol
    )
    return ok


def check_coordinatewise_exp_concave(f, beta, fset, n_samples=1000, rng=None, tol=1e-9):
    """Sampled test of the coordinatewise (entrywise-squared) variant."""
    rng = rng if rng is not None else np.random.default_rng(0)
    ok, _ = _sample_inequality(
        f, lambda g, d: 0.5 * beta * float((g * g) @ (d * d)), fset, n_samples, rng, tol
    )
    return ok


class OnlineProblem:
    """Base class: a seeded stream of convex losses over a feasible set."""

    problem_id = "base"
    oblivious = False

    def __init__(self, dim, seed, feasible_set, gamma, alpha=None, beta=None, beta_coo=None):
        if dim < 1:
            raise ValidationError(f"dimension must be positive, got {dim}")
        if feasible_set.dim != dim:
            raise ValidationError("feasible set dimension does not match the problem")
        self.dim = int(dim)
        self.seed = int(seed)
        self.feasible_set = feasible_set
        self.gamma = float(gamma)
        self.alpha = alpha
        self.beta = beta
        self.beta_coo = beta_coo

    def round_rng(self, t: int) -> np.random.Generator:
        if t < 1:
            raise ValidationError(f"rounds are numbered from 1, got {t}")
        return np.random.default_rng([self.seed, t])

    def loss_and_gradient(self, t: int, x: np.ndarray) -> Tuple[float, np.ndarray]:
        raise NotImplementedError

    def loss(self, t: int, x: np.ndarray) -> float:
        return self.loss_and_gradient(t, x)[0]

    def round_loss_fn(self, t: int) -> Callable:
        return lambda x: self.loss_and_gradient(t, x)

    def cumulative_quadratic(self, horizon: int):
        """Coefficients (A, b, c) with sum_{t<=T} f_t(x) = 1/2 x'Ax + b'x + c."""
        raise NotImplementedError

    def validate_constants(self, n_samples=1000):
        """Empirically confirm the declared constants on sampled rounds and pairs."""
        rng = np.random.default_rng([self.seed, 0xC0FFEE])
        per_round = max(1, n_samples // _VALIDATION_ROUNDS)
        for _ in range(_VALIDATION_ROUNDS):
            t = int(rng.integers(1, 4 * _VALIDATION_ROUNDS))
            f = self.round_loss_fn(t)
            for _ in range(per_round):
                x = self.feasible_set.sample(rng)
                g = f(x)[1]
                if float(np.linalg.norm(g)) > self.gamma + GRAD_NORM_SLACK:
                    raise ValidationError(
                        f"{self.problem_id}: gradient norm {np.linalg.norm(g):.6f} "
                        f"exceeds declared gamma {self.gamma}"
                    )
            if self.alpha is not None and not check_strongly_convex(
                f, self.alpha, self.feasible_set, per_round, rng
            ):
                raise ValidationError(f"{self.problem_id}: declared alpha failed at round {t}")
            if self.beta is not None and not check_exp_concave(
                f, self.beta, self.feasible_set, per_round, rng
            ):
                raise ValidationError(f"{self.problem_id}: declared beta failed at round {t}")
            if self.beta_coo is not None and not check_coordinatewise_exp_concave(
                f, self.beta_coo, self.feasible_set, per_round, rng
            ):
                raise ValidationError(f"{self.problem_id}: declared beta_coo failed at round {t}")


class AdvLinearProblem(OnlineProblem):
    """Adversarial-sign linear losses f_t(x) = g_t . x, |g_t| = gamma."""

    problem_id = "adv-linear"
    oblivious = True

    def __init__(self, dim, seed, feasible_set, gamma=1.0):
        super().__init__(dim, seed, feasible_set, gamma=gamma)
        if not (gamma > 0 and np.isfinite(gamma)):
            raise ValidationError(f"gamma must be positive and finite, got {gamma}")

    def gradient_of_round(self, t):
        rng = self.round_rng(t)
        signs = rng.integers(0, 2, size=self.dim) * 2 - 1
        return (self.gamma / np.sqrt(self.dim)) * signs

    def loss_and_gradient(self, t, x):
        g = self.gradient_of_round(t)
        return float(g @ x), g

    def cumulative_quadratic(self, horizon):
        b = np.zeros(self.dim)
        for t in range(1, horizon + 1):
            b += self.gradient_of_round(t)
        return np.zeros((self.dim, self.dim)), b, 0.0


class RotQuadProblem(OnlineProblem):
    """Randomly rotated quadratics 1/2 (x - z_t)' A_t (x - z_t).

    Eigenvalues of A_t lie in [alpha, alpha * kappa] and z_t is drawn
    from the (bounded) feasible set, so gradients are bounded by
    alpha * kappa times the set diameter.
    """

    problem_id = "rot-quad"

    def __init__(self, dim, seed, feasible_set, alpha=0.5, kappa=4.0):
        if not feasible_set.is_bounded():
            raise ValidationError("rot-quad requires a bounded feasible set")
        if not (alpha > 0 and kappa >= 1.0):
            raise ValidationError("rot-quad needs alpha > 0 and kappa >= 1")
        diameter = feasible_set.diameter("euclidean")
        gamma = alpha * kappa * diameter
        super().__init__(dim, seed, feasible_set, gamma=gamma, alpha=alpha)
        self.kappa = float(kappa)

    def round_data(self, t):
        rng = self.round_rng(t)
        q, _ = np.linalg.qr(rng.standard_normal((self.dim, self.dim)))
        lam = rng.uniform(self.alpha, self.alpha * self.kappa, size=self.dim)
        a = q @ (lam[:, None] * q.T)
        a = (a + a.T) / 2.0
        z = self.feasible_set.sample(rng)
        return a, z

    def loss_and_gradient(self, t, x):
        a, z = self.round_data(t)
        v = x - z
        return 0.5 * float(v @ a @ v), a @ v

    def cumulative_quadratic(self, horizon):
        d = self.dim
        a_sum = np.zeros((d, d))
        b_sum = np.zeros(d)
        c_sum = 0.0
        for t in range(1, horizon + 1):
            a, z = self.round_data(t)
            a_sum += a
            b_sum -= a @ z
            c_sum += 0.5 * float(z @ a @ z)
        return a_sum, b_sum, c_sum


class SqLossProblem(OnlineProblem):
    """Squared prediction losses (w_t . x - y_t)^2 on a ball.

    The labels carry a learnable signal: y_t = w_t . x_true + noise with
    x_true a seed-fixed point at target_scale times the radius and noise
    uniform in [-y_scale, y_scale].  With |w_t| <= w_scale and the ball
    bounding |x| <= reach, predictions satisfy |w . x - y| <= m where
    m = w_scale * reach + max|y|, which makes the loss exp-concave with
    beta = 1 / (2 m^2) and gradients bounded by gamma = 2 m w_scale.
    """

    problem_id = "sq-loss"
    oblivious = False

    def __init__(
        self, dim, seed, feasible_set, w_scale=1.0, y_scale=0.05, target_scale=0.7
    ):
        if not isinstance(feasible_set, Ball):
            raise ValidationError("sq-loss requires a ball feasible set")
        if not (w_scale > 0 and y_scale >= 0):
            raise ValidationError("sq-loss needs w_scale > 0 and y_scale >= 0")
        if not 0.0 <= target_scale <= 1.0:
            raise ValidationError("sq-loss needs target_scale in [0, 1]")
        reach = float(np.linalg.norm(feasible_set.center)) + feasible_set.radius
        direction = np.random.default_rng([seed, 0xFACE]).standard_normal(dim)
        direction /= max(np.linalg.norm(direction), 1e-300)
        x_true = feasible_set.center + target_scale * feasible_set.radius * direction
        y_bound = w_scale * float(np.linalg.norm(x_true)) + y_scale
        m = w_scale * reach + y_bound
        super().__init__(
            dim, seed, feasible_set, gamma=2.0 * m * w_scale, beta=1.0 / (2.0 * m**2)
        )
        self.w_scale = float(w_scale)
        self.y_scale = float(y_scale)
        self.target = x_true
        self.margin = m

    def round_data(self, t):
        rng = self.round_rng(t)
        w = rng.standard_normal(self.dim)
        w *= self.w_scale * rng.uniform(0.5, 1.0) / max(np.linalg.norm(w), 1e-300)
        y = float(w @ self.target) + rng.uniform(-self.y_scale, self.y_scale)
        return w, y

    def loss_and_gradient(self, t, x):
        w, y = self.round_data(t)
        r = float(w @ x) - y
        return r * r, 2.0 * r * w

    def cumulative_quadratic(self, horizon):
        d = self.dim
        a_sum = np.zeros((d, d))
        b_sum = np.zeros(d)
        c_sum = 0.0
        for t in range(1, horizon + 1):
            w, y = self.round_data(t)
            a_sum += 2.0 * np.outer(w, w)
            b_sum -= 2.0 * y * w
            c_sum += y * y
        return a_sum, b_sum, c_sum


class CoordSqProblem(OnlineProblem):
    """Separable per-coordinate squared losses sum_i (w_ti x_i - y_ti)^2 on a box."""

    problem_id = "coord-sq"
    oblivious = False

    def __init__(self, dim, seed, feasible_set, y_scale=0.5):
        if not isinstance(feasible_set, Box):
            raise ValidationError("coord-sq requires a box feasible set")
        reach = np.maximum(np.abs(feasible_set.lower), np.abs(feasible_set.upper))
        margins = reach + y_scale
        gamma = 2.0 * float(np.linalg.norm(margins))
        super().__init__(
            dim,
            seed,
            feasible_set,
            gamma=gamma,
            beta_coo=1.0 / (2.0 * float(np.max(margins)) ** 2),
        )
        self.y_scale = float(y_scale)
        self.margins = margins

    def round_data(self, t):
        rng = self.round_rng(t)
        w = rng.uniform(-1.0, 1.0, size=self.dim)
        y = rng.uniform(-self.y_scale, self.y_scale, size=self.dim)
        return w, y

    def loss_and_gradient(self, t, x):
        w, y = self.round_data(t)
        r = w * x - y
        return float(r @ r), 2.0 * w * r

    def cumulative_quadratic(self, horizon):
        d = self.dim
        a_diag = np.zeros(d)
        b_sum = np.zeros(d)
        c_sum = 0.0
        for t in range(1, horizon + 1):
            w, y = self.round_data(t)
            a_diag += 2.0 * w * w
            b_sum -= 2.0 * w * y
            c_sum += float(y @ y)
        return np.diag(a_diag), b_sum, c_sum


PROBLEM_FAMILIES = {
    "adv-linear": AdvLinearProblem,
    "rot-quad": RotQuadProblem,
    "sq-loss": SqLossProblem,
    "coord-sq": CoordSqProblem,
}


def make_problem(problem_id, dim, seed, feasible_set, validate=True, **params):
    """Construct a registered problem and validate its declared constants."""
    try:
        cls = PROBLEM_FAMILIES[problem_id]
    except KeyError:
        known = ", ".join(sorted(PROBLEM_FAMILIES))
        raise ValidationError(f"unknown problem {problem_id!r}; known: {known}") from None
    problem = cls(dim, seed, feasible_set, **params)
    if validate:
        problem.validate_constants()
    return problem


def best_fixed_comparator(problem, horizon, fset=None, gap_tol=1e-8):
    """The best fixed feasible point in hindsight, plus a flatness flag.

    Returns ``(x_star, flat)``.  ``flat`` is True when the cumulative
    objective is constant to working precision (so every feasible point
    is a comparator).  Exact closed forms are used for the linear and
    positive-definite quadratic cases; singular quadratics fall back to
    an accelerated projected-gradient solve with objective gap at most
    ``gap_tol``.
    """
    fset = fset if fset is not None else problem.feasible_set
    a_mat, b_vec, _ = problem.cumulative_quadratic(horizon)
    grad_scale = 1.0 + horizon * problem.gamma
    if not np.any(a_mat):
        if float(np.linalg.norm(b_vec)) <= 1e-12 * grad_scale:
            return fset.center_point(), True
        if isinstance(fset, Ball):
            direction = b_vec / np.linalg.norm(b_vec)
            return fset.center - fset.radius * direction, False
        if isinstance(fset, Box):
            return np.where(b_vec > 0, fset.lower, fset.upper), False
        raise DomainError("linear objective has no minimizer over an unbounded set")
    lam = np.linalg.eigvalsh(a_mat)
    if lam[0] > 1e-10 * max(lam[-1], 1.0):
        x_hat = np.linalg.solve(a_mat, -b_vec)
        if fset.contains(x_hat, tol=1e-12):
            return x_hat, False
        return project(x_hat, fset, SymmetricMatrix(a_mat)), False
    x_star = minimize_quadratic_over_set(
        a_mat, b_vec, fset, gap_tol=gap_tol, max_iter=100_000, residual_tol=None
    )
    return x_star, False


@dataclass
class RegretRecord:
    """Per-round regret accounting for one run against a fixed comparator.

    ``deltas`` are the telescoping distance terms
    |x_t - x*|^2 - |x_{t+1} - x*|^2 measured in the round's inverse-
    regularizer norm (zero on deferred rounds).
    """

    x_star: np.ndarray
    losses: np.ndarray
    comparator_losses: np.ndarray
    cum_regret: np.ndarray
    deltas: np.ndarray
    bound_value: Optional[float] = None

    @property
    def final_regret(self) -> float:
        return float(self.cum_regret[-1])


def regret(run_result, problem, x_star) -> RegretRecord:
    """Assemble the regret record of a finished run against ``x_star``."""
    x_star = np.asarray(x_star, dtype=float)
    horizon = run_result.horizon
    comparator_losses = np.array([problem.loss(t, x_star) for t in range(1, horizon + 1)])
    cum_regret = np.cumsum(run_result.losses - comparator_losses)
    deltas = run_result.distance_terms(x_star)
    return RegretRecord(
        x_star=x_star,
        losses=run_result.losses.copy(),
        comparator_losses=comparator_losses,
        cum_regret=cum_regret,
        deltas=deltas,
    )


def online_to_batch(run_result) -> np.ndarray:
    """Uniform average of the played iterates x_1 .. x_T."""
    return np.mean(run_result.xs[:-1], axis=0)
