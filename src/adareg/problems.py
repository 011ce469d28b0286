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

Round data does not depend on the iterate, so it is drawn in blocks:
``round_block(t0, t1)`` returns a family's factors stacked over the
rounds t0 <= t < t1 (the gradients g for ``adv-linear``, (A, z) for
``rot-quad``, (w, y) for ``sq-loss`` and ``coord-sq``).  Each round is
still drawn from its own ``round_rng(t)`` in the same order as a lone
draw, so the streams do not depend on how rounds are grouped; only
rot-quad's QR runs once per block.  Every reader of round data takes
blocks of at most :data:`BLOCK_ROUNDS` (64) rounds, a size set by
memory: the data a problem holds stays bounded whatever the horizon, and
small runs keep their peak memory.

* ``loss_and_gradient(t, x)``, the run's per-round oracle, reads row t of
  one cached, read-only block and draws the next block when t leaves it.
* ``cumulative_quadratic(T)`` sums each block's (A, b, c) for the
  comparator, and keeps the last sum, keyed by T.
* ``losses(t0, t1, points)`` returns the (n, k) losses at k points, which
  ``regret`` and ``oracles.theorem1_check`` read.  The families evaluate
  them in the factored forms 1/2 (x - z)' A (x - z) and (w . x - y)^2,
  which do not cancel when x is close to z.
* ``round_loss_fn(t)`` draws round t once for the constant checks.

Declared constants (gradient bound gamma, strong convexity alpha,
exp-concavity beta) are checked empirically at construction time with
sampled-pair inequality tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .errors import DomainError, ValidationError
from .linalg import SymmetricMatrix
from .sets import Ball, Box, minimize_quadratic_over_set, project

GRAD_NORM_SLACK = 1e-9
_VALIDATION_ROUNDS = 32
# Rounds per drawn block.  It bounds the round data a problem holds (64 d x d
# matrices for rot-quad) whatever the horizon.  Blocks are kept small because
# memory, not speed, sets the size: 32, 64 and 256 rounds ran scalar-d5 equally
# fast, but 256 raised the peak memory of `adareg verify` (about 0.29 MB) by
# 74%, while 64 left it and scalar-d5's peak unchanged.
BLOCK_ROUNDS = 64


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

    def losses(self, t0: int, t1: int, points: np.ndarray) -> np.ndarray:
        """f_t(p) for rounds t0 <= t < t1 and each row p of ``points``: an (n, k) array."""
        _block_length(t0, t1)
        return np.array([[self.loss(t, p) for p in points] for t in range(t0, t1)])

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


def _block_length(t0: int, t1: int) -> int:
    """Number of rounds in the block t0 <= t < t1, which must be a nonempty range from 1."""
    if t0 < 1:
        raise ValidationError(f"rounds are numbered from 1, got {t0}")
    if t1 <= t0:
        raise ValidationError(f"a block of rounds needs t1 > t0, got t0={t0}, t1={t1}")
    return t1 - t0


class BlockedProblem(OnlineProblem):
    """A family whose round data is drawn in blocks of rounds.

    A family defines ``round_block(t0, t1)``, its factors stacked over the
    rounds t0 <= t < t1 with round t drawn from ``round_rng(t)``, plus three
    kernels on those factors: ``_evaluate`` (loss and gradient of one
    round), ``_block_losses`` (losses at k points over a block) and
    ``_block_quadratic`` (a block's summed (A, b, c)).  Everything that reads
    round data goes through them, one block of at most
    :data:`BLOCK_ROUNDS` rounds at a time.  Each family also keeps its own
    one-line ``loss_and_gradient``, which ``perfbench/layers.py`` times per
    family.
    """

    _block_start: Optional[int] = None
    _block: Tuple[np.ndarray, ...] = ()
    _quadratic_horizon: Optional[int] = None
    _quadratic: Tuple = ()

    def blocks(self, t0: int, t1: int) -> Iterator[Tuple[np.ndarray, ...]]:
        """``round_block`` over t0 <= t < t1, at most BLOCK_ROUNDS rounds at a time."""
        _block_length(t0, t1)
        for start in range(t0, t1, BLOCK_ROUNDS):
            yield self.round_block(start, min(start + BLOCK_ROUNDS, t1))

    def round_data(self, t: int) -> List[np.ndarray]:
        """Round t's factors: read-only rows of the cached block that holds t.

        Blocks are aligned to multiples of BLOCK_ROUNDS, so a round reads the
        same data whatever order the rounds are asked for in.  The rows come
        as a list: ``tuple(<generator>)`` would fill CPython's free list of
        small tuples, up to 0.1 MB of the run's peak memory.
        """
        start = self._block_start
        if start is None or not start <= t < start + BLOCK_ROUNDS:
            if t < 1:
                raise ValidationError(f"rounds are numbered from 1, got {t}")
            start = t - (t - 1) % BLOCK_ROUNDS
            block = self.round_block(start, start + BLOCK_ROUNDS)
            for factor in block:
                factor.setflags(write=False)
            self._block, self._block_start = block, start
        i = t - start
        return [factor[i] for factor in self._block]

    def round_loss_fn(self, t: int) -> Callable:
        """(loss, gradient) of round t as a function of x, with the round drawn once."""
        return functools.partial(self._evaluate, [f[0] for f in self.round_block(t, t + 1)])

    def losses(self, t0, t1, points):
        points = np.asarray(points, dtype=float)
        return np.concatenate([self._block_losses(block, points) for block in self.blocks(t0, t1)])

    def cumulative_quadratic(self, horizon):
        """(A, b, c) over the first ``horizon`` rounds, as read-only arrays.

        The last result is kept, keyed by horizon, so a caller that asks
        again for the same horizon (a regret check, then the comparator)
        draws the rounds once.  It holds O(d^2) floats whatever the horizon.
        """
        if self._quadratic_horizon == horizon:
            return self._quadratic
        a_sum, b_sum, c_sum = np.zeros((self.dim, self.dim)), np.zeros(self.dim), 0.0
        for block in self.blocks(1, horizon + 1):
            a, b, c = self._block_quadratic(block)
            a_sum += a
            b_sum += b
            c_sum += c
        a_sum.setflags(write=False)
        b_sum.setflags(write=False)
        self._quadratic_horizon, self._quadratic = horizon, (a_sum, b_sum, c_sum)
        return self._quadratic


class AdvLinearProblem(BlockedProblem):
    """Adversarial-sign linear losses f_t(x) = g_t . x, |g_t| = gamma."""

    problem_id = "adv-linear"
    oblivious = True

    def __init__(self, dim, seed, feasible_set, gamma=1.0):
        super().__init__(dim, seed, feasible_set, gamma=gamma)
        if not (gamma > 0 and np.isfinite(gamma)):
            raise ValidationError(f"gamma must be positive and finite, got {gamma}")

    def round_block(self, t0, t1):
        """(g,) with g (n, d): gamma / sqrt(d) times a random sign vector per round."""
        bits = np.empty((_block_length(t0, t1), self.dim))
        for i, t in enumerate(range(t0, t1)):
            bits[i] = self.round_rng(t).integers(0, 2, size=self.dim)
        return ((self.gamma / np.sqrt(self.dim)) * (2.0 * bits - 1.0),)

    @staticmethod
    def _evaluate(data, x):
        (g,) = data
        return float(g @ x), g

    def loss_and_gradient(self, t, x):
        return self._evaluate(self.round_data(t), x)

    @staticmethod
    def _block_losses(block, points):
        (g,) = block
        return g @ points.T

    @staticmethod
    def _block_quadratic(block):
        (g,) = block
        return 0.0, g.sum(axis=0), 0.0


class RotQuadProblem(BlockedProblem):
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

    def round_block(self, t0, t1):
        """(A, z) with A (n, d, d) and z (n, d)."""
        n, d = _block_length(t0, t1), self.dim
        gauss, lam, z = np.empty((n, d, d)), np.empty((n, d)), np.empty((n, d))
        for i, t in enumerate(range(t0, t1)):
            rng = self.round_rng(t)
            gauss[i] = rng.standard_normal((d, d))
            lam[i] = rng.uniform(self.alpha, self.alpha * self.kappa, size=d)
            z[i] = self.feasible_set.sample(rng)
        # One stacked QR after the draws: it consumes no random numbers, so
        # every round's stream is the one a lone draw of that round reads.
        q, _ = np.linalg.qr(gauss)
        a = q @ (lam[:, :, None] * np.swapaxes(q, 1, 2))
        return (a + np.swapaxes(a, 1, 2)) / 2.0, z

    @staticmethod
    def _evaluate(data, x):
        a, z = data
        v = x - z
        return 0.5 * float(v @ a @ v), a @ v

    def loss_and_gradient(self, t, x):
        return self._evaluate(self.round_data(t), x)

    @staticmethod
    def _block_losses(block, points):
        a, z = block
        v = points[None, :, :] - z[:, None, :]
        return 0.5 * np.einsum("nkj,nkj->nk", v @ a, v)

    @staticmethod
    def _block_quadratic(block):
        a, z = block
        az = np.einsum("nij,nj->ni", a, z)
        return a.sum(axis=0), -az.sum(axis=0), 0.5 * float(np.einsum("ni,ni->", z, az))


class SqLossProblem(BlockedProblem):
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

    def round_block(self, t0, t1):
        """(w, y) with w (n, d) and y (n,)."""
        n = _block_length(t0, t1)
        w, y = np.empty((n, self.dim)), np.empty(n)
        for i, t in enumerate(range(t0, t1)):
            rng = self.round_rng(t)
            w_t = rng.standard_normal(self.dim)
            w_t *= self.w_scale * rng.uniform(0.5, 1.0) / max(np.linalg.norm(w_t), 1e-300)
            w[i] = w_t
            y[i] = float(w_t @ self.target) + rng.uniform(-self.y_scale, self.y_scale)
        return w, y

    @staticmethod
    def _evaluate(data, x):
        w, y = data
        r = float(w @ x - y)
        return r * r, 2.0 * r * w

    def loss_and_gradient(self, t, x):
        return self._evaluate(self.round_data(t), x)

    @staticmethod
    def _block_losses(block, points):
        w, y = block
        r = w @ points.T - y[:, None]
        return r * r

    @staticmethod
    def _block_quadratic(block):
        w, y = block
        return 2.0 * (w.T @ w), -2.0 * (y @ w), float(y @ y)


class CoordSqProblem(BlockedProblem):
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

    def round_block(self, t0, t1):
        """(w, y) with w (n, d) and y (n, d)."""
        n = _block_length(t0, t1)
        w, y = np.empty((n, self.dim)), np.empty((n, self.dim))
        for i, t in enumerate(range(t0, t1)):
            rng = self.round_rng(t)
            w[i] = rng.uniform(-1.0, 1.0, size=self.dim)
            y[i] = rng.uniform(-self.y_scale, self.y_scale, size=self.dim)
        return w, y

    @staticmethod
    def _evaluate(data, x):
        w, y = data
        r = w * x - y
        return float(r @ r), 2.0 * w * r

    def loss_and_gradient(self, t, x):
        return self._evaluate(self.round_data(t), x)

    @staticmethod
    def _block_losses(block, points):
        w, y = block
        r = w[:, None, :] * points[None, :, :] - y[:, None, :]
        return np.einsum("nkj,nkj->nk", r, r)

    @staticmethod
    def _block_quadratic(block):
        w, y = block
        return (
            np.diag(2.0 * np.einsum("ni,ni->i", w, w)),
            -2.0 * np.einsum("ni,ni->i", w, y),
            float(np.einsum("ni,ni->", y, y)),
        )


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
    comparator_losses: np.ndarray
    cum_regret: np.ndarray
    deltas: np.ndarray

    @property
    def final_regret(self) -> float:
        return float(self.cum_regret[-1])


def regret(run_result, problem, x_star) -> RegretRecord:
    """Assemble the regret record of a finished run against ``x_star``."""
    x_star = np.asarray(x_star, dtype=float)
    horizon = run_result.horizon
    comparator_losses = problem.losses(1, horizon + 1, x_star[None, :])[:, 0]
    cum_regret = np.cumsum(run_result.losses - comparator_losses)
    deltas = run_result.distance_terms(x_star)
    return RegretRecord(
        x_star=x_star,
        comparator_losses=comparator_losses,
        cum_regret=cum_regret,
        deltas=deltas,
    )


def online_to_batch(run_result) -> np.ndarray:
    """Uniform average of the played iterates x_1 .. x_T."""
    return np.mean(run_result.xs[:-1], axis=0)
