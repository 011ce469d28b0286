"""The adaptive-regularization online learning loop.

Each round the engine accumulates the outer product of the observed
gradient into a matrix ``G_t``, selects the regularizer ``H_t`` that
minimizes ``<G_t, H> + Phi(H)`` over the configured matrix domain, and
takes a projected step

    x_{t+1} = Pi_X( x_t - H_t g_t )           (projection in the H_t^{-1} norm).

The state keeps ``G_t`` only as far as its domain reads it (see
:class:`adareg.potentials.Accumulator`).  The diagonal domain keeps a
d-vector and the isotropic domain a scalar trace: their rounds step with
``h * g`` or ``s * g`` and project by a clip, a radial scaling or a
bisection on the diagonal metric, and never form a d x d matrix.  The
full domain keeps the dense ``G_t`` and does one eigendecomposition per
round; ``H_t``, ``H_t^{-1}`` and the ball or box projection all reuse
its eigenvectors.  Dense ``SymmetricMatrix`` views of ``G_t`` and
``H_t`` are built only when a caller asks for them.

``step`` and ``run`` share one round rule, a kernel that owns a mutable
accumulator and updates it in place (``diag += g*g``, ``trace += g.g``
or ``G += g g'``); ``step`` runs one kernel round on a copy of its
state, so a state is never changed once handed out.  Each fact is checked
where it can first fail:

* every round: the gradient has the right shape and is finite, by one
  reduction, |g|^2, whose running sum also keeps ``G_t`` finite;
* once, at the first solve that succeeds: positivity of a diagonal or
  isotropic accumulator, which only grows afterwards;
* every solve, in the full domain only: the round-off clamp and the
  positivity of the freshly computed spectrum of ``G_t``.

Each round still calls :func:`adareg.potentials.solve_regularizer` and
:func:`adareg.sets.project` through this module's names.  After a round
the kernel exposes the solve (the spectrum of ``H_t`` and, in the full
domain, its basis), whether the projection moved the point, and the new
iterate; a run counts projection activations and deferred rounds from
that.

A run records the full trajectory: iterates, gradients, losses, the
per-round potential values and ``H_t`` in the form the solve produced
it, its spectrum plus (full domain only) its eigenbasis.  The
verification oracles read ``H_t`` through :meth:`RunResult.sq_norms` and
:meth:`RunResult.distance_terms`, so only this module knows the history
format.  The projection metric and the distance terms reported for
analysis both use ``H_t^{-1}``.

A degenerate start with ``G_0 = 0`` is allowed when the potential's
value vanishes for arbitrarily large regularizers (the inverse-trace and
inverse-power families): the regularizer stays undefined, and rounds
with zero accumulated trace replay the current iterate, until the first
nonzero gradient arrives.  The log-determinant potential has no such
limit and requires a positive-definite ``G_0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, SingularMatrixError, ValidationError
from .linalg import SymmetricMatrix, min_eigenvalue
from .potentials import (
    Accumulator,
    RegularizerDomain,
    RegularizerSolution,
    SpectralPotential,
    accumulator_for,
    solve_regularizer,
)
from .sets import FeasibleSet, Unconstrained, minimize_quadratic_over_set, project


@dataclass(frozen=True)
class AdaRegConfig:
    """Immutable description of one algorithm instance.

    ``g0`` seeds the gradient accumulator; when ``epsilon`` is positive it
    must be ``epsilon * I`` (or ``epsilon / d * I`` for the isotropic
    strongly-convex preset).  ``x1`` must lie in the feasible set.
    """

    potential: SpectralPotential
    domain: RegularizerDomain
    feasible_set: FeasibleSet
    x1: np.ndarray
    g0: SymmetricMatrix
    epsilon: float = 0.0

    def __post_init__(self):
        x1 = np.asarray(self.x1, dtype=float)
        d = self.feasible_set.dim
        if x1.shape != (d,) or not np.all(np.isfinite(x1)):
            raise ConfigError(f"x1 must be a finite vector of length {d}")
        x1 = x1.copy()
        x1.setflags(write=False)
        object.__setattr__(self, "x1", x1)
        if not self.feasible_set.contains(x1, tol=1e-9):
            raise ConfigError("x1 lies outside the feasible set")
        if self.g0.dim != d:
            raise ConfigError(f"g0 has dimension {self.g0.dim}, expected {d}")
        if min_eigenvalue(self.g0) < -1e-10:
            raise ConfigError("g0 must be positive semidefinite")
        if not (self.epsilon >= 0.0 and math.isfinite(self.epsilon)):
            raise ConfigError(f"epsilon must be nonnegative and finite, got {self.epsilon}")
        if self.epsilon > 0.0:
            for scale in (self.epsilon, self.epsilon / d):
                if np.allclose(self.g0.mat, scale * np.eye(d), rtol=0.0, atol=1e-12 * (1 + scale)):
                    break
            else:
                raise ConfigError(
                    "with epsilon > 0, g0 must be epsilon * I (or epsilon / d * I "
                    "for the isotropic strongly-convex preset)"
                )

    @property
    def dim(self) -> int:
        return self.feasible_set.dim


@dataclass(frozen=True)
class AdaRegState:
    """Snapshot after round t: the iterate to play next and the accumulators.

    ``accumulator`` holds G_t in its domain's form and ``solution`` the
    regularizer solved from it, ``None`` while deferred (degenerate start
    with zero accumulated gradient mass).  ``g_mat`` and ``h_mat`` build
    dense matrices when accessed.  ``g_mat`` is the accumulator as the
    domain sees it: G_t for the full domain, ``diag(G_t)`` for the diagonal
    one and ``(tr G_t / d) * I`` for the isotropic one.  ``h_mat`` is H_t,
    or ``None`` while deferred.  The accumulator object is mutable, but no
    round folds into one that a state holds.
    """

    t: int
    x: np.ndarray
    accumulator: Accumulator
    solution: Optional[RegularizerSolution]
    config: AdaRegConfig

    @property
    def g_mat(self) -> SymmetricMatrix:
        return self.accumulator.matrix()

    @property
    def h_mat(self) -> Optional[SymmetricMatrix]:
        return None if self.solution is None else self.solution.h


class _Kernel:
    """One round loop's mutable state: the rule ``step`` and ``run`` share.

    The kernel owns a copy of its starting state's accumulator and folds
    each gradient into it in place, so no state handed out is ever
    changed.  A round checks the gradient's shape and finiteness (one
    reduction, in :meth:`Accumulator.fold`); positivity of a diagonal or
    isotropic accumulator is checked by its first successful solve and
    holds from then on.  After ``round`` the kernel exposes the round's
    outcome: ``solution`` (the spectrum ``h_spectrum`` of H_t and, in the
    full domain, its ``basis``; ``None`` while deferred), ``projected``
    (whether the projection moved the point) and ``x``, the new iterate.
    """

    __slots__ = ("config", "t", "x", "acc", "solution", "projected")

    def __init__(self, state: AdaRegState):
        self.config = state.config
        self.t = state.t
        self.x = state.x
        self.acc = state.accumulator.copy()
        self.solution = state.solution
        self.projected = False

    def round(self, g) -> None:
        """Fold g into G, reselect H, take the projected step."""
        config = self.config
        g = np.asarray(g, dtype=float)
        acc = self.acc
        acc.fold(g)
        self.t += 1
        self.projected = False
        if acc.deferred:
            self.solution = None
            return
        solution = solve_regularizer(config.potential, acc, config.domain)
        moved = self.x - solution.apply(g)
        x = project(moved, config.feasible_set, solution.metric)
        self.solution = solution
        self.projected = x is not moved
        self.x = x

    def state(self) -> AdaRegState:
        return AdaRegState(
            t=self.t, x=self.x, accumulator=self.acc, solution=self.solution, config=self.config
        )


def init(config: AdaRegConfig) -> AdaRegState:
    """Initial state: iterate x1 and the regularizer induced by g0 (if any).

    A singular ``g0`` is tolerated only for potentials whose value
    vanishes in the large-regularizer limit; the log-determinant family
    raises a configuration error because its bookkeeping term diverges.
    """
    acc = accumulator_for(config.domain, config.g0)
    solution = None
    if not acc.deferred:
        try:
            solution = solve_regularizer(config.potential, acc, config.domain)
        except SingularMatrixError as exc:
            if math.isinf(config.potential.phi_limit_at_inf):
                raise ConfigError(
                    "singular g0 is not admissible for the log-determinant potential; "
                    "seed the accumulator with epsilon * I"
                ) from exc
    return AdaRegState(t=0, x=config.x1, accumulator=acc, solution=solution, config=config)


def step(state: AdaRegState, g: np.ndarray) -> AdaRegState:
    """One round: fold g into the accumulator, reselect H, take the projected step.

    The round runs on a copy, so ``state`` is left as it was.
    """
    kernel = _Kernel(state)
    kernel.round(g)
    return kernel.state()


def mirror_step_argmin(
    x: np.ndarray,
    g: np.ndarray,
    h: SymmetricMatrix,
    fset: FeasibleSet,
    gap_tol: float = 1e-10,
    max_iter: int = 50_000,
) -> np.ndarray:
    """The update written as a regularized minimization, solved numerically.

    Minimizes ``g . z + 1/2 |z - x|^2_{H^{-1}}`` over the set by projected
    gradient, independent of the closed-form projection path, so the two
    update forms can be cross-checked.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if isinstance(fset, Unconstrained):
        return x - h.mat @ g
    lam = np.linalg.eigvalsh(h.mat)
    if lam[0] <= 0.0:
        raise ValidationError("mirror step requires a positive definite regularizer")
    h_inv = np.linalg.inv(h.mat)
    h_inv = (h_inv + h_inv.T) / 2.0
    a_mat = h_inv
    b_vec = g - h_inv @ x
    x0 = fset.euclidean_project(x - h.mat @ g)
    return minimize_quadratic_over_set(
        a_mat, b_vec, fset, x0=x0, gap_tol=gap_tol, max_iter=max_iter
    )


@dataclass
class RunResult:
    """Complete trajectory of one run over a fixed horizon.

    Arrays are indexed by round: ``xs[t-1]`` is the iterate played at
    round t and ``xs[T]`` the final post-update point.  ``H_t`` is kept as
    the solve produced it: ``h_spectra`` (T, d) holds its eigenvalues, and
    ``h_bases`` (T, d, d) the matching eigenvector columns in the full
    domain only; elsewhere ``H_t`` is diagonal, ``h_spectra`` is its
    diagonal and ``h_bases`` is ``None``.  ``H_t^{-1}`` is ``1 / h_spectra``
    in the same basis.  Rows of ``h_spectra`` are NaN while deferred,
    flagged in ``h_defined``.  ``hs`` builds the dense (T, d, d) sequence
    on access.  ``phis`` and ``ghs`` record ``Phi(H_t)`` and
    ``<G_t, H_t>``; ``g_spectra`` holds the spectrum of the accumulator as
    seen by the regularizer domain (eigenvalues, diagonal entries, or the
    mean eigenvalue replicated).  ``projection_active`` counts the rounds
    whose projection moved the point and ``deferred_rounds`` the rounds
    played while the regularizer was undefined; both are plain ints.
    """

    config: AdaRegConfig
    xs: np.ndarray
    gradients: np.ndarray
    losses: np.ndarray
    h_spectra: np.ndarray
    h_bases: Optional[np.ndarray]
    h_defined: np.ndarray
    phis: np.ndarray
    ghs: np.ndarray
    g_spectra: np.ndarray
    phi_h0: float
    final_state: AdaRegState = field(repr=False)
    projection_active: int = 0
    deferred_rounds: int = 0

    @property
    def horizon(self) -> int:
        return self.losses.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

    @property
    def hs(self) -> np.ndarray:
        """H_t per round as a dense (T, d, d) array, all-NaN rows while deferred."""
        basis = np.eye(self.dim) if self.h_bases is None else self.h_bases
        return np.einsum("...ij,...j,...kj->...ik", basis, self.h_spectra, basis)

    def sq_norms(self, v: np.ndarray, inverse: bool = False) -> np.ndarray:
        """v_t' H_t v_t (or v_t' H_t^{-1} v_t) per round for a (T, d) array; 0 while deferred."""
        if self.h_bases is not None:
            v = np.einsum("tij,ti->tj", self.h_bases, v)
        spectra = 1.0 / self.h_spectra if inverse else self.h_spectra
        return np.where(self.h_defined, np.einsum("ti,ti,ti->t", v, spectra, v), 0.0)

    def distance_terms(self, ref: np.ndarray) -> np.ndarray:
        """|x_t - ref|^2 - |x_{t+1} - ref|^2 in the H_t^{-1} norm, per round."""
        before = self.sq_norms(self.xs[:-1] - ref, inverse=True)
        return before - self.sq_norms(self.xs[1:] - ref, inverse=True)

    def sum_sq_gradients(self) -> np.ndarray:
        """Cumulative sum over rounds of |g_t|^2."""
        return np.cumsum(np.sum(self.gradients**2, axis=1))


def run(config: AdaRegConfig, problem, horizon: int) -> RunResult:
    """Play ``horizon`` rounds of the configured algorithm against a problem.

    ``problem`` must expose ``loss_and_gradient(t, x) -> (float, vector)``
    with rounds numbered from 1.  The run is deterministic given the
    configuration and the problem's seed.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be at least 1, got {horizon}")
    d = config.dim
    kernel = _Kernel(init(config))
    phi_h0 = kernel.solution.phi_h if kernel.solution is not None else 0.0
    xs = np.empty((horizon + 1, d))
    gradients = np.empty((horizon, d))
    losses = np.empty(horizon)
    h_spectra = np.full((horizon, d), np.nan)
    h_bases = np.zeros((horizon, d, d)) if config.domain is RegularizerDomain.FULL else None
    h_defined = np.zeros(horizon, dtype=bool)
    phis = np.zeros(horizon)
    ghs = np.zeros(horizon)
    g_spectra = np.zeros((horizon, d))
    projection_active = 0
    deferred_rounds = 0
    xs[0] = kernel.x
    for t in range(1, horizon + 1):
        loss, g = problem.loss_and_gradient(t, kernel.x)
        kernel.round(g)
        i = t - 1
        losses[i] = loss
        gradients[i] = g
        xs[t] = kernel.x
        solution = kernel.solution
        if solution is None:
            deferred_rounds += 1
            continue
        projection_active += kernel.projected
        h_defined[i] = True
        h_spectra[i] = solution.h_spectrum
        if h_bases is not None:
            h_bases[i] = solution.basis
        phis[i] = solution.phi_h
        ghs[i] = solution.g_dot_h
        g_spectra[i] = solution.g_spectrum
    return RunResult(
        config=config,
        xs=xs,
        gradients=gradients,
        losses=losses,
        h_spectra=h_spectra,
        h_bases=h_bases,
        h_defined=h_defined,
        phis=phis,
        ghs=ghs,
        g_spectra=g_spectra,
        phi_h0=phi_h0,
        final_state=kernel.state(),
        projection_active=projection_active,
        deferred_rounds=deferred_rounds,
    )
