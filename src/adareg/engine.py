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

A run records the full trajectory: iterates, gradients, losses, the
regularizer sequence and the per-round potential values, which is what
the verification oracles consume.  The projection metric and the
distance terms reported for analysis both use ``H_t^{-1}``.

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
    or ``None`` while deferred.
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


def _solve_or_defer(config: AdaRegConfig, acc: Accumulator) -> Optional[RegularizerSolution]:
    """Regularizer for the current accumulator, or None when deferred."""
    if config.domain is RegularizerDomain.ISOTROPIC and acc.trace <= 0.0:
        return None
    return solve_regularizer(config.potential, acc, config.domain)


def init(config: AdaRegConfig) -> AdaRegState:
    """Initial state: iterate x1 and the regularizer induced by g0 (if any).

    A singular ``g0`` is tolerated only for potentials whose value
    vanishes in the large-regularizer limit; the log-determinant family
    raises a configuration error because its bookkeeping term diverges.
    """
    acc = accumulator_for(config.domain, config.g0)
    try:
        solution = _solve_or_defer(config, acc)
    except SingularMatrixError as exc:
        if math.isinf(config.potential.phi_limit_at_inf):
            raise ConfigError(
                "singular g0 is not admissible for the log-determinant potential; "
                "seed the accumulator with epsilon * I"
            ) from exc
        solution = None
    return AdaRegState(t=0, x=config.x1, accumulator=acc, solution=solution, config=config)


def step(state: AdaRegState, g: np.ndarray) -> AdaRegState:
    """One round: fold g into the accumulator, reselect H, take the projected step."""
    config = state.config
    g = np.asarray(g, dtype=float)
    acc = state.accumulator.add(g)
    solution = _solve_or_defer(config, acc)
    x_next = state.x
    if solution is not None:
        x_next = project(state.x - solution.apply(g), config.feasible_set, solution.metric)
    return AdaRegState(t=state.t + 1, x=x_next, accumulator=acc, solution=solution, config=config)


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
    round t and ``xs[T]`` the final post-update point.  ``hs`` and
    ``h_invs`` hold the regularizer and its inverse per round (NaN rows
    while deferred, flagged in ``h_defined``).  ``phis`` and ``ghs``
    record ``Phi(H_t)`` and ``<G_t, H_t>``; ``g_spectra`` holds the
    spectrum of the accumulator as seen by the regularizer domain
    (eigenvalues, diagonal entries, or the mean eigenvalue replicated).
    """

    config: AdaRegConfig
    xs: np.ndarray
    gradients: np.ndarray
    losses: np.ndarray
    hs: np.ndarray
    h_invs: np.ndarray
    h_defined: np.ndarray
    phis: np.ndarray
    ghs: np.ndarray
    g_spectra: np.ndarray
    phi_h0: float
    final_state: AdaRegState = field(repr=False)

    @property
    def horizon(self) -> int:
        return self.losses.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

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
    state = init(config)
    phi_h0 = state.solution.phi_h if state.solution is not None else 0.0
    xs = np.empty((horizon + 1, d))
    gradients = np.empty((horizon, d))
    losses = np.empty(horizon)
    hs = np.zeros((horizon, d, d))
    h_invs = np.zeros((horizon, d, d))
    # Row-by-row views of the diagonals, where diagonal regularizers are written.
    hs_diag = hs.reshape(horizon, d * d)[:, :: d + 1]
    h_invs_diag = h_invs.reshape(horizon, d * d)[:, :: d + 1]
    h_defined = np.zeros(horizon, dtype=bool)
    phis = np.zeros(horizon)
    ghs = np.zeros(horizon)
    g_spectra = np.zeros((horizon, d))
    xs[0] = state.x
    for t in range(1, horizon + 1):
        loss, g = problem.loss_and_gradient(t, state.x)
        state = step(state, g)
        i = t - 1
        losses[i] = loss
        gradients[i] = g
        xs[t] = state.x
        solution = state.solution
        if solution is None:
            hs[i] = np.nan
            h_invs[i] = np.nan
            continue
        h_defined[i] = True
        if solution.basis is None:
            hs_diag[i] = solution.h_spectrum
            h_invs_diag[i] = solution.h_inv_spectrum
        else:
            hs[i] = solution.dense()
            h_invs[i] = solution.dense(inverse=True)
        phis[i] = solution.phi_h
        ghs[i] = solution.g_dot_h
        g_spectra[i] = solution.g_spectrum
    return RunResult(
        config=config,
        xs=xs,
        gradients=gradients,
        losses=losses,
        hs=hs,
        h_invs=h_invs,
        h_defined=h_defined,
        phis=phis,
        ghs=ghs,
        g_spectra=g_spectra,
        phi_h0=phi_h0,
        final_state=state,
    )
