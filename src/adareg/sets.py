"""Feasible sets and projections in matrix-weighted norms.

The online algorithms project onto their feasible set under the norm
``|v|_H = sqrt(v^T H v)`` induced by the current regularizer.  Three set
shapes are supported:

* :class:`Unconstrained` (projection is the identity),
* :class:`Ball` (Euclidean ball; general weighted projection reduces to a
  Newton solve for one multiplier in the eigenbasis of H),
* :class:`Box` (axis-aligned; coordinatewise clip when H is diagonal, a
  projected-Newton solve otherwise).

The module also provides :func:`minimize_quadratic_over_set`, an
accelerated projected-gradient solver for convex quadratics over these
sets.  It is deliberately independent of the closed-form projection
routines so the two can be checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError
from .linalg import SpectralDecomposition, SymmetricMatrix, eig_sym

_INSIDE_RTOL = 1e-12
_BALL_MAX_STEPS = 50


class FeasibleSet:
    """Base class for the supported feasible-set shapes."""

    dim: int

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        raise NotImplementedError

    def diameter(self, norm: str = "euclidean") -> float:
        raise NotImplementedError

    def euclidean_project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A random feasible point (uniform for ball and box)."""
        raise NotImplementedError

    def center_point(self) -> np.ndarray:
        raise NotImplementedError

    def is_bounded(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Unconstrained(FeasibleSet):
    """All of R^d, optionally with a declared Euclidean diameter.

    The declared diameter is bookkeeping for regret-bound formulas; it is
    not enforced on iterates.  ``diameter`` returns it for either norm
    (it upper-bounds the infinity-norm diameter as well).
    """

    dim: int
    declared_euclidean_diameter: Optional[float] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dimension must be positive, got {self.dim}")
        d = self.declared_euclidean_diameter
        if d is not None and not (d > 0 and np.isfinite(d)):
            raise ValidationError(f"declared diameter must be positive and finite, got {d}")

    def contains(self, x, tol=1e-9):
        return np.asarray(x).shape == (self.dim,)

    def diameter(self, norm="euclidean"):
        if self.declared_euclidean_diameter is None:
            raise DomainError("unconstrained set has no declared diameter")
        return float(self.declared_euclidean_diameter)

    def euclidean_project(self, x):
        return np.asarray(x, dtype=float)

    def sample(self, rng):
        scale = 1.0
        if self.declared_euclidean_diameter is not None:
            scale = self.declared_euclidean_diameter / 4.0
        return scale * rng.standard_normal(self.dim)

    def center_point(self):
        return np.zeros(self.dim)

    def is_bounded(self):
        return False


@dataclass(frozen=True)
class Ball(FeasibleSet):
    """Euclidean ball {x : |x - center| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise ValidationError("ball center must be a finite 1-D vector")
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValidationError(f"ball radius must be positive and finite, got {self.radius}")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def contains(self, x, tol=1e-9):
        v = np.asarray(x, dtype=float) - self.center
        # sqrt(v . v) is how np.linalg.norm computes a vector's norm, without its dispatch
        return math.sqrt(float(v.dot(v))) <= self.radius + tol * max(1.0, self.radius)

    def diameter(self, norm="euclidean"):
        if norm not in ("euclidean", "infinity"):
            raise ValidationError(f"unknown norm {norm!r}")
        return 2.0 * self.radius

    def euclidean_project(self, x):
        x = np.asarray(x, dtype=float)
        v = x - self.center
        nrm = float(np.linalg.norm(v))
        if nrm <= self.radius:
            return x
        return self.center + (self.radius / nrm) * v

    def sample(self, rng):
        v = rng.standard_normal(self.dim)
        v /= max(np.linalg.norm(v), 1e-300)
        r = self.radius * rng.uniform() ** (1.0 / self.dim)
        return self.center + r * v

    def center_point(self):
        return self.center.copy()

    def is_bounded(self):
        return True


@dataclass(frozen=True)
class Box(FeasibleSet):
    """Axis-aligned box {x : lower <= x <= upper}.

    ``contains`` scales its tolerance by ``max(1, widest side)``, computed
    once at construction.
    """

    lower: np.ndarray
    upper: np.ndarray
    _scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
            raise ValidationError("box bounds must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValidationError("box bounds must be finite")
        if np.any(hi <= lo):
            raise ValidationError("box must have positive width in every coordinate")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "_scale", max(1.0, float((hi - lo).max())))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        band = tol * self._scale
        return bool(((x >= self.lower - band) & (x <= self.upper + band)).all())

    def diameter(self, norm="euclidean"):
        if norm == "euclidean":
            return float(np.linalg.norm(self.upper - self.lower))
        if norm == "infinity":
            return float(np.max(self.upper - self.lower))
        raise ValidationError(f"unknown norm {norm!r}")

    def euclidean_project(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def sample(self, rng):
        return rng.uniform(self.lower, self.upper)

    def center_point(self):
        return (self.lower + self.upper) / 2.0

    def is_bounded(self):
        return True


def project(x: np.ndarray, fset: FeasibleSet, h) -> np.ndarray:
    """Projection of x onto the set under the norm |v|_H, H positive definite.

    ``h`` is the metric H in one of three forms: a :class:`SymmetricMatrix`;
    its :class:`SpectralDecomposition`, so a caller that already holds the
    eigenbasis (the engine's full-domain rounds) saves a second one; or a
    1-D array holding the entries of a diagonal metric.  Points already in
    the set are returned unchanged.  The result minimizes ``|x' - x|_H``
    over the set to an objective gap below 1e-8.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(fset, Unconstrained):
        return x
    if x.shape != (fset.dim,) or _metric_dim(h) != fset.dim:
        raise ValidationError("projection input dimensions do not match the set")
    if fset.contains(x, tol=_INSIDE_RTOL):
        return x
    if isinstance(fset, Ball):
        if isinstance(h, np.ndarray):
            return _project_ball(x, fset, h, None)
        dec = h if isinstance(h, SpectralDecomposition) else eig_sym(h)
        return _project_ball(x, fset, dec.eigenvalues, dec.eigenvectors)
    if isinstance(fset, Box):
        if isinstance(h, np.ndarray):
            return _clip(x, fset, h)
        if isinstance(h, SpectralDecomposition):
            return _project_box(x, fset, h.dense(), h.eigenvalues)
        return _project_box(x, fset, h.mat, None)
    raise ValidationError(f"unsupported feasible set {type(fset).__name__}")


def _metric_dim(h) -> int:
    if isinstance(h, SymmetricMatrix):
        return h.dim
    if isinstance(h, SpectralDecomposition):
        return h.eigenvalues.shape[0]
    if isinstance(h, np.ndarray) and h.ndim == 1:
        return h.shape[0]
    raise ValidationError(
        "projection metric must be a SymmetricMatrix, a SpectralDecomposition "
        "or the 1-D diagonal of a diagonal metric"
    )


def _project_ball(x: np.ndarray, ball: Ball, lam: np.ndarray, u: Optional[np.ndarray]):
    """Weighted ball projection for the metric U diag(lam) U' (U = I when ``u`` is None)."""
    lam_max = float(lam.max())
    lam_min = float(lam.min())
    if lam_min <= 0.0:
        raise DomainError(
            f"projection metric must be positive definite; smallest eigenvalue {lam_min:.3e}"
        )
    v = x - ball.center
    if lam_max - lam_min <= 1e-14 * lam_max:
        # Isotropic metric: weighted projection coincides with radial scaling.
        return ball.center + (ball.radius / float(np.linalg.norm(v))) * v
    # Work in the eigenbasis: the KKT conditions for
    #   min 1/2 (y - x)^T H (y - x)  s.t.  |y - c|^2 <= r^2
    # give y - c = z(mu) = (H + mu I)^{-1} H (x - c) for the multiplier mu >= 0 that
    # makes the constraint active.  phi(mu) = 1/|z(mu)| - 1/r is concave and increasing, so
    # Newton from mu = 0 climbs to its root (the secular equation; More & Sorensen 1983).
    w = v if u is None else u.T @ v
    r = ball.radius
    q = (lam * w) ** 2
    mu = 0.0
    for _ in range(_BALL_MAX_STEPS):
        shifted = lam + mu
        s = q / (shifted * shifted)
        n2 = float(s.sum())
        n = math.sqrt(n2)
        if n - r <= 4e-16 * r:
            break
        # -phi / phi' with phi' = sum(s / shifted) / n^3
        step = (n - r) * n2 / (r * float((s / shifted).sum()))
        if step <= 1e-15 * mu:
            break
        mu += step
    else:
        raise ConvergenceError(f"ball projection did not converge in {_BALL_MAX_STEPS} Newton steps")
    z = lam * w / shifted
    return ball.center + (z if u is None else u @ z)


def _clip(x: np.ndarray, box: Box, diag: np.ndarray) -> np.ndarray:
    if (diag <= 0.0).any():
        raise DomainError("projection metric must be positive definite")
    # Diagonal metric: the objective separates per coordinate, so the
    # weighted projection is the plain clip regardless of the weights.
    # np.minimum(np.maximum(...)) is the clip for lower < upper, at a
    # quarter of np.clip's call overhead.
    return np.minimum(np.maximum(x, box.lower), box.upper)


def _project_box(x: np.ndarray, box: Box, hm: np.ndarray, lam: Optional[np.ndarray]):
    """Weighted box projection for the dense metric ``hm``, whose spectrum ``lam`` may be known."""
    off_diag = hm[~np.eye(box.dim, dtype=bool)]
    if np.count_nonzero(off_diag) == 0:
        return _clip(x, box, np.diag(hm))
    if lam is None:
        lam = np.linalg.eigvalsh(hm)
    return _projected_newton_box(x, box, hm, float(np.min(lam)), float(np.max(lam)))


def _projected_newton_box(
    x: np.ndarray,
    box: Box,
    hm: np.ndarray,
    lam_min: float,
    lam_max: float,
    max_iter: int = 500,
    gap_tol: float = 1e-10,
) -> np.ndarray:
    """Bertsekas-style projected Newton for min 1/2 (y-x)' H (y-x) over a box."""
    if lam_min <= 0.0:
        raise DomainError(
            f"projection metric must be positive definite; smallest eigenvalue {lam_min:.3e}"
        )
    lo, hi = box.lower, box.upper
    y = np.clip(x, lo, hi)
    scale = max(1.0, float(np.max(np.abs(x))), lam_max)
    band = 1e-10 * np.maximum(1.0, hi - lo)
    for it in range(max_iter):
        grad = hm @ (y - x)
        # Gap certificate: by convexity the suboptimality is at most
        # max_{z in box} grad . (y - z), a coordinatewise-separable linear program.
        z_best = np.where(grad > 0, lo, hi)
        gap = float(grad @ (y - z_best))
        if gap <= gap_tol * scale:
            return y
        active = ((y <= lo + band) & (grad > 0)) | ((y >= hi - band) & (grad < 0))
        free = ~active
        step = np.zeros_like(y)
        if np.any(free):
            hf = hm[np.ix_(free, free)]
            step[free] = np.linalg.solve(hf, grad[free])
        step[active] = grad[active] / np.diag(hm)[active]
        q0 = 0.5 * float((y - x) @ hm @ (y - x))
        alpha = 1.0
        for _ in range(60):
            y_new = np.clip(y - alpha * step, lo, hi)
            q_new = 0.5 * float((y_new - x) @ hm @ (y_new - x))
            if q_new <= q0 - 1e-4 * float(grad @ (y - y_new)) or not np.any(y_new != y):
                break
            alpha *= 0.5
        if not np.any(y_new != y):
            return y
        y = y_new
    grad = hm @ (y - x)
    z_best = np.where(grad > 0, lo, hi)
    gap = float(grad @ (y - z_best))
    raise ConvergenceError(
        f"box projection did not converge in {max_iter} iterations (gap {gap:.3e})"
    )


def minimize_quadratic_over_set(
    a_mat: np.ndarray,
    b_vec: np.ndarray,
    fset: FeasibleSet,
    x0: Optional[np.ndarray] = None,
    gap_tol: float = 1e-10,
    max_iter: int = 100_000,
    residual_tol: Optional[float] = 1e-11,
) -> np.ndarray:
    """Minimize F(x) = 1/2 x'Ax + b'x over the set by accelerated projected gradient.

    A must be symmetric positive semidefinite.  For bounded sets the stopping
    rule combines a linearization-gap certificate (an upper bound on the
    suboptimality, driven below ``gap_tol`` times the problem scale) with a
    fixed-point residual that polishes the iterate itself.  Unbounded sets
    require A to be positive definite and use the gradient norm instead.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float)
    d = b_vec.shape[0]
    lam = np.linalg.eigvalsh(a_mat)
    lmax = float(lam[-1])
    if isinstance(fset, Unconstrained):
        if lam[0] <= 0.0:
            raise DomainError("unconstrained quadratic needs a positive definite matrix")
        return np.linalg.solve(a_mat, -b_vec)
    if lmax <= 0.0:
        raise DomainError("quadratic solver needs a nonzero positive-semidefinite matrix")
    step = 1.0 / lmax

    def fval(x):
        return 0.5 * float(x @ a_mat @ x) + float(b_vec @ x)

    def lin_gap(x, grad):
        if isinstance(fset, Ball):
            inner_min = float(grad @ fset.center) - fset.radius * float(np.linalg.norm(grad))
        else:
            inner_min = float(np.sum(np.where(grad > 0, grad * fset.lower, grad * fset.upper)))
        return float(grad @ x) - inner_min

    x = fset.euclidean_project(x0 if x0 is not None else fset.center_point())
    z = x.copy()
    theta = 1.0
    f_prev = fval(x)
    scale = max(1.0, abs(f_prev))
    for it in range(max_iter):
        grad_z = a_mat @ z + b_vec
        x_new = fset.euclidean_project(z - step * grad_z)
        f_new = fval(x_new)
        if f_new > f_prev:
            # Momentum overshoot: restart from the best point so far.
            z = x.copy()
            theta = 1.0
            grad_z = a_mat @ z + b_vec
            x_new = fset.euclidean_project(z - step * grad_z)
            f_new = fval(x_new)
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta**2))
        z = x_new + ((theta - 1.0) / theta_new) * (x_new - x)
        residual = float(np.linalg.norm(x_new - x))
        x, f_prev, theta = x_new, f_new, theta_new
        if it % 5 == 0 or residual <= 1e-12 * (1.0 + float(np.linalg.norm(x))):
            grad = a_mat @ x + b_vec
            gap = lin_gap(x, grad)
            scale = max(1.0, abs(f_prev))
            polished = residual_tol is None or residual <= residual_tol * (
                1.0 + float(np.linalg.norm(x))
            )
            if gap <= gap_tol * scale and polished:
                return x
    grad = a_mat @ x + b_vec
    raise ConvergenceError(
        f"projected-gradient solver did not reach gap {gap_tol:.1e} in {max_iter} "
        f"iterations (gap {lin_gap(x, grad):.3e}, residual {residual:.3e})"
    )
