"""Spectral potentials and closed-form regularizer selection.

A spectral potential assigns matrices the value ``Phi(H) = -tr(phi(H))``
for a concave scalar ``phi`` on the positive reals.  The regularizer used
at each round is the minimizer of ``<G, H> + Phi(H)`` over one of three
domains: the full positive-definite cone, its diagonal slice, or the
isotropic (scalar multiple of identity) slice.  In every case the
minimizer has a closed form through the inverse of ``phi'``:

* full cone:  ``H = (phi')^{-1}(G)`` applied spectrally,
* diagonal:   ``H = diag((phi')^{-1}(diag(G)))``,
* isotropic:  ``H = (phi')^{-1}(tr(G) / d) * I``.

So each domain keeps its own :class:`Accumulator`: all of G, its
diagonal, or its trace.

Three potential families are provided.  The inverse-trace potential
``eta^2 tr(H^{-1})`` recovers matrix step sizes proportional to
``G^{-1/2}``; the log-determinant potential ``-(1/beta) log det H``
recovers ``(beta G)^{-1}``; the inverse-power family
``(eta^{p+1}/p) tr(H^{-p})`` interpolates, giving ``eta G^{-1/(p+1)}``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, SingularMatrixError, ValidationError
from .linalg import SpectralDecomposition, SymmetricMatrix, clamp_spectrum, eig_sym


class RegularizerDomain(enum.Enum):
    """Admissible matrix families for the regularizer minimization."""

    FULL = "full"
    DIAGONAL = "diagonal"
    ISOTROPIC = "isotropic"


def derived_constant(name: str, compute: Callable[[], float]) -> float:
    """``compute()`` if it is positive and finite, else a :class:`ConfigError` naming it."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} is outside the floating-point range for these parameters")
    return value


class SpectralPotential:
    """Base class: subclasses define phi on (0, inf) and its primitives.

    ``phi``, ``phi_prime`` and ``phi_prime_inverse`` accept scalars or
    arrays and evaluate elementwise.  ``phi_prime`` is strictly
    decreasing on (0, inf) for every family here, so the inverse is
    well defined on (0, inf).  Each family writes phi and (phi')^{-1}
    once, as ``_phi`` and ``_phi_prime_inverse``: the public methods check
    that the argument is positive and finite and then call them, and the
    accumulators' solves, whose arguments are positive by construction,
    call them directly.
    """

    #: limit of phi(x) as x -> inf; finite (zero) for the inverse-trace and
    #: inverse-power families, divergent for the log-determinant family.
    phi_limit_at_inf: float = 0.0

    def phi(self, x):
        return self._phi(self._require_positive(x, "phi argument"))

    def phi_prime(self, x):
        raise NotImplementedError

    def phi_prime_inverse(self, y):
        return self._phi_prime_inverse(self._require_positive(y, "phi' inverse argument"))

    def _phi(self, x):
        """phi without the argument check; callers pass values known positive."""
        raise NotImplementedError

    def _phi_prime_inverse(self, y):
        """(phi')^{-1} without the argument check; callers pass values known positive."""
        raise NotImplementedError

    def _require_positive(self, v, what: str):
        v = np.asarray(v, dtype=float)
        if not ((v > 0.0) & (v < np.inf)).all():
            bad = v[~(np.isfinite(v) & (v > 0.0))].flat[0]
            raise DomainError(f"{self.__class__.__name__}: {what} must be positive, got {bad!r}")
        return v


@dataclass(frozen=True)
class AdaGradPotential(SpectralPotential):
    """phi(x) = -eta^2 / x, so Phi(H) = eta^2 tr(H^{-1})."""

    eta: float

    def __post_init__(self):
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise ValidationError(f"eta must be positive and finite, got {self.eta}")
        object.__setattr__(self, "_eta_sq", derived_constant("eta^2", lambda: self.eta**2))

    def _phi(self, x):
        return -self._eta_sq / x

    def phi_prime(self, x):
        x = self._require_positive(x, "phi' argument")
        return self._eta_sq / x**2

    def _phi_prime_inverse(self, y):
        return self.eta / np.sqrt(y)


@dataclass(frozen=True)
class OnsPotential(SpectralPotential):
    """phi(x) = log(x) / beta, so Phi(H) = -(1/beta) log det H."""

    beta: float
    phi_limit_at_inf = float("inf")

    def __post_init__(self):
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ValidationError(f"beta must be positive and finite, got {self.beta}")

    def _phi(self, x):
        return np.log(x) / self.beta

    def phi_prime(self, x):
        x = self._require_positive(x, "phi' argument")
        return 1.0 / (self.beta * x)

    def _phi_prime_inverse(self, y):
        return 1.0 / (self.beta * y)


@dataclass(frozen=True)
class PNormPotential(SpectralPotential):
    """phi(x) = -(eta^{p+1} / p) x^{-p}, so Phi(H) = (eta^{p+1}/p) tr(H^{-p}).

    ``p = 1`` coincides with :class:`AdaGradPotential` at the same eta.
    """

    eta: float
    p: float

    def __post_init__(self):
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise ValidationError(f"eta must be positive and finite, got {self.eta}")
        if not (0.0 < self.p <= 16.0):
            raise ValidationError(f"p must lie in (0, 16], got {self.p}")
        eta_pow = derived_constant("eta^(p+1)", lambda: self.eta ** (self.p + 1))
        phi_scale = derived_constant("eta^(p+1)/p", lambda: eta_pow / self.p)
        object.__setattr__(self, "_eta_pow", eta_pow)
        object.__setattr__(self, "_phi_scale", phi_scale)

    def _phi(self, x):
        return -self._phi_scale * x ** (-self.p)

    def phi_prime(self, x):
        x = self._require_positive(x, "phi' argument")
        return self._eta_pow * x ** (-(self.p + 1))

    def _phi_prime_inverse(self, y):
        return self.eta * y ** (-1.0 / (self.p + 1))


class RegularizerSolution:
    """Minimizer of <G, H> + Phi(H) plus quantities the engine reuses.

    The minimizer is kept in the form its domain produces, which is the
    form of a :class:`SpectralDecomposition`: ``h_spectrum`` holds the
    eigenvalues of H in the eigenbasis ``basis`` of G (full cone), or the
    diagonal of H with ``basis`` None (diagonal and isotropic slices, whose
    H is diagonal).  ``h_inv_spectrum`` is the same for the inverse, which
    shares the basis.  ``phi_h`` is the potential value Phi(H) and
    ``g_dot_h`` the inner product <G, H>, all computed from the same
    decomposition of G so they agree to round-off.  ``g_spectrum`` is the
    spectrum of G as seen by the domain: eigenvalues for the full cone,
    diagonal entries for the diagonal slice, and the mean eigenvalue
    replicated for the isotropic slice.

    ``h`` and ``h_inv`` build validated dense matrices when accessed; the
    engine's rounds use ``apply`` (H v, or H^{-1} v) and ``metric`` instead.
    """

    __slots__ = ("h_spectrum", "h_inv_spectrum", "basis", "phi_h", "g_dot_h", "g_spectrum")

    def __init__(self, h_spectrum, basis, phi_h, g_dot_h, g_spectrum):
        # H past the float range (H = 0 or inf at extreme G) shows up in these two sums
        if not (math.isfinite(phi_h) and math.isfinite(g_dot_h)):
            raise DomainError(
                f"regularizer outside the floating-point range: Phi(H) = {phi_h!r}, "
                f"<G, H> = {g_dot_h!r}"
            )
        self.h_spectrum = h_spectrum
        self.h_inv_spectrum = 1.0 / h_spectrum
        self.basis = basis
        self.phi_h = phi_h
        self.g_dot_h = g_dot_h
        self.g_spectrum = g_spectrum

    def apply(self, v: np.ndarray, inverse: bool = False) -> np.ndarray:
        """H v, or H^{-1} v."""
        spectrum = self.h_inv_spectrum if inverse else self.h_spectrum
        if self.basis is None:
            return spectrum * v
        u = self.basis
        return u @ (spectrum * (u.T @ v))

    @property
    def metric(self) -> SpectralDecomposition:
        """H^{-1} as the :class:`SpectralDecomposition` :func:`adareg.sets.project` reads.

        It shares ``basis`` with G, so the projection needs no
        eigendecomposition of its own in any domain.
        """
        return SpectralDecomposition(self.h_inv_spectrum, self.basis)

    def dense(self, inverse: bool = False) -> np.ndarray:
        """H (or H^{-1}) as a plain d x d array."""
        spectrum = self.h_inv_spectrum if inverse else self.h_spectrum
        return SpectralDecomposition(spectrum, self.basis).dense()

    @property
    def h(self) -> SymmetricMatrix:
        return SymmetricMatrix(self.dense())

    @property
    def h_inv(self) -> SymmetricMatrix:
        return SymmetricMatrix(self.dense(inverse=True))


class Accumulator:
    """The accumulator G = G_0 + sum_t g_t g_t', kept in the form one domain reads.

    The closed forms need all of G only on the full cone; the diagonal
    slice reads ``diag(G)`` and the isotropic slice ``tr(G)``, so their
    accumulators hold a d-vector and a scalar and never form a d x d array.

    An accumulator is mutable: ``fold`` adds one gradient in place and
    ``copy`` gives an independent one, so a run folds into a single
    accumulator and a caller that keeps the old one folds into a copy.
    ``fold`` checks each gradient with one reduction, |g|^2, and keeps the
    running sum ``mass`` of those, which bounds every entry of G - G_0.
    ``solve`` gives the closed-form minimizer.  The diagonal and isotropic
    slices check positivity only until a solve first succeeds: folding
    adds nonnegative terms, so it holds from then on.  The full cone
    checks its freshly computed spectrum on every solve.  ``deferred``
    is true while the isotropic trace is not positive, the degenerate
    start during which a run replays its iterate.  ``matrix`` rebuilds G
    as the domain sees it (G, ``diag(G)`` or ``tr(G) / d * I``) for callers
    outside the round loop.
    """

    __slots__ = ("dim", "mass", "positive")
    domain: RegularizerDomain
    deferred = False

    def __init__(self, dim: int):
        self.dim = dim
        self.mass = 0.0
        self.positive = False

    def fold(self, g: np.ndarray) -> None:
        """G += g g' in place, for a float array g of the accumulator's dimension."""
        if g.shape != (self.dim,):
            raise ValidationError(f"vector shape {g.shape} does not match dimension {self.dim}")
        gg = float(g @ g)
        mass = self.mass + gg
        # NaN or inf in g makes |g|^2 nonfinite; so does a sum of squares past the float range
        if not mass < math.inf:
            if not np.isfinite(g).all():
                raise ValidationError("gradient entries must be finite")
            raise DomainError(f"accumulated squared gradient norm overflows: {mass!r}")
        self.mass = mass
        self._fold(g, gg)

    def _fold(self, g: np.ndarray, gg: float) -> None:
        raise NotImplementedError

    def copy(self) -> "Accumulator":
        raise NotImplementedError

    def solve(self, potential: SpectralPotential) -> RegularizerSolution:
        raise NotImplementedError

    def matrix(self) -> SymmetricMatrix:
        raise NotImplementedError

    def _copied(self, new: "Accumulator") -> "Accumulator":
        new.mass = self.mass
        new.positive = self.positive
        return new


def _solution(potential, g_spectrum, basis) -> RegularizerSolution:
    """H from the positive spectrum of G seen by the domain, with Phi(H) and <G, H>."""
    h = potential._phi_prime_inverse(g_spectrum)
    phi_h = float(-potential._phi(h).sum())
    g_dot_h = float((g_spectrum * h).sum())
    return RegularizerSolution(h, basis, phi_h, g_dot_h, g_spectrum)


class FullAccumulator(Accumulator):
    """All of G; one eigendecomposition per solve serves H, H^{-1} and the projection."""

    __slots__ = ("mat",)
    domain = RegularizerDomain.FULL

    def __init__(self, mat: np.ndarray):
        super().__init__(mat.shape[0])
        self.mat = mat

    def _fold(self, g, gg):
        self.mat += np.outer(g, g)

    def copy(self):
        return self._copied(FullAccumulator(self.mat.copy()))

    def solve(self, potential):
        dec = eig_sym(self.mat)
        lam = clamp_spectrum(dec.eigenvalues)
        _check_positive_spectrum(lam, "full")
        return _solution(potential, lam, dec.eigenvectors)

    def matrix(self):
        return SymmetricMatrix(self.mat)


class DiagonalAccumulator(Accumulator):
    """The diagonal of G.

    A solved regularizer's ``g_spectrum`` is this accumulator's own
    diagonal, so it changes with the next fold.
    """

    __slots__ = ("diag",)
    domain = RegularizerDomain.DIAGONAL

    def __init__(self, diag: np.ndarray):
        super().__init__(diag.shape[0])
        self.diag = diag

    def _fold(self, g, gg):
        self.diag += g * g

    def copy(self):
        return self._copied(DiagonalAccumulator(self.diag.copy()))

    def solve(self, potential):
        if not self.positive:
            _check_positive_spectrum(self.diag, "diagonal")
            self.positive = True
        return _solution(potential, self.diag, None)

    def matrix(self):
        return SymmetricMatrix.from_diagonal(self.diag)


class IsotropicAccumulator(Accumulator):
    """The trace of G."""

    __slots__ = ("trace",)
    domain = RegularizerDomain.ISOTROPIC

    def __init__(self, trace: float, dim: int):
        super().__init__(dim)
        self.trace = trace

    @property
    def deferred(self) -> bool:
        return self.trace <= 0.0

    def _fold(self, g, gg):
        self.trace += gg

    def copy(self):
        return self._copied(IsotropicAccumulator(self.trace, self.dim))

    def solve(self, potential):
        d = self.dim
        m = self.trace / d
        if not self.positive:
            if m <= 0.0:
                raise SingularMatrixError(
                    f"isotropic regularizer undefined: mean eigenvalue {m:.6e} is nonpositive"
                )
            self.positive = True
        # 0-d arrays take the same ufunc loops as the checked public path
        s = float(potential._phi_prime_inverse(np.asarray(m)))
        phi_h = float(-d * potential._phi(np.asarray(s)))
        g_dot_h = float(self.trace * s)
        return RegularizerSolution(np.full(d, s), None, phi_h, g_dot_h, np.full(d, m))

    def matrix(self):
        return SymmetricMatrix.identity(self.dim, self.trace / self.dim)


def accumulator_for(domain: RegularizerDomain, g_mat: SymmetricMatrix) -> Accumulator:
    """The part of a dense accumulator G that the domain reads."""
    if domain is RegularizerDomain.FULL:
        return FullAccumulator(g_mat.mat)
    if domain is RegularizerDomain.DIAGONAL:
        return DiagonalAccumulator(np.diag(g_mat.mat).copy())
    if domain is RegularizerDomain.ISOTROPIC:
        return IsotropicAccumulator(g_mat.trace(), g_mat.dim)
    raise ValidationError(f"unknown regularizer domain {domain!r}")


def solve_regularizer(
    potential: SpectralPotential, g, domain: RegularizerDomain
) -> RegularizerSolution:
    """Closed-form minimizer of <G, H> + Phi(H) over the given domain.

    ``g`` is G as a :class:`SymmetricMatrix`, or the domain's own
    :class:`Accumulator`, which is what the engine passes every round.
    """
    if isinstance(g, SymmetricMatrix):
        g = accumulator_for(domain, g)
    elif g.domain is not domain:
        raise ValidationError(
            f"a {g.domain.value} accumulator cannot solve the {domain.value} domain"
        )
    return g.solve(potential)


def _check_positive_spectrum(lam: np.ndarray, label: str) -> None:
    if (lam <= 0.0).any():
        raise SingularMatrixError(
            f"{label} regularizer undefined: gradient-outer-product matrix has "
            f"nonpositive eigenvalue {lam.min():.6e}"
        )
