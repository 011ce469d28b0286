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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMatrixError, ValidationError
from .linalg import SpectralDecomposition, SymmetricMatrix, clamp_spectrum, eig_sym


class RegularizerDomain(enum.Enum):
    """Admissible matrix families for the regularizer minimization."""

    FULL = "full"
    DIAGONAL = "diagonal"
    ISOTROPIC = "isotropic"


class SpectralPotential:
    """Base class: subclasses define phi on (0, inf) and its primitives.

    ``phi``, ``phi_prime`` and ``phi_prime_inverse`` accept scalars or
    arrays and evaluate elementwise.  ``phi_prime`` is strictly
    decreasing on (0, inf) for every family here, so the inverse is
    well defined on (0, inf).
    """

    #: limit of phi(x) as x -> inf; finite (zero) for the inverse-trace and
    #: inverse-power families, divergent for the log-determinant family.
    phi_limit_at_inf: float = 0.0

    def phi(self, x):
        raise NotImplementedError

    def phi_prime(self, x):
        raise NotImplementedError

    def phi_prime_inverse(self, y):
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

    def phi(self, x):
        x = self._require_positive(x, "phi argument")
        return -self.eta**2 / x

    def phi_prime(self, x):
        x = self._require_positive(x, "phi' argument")
        return self.eta**2 / x**2

    def phi_prime_inverse(self, y):
        y = self._require_positive(y, "phi' inverse argument")
        return self.eta / np.sqrt(y)


@dataclass(frozen=True)
class OnsPotential(SpectralPotential):
    """phi(x) = log(x) / beta, so Phi(H) = -(1/beta) log det H."""

    beta: float
    phi_limit_at_inf = float("inf")

    def __post_init__(self):
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ValidationError(f"beta must be positive and finite, got {self.beta}")

    def phi(self, x):
        x = self._require_positive(x, "phi argument")
        return np.log(x) / self.beta

    def phi_prime(self, x):
        x = self._require_positive(x, "phi' argument")
        return 1.0 / (self.beta * x)

    def phi_prime_inverse(self, y):
        y = self._require_positive(y, "phi' inverse argument")
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

    def phi(self, x):
        x = self._require_positive(x, "phi argument")
        return -(self.eta ** (self.p + 1) / self.p) * x ** (-self.p)

    def phi_prime(self, x):
        x = self._require_positive(x, "phi' argument")
        return self.eta ** (self.p + 1) * x ** (-(self.p + 1))

    def phi_prime_inverse(self, y):
        y = self._require_positive(y, "phi' inverse argument")
        return self.eta * y ** (-1.0 / (self.p + 1))


def potential_value(potential: SpectralPotential, h: SymmetricMatrix) -> float:
    """Phi(H) = -sum_i phi(lam_i(H)); requires H positive definite."""
    lam = clamp_spectrum(np.linalg.eigvalsh(h.mat))
    if np.any(lam <= 0.0):
        raise DomainError(
            f"potential undefined: matrix has nonpositive eigenvalue {lam.min():.6e}"
        )
    return float(-np.sum(potential.phi(lam)))


class RegularizerSolution:
    """Minimizer of <G, H> + Phi(H) plus quantities the engine reuses.

    The minimizer is kept in the form its domain produces: ``h_spectrum``
    holds the eigenvalues of H in the eigenbasis ``basis`` of G (full cone),
    or the diagonal of H with ``basis`` None (diagonal and isotropic slices,
    whose H is diagonal).  ``h_inv_spectrum`` is the same for the inverse,
    which shares the basis.  ``phi_h`` is the potential value Phi(H) and
    ``g_dot_h`` the inner product <G, H>, all computed from the same
    decomposition of G so they agree to round-off.  ``g_spectrum`` is the
    spectrum of G as seen by the domain: eigenvalues for the full cone,
    diagonal entries for the diagonal slice, and the mean eigenvalue
    replicated for the isotropic slice.

    ``h`` and ``h_inv`` build validated dense matrices when accessed; the
    engine's rounds use ``apply``, ``metric`` and ``dense`` instead.
    """

    __slots__ = ("h_spectrum", "h_inv_spectrum", "basis", "phi_h", "g_dot_h", "g_spectrum")

    def __init__(self, h_spectrum, basis, phi_h, g_dot_h, g_spectrum):
        self.h_spectrum = h_spectrum
        self.h_inv_spectrum = 1.0 / h_spectrum
        self.basis = basis
        self.phi_h = phi_h
        self.g_dot_h = g_dot_h
        self.g_spectrum = g_spectrum

    def apply(self, g: np.ndarray) -> np.ndarray:
        """H g."""
        if self.basis is None:
            return self.h_spectrum * g
        u = self.basis
        return u @ (self.h_spectrum * (u.T @ g))

    @property
    def metric(self):
        """H^{-1} in a form :func:`adareg.sets.project` needs no eigendecomposition for.

        The diagonal of H^{-1} when H is diagonal, otherwise its
        :class:`SpectralDecomposition` in the eigenbasis shared with G.
        """
        if self.basis is None:
            return self.h_inv_spectrum
        return SpectralDecomposition(eigenvalues=self.h_inv_spectrum, eigenvectors=self.basis)

    def dense(self, inverse: bool = False) -> np.ndarray:
        """H (or H^{-1}) as a plain d x d array."""
        spectrum = self.h_inv_spectrum if inverse else self.h_spectrum
        if self.basis is None:
            return np.diag(spectrum)
        return SpectralDecomposition(eigenvalues=spectrum, eigenvectors=self.basis).dense()

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
    ``add`` returns a new accumulator, ``solve`` the closed-form minimizer,
    and ``matrix`` rebuilds G as the domain sees it (G, ``diag(G)`` or
    ``tr(G) / d * I``) for callers outside the round loop.
    """

    __slots__ = ("dim",)
    domain: RegularizerDomain

    def _checked(self, g) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        if g.shape != (self.dim,):
            raise ValidationError(f"vector shape {g.shape} does not match dimension {self.dim}")
        if not np.isfinite(g).all():
            raise ValidationError("gradient entries must be finite")
        return g

    def add(self, g) -> "Accumulator":
        raise NotImplementedError

    def solve(self, potential: SpectralPotential) -> RegularizerSolution:
        raise NotImplementedError

    def matrix(self) -> SymmetricMatrix:
        raise NotImplementedError


class FullAccumulator(Accumulator):
    """All of G; one eigendecomposition per solve serves H, H^{-1} and the projection."""

    __slots__ = ("mat",)
    domain = RegularizerDomain.FULL

    def __init__(self, mat: np.ndarray):
        self.dim = mat.shape[0]
        self.mat = mat

    def add(self, g):
        g = self._checked(g)
        mat = np.outer(g, g)
        mat += self.mat
        return FullAccumulator(mat)

    def solve(self, potential):
        dec = eig_sym(self.mat)
        lam = clamp_spectrum(dec.eigenvalues)
        _check_positive_spectrum(lam, "full")
        h_lam = np.asarray(potential.phi_prime_inverse(lam), dtype=float)
        phi_h = float(-np.sum(potential.phi(h_lam)))
        g_dot_h = float(np.sum(lam * h_lam))
        return RegularizerSolution(h_lam, dec.eigenvectors, phi_h, g_dot_h, lam)

    def matrix(self):
        return SymmetricMatrix(self.mat)


class DiagonalAccumulator(Accumulator):
    """The diagonal of G."""

    __slots__ = ("diag",)
    domain = RegularizerDomain.DIAGONAL

    def __init__(self, diag: np.ndarray):
        self.dim = diag.shape[0]
        self.diag = diag

    def add(self, g):
        g = self._checked(g)
        return DiagonalAccumulator(self.diag + g * g)

    def solve(self, potential):
        v = clamp_spectrum(self.diag)
        _check_positive_spectrum(v, "diagonal")
        h_v = np.asarray(potential.phi_prime_inverse(v), dtype=float)
        phi_h = float(-np.sum(potential.phi(h_v)))
        g_dot_h = float(np.sum(v * h_v))
        return RegularizerSolution(h_v, None, phi_h, g_dot_h, v)

    def matrix(self):
        return SymmetricMatrix.from_diagonal(self.diag)


class IsotropicAccumulator(Accumulator):
    """The trace of G."""

    __slots__ = ("trace",)
    domain = RegularizerDomain.ISOTROPIC

    def __init__(self, trace: float, dim: int):
        self.dim = dim
        self.trace = trace

    def add(self, g):
        g = self._checked(g)
        return IsotropicAccumulator(self.trace + float(g @ g), self.dim)

    def solve(self, potential):
        d = self.dim
        m = self.trace / d
        if m <= 0.0:
            raise SingularMatrixError(
                f"isotropic regularizer undefined: mean eigenvalue {m:.6e} is nonpositive"
            )
        s = float(potential.phi_prime_inverse(m))
        phi_h = float(-d * potential.phi(s))
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
