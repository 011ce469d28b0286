"""Dense symmetric-matrix primitives used throughout the package.

Everything here is built on eigendecompositions of small dense matrices
(dimensions up to a few hundred).  The central type is
:class:`SymmetricMatrix`, a validated, immutable wrapper around a square
``numpy`` array.  Matrix powers go through the spectral calculus:
``A^q = sum_i lam_i^q u_i u_i^T``.

Conventions:

* eigenvalues are reported in descending order;
* construction symmetrizes via ``A + (A^T - A) / 2`` after checking that the
  asymmetry is at round-off level, so downstream code never sees an
  asymmetric array;
* eigenvalues in a small negative band around zero are clamped to zero
  before a power is taken, so positive-semidefinite matrices that picked
  up negative round-off stay inside the domain of fractional powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ValidationError

SYMMETRY_RTOL = 1e-12
EIG_CLAMP_RTOL = 1e-12


class SymmetricMatrix:
    """A real symmetric matrix with validated, read-only entries."""

    __slots__ = ("mat",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {a.shape}")
        if a.size == 0:
            raise ValidationError("matrix must have at least one row")
        if not np.all(np.isfinite(a)):
            raise ValidationError("matrix entries must be finite")
        scale = 1.0 + float(np.max(np.abs(a)))
        skew = float(np.max(np.abs(a - a.T)))
        if skew > SYMMETRY_RTOL * scale:
            raise ValidationError(
                f"matrix is not symmetric: max |A - A^T| = {skew:.3e} "
                f"exceeds {SYMMETRY_RTOL * scale:.3e}"
            )
        # the mean of A and A^T, without the overflow of A + A^T near the float range
        a = a + (a.T - a) / 2.0
        a.setflags(write=False)
        self.mat = a

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def identity(cls, dim: int, scale: float = 1.0) -> "SymmetricMatrix":
        return cls(np.eye(dim) * scale)

    @classmethod
    def zero(cls, dim: int) -> "SymmetricMatrix":
        return cls(np.zeros((dim, dim)))

    @classmethod
    def from_diagonal(cls, values) -> "SymmetricMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def trace(self) -> float:
        return float(np.trace(self.mat))

    def __repr__(self) -> str:
        return f"SymmetricMatrix({self.mat!r})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """The matrix U diag(lam) U^T as its eigenvalues and orthonormal eigenvector columns.

    :func:`eig_sym` reports the eigenvalues in descending order.  ``eigenvectors``
    None stands for U = I: the matrix is diagonal with ``eigenvalues`` as its
    diagonal, in any order.
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = None

    def dense(self) -> np.ndarray:
        """U diag(lam) U^T as a plain array, made exactly symmetric by (A + A^T) / 2."""
        u = self.eigenvectors
        if u is None:
            return np.diag(self.eigenvalues)
        a = u @ (self.eigenvalues[:, None] * u.T)
        return (a + a.T) / 2.0


def eig_sym(a) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix, eigenvalues descending.

    ``a`` is a :class:`SymmetricMatrix` or a plain array the caller already
    knows to be symmetric.
    """
    lam, u = np.linalg.eigh(a.mat if isinstance(a, SymmetricMatrix) else a)
    order = slice(None, None, -1)
    return SpectralDecomposition(
        eigenvalues=np.ascontiguousarray(lam[order]),
        eigenvectors=np.ascontiguousarray(u[:, order]),
    )


def clamp_spectrum(lam: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues in the negative round-off band, in a copy.

    Values in ``(-1e-12 * scale, 0)`` with ``scale = max(1, |lam|_max)`` are
    treated as exact zeros.  More negative values are kept as-is so genuine
    indefiniteness still surfaces downstream.  A stack of spectra is clamped
    along its last axis, each with its own scale.
    """
    scale = np.abs(lam).max(axis=-1, keepdims=True, initial=1.0)
    out = np.array(lam, dtype=float)
    out[(out > -EIG_CLAMP_RTOL * scale) & (out < 0.0)] = 0.0
    return out


def rank_one_update(g_mat: SymmetricMatrix, g: np.ndarray) -> SymmetricMatrix:
    """Return G + g g^T."""
    g = np.asarray(g, dtype=float)
    if g.shape != (g_mat.dim,):
        raise ValidationError(f"vector shape {g.shape} does not match dimension {g_mat.dim}")
    if not np.all(np.isfinite(g)):
        raise ValidationError("gradient entries must be finite")
    return SymmetricMatrix(g_mat.mat + np.outer(g, g))


def min_eigenvalue(a: SymmetricMatrix) -> float:
    return float(np.linalg.eigvalsh(a.mat)[0])


def psd_geq(a: SymmetricMatrix, b: SymmetricMatrix, tol: float = 1e-10) -> bool:
    """Loewner comparison: does A - B dominate -tol * I?"""
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return min_eigenvalue(SymmetricMatrix(a.mat - b.mat)) >= -tol


def matrix_power_psd(a: SymmetricMatrix, q: float) -> SymmetricMatrix:
    """A^q for positive-semidefinite A and q > 0, with 0^q defined as 0."""
    if q <= 0:
        raise DomainError(f"exponent must be positive, got {q}")
    dec = eig_sym(a)
    lam = clamp_spectrum(dec.eigenvalues)
    if np.any(lam < 0):
        raise DomainError(
            f"matrix power requires a positive-semidefinite input; "
            f"smallest eigenvalue is {lam.min():.3e}"
        )
    return SymmetricMatrix(SpectralDecomposition(np.power(lam, q), dec.eigenvectors).dense())

