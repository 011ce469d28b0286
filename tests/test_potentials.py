import numpy as np
import pytest

from adareg.errors import DomainError, SingularMatrixError, ValidationError
from adareg.linalg import SymmetricMatrix, psd_geq
from adareg.potentials import (
    AdaGradPotential,
    OnsPotential,
    PNormPotential,
    RegularizerDomain,
    solve_regularizer,
)
from conftest import random_pd

ALL_DOMAINS = list(RegularizerDomain)


def make_potentials():
    return [
        AdaGradPotential(eta=1.3),
        OnsPotential(beta=0.7),
        PNormPotential(eta=0.9, p=2.0),
        PNormPotential(eta=1.1, p=0.5),
    ]


def objective(potential, g_mat, h):
    """<G, H> + Phi(H) with Phi(H) = -sum_i phi(lam_i(H)), from numpy's eigvalsh."""
    lam = np.linalg.eigvalsh(h.mat)
    if lam[0] <= 0.0:
        raise DomainError(f"potential undefined: matrix has nonpositive eigenvalue {lam[0]:.6e}")
    return float(np.sum(g_mat.mat * h.mat) - np.sum(potential.phi(lam)))


def lift(fn, h):
    """fn applied to the spectrum of H through numpy's eigh."""
    lam, u = np.linalg.eigh(h.mat)
    return u @ (fn(lam)[:, None] * u.T)


class TestScalarMaps:
    def test_phi_prime_inverse_values(self):
        assert AdaGradPotential(eta=1.0).phi_prime_inverse(4.0) == pytest.approx(0.5)
        assert OnsPotential(beta=2.0).phi_prime_inverse(0.25) == pytest.approx(2.0)
        assert PNormPotential(eta=1.0, p=2.0).phi_prime_inverse(8.0) == pytest.approx(0.5)

    def test_prime_and_inverse_are_mutual(self, rng):
        y = rng.uniform(0.1, 5.0, size=20)
        for pot in make_potentials():
            np.testing.assert_allclose(pot.phi_prime(pot.phi_prime_inverse(y)), y, rtol=1e-12)

    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            AdaGradPotential(eta=0.0)
        with pytest.raises(ValidationError):
            OnsPotential(beta=-1.0)
        with pytest.raises(ValidationError):
            PNormPotential(eta=1.0, p=0.0)
        with pytest.raises(ValidationError):
            PNormPotential(eta=1.0, p=17.0)


class TestPotentialValue:
    """Phi(H) alone: the reference objective at G = 0."""

    def test_adagrad_identity_is_trace_of_inverse(self):
        zero = SymmetricMatrix.zero(3)
        assert objective(AdaGradPotential(eta=1.0), zero, SymmetricMatrix.identity(3)) == (
            pytest.approx(3.0)
        )

    def test_ons_identity_is_zero(self):
        zero = SymmetricMatrix.zero(2)
        assert objective(OnsPotential(beta=1.0), zero, SymmetricMatrix.identity(2)) == (
            pytest.approx(0.0)
        )

    def test_adagrad_diagonal(self):
        h = SymmetricMatrix.from_diagonal([1.0, 2.0])
        zero = SymmetricMatrix.zero(2)
        assert objective(AdaGradPotential(eta=2.0), zero, h) == pytest.approx(6.0)


class TestClosedForms:
    def test_adagrad_diagonal_g(self):
        g = SymmetricMatrix.from_diagonal([4.0, 9.0])
        h = solve_regularizer(AdaGradPotential(eta=1.0), g, RegularizerDomain.FULL).h
        np.testing.assert_allclose(h.mat, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_ons_identity_g(self):
        h = solve_regularizer(OnsPotential(beta=1.0), SymmetricMatrix.identity(2),
                              RegularizerDomain.FULL).h
        np.testing.assert_allclose(h.mat, np.eye(2), atol=1e-12)

    def test_adagrad_isotropic(self):
        g = SymmetricMatrix.from_diagonal([1.0, 3.0])
        h = solve_regularizer(AdaGradPotential(eta=1.0), g, RegularizerDomain.ISOTROPIC).h
        np.testing.assert_allclose(h.mat, np.eye(2) / np.sqrt(2.0), atol=1e-9)

    def test_pnorm_p1_coincides_with_adagrad(self, rng):
        g = random_pd(rng, 4)
        for domain in ALL_DOMAINS:
            h_ada = solve_regularizer(AdaGradPotential(eta=0.8), g, domain).h
            h_p1 = solve_regularizer(PNormPotential(eta=0.8, p=1.0), g, domain).h
            np.testing.assert_allclose(h_p1.mat, h_ada.mat, atol=1e-12)

    def test_singular_g_raises(self):
        g = SymmetricMatrix.from_diagonal([1.0, 0.0])
        with pytest.raises(SingularMatrixError):
            solve_regularizer(AdaGradPotential(eta=1.0), g, RegularizerDomain.FULL)

    def test_solution_carries_matching_inverse(self, rng):
        g = random_pd(rng, 4)
        for pot in make_potentials():
            sol = solve_regularizer(pot, g, RegularizerDomain.FULL)
            np.testing.assert_allclose(sol.h.mat @ sol.h_inv.mat, np.eye(4), atol=1e-9)


class TestFirstOrderOptimality:
    """The returned H solves min_H G.H + Phi(H) over the domain class."""

    def test_full_domain_stationarity(self, rng):
        # at the minimum the gradient of the objective vanishes: G = phi'(H)
        for pot in make_potentials():
            g = random_pd(rng, 5)
            h = solve_regularizer(pot, g, RegularizerDomain.FULL).h
            gap = np.linalg.norm(g.mat - lift(pot.phi_prime, h))
            assert gap <= 1e-6 * np.linalg.norm(g.mat)

    def test_full_domain_perturbation_optimality(self, rng):
        pot = AdaGradPotential(eta=1.0)
        g = random_pd(rng, 4)
        h = solve_regularizer(pot, g, RegularizerDomain.FULL).h
        base = objective(pot, g, h)
        scale = np.linalg.norm(h.mat)
        for _ in range(100):
            s = rng.standard_normal((4, 4))
            tilde = SymmetricMatrix(h.mat + 1e-2 * scale * (s + s.T) / 2.0)
            if np.linalg.eigvalsh(tilde.mat)[0] <= 0:
                continue
            assert objective(pot, g, tilde) >= base - 1e-9

    def test_diagonal_domain_perturbation_optimality(self, rng):
        pot = OnsPotential(beta=1.5)
        g = random_pd(rng, 4)
        h = solve_regularizer(pot, g, RegularizerDomain.DIAGONAL).h
        base = objective(pot, g, h)
        diag = np.diag(h.mat)
        for _ in range(100):
            tilde_diag = diag * (1.0 + 1e-2 * rng.standard_normal(4))
            if np.any(tilde_diag <= 0):
                continue
            tilde = SymmetricMatrix.from_diagonal(tilde_diag)
            assert objective(pot, g, tilde) >= base - 1e-9

    def test_isotropic_domain_perturbation_optimality(self, rng):
        pot = PNormPotential(eta=1.2, p=2.0)
        g = random_pd(rng, 3)
        h = solve_regularizer(pot, g, RegularizerDomain.ISOTROPIC).h
        base = objective(pot, g, h)
        m = h.mat[0, 0]
        for _ in range(100):
            tilde = SymmetricMatrix.identity(3, scale=m * (1.0 + 1e-2 * rng.standard_normal()))
            assert objective(pot, g, tilde) >= base - 1e-9


class TestStructure:
    def test_diagonal_output_is_exactly_diagonal(self, rng):
        g = random_pd(rng, 5)
        h = solve_regularizer(AdaGradPotential(eta=1.0), g, RegularizerDomain.DIAGONAL).h
        off = h.mat - np.diag(np.diag(h.mat))
        np.testing.assert_array_equal(off, np.zeros((5, 5)))

    def test_isotropic_output_is_scalar_matrix(self, rng):
        g = random_pd(rng, 5)
        h = solve_regularizer(OnsPotential(beta=0.9), g, RegularizerDomain.ISOTROPIC).h
        d = np.diag(h.mat)
        assert np.max(np.abs(d - d[0])) <= 1e-12
        assert np.max(np.abs(h.mat - np.diag(d))) == 0.0

    def test_monotone_response(self, rng):
        # growing G can only shrink the regularizer output
        for pot in make_potentials():
            g = random_pd(rng, 4)
            bigger = SymmetricMatrix(g.mat + random_pd(rng, 4).mat)
            h_small_g = solve_regularizer(pot, g, RegularizerDomain.FULL).h
            h_big_g = solve_regularizer(pot, bigger, RegularizerDomain.FULL).h
            assert psd_geq(h_small_g, h_big_g, tol=1e-8)
