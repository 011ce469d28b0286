"""Symmetric-matrix primitives: eigendecompositions, orderings, powers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adareg.errors import DomainError, ValidationError
from adareg.linalg import (
    SpectralDecomposition,
    SymmetricMatrix,
    clamp_spectrum,
    eig_sym,
    matrix_power_psd,
    psd_geq,
    rank_one_update,
)
from conftest import random_pd, random_psd


class TestSymmetricMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            SymmetricMatrix([[1.0, 0.0], [0.0, np.nan]])

    def test_rejects_genuine_asymmetry(self):
        with pytest.raises(ValidationError, match="not symmetric"):
            SymmetricMatrix([[1.0, 0.5], [0.0, 1.0]])

    def test_symmetrizes_roundoff(self):
        a = np.array([[1.0, 0.5 + 1e-16], [0.5, 1.0]])
        m = SymmetricMatrix(a)
        np.testing.assert_array_equal(m.mat, m.mat.T)

    def test_entries_are_read_only(self):
        m = SymmetricMatrix.identity(2)
        with pytest.raises(ValueError):
            m.mat[0, 0] = 5.0

    def test_constructors(self):
        np.testing.assert_array_equal(SymmetricMatrix.identity(3).mat, np.eye(3))
        np.testing.assert_array_equal(SymmetricMatrix.zero(2).mat, np.zeros((2, 2)))
        np.testing.assert_array_equal(
            SymmetricMatrix.from_diagonal([4.0, 9.0]).mat, np.diag([4.0, 9.0])
        )
        assert SymmetricMatrix.from_diagonal([4.0, 9.0]).trace() == 13.0


class TestEigSym:
    def test_identity(self):
        dec = eig_sym(SymmetricMatrix.identity(3))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            dec.eigenvectors @ dec.eigenvectors.T, np.eye(3), atol=1e-12
        )

    def test_diagonal_sorted_descending(self):
        dec = eig_sym(SymmetricMatrix.from_diagonal([4.0, 9.0]))
        np.testing.assert_allclose(dec.eigenvalues, [9.0, 4.0])

    def test_reconstruction(self, rng):
        a = random_pd(rng, 5)
        dec = eig_sym(a)
        np.testing.assert_allclose(dec.dense(), a.mat, atol=1e-9)

    def test_no_basis_is_the_diagonal_matrix(self):
        lam = np.array([0.5, 3.0, 2.0])
        np.testing.assert_array_equal(SpectralDecomposition(lam).dense(), np.diag(lam))


def test_clamp_spectrum_band():
    lam = np.array([2.0, -1e-15, -1e-6])
    out = clamp_spectrum(lam)
    assert out[1] == 0.0
    assert out[2] == -1e-6  # outside the band, kept


def test_clamp_spectrum_rows_use_their_own_scale():
    lam = np.array([[-5e-12, 10.0], [-5e-12, 1.0]])
    out = clamp_spectrum(lam)
    np.testing.assert_array_equal(out, [[0.0, 10.0], [-5e-12, 1.0]])
    assert lam[0, 0] == -5e-12  # the input is left as it was


class TestRankOneUpdate:
    def test_from_zero(self):
        g = np.array([1.0, 2.0])
        out = rank_one_update(SymmetricMatrix.zero(2), g)
        np.testing.assert_array_equal(out.mat, [[1.0, 2.0], [2.0, 4.0]])

    def test_zero_gradient_is_noop(self, rng):
        a = random_pd(rng, 3)
        np.testing.assert_array_equal(rank_one_update(a, np.zeros(3)).mat, a.mat)

    def test_repeated_updates_equal_batch(self, rng):
        g0 = random_pd(rng, 4)
        grads = rng.standard_normal((6, 4))
        acc = g0
        for g in grads:
            acc = rank_one_update(acc, g)
        batch = g0.mat + sum(np.outer(g, g) for g in grads)
        np.testing.assert_allclose(acc.mat, batch, atol=1e-12)


class TestLoewnerOrder:
    def test_reflexive_and_scaled_identity(self):
        i2 = SymmetricMatrix.identity(2)
        assert psd_geq(i2, i2)
        assert psd_geq(SymmetricMatrix.identity(2, scale=2.0), i2)
        assert not psd_geq(i2, SymmetricMatrix.identity(2, scale=2.0))

    def test_squaring_breaks_the_order(self):
        # A - B is psd, but A^2 - B^2 has determinant -1, hence a negative
        # eigenvalue: squaring is not order preserving.
        a = SymmetricMatrix([[2.0, 1.0], [1.0, 1.0]])
        b = SymmetricMatrix([[1.0, 0.0], [0.0, 0.0]])
        assert psd_geq(a, b)
        a2 = matrix_power_psd(a, 2.0)
        b2 = matrix_power_psd(b, 2.0)
        assert not psd_geq(a2, b2)
        assert np.linalg.det(a2.mat - b2.mat) == pytest.approx(-1.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dim=st.integers(min_value=2, max_value=6),
        alpha=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_fractional_powers_preserve_the_order(self, seed, dim, alpha):
        rng = np.random.default_rng(seed)
        b = random_psd(rng, dim)
        a = SymmetricMatrix(b.mat + random_psd(rng, dim).mat)
        assert psd_geq(matrix_power_psd(a, alpha), matrix_power_psd(b, alpha), tol=1e-8)


class TestMatrixPower:
    def test_zero_to_a_power_is_zero(self):
        out = matrix_power_psd(SymmetricMatrix.zero(3), 0.5)
        np.testing.assert_array_equal(out.mat, np.zeros((3, 3)))

    def test_power_matches_eigenvalue_powers(self, rng):
        a = random_pd(rng, 4)
        lam = np.linalg.eigvalsh(a.mat)
        out = matrix_power_psd(a, 0.5)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.mat), np.sqrt(lam), atol=1e-10
        )

    def test_sqrt_of_diagonal(self):
        a = SymmetricMatrix.from_diagonal([4.0, 9.0])
        np.testing.assert_allclose(
            matrix_power_psd(a, 0.5).mat, np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_unit_exponent_returns_the_input(self, rng):
        a = random_pd(rng, 4)
        np.testing.assert_allclose(matrix_power_psd(a, 1.0).mat, a.mat, atol=1e-10)

    def test_sqrt_then_square_recovers(self, rng):
        a = random_psd(rng, 5)
        root = matrix_power_psd(a, 0.5)
        np.testing.assert_allclose(root.mat @ root.mat, a.mat, atol=1e-8)

    def test_roundoff_negative_is_clamped(self):
        # eigenvalues {1, -1e-15}: inside the clamp band, the square root must not raise
        u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        a = SymmetricMatrix(u @ np.diag([1.0, -1e-15]) @ u.T)
        root = matrix_power_psd(a, 0.5)
        assert np.linalg.eigvalsh(root.mat)[0] >= -1e-15

    def test_nonpositive_exponent_raises(self):
        with pytest.raises(DomainError, match="positive"):
            matrix_power_psd(SymmetricMatrix.identity(2), 0.0)

    def test_indefinite_input_raises(self):
        with pytest.raises(DomainError, match="positive-semidefinite"):
            matrix_power_psd(SymmetricMatrix.from_diagonal([1.0, -1.0]), 0.5)
