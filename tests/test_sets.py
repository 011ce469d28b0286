"""Feasible sets and metric projections.

The frozen ball-projection coordinates below were produced by an
independent brute force: a two-million-point sweep of the unit circle
followed by golden-section refinement of the weighted objective.
"""

import numpy as np
import pytest

from adareg.errors import ConvergenceError, DomainError, ValidationError
from adareg.linalg import SpectralDecomposition, SymmetricMatrix
from adareg.sets import Ball, Box, Unconstrained, minimize_quadratic_over_set, project
from conftest import random_pd


def make_sets():
    rng = np.random.default_rng(7)
    return [
        Ball(np.zeros(3), 1.0),
        Ball(rng.standard_normal(3) * 0.3, 2.0),
        Box(np.array([-1.0, 0.0, -0.5]), np.array([1.0, 2.0, 0.5])),
    ]


class TestShapes:
    def test_ball_diameter(self):
        b = Ball(np.zeros(2), 1.0)
        assert b.diameter("euclidean") == 2.0
        assert b.diameter("infinity") == 2.0

    def test_box_diameters(self):
        box = Box(np.zeros(2), np.ones(2))
        assert box.diameter("infinity") == 1.0
        assert box.diameter("euclidean") == pytest.approx(np.sqrt(2.0))

    def test_unknown_norm(self):
        with pytest.raises(ValidationError, match="unknown norm"):
            Ball(np.zeros(2), 1.0).diameter("manhattan")

    def test_unconstrained_declared_diameter(self):
        u = Unconstrained(dim=3, declared_euclidean_diameter=5.0)
        assert u.diameter("euclidean") == 5.0
        with pytest.raises(DomainError, match="declared"):
            Unconstrained(dim=3).diameter()

    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            Ball(np.zeros(2), 0.0)
        with pytest.raises(ValidationError):
            Box(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
        with pytest.raises(ValidationError):
            Unconstrained(dim=0)

    def test_samples_are_feasible(self, rng):
        for fset in make_sets():
            for _ in range(50):
                assert fset.contains(fset.sample(rng))

    def test_center_point_is_feasible(self):
        for fset in make_sets():
            assert fset.contains(fset.center_point())


class TestProjectBasics:
    def test_interior_point_untouched(self):
        fset = Ball(np.zeros(2), 1.0)
        x = np.array([0.3, -0.2])
        h = SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_array_equal(project(x, fset, h), x)

    def test_ball_identity_metric_is_radial(self):
        fset = Ball(np.zeros(2), 1.0)
        out = project(np.array([2.0, 0.0]), fset, SymmetricMatrix.identity(2))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_box_diagonal_metric_clips(self):
        fset = Box(np.zeros(2), np.ones(2))
        h = SymmetricMatrix.from_diagonal([1.0, 4.0])
        out = project(np.array([1.5, -0.2]), fset, h)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_unconstrained_is_identity(self, rng):
        x = rng.standard_normal(4)
        out = project(x, Unconstrained(dim=4), random_pd(rng, 4))
        np.testing.assert_array_equal(out, x)

    def test_ball_full_metric_frozen_oracle(self):
        fset = Ball(np.zeros(2), 1.0)
        h = SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]])
        out = project(np.array([2.0, 1.0]), fset, h)
        np.testing.assert_allclose(out, [0.81056691, 0.58564604], atol=1e-4)


class TestProjectProperties:
    def test_idempotence(self, rng):
        for fset in make_sets():
            for _ in range(10):
                h = random_pd(rng, 3)
                x = rng.standard_normal(3) * 3.0
                once = project(x, fset, h)
                twice = project(once, fset, h)
                np.testing.assert_allclose(twice, once, atol=1e-10)

    @pytest.mark.parametrize("c", [0.1, 3.0, 100.0])
    def test_scale_invariance(self, rng, c):
        for fset in make_sets():
            h = random_pd(rng, 3)
            scaled = SymmetricMatrix(c * h.mat)
            for _ in range(5):
                x = rng.standard_normal(3) * 2.5
                np.testing.assert_allclose(
                    project(x, fset, scaled), project(x, fset, h), atol=1e-9
                )

    def test_variational_inequality(self, rng):
        for fset in make_sets():
            h = random_pd(rng, 3)
            x = rng.standard_normal(3) * 3.0
            pix = project(x, fset, h)
            for _ in range(100):
                y = fset.sample(rng)
                assert (x - pix) @ h.mat @ (y - pix) <= 1e-8


def ball_stress_instance(rng, d, form, ratio):
    """A metric with spectrum in e^-6..e^3, one zero eigen-coordinate, and x at ratio * r from c."""
    lam = np.exp(rng.uniform(-6.0, 3.0, size=d))
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w = rng.standard_normal(d)
    w[rng.integers(d)] = 0.0
    w /= np.linalg.norm(w)
    center = 0.5 * rng.standard_normal(d)
    radius = float(np.exp(rng.uniform(-2.0, 2.0)))
    if form == "diagonal":
        metric, dense, offset = lam, np.diag(lam), w
    else:
        metric = SpectralDecomposition(eigenvalues=lam, eigenvectors=u)
        dense, offset = metric.dense(), u @ w
    return Ball(center, radius), metric, dense, center + ratio * radius * offset


class TestBallSolver:
    """The ball multiplier solve on hard spectra, against its radius and an independent solver."""

    RATIOS = (1.0 + 1e-10, 1.0 + 1e-6, 1.5, 30.0, 1e3)

    @pytest.mark.parametrize("form", ["spectral", "diagonal"])
    @pytest.mark.parametrize("d", [2, 5, 50])
    def test_lands_on_the_sphere_at_the_minimizer(self, d, form):
        rng = np.random.default_rng(1000 + d + (form == "diagonal"))
        ratios = self.RATIOS + tuple(1.0 + 10.0 ** rng.uniform(-10.0, 3.0, size=5))
        for ratio in ratios:
            ball, metric, dense, x = ball_stress_instance(rng, d, form, ratio)
            y = project(x, ball, metric)
            assert abs(np.linalg.norm(y - ball.center) - ball.radius) <= 4e-15 * ball.radius
            # min 1/2 y'Hy - (Hx)'y over the ball is the H-projection of x
            b = -dense @ x
            ref = minimize_quadratic_over_set(dense, b, ball)
            f_y = 0.5 * y @ dense @ y + b @ y
            f_ref = 0.5 * ref @ dense @ ref + b @ ref
            assert abs(f_y - f_ref) <= 1e-10 * max(1.0, abs(f_ref))

    def test_non_finite_point_stops_at_the_step_cap(self):
        x = np.array([np.nan, 0.0, 2.0])
        with pytest.raises(ConvergenceError, match="ball projection"):
            project(x, Ball(np.zeros(3), 1.0), np.array([1.0, 2.0, 3.0]))


class TestQuadraticMinimizer:
    def test_unconstrained_matches_linear_solve(self, rng):
        a = random_pd(rng, 4)
        b = rng.standard_normal(4)
        out = minimize_quadratic_over_set(a.mat, b, Unconstrained(dim=4))
        np.testing.assert_allclose(out, np.linalg.solve(a.mat, -b), atol=1e-10)

    def test_active_ball_matches_metric_projection(self, rng):
        # min 0.5 z'Az + b'z over the ball is the A-metric projection of
        # the unconstrained minimizer
        a = random_pd(rng, 3, lo=0.5, hi=2.0)
        fset = Ball(np.zeros(3), 0.5)
        b = -a.mat @ np.array([2.0, -1.0, 1.5])  # pushes the optimum outside
        out = minimize_quadratic_over_set(a.mat, b, fset)
        ref = project(np.linalg.solve(a.mat, -b), fset, a)
        np.testing.assert_allclose(out, ref, atol=1e-7)
        assert fset.contains(out)

    def test_box_corner_activation(self):
        a = np.eye(2)
        b = np.array([-5.0, -5.0])
        fset = Box(np.zeros(2), np.ones(2))
        out = minimize_quadratic_over_set(a, b, fset)
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-9)

    def test_singular_quadratic_still_converges(self, rng):
        # rank-one A plus a linear term: minimizer lies on the ball boundary
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        a = np.outer(v, v)
        b = np.array([-1.0, 0.0])
        fset = Ball(np.zeros(2), 1.0)
        out = minimize_quadratic_over_set(a, b, fset, residual_tol=None)
        grid = np.linspace(0, 2 * np.pi, 400_001)
        zs = np.stack([np.cos(grid), np.sin(grid)], axis=-1)
        vals = 0.5 * np.einsum("ti,ij,tj->t", zs, a, zs) + zs @ b
        best = vals.min()
        got = 0.5 * out @ a @ out + b @ out
        assert got <= best + 1e-8

    def test_unbounded_linear_raises(self):
        with pytest.raises((DomainError, ConvergenceError)):
            minimize_quadratic_over_set(
                np.zeros((2, 2)), np.array([1.0, 0.0]), Unconstrained(dim=2),
                max_iter=2_000,
            )
