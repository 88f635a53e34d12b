"""Soft-thresholding, proximal step, and residual map behavior."""

import numpy as np
import pytest

from sqamin import (
    QuadraticModel,
    is_optimal,
    ista_point,
    residual,
    soft_threshold,
)

from helpers import model_exact_minimizer, scalar_prox_grid


class TestSoftThreshold:
    def test_zero_threshold_is_identity(self):
        v = np.array([1.3, -0.7, 0.0, 2.5])
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)

    def test_componentwise_shrinkage(self):
        out = soft_threshold(np.array([1.0, -0.2, 0.0]), 0.5)
        np.testing.assert_allclose(out, [0.5, 0.0, 0.0])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.array([1.0]), -0.1)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            v = float(rng.uniform(-3, 3))
            t = float(rng.uniform(0, 2))
            expected = scalar_prox_grid(v, t)
            got = soft_threshold(np.array([v]), t)[0]
            assert abs(got - expected) <= 1e-4

    def test_nonexpansive(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = rng.normal(size=7)
            b = rng.normal(size=7)
            t = float(rng.uniform(0, 2))
            lhs = np.linalg.norm(soft_threshold(a, t) - soft_threshold(b, t))
            assert lhs <= np.linalg.norm(a - b) + 1e-12


class TestIstaPoint:
    def test_fixed_point_when_stationary(self):
        # interior optimality: x > 0 with g = -mu
        x = np.array([2.0, -1.5, 0.0])
        mu = 1.0
        g = np.array([-mu, mu, 0.3])
        out = ista_point(x, g, 0.5, mu)
        np.testing.assert_allclose(out, x, atol=1e-14)

    def test_zero_gradient_zero_mu(self):
        x = np.array([0.4, -0.2])
        np.testing.assert_allclose(ista_point(x, np.zeros(2), 0.7, 0.0), x)

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ValueError):
            ista_point(np.zeros(2), np.zeros(2), 0.0, 1.0)

    def test_matches_per_coordinate_grid(self):
        rng = np.random.default_rng(9)
        tau, mu = 0.4, 0.8
        x = rng.normal(size=5)
        g = rng.normal(size=5)
        out = ista_point(x, g, tau, mu)
        for i in range(5):
            grid = np.arange(-4.0, 4.0, 1e-4)
            vals = g[i] * grid + grid**2 / (2 * tau) + mu * np.abs(x[i] + grid)
            d_star = grid[np.argmin(vals)]
            assert abs(out[i] - (x[i] + d_star)) <= 2e-4


class TestResidual:
    def test_zero_when_projection_absorbs_gradient(self):
        g = np.array([0.4, -0.9, 0.0])
        out = residual(np.zeros(3), g, 0.5, 1.0)
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-15)

    def test_interior_optimality_single_component(self):
        # x > 0 and g + mu = 0 is first-order optimal
        out = residual(np.array([2.0]), np.array([-1.0]), 0.5, 1.0)
        np.testing.assert_allclose(out, [0.0], atol=1e-15)

    def test_cross_check_with_ista_displacement(self):
        x, g, tau, mu = np.array([0.0]), np.array([2.0]), 0.5, 1.0
        F = residual(x, g, tau, mu)
        np.testing.assert_allclose(F, [1.0])
        step = np.linalg.norm(ista_point(x, g, tau, mu) - x)
        assert abs(tau * np.linalg.norm(F) - step) <= 1e-15
        assert abs(step - 0.5) <= 1e-15

    def test_displacement_identity_randomized(self):
        rng = np.random.default_rng(21)
        for tau in (0.1, 0.5, 0.9):
            for mu in (0.0, 0.5, 2.0):
                for _ in range(50):
                    x = rng.normal(size=6)
                    g = rng.normal(size=6)
                    F = residual(x, g, tau, mu)
                    step = np.linalg.norm(ista_point(x, g, tau, mu) - x)
                    assert abs(tau * np.linalg.norm(F) - step) <= 1e-10

    def test_zero_iff_kkt_conditions(self):
        rng = np.random.default_rng(33)
        mu, tau = 0.7, 0.3
        for _ in range(300):
            x = np.round(rng.normal(size=5), 1)
            g = rng.normal(size=5)
            F = residual(x, g, tau, mu)
            kkt = np.empty(5, dtype=bool)
            for i in range(5):
                if x[i] > 0:
                    kkt[i] = abs(g[i] + mu) <= 1e-12
                elif x[i] < 0:
                    kkt[i] = abs(g[i] - mu) <= 1e-12
                else:
                    kkt[i] = abs(g[i]) <= mu + 1e-12
            np.testing.assert_array_equal(np.abs(F) <= 1e-12, kkt)

    def test_clip_scalar_slope_bounded(self):
        # difference quotient of the interval projection stays in [0, 1]
        rng = np.random.default_rng(14)
        mu = 1.3
        clip = lambda a: np.minimum(np.maximum(a, -mu), mu)
        for _ in range(2000):
            a, b = rng.normal(size=2) * 3
            if a == b:
                continue
            slope = (clip(a) - clip(b)) / (a - b)
            assert -1e-15 <= slope <= 1.0 + 1e-15


def _model_residual(model, x, tau):
    """Residual of the quadratic model at ``x``: the residual map driven by
    the model's smooth gradient ``g_ref + H (x - x_ref)``."""
    return residual(x, model.smooth_eval(x)[1], tau, model.mu)


class TestSubproblemResidual:
    def _model(self, rng, n=5):
        A = rng.normal(size=(n, n))
        H = A @ A.T + np.eye(n)
        return QuadraticModel(
            rng.normal(size=n), rng.normal(size=n), 0.7, lambda v: H @ v, 0.6
        )

    def test_matches_plain_residual_at_reference(self):
        rng = np.random.default_rng(2)
        model = self._model(rng)
        tau = 0.5
        got = _model_residual(model, model.x_ref, tau)
        expected = residual(model.x_ref, model.g_ref, tau, model.mu)
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_zero_at_exact_minimizer(self):
        rng = np.random.default_rng(3)
        model = self._model(rng)
        ybar = model_exact_minimizer(model)
        F = _model_residual(model, ybar, 0.5)
        assert np.max(np.abs(F)) <= 1e-10

    def test_residual_zero_locates_model_minimizer(self):
        # high-accuracy fixed-point iteration on the model lands on the
        # face-enumeration minimizer
        from helpers import coordinate_descent_l1_quadratic, materialize_operator

        rng = np.random.default_rng(4)
        model = self._model(rng)
        n = model.dim
        H = materialize_operator(model.hessian, n)
        c = model.g_ref - H @ model.x_ref
        z_cd = coordinate_descent_l1_quadratic(H, c, model.mu, np.zeros(n))
        ybar = model_exact_minimizer(model)
        np.testing.assert_allclose(z_cd, ybar, atol=1e-6)
        assert np.max(np.abs(_model_residual(model, z_cd, 0.5))) <= 1e-6


class TestIsOptimal:
    def test_zero_residual(self):
        assert is_optimal(np.zeros(4), 1e-12)

    def test_max_norm_comparison(self):
        assert is_optimal(np.array([1e-6, -9e-6]), 1e-5)
        assert not is_optimal(np.array([1e-6, -2e-5]), 1e-5)


class TestStrongMonotonicity:
    def test_model_residual_strongly_monotone(self):
        # with tau * ||H|| < 1 the map y -> F_q(y) satisfies
        # (z - y) @ (F(z) - F(y)) >= 0.5 * lambda_min * ||z - y||**2
        rng = np.random.default_rng(101)
        n = 8
        A = rng.normal(size=(n, n))
        H = A @ A.T + 0.5 * np.eye(n)
        lam_min = np.linalg.eigvalsh(H).min()
        tau = 0.9 / np.linalg.norm(H, 2)
        mu = 0.8
        g = rng.normal(size=n)
        x = rng.normal(size=n)

        def F_q(y):
            u = g + H @ (y - x)
            return u - np.clip(u - y / tau, -mu, mu)

        for _ in range(500):
            y = rng.normal(size=n) * 2
            z = rng.normal(size=n) * 2
            lhs = (z - y) @ (F_q(z) - F_q(y))
            rhs = 0.5 * lam_min * np.linalg.norm(z - y) ** 2
            assert lhs >= rhs - 1e-12
