"""The l1 term, soft-thresholding, proximal step, and residual map
behavior."""

import math

import numpy as np
import pytest

from sqamin import (
    QuadraticModel,
    SolverConfig,
    driver,
    fista_baseline_solve,
    l1_penalty,
    residual,
    soft_threshold,
    sqa_solve,
    synthetic_quadratic,
)

from helpers import (
    clip_residual,
    edge_case_vector,
    model_exact_minimizer,
    scalar_prox_grid,
)


class TestL1Penalty:
    def test_edge_values(self):
        out = l1_penalty(np.array([1.5, -2.0, 0.0]), 2)  # an int weight
        assert type(out) is float and out == 7.0
        zero = l1_penalty(np.array([-0.0, 0.0, -0.0]), 0.5)
        assert zero.hex() == "0x0.0p+0"  # |-0.0| sums to +0.0
        assert l1_penalty(np.array([1.0, -np.inf]), 0.5) == np.inf
        assert math.isnan(l1_penalty(np.array([np.nan, 1.0]), 0.5))
        assert l1_penalty(np.array([]), 0.5) == 0.0

    @pytest.mark.parametrize("solver",
                             ["fista", "sqa_fista", "sqa_obm_cg", "sqa_obm_qn"])
    def test_every_objective_reads_it(self, solver, monkeypatch):
        # an int weight, as a caller may pass one; the problem keeps it
        prob = synthetic_quadratic(20, 50.0, seed=3, mu=1)
        kept = {}
        keep = driver._keep

        def spy(problem, tau, k, x, fx, gx, *args):
            kept[k] = (x.copy(), fx)
            return keep(problem, tau, k, x, fx, gx, *args)

        monkeypatch.setattr(driver, "_keep", spy)
        records = []
        if solver == "fista":
            _, report = fista_baseline_solve(prob, SolverConfig())
        else:
            config = SolverConfig(inner_solver=solver[len("sqa_"):])
            _, report = sqa_solve(prob, config, observer=records.append)
        assert report.status == "converged"
        assert len(report.trace) > 2
        for row in report.trace:
            x, fx = kept[row.k]
            expected = fx + l1_penalty(x, 1)
            assert row.objective.hex() == expected.hex()
            assert prob.objective(x).hex() == expected.hex()
        for rec in records:
            model, x_hat = rec.model, rec.x_hat
            q_ref = model.f_ref + l1_penalty(model.x_ref, 1)
            assert model.q_ref.hex() == q_ref.hex()
            ell = (model.f_ref + float(model.g_ref @ (x_hat - model.x_ref))
                   + l1_penalty(x_hat, 1))
            assert model.linear_value(x_hat).hex() == ell.hex()
            assert rec.ell_candidate.hex() == ell.hex()
        if solver != "fista":
            assert len(records) == len(report.trace) - 1


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

    def test_nan_threshold_rejected(self):
        # t < 0 is false for NaN, which would shrink every entry to NaN
        with pytest.raises(ValueError, match="must be nonnegative, got nan"):
            soft_threshold(np.array([1.0, -2.0]), np.nan)

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
    """The proximal-gradient point ``soft_threshold(x - tau*g, tau*mu)``."""

    def test_fixed_point_when_stationary(self):
        # interior optimality: x > 0 with g = -mu
        x = np.array([2.0, -1.5, 0.0])
        mu = 1.0
        g = np.array([-mu, mu, 0.3])
        out = soft_threshold(x - 0.5 * g, 0.5 * mu)
        np.testing.assert_allclose(out, x, atol=1e-14)

    def test_zero_gradient_zero_mu(self):
        x = np.array([0.4, -0.2])
        np.testing.assert_allclose(soft_threshold(x - 0.7 * np.zeros(2), 0.0), x)

    def test_matches_per_coordinate_grid(self):
        rng = np.random.default_rng(9)
        tau, mu = 0.4, 0.8
        x = rng.normal(size=5)
        g = rng.normal(size=5)
        out = soft_threshold(x - tau * g, tau * mu)
        for i in range(5):
            grid = np.arange(-4.0, 4.0, 1e-4)
            vals = g[i] * grid + grid**2 / (2 * tau) + mu * np.abs(x[i] + grid)
            d_star = grid[np.argmin(vals)]
            assert abs(out[i] - (x[i] + d_star)) <= 2e-4


class TestResidual:
    @pytest.mark.parametrize("mu", [0.0, 5e-324, 0.7, 1.0])
    @pytest.mark.parametrize("tau", [0.5, 1.0, 3.0])
    def test_matches_the_clip_form_byte_for_byte(self, mu, tau):
        rng = np.random.default_rng(16)
        for n in (1, 2, 7, 33, 64, 500):
            for _ in range(5):
                x, g = (edge_case_vector(rng, n, mu) for _ in range(2))
                assert residual(x, g, tau, mu).tobytes() == \
                    clip_residual(x, g, tau, mu).tobytes()

    def test_zero_when_projection_absorbs_gradient(self):
        g = np.array([0.4, -0.9, 0.0])
        out = residual(np.zeros(3), g, 0.5, 1.0)
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-15)

    def test_interior_optimality_single_component(self):
        # x > 0 and g + mu = 0 is first-order optimal
        out = residual(np.array([2.0]), np.array([-1.0]), 0.5, 1.0)
        np.testing.assert_allclose(out, [0.0], atol=1e-15)

    def test_nonpositive_tau_rejected(self):
        # tau <= 0 is false for NaN, which would give an all-NaN residual
        for tau in (0.0, -0.5, np.nan):
            with pytest.raises(ValueError, match="tau must be positive"):
                residual(np.zeros(2), np.zeros(2), tau, 1.0)

    def test_cross_check_with_ista_displacement(self):
        x, g, tau, mu = np.array([0.0]), np.array([2.0]), 0.5, 1.0
        F = residual(x, g, tau, mu)
        np.testing.assert_allclose(F, [1.0])
        step = np.linalg.norm(soft_threshold(x - tau * g, tau * mu) - x)
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
                    step = np.linalg.norm(soft_threshold(x - tau * g, tau * mu) - x)
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
