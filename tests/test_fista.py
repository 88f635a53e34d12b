"""Accelerated proximal gradient behavior on quadratic models."""

import numpy as np
import pytest

from sqamin import QuadraticModel, fista_composite, soft_threshold
from sqamin.fista import _quadratic_on_line

from helpers import model_value, quadratic_l1_minimizer


def _model_pieces(model):
    return model.smooth_eval, model.mu


def _start(smooth, x):
    """The start triple ``fista_composite`` takes: a point, its smooth value
    and its gradient."""
    return (np.array(x, dtype=float), *smooth(x))


class TestFistaComposite:
    def test_identity_hessian_one_step(self):
        n = 6
        x_ref = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
        model = QuadraticModel(x_ref, np.zeros(n), 0.0, lambda v: v.copy(), 0.0)
        smooth, mu = _model_pieces(model)
        rng = np.random.default_rng(0)
        start = rng.normal(size=n) * 5
        res = fista_composite(smooth, mu, soft_threshold,
                              _start(smooth, start), max_iter=1,
                              lipschitz0=1.0)
        np.testing.assert_allclose(res.solution, x_ref, atol=1e-12)

    def test_diagonal_case_matches_closed_form(self):
        D = np.array([2.0, 0.5])
        x_ref = np.array([1.0, -1.0])
        g_ref = np.array([0.3, -0.4])
        mu = 0.25
        model = QuadraticModel(x_ref, g_ref, 0.0, lambda v: D * v, mu)
        # separable: minimize g_i (z - xr) + D_i/2 (z - xr)^2 + mu |z|
        w = x_ref - g_ref / D
        expected = np.sign(w) * np.maximum(np.abs(w) - mu / D, 0.0)
        smooth, mu = _model_pieces(model)
        res = fista_composite(smooth, mu, soft_threshold,
                              _start(smooth, np.zeros(2)), max_iter=4000,
                              lipschitz0=2.0)
        np.testing.assert_allclose(res.solution, expected, atol=1e-8)

    def test_vacuous_stop_ends_after_one_iteration(self):
        # the caller gates the start, so stop first sees the first iterate,
        # whose candidate is the only point evaluated
        model = QuadraticModel(np.zeros(2), np.ones(2), 0.0,
                               lambda v: v.copy(), 0.1)
        smooth, mu = _model_pieces(model)
        start = _start(smooth, np.array([5.0, -3.0]))
        before = model.tally.hess_vec_products
        res = fista_composite(smooth, mu, soft_threshold, start,
                              stop=lambda x, fx, gx: True, max_iter=50)
        assert res.status == "converged"
        assert res.inner_iterations == 1
        assert model.tally.hess_vec_products - before == 1
        assert not np.array_equal(res.solution, start[0])

    def test_iteration_cap_is_status_not_error(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(5, 5))
        H = A @ A.T + np.eye(5)
        model = QuadraticModel(rng.normal(size=5), rng.normal(size=5), 0.0,
                               lambda v: H @ v, 0.3)
        smooth, mu = _model_pieces(model)
        res = fista_composite(smooth, mu, soft_threshold,
                              _start(smooth, model.x_ref), max_iter=3)
        assert res.status == "iteration_cap"
        assert res.inner_iterations == 3

    def test_two_hessian_products_per_iteration(self):
        # one product per distinct point: at the momentum point and at the
        # candidate; the monotone fallback adds its own and is reported, a
        # step with t = 1 (the first and each fallback's) puts the next
        # momentum point on its candidate, and the start costs none
        rng = np.random.default_rng(2)
        A = rng.normal(size=(8, 8))
        H = A @ A.T + np.eye(8)
        L_true = float(np.linalg.eigvalsh(H).max())
        mu = 0.3
        model = QuadraticModel(rng.normal(size=8), rng.normal(size=8), 1.5,
                               lambda v: H @ v, mu)
        smooth, mu = _model_pieces(model)
        for K in (5, 10, 20):
            start = _start(smooth, model.x_ref)
            before = model.tally.hess_vec_products
            res = fista_composite(smooth, mu, soft_threshold, start,
                                  max_iter=K, lipschitz0=1.01 * L_true)
            zero_momentum_steps = 1 + res.monotone_fallbacks
            expected = 2 * K + res.monotone_fallbacks - zero_momentum_steps
            assert model.tally.hess_vec_products - before == expected

    def test_one_hessian_product_per_iteration_on_a_quadratic(self):
        # the momentum point is extrapolated, so only the candidate and the
        # monotone fallback pay a product
        rng = np.random.default_rng(2)
        A = rng.normal(size=(8, 8))
        H = A @ A.T + np.eye(8)
        L_true = float(np.linalg.eigvalsh(H).max())
        model = QuadraticModel(rng.normal(size=8), rng.normal(size=8), 1.5,
                               lambda v: H @ v, 0.3)
        smooth, mu = _model_pieces(model)
        for K in (5, 10, 20):
            start = _start(smooth, model.x_ref)
            before = model.tally.hess_vec_products
            res = fista_composite(smooth, mu, soft_threshold, start,
                                  max_iter=K, lipschitz0=1.01 * L_true,
                                  quadratic=True)
            expected = K + res.monotone_fallbacks
            assert model.tally.hess_vec_products - before == expected

    def test_momentum_point_extrapolation_matches_the_model(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            A = rng.normal(size=(n, n))
            H = A @ A.T + 0.1 * np.eye(n)
            model = QuadraticModel(rng.normal(size=n), rng.normal(size=n),
                                   float(rng.normal()), lambda v, H=H: H @ v,
                                   0.5)
            x, c = rng.normal(size=n), rng.normal(size=n)
            s = 1.0 + float(rng.uniform())
            fy, gy = _quadratic_on_line(x, *model.smooth_eval(x),
                                        c, *model.smooth_eval(c), s)
            sval, sgrad = model.smooth_eval(x + s * (c - x))
            assert fy == pytest.approx(sval, rel=1e-10)
            np.testing.assert_allclose(gy, sgrad, rtol=1e-10,
                                       atol=1e-10 * np.abs(sgrad).max())

    def test_quadratic_flag_takes_the_same_steps(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            A = rng.normal(size=(10, 10))
            H = A @ A.T + 0.1 * np.eye(10)
            model = QuadraticModel(rng.normal(size=10), rng.normal(size=10),
                                   0.0, lambda v, H=H: H @ v, 0.4)
            smooth, mu = _model_pieces(model)
            runs = [fista_composite(smooth, mu, soft_threshold,
                                    _start(smooth, model.x_ref),
                                    max_iter=50, quadratic=flag)
                    for flag in (False, True)]
            generic, extrapolated = runs
            assert extrapolated.inner_iterations == generic.inner_iterations
            assert (extrapolated.monotone_fallbacks
                    == generic.monotone_fallbacks)
            np.testing.assert_allclose(extrapolated.solution,
                                       generic.solution, atol=1e-9)

    def test_objective_monotone_along_iterates(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 6))
        H = A @ A.T + 0.1 * np.eye(6)
        mu = 0.4
        model = QuadraticModel(rng.normal(size=6), rng.normal(size=6), 0.0,
                               lambda v: H @ v, mu)
        values = []

        def record(x, fx, gx):
            values.append(fx + mu * np.abs(x).sum())
            return False

        smooth, mu = _model_pieces(model)
        fista_composite(smooth, mu, soft_threshold,
                        _start(smooth, model.x_ref), stop=record, max_iter=200)
        diffs = np.diff(np.array(values))
        assert np.all(diffs <= 1e-10)

    def test_converges_to_face_enumeration_minimizer(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(4, 4))
        H = A @ A.T + np.eye(4)
        mu = 0.5
        x_ref = rng.normal(size=4)
        g_ref = rng.normal(size=4)
        model = QuadraticModel(x_ref, g_ref, 0.0, lambda v: H @ v, mu)
        c = g_ref - H @ x_ref
        expected, _ = quadratic_l1_minimizer(H, c, mu)
        smooth, mu = _model_pieces(model)
        res = fista_composite(smooth, mu, soft_threshold,
                              _start(smooth, x_ref), max_iter=5000)
        np.testing.assert_allclose(res.solution, expected, atol=1e-7)

    def test_model_decrease_recorded(self):
        rng = np.random.default_rng(5)
        model = QuadraticModel(rng.normal(size=3), rng.normal(size=3), 0.0,
                               lambda v: v.copy(), 0.2)
        smooth, mu = _model_pieces(model)
        res = fista_composite(smooth, mu, soft_threshold,
                              _start(smooth, model.x_ref), max_iter=100)
        q0 = model_value(model, model.x_ref)
        qf = model_value(model, res.solution)
        assert res.model_decrease == pytest.approx(q0 - qf, abs=1e-12)
        assert res.model_decrease >= 0

    def test_one_shrink_per_curvature_trial(self):
        # each trial, backtracked or accepted, shrinks y - gy / L by
        # (1 / L) * mu; at these values mu / L would round differently
        rng = np.random.default_rng(7)
        A = rng.normal(size=(6, 6))
        H = A @ A.T + np.eye(6)
        mu, l0 = 0.3, 0.7
        model = QuadraticModel(rng.normal(size=6), rng.normal(size=6), 0.0,
                               lambda v: H @ v, mu)
        thresholds = []
        evaluated = []

        def shrink(v, t):
            thresholds.append(t)
            return soft_threshold(v, t)

        def smooth(z):  # on a quadratic, only candidates are evaluated
            evaluated.append(z)
            return model.smooth_eval(z)

        res = fista_composite(smooth, mu, shrink,
                              _start(model.smooth_eval, model.x_ref),
                              max_iter=20, lipschitz0=l0, quadratic=True)
        assert len(thresholds) == len(evaluated) > res.inner_iterations
        curvatures = [l0 * 2.0 ** j for j in range(60)]
        doublings = [next(j for j, L in enumerate(curvatures)
                          if (1.0 / L) * mu == t) for t in thresholds]
        assert doublings == sorted(doublings) and doublings[-1] > 0
        assert curvatures[doublings[-1]] == res.lipschitz
        assert all(t != mu / curvatures[j]
                   for t, j in zip(thresholds, doublings))

    def test_curvature_limit_is_a_status(self):
        # every trial point lies outside the domain, so the curvature
        # estimate doubles past its limit without accepting a step
        smooth = lambda z: (0.0, np.ones(2)) if not np.any(z) else (np.inf, None)
        res = fista_composite(smooth, 0.0, soft_threshold,
                              _start(smooth, np.zeros(2)), max_iter=5)
        assert res.status == "line_search_failed"
        assert res.inner_iterations == 0
        assert res.model_decrease == 0.0
        np.testing.assert_array_equal(res.solution, np.zeros(2))

    def test_infeasible_momentum_point_restarts_from_the_iterate(self):
        # the minimizer sits on the domain boundary, so momentum overshoots
        # it; the iteration restarts from the accepted iterate instead
        infeasible = []

        def smooth(z):
            if z[0] > 2.0:
                infeasible.append(z.copy())
                return np.inf, None
            return 0.5 * (z[0] - 2.0) ** 2, z - 2.0

        values = []

        def stop(x, fx, gx):
            values.append(fx)
            return abs(x[0] - 2.0) <= 1e-10

        res = fista_composite(smooth, 0.0, soft_threshold,
                              _start(smooth, np.zeros(1)), stop=stop,
                              max_iter=500, lipschitz0=4.0)
        assert infeasible
        assert res.status == "converged"
        assert np.all(np.diff(values) <= 0.0)

    def test_stop_checked_at_every_iterate(self):
        rng = np.random.default_rng(6)
        model = QuadraticModel(rng.normal(size=4), rng.normal(size=4), 0.0,
                               lambda v: v.copy(), 0.2)
        calls = []

        def stop(x, fx, gx):
            calls.append(x.copy())
            return False

        smooth, mu = _model_pieces(model)
        res = fista_composite(smooth, mu, soft_threshold,
                              _start(smooth, model.x_ref), stop=stop,
                              max_iter=17)
        assert len(calls) == res.inner_iterations == 17
        np.testing.assert_array_equal(calls[-1], res.solution)
        assert not any(np.array_equal(z, model.x_ref) for z in calls)
