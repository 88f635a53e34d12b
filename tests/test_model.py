"""Quadratic/linear model evaluation, counters, configuration validation."""

import numpy as np
import pytest

from sqamin import (
    CompositeProblem,
    QuadraticModel,
    SolverConfig,
    Telemetry,
)

from helpers import (
    AnalysisConstants,
    central_difference_gradient,
    dense_model_value,
    model_value,
)


def _random_model(rng, n=5, mu=0.4):
    A = rng.normal(size=(n, n))
    H = A @ A.T + np.eye(n)
    return QuadraticModel(
        rng.normal(size=n), rng.normal(size=n), 1.2, lambda v: H @ v, mu
    )


class TestQuadraticModelValue:
    def test_value_at_reference(self):
        rng = np.random.default_rng(0)
        model = _random_model(rng)
        expected = model.f_ref + model.mu * np.abs(model.x_ref).sum()
        assert model_value(model, model.x_ref) == pytest.approx(expected,
                                                               abs=1e-14)

    def test_identity_hessian_unit_displacement(self):
        n = 4
        model = QuadraticModel(np.zeros(n), np.zeros(n), 2.0,
                               lambda v: v.copy(), 0.0)
        x = np.zeros(n)
        x[0] = 1.0
        assert model_value(model, x) == pytest.approx(2.5, abs=1e-14)

    def test_matches_dense_reassembly(self):
        rng = np.random.default_rng(1)
        model = _random_model(rng)
        for _ in range(10):
            x = rng.normal(size=5)
            assert model_value(model, x) == pytest.approx(
                dense_model_value(model, x), rel=1e-12
            )

    def test_rejects_nonfinite_mu(self):
        for mu in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                QuadraticModel(np.zeros(2), np.zeros(2), 0.0, lambda v: v, mu)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        model = _random_model(rng)
        with pytest.raises(ValueError):
            model_value(model, np.zeros(7))

    def test_counts_one_hessian_product(self):
        rng = np.random.default_rng(3)
        model = _random_model(rng)
        model_value(model, rng.normal(size=5))
        assert model.tally.hess_vec_products == 1

    def test_counts_on_the_given_telemetry(self):
        tally = Telemetry()
        model = QuadraticModel(np.zeros(2), np.ones(2), 0.0, lambda v: v, 0.1,
                               tally)
        assert model.tally is tally
        model_value(model, np.ones(2))
        model.smooth_eval(np.ones(2))
        assert tally.hess_vec_products == 2


class TestSmoothEvalFromKnownProduct:
    """``step_eval`` evaluates the smooth part from a known product."""

    def test_known_product_matches_and_costs_nothing(self):
        rng = np.random.default_rng(4)
        model = _random_model(rng)
        H = np.column_stack([model.hessian(e) for e in np.eye(5)])
        for _ in range(10):
            x = rng.normal(size=5)
            sval, sgrad = model.smooth_eval(x)
            before = model.tally.hess_vec_products
            dx = x - model.x_ref
            kval, kgrad, linear = model.step_eval(dx, H @ dx)
            assert model.tally.hess_vec_products == before
            assert kval == pytest.approx(sval, rel=1e-12)
            np.testing.assert_allclose(kgrad, sgrad, rtol=1e-12, atol=1e-12)
            assert linear.hex() == float(model.g_ref @ dx).hex()

    def test_leaves_every_model_attribute_unchanged(self):
        # same attributes, same objects, same contents: the model keeps no
        # record of the points it evaluates, with or without a known product
        rng = np.random.default_rng(5)
        model = _random_model(rng)
        attributes = dict(vars(model))
        contents = {k: np.copy(v) for k, v in attributes.items()
                    if isinstance(v, np.ndarray)}
        for _ in range(3):
            x = rng.normal(size=5)
            model.smooth_eval(x)
            dx = x - model.x_ref
            model.step_eval(dx, model.hessian(dx))
        assert vars(model).keys() == attributes.keys()
        assert all(vars(model)[k] is v for k, v in attributes.items())
        for k, v in contents.items():
            np.testing.assert_array_equal(getattr(model, k), v)
        assert model.search_products is None


class TestReferenceObjective:
    def test_cached_value_is_the_formula_bit_for_bit(self):
        rng = np.random.default_rng(16)
        for n in (1, 5, 200):
            x_ref = rng.normal(size=n) * 1e3
            x_ref[::2] = 0.0
            model = QuadraticModel(x_ref, rng.normal(size=n), -3.7,
                                   lambda v: v, 0.3)
            expected = model.f_ref + model.mu * float(np.abs(x_ref).sum())
            assert model.q_ref.hex() == expected.hex()
            assert model.linear_value(x_ref).hex() == expected.hex()

    def test_costs_no_hessian_product(self):
        model = _random_model(np.random.default_rng(17))
        model.q_ref
        assert model.tally.hess_vec_products == 0


class TestLinearModelValue:
    def test_value_at_reference(self):
        rng = np.random.default_rng(4)
        model = _random_model(rng)
        expected = model.f_ref + model.mu * np.abs(model.x_ref).sum()
        assert model.linear_value(model.x_ref) == pytest.approx(expected)

    def test_underestimates_quadratic_model(self):
        rng = np.random.default_rng(5)
        model = _random_model(rng)
        for _ in range(50):
            x = rng.normal(size=5) * 2
            assert model.linear_value(x) <= model_value(model, x) + 1e-12

    def test_concavity_of_decrease_along_segments(self):
        # piecewise linear + convex: decrease at alpha*d is at least alpha
        # times the decrease at d
        rng = np.random.default_rng(6)
        model = _random_model(rng)
        xk = model.x_ref
        ell_ref = model.linear_value(xk)
        for _ in range(100):
            d = rng.normal(size=5)
            alpha = float(rng.uniform(1e-6, 1.0))
            lhs = ell_ref - model.linear_value(xk + alpha * d)
            rhs = alpha * (ell_ref - model.linear_value(xk + d))
            assert lhs >= rhs - 1e-12

    def test_no_hessian_product(self):
        rng = np.random.default_rng(7)
        model = _random_model(rng)
        model.linear_value(rng.normal(size=5))
        assert model.tally.hess_vec_products == 0


class TestSmoothModelGradient:
    def test_gradient_at_reference(self):
        rng = np.random.default_rng(8)
        model = _random_model(rng)
        np.testing.assert_allclose(
            model.smooth_eval(model.x_ref)[1], model.g_ref, atol=1e-15
        )

    def test_identity_hessian(self):
        n = 3
        model = QuadraticModel(np.ones(n), np.full(n, 0.5), 0.0,
                               lambda v: v.copy(), 0.0)
        x = np.array([2.0, 1.0, 0.0])
        np.testing.assert_allclose(
            model.smooth_eval(x)[1], model.g_ref + (x - model.x_ref)
        )

    def test_matches_finite_differences_of_smooth_part(self):
        rng = np.random.default_rng(9)
        model = _random_model(rng, mu=0.0)
        x = rng.normal(size=5)
        fd = central_difference_gradient(lambda z: model.smooth_eval(z)[0], x)
        np.testing.assert_allclose(model.smooth_eval(x)[1], fd, rtol=1e-7)

    def test_counts_one_hessian_product(self):
        rng = np.random.default_rng(10)
        model = _random_model(rng)
        model.smooth_eval(rng.normal(size=5))
        assert model.tally.hess_vec_products == 1


class TestModelIdentities:
    def test_quadratic_equals_linear_plus_curvature(self):
        rng = np.random.default_rng(11)
        model = _random_model(rng)
        from helpers import materialize_operator

        H = materialize_operator(model.hessian, model.dim)
        for _ in range(20):
            x = rng.normal(size=5) * 2
            dx = x - model.x_ref
            lhs = model_value(model, x)
            rhs = model.linear_value(x) + 0.5 * dx @ H @ dx
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_hessian_positive_definite_on_samples(self):
        rng = np.random.default_rng(12)
        model = _random_model(rng)
        for _ in range(50):
            v = rng.normal(size=5)
            assert v @ model.apply_hessian(v) > 0

    def test_smooth_eval_consistent_with_parts(self):
        rng = np.random.default_rng(13)
        model = _random_model(rng)
        x = rng.normal(size=5)
        from helpers import materialize_operator

        H = materialize_operator(model.hessian, model.dim)
        sval, sgrad = model.smooth_eval(x)
        assert sval + model.mu * np.abs(x).sum() == pytest.approx(
            model_value(model, x))
        np.testing.assert_allclose(sgrad, model.g_ref + H @ (x - model.x_ref))


class TestCompositeProblem:
    def test_validates_dimension_and_mu(self):
        mk = lambda **kw: CompositeProblem(
            value=lambda x: 0.0,
            gradient=lambda x: np.zeros(2),
            hess_vec=lambda x, v: v,
            **kw,
        )
        with pytest.raises(ValueError):
            mk(dim=0, mu=0.1)
        with pytest.raises(ValueError):
            mk(dim=2, mu=-0.5)
        for mu in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                mk(dim=2, mu=mu)
        with pytest.raises(ValueError):
            mk(dim=2, mu=0.1, x0=np.zeros(3))

    def test_start_point_default_and_override(self):
        prob = CompositeProblem(
            value=lambda x: 0.0,
            gradient=lambda x: np.zeros(2),
            hess_vec=lambda x, v: v,
            dim=2,
            mu=0.0,
        )
        np.testing.assert_array_equal(prob.start_point(), np.zeros(2))
        prob2 = CompositeProblem(
            value=lambda x: 0.0,
            gradient=lambda x: np.zeros(2),
            hess_vec=lambda x, v: v,
            dim=2,
            mu=0.0,
            x0=np.ones(2),
        )
        np.testing.assert_array_equal(prob2.start_point(), np.ones(2))


class TestSolverConfig:
    def test_defaults_valid(self):
        SolverConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta": 0.0},
            {"theta": 0.5},
            {"theta": 0.3, "zeta": 0.2},
            {"zeta": 0.5},
            {"tau": 0.0},
            {"tau": 1.0},
            {"max_outer": 0},
            {"max_inner": 0},
            {"inner_solver": "newton"},
            {"inexactness_mode": "loose"},
            {"eta_rule": "quadratic"},
            {"lbfgs_memory": 0},
            {"tol_inf": float("nan")},
            {"eta_constant": -1.0},
            {"eta_constant": 0.0},
            {"eta_constant": float("nan")},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_rejects_infinite_tolerance(self):
        # an infinite tolerance would report any start point as converged
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(tol_inf=float("inf"))

    def test_zeta_may_equal_theta(self):
        # the classical experimental setting; accepted even though the
        # unit-step theory wants zeta strictly above theta
        SolverConfig(theta=0.1, zeta=0.1)


class TestAnalysisConstants:
    def test_gamma_formula(self):
        eta, tau = 0.3, 0.5
        const = AnalysisConstants.from_spectrum([1.0, 4.0, 9.0], eta, tau)
        expected = 0.5 * 1.0 * ((1 - eta) / (1 / tau + 2 * 9.0)) ** 2
        assert const.gamma == pytest.approx(expected, rel=1e-15)
        assert const.lambda_min == 1.0
        assert const.lambda_max == 9.0
        assert const.lipschitz == 9.0
