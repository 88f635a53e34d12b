"""Orthant-face machinery and the two-phase inner solver."""

import numpy as np
import pytest

from sqamin import (
    LbfgsStore,
    QuadraticModel,
    cg_budget,
    lbfgs_reduced_inverse_solve,
    min_norm_subgradient_from_gradient,
    obm_projected_line_search,
    obm_solve,
    orthant_face,
    orthant_project,
    subspace_cg_solve,
)
from sqamin import obm

from helpers import (
    edge_case_vector,
    face_active_set,
    face_conforms,
    materialize_operator,
    model_exact_minimizer,
    model_value,
    nested_min_norm_subgradient,
    nested_orthant_face_signs,
    nested_orthant_project,
    never_stop,
)


def _random_model(rng, n=6, mu=0.5):
    A = rng.normal(size=(n, n))
    H = A @ A.T + np.eye(n)
    return QuadraticModel(
        rng.normal(size=n), rng.normal(size=n), 0.9, lambda v: H @ v, mu
    )


def _centred_at(model, y):
    """The same model, with its reference point moved to ``y``."""
    f_y, g_y = model.smooth_eval(y)
    return QuadraticModel(y, g_y, f_y, model.hessian, model.mu)


def _nan_model(x_ref, g_ref, mu=0.1):
    """A model whose every Hessian product is NaN."""
    return QuadraticModel(x_ref, g_ref, 0.0,
                          lambda v: np.full(v.shape, np.nan), mu)


class TestMinNormSubgradient:
    def test_positive_component(self):
        rng = np.random.default_rng(0)
        model = _random_model(rng)
        z = np.abs(rng.normal(size=6)) + 0.1
        u = model.smooth_eval(z)[1]
        v = min_norm_subgradient_from_gradient(u, z, model.mu)
        np.testing.assert_allclose(v, u + model.mu)

    def test_zero_component_inside_interval(self):
        mu = 1.0
        u = np.array([0.3, -0.9, 1.0])
        z = np.zeros(3)
        v = min_norm_subgradient_from_gradient(u, z, mu)
        np.testing.assert_allclose(v, np.zeros(3))

    def test_zero_component_outside_interval(self):
        mu = 0.5
        u = np.array([2.0, -2.0])
        v = min_norm_subgradient_from_gradient(u, np.zeros(2), mu)
        np.testing.assert_allclose(v, [1.5, -1.5])

    def test_minimum_norm_among_valid_subgradients(self):
        rng = np.random.default_rng(1)
        model = _random_model(rng)
        z = rng.normal(size=6)
        z[rng.uniform(size=6) < 0.4] = 0.0
        u = model.smooth_eval(z)[1]
        v = min_norm_subgradient_from_gradient(u, z, model.mu)
        vnorm = np.linalg.norm(v)
        for _ in range(100):
            xi = np.where(z > 0, 1.0, np.where(z < 0, -1.0,
                                               rng.uniform(-1, 1, size=6)))
            assert vnorm <= np.linalg.norm(u + model.mu * xi) + 1e-12

    def test_nan_gradient_stays_nan_on_every_component(self):
        # the nested-where form turned a NaN at a zero component into 0, as
        # if that component were optimal
        u = np.array([np.nan, np.nan, np.nan, 1.0])
        z = np.array([0.0, 2.0, -2.0, 0.0])
        v = min_norm_subgradient_from_gradient(u, z, 0.5)
        assert np.isnan(v[:3]).all()
        assert v[3] == 0.5


class TestKernelsMatchTheNestedWhereForms:
    """The single-pass kernels give the bytes of the nested-where forms."""

    @pytest.mark.parametrize("mu", [0.0, 5e-324, 0.7, 1.0])
    def test_byte_for_byte_on_edge_values(self, mu):
        rng = np.random.default_rng(16)
        for n in (1, 2, 7, 33, 64, 500):
            for _ in range(5):
                u, z, w = (edge_case_vector(rng, n, mu) for _ in range(3))
                v = min_norm_subgradient_from_gradient(u, z, mu)
                assert v.tobytes() == nested_min_norm_subgradient(
                    u, z, mu).tobytes()
                omega = orthant_face(z, v)
                assert omega.tobytes() == nested_orthant_face_signs(
                    z, v).tobytes()
                assert orthant_project(w, omega).tobytes() == \
                    nested_orthant_project(w, omega).tobytes()

    @pytest.mark.parametrize("mu", [0.0, 5e-324, 0.7, 1.0])
    def test_solve_kernel_gives_the_public_functions_bytes(self, mu):
        # obm_solve forms the subgradient and the face from one zero mask
        rng = np.random.default_rng(17)
        for n in (1, 7, 64, 500):
            u, z = (edge_case_vector(rng, n, mu) for _ in range(2))
            v, face = obm._subgradient_and_face(u, z, mu)
            assert v.tobytes() == min_norm_subgradient_from_gradient(
                u, z, mu).tobytes()
            assert face.tobytes() == orthant_face(z, v).tobytes()

    def test_edge_values_cover_both_zeros_mu_subnormals_and_signs(self):
        rng = np.random.default_rng(16)
        x = edge_case_vector(rng, 500, 0.7)
        for value in (0.7, -0.7, 5e-324, -5e-324):
            assert (x == value).any()
        assert (np.signbit(x) & (x == 0)).any()
        assert (~np.signbit(x) & (x == 0)).any()
        assert (x > 0).any() and (x < 0).any()


class TestOrthantFace:
    def test_componentwise_rule(self):
        z = np.array([1.0, -2.0, 0.0])
        v = np.array([9.9, -1.1, 3.0])
        face = orthant_face(z, v)
        assert face.dtype == np.int8
        np.testing.assert_array_equal(face, [1, -1, -1])

    def test_all_zero_inputs(self):
        face = orthant_face(np.zeros(4), np.zeros(4))
        np.testing.assert_array_equal(face, np.zeros(4))
        assert not np.any(face)

    def test_active_set_is_zero_set_of_min_norm_subgradient(self):
        # v_i = 0 at a zero component exactly when the subgradient interval
        # contains zero, and those are the face's active indices
        rng = np.random.default_rng(2)
        model = _random_model(rng, mu=0.8)
        z = rng.normal(size=6)
        z[:3] = 0.0
        u = model.smooth_eval(z)[1]
        v = min_norm_subgradient_from_gradient(u, z, model.mu)
        face = orthant_face(z, v)
        for i in range(3):
            inside = abs(u[i]) <= model.mu
            assert (v[i] == 0.0) == inside
            assert (face[i] == 0) == inside

    def test_iterate_conforms_to_own_face(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=8)
        z[rng.uniform(size=8) < 0.5] = 0.0
        v = rng.normal(size=8)
        assert face_conforms(orthant_face(z, v), z)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, float])
    def test_accepts_minus_one_zero_one(self, dtype):
        signs = [-1, 0, 1, 0, -1, 1]
        omega = np.array(signs, dtype=dtype)
        assert list(face_active_set(omega)) == [1, 3]
        # each consumer gives the bytes it gives on orthant_face's int8 signs
        rng = np.random.default_rng(34)
        model = _random_model(rng)
        store = LbfgsStore()
        for _ in range(3):
            s = rng.normal(size=6)
            store.update(s, model.hessian(s))
        assert len(store) == 3
        w = edge_case_vector(rng, 6, model.mu)
        v = rng.normal(size=6)

        def outputs(face):
            d, hd = subspace_cg_solve(model, face, v, cg_cap=3)
            return (orthant_project(w, face), d, hd,
                    lbfgs_reduced_inverse_solve(store, face, v))

        for got, want in zip(outputs(omega),
                             outputs(np.array(signs, dtype=np.int8))):
            assert got.tobytes() == want.tobytes()


class TestOrthantProject:
    def test_conforming_point_unchanged(self):
        face = np.array([1, -1, 0], dtype=np.int8)
        w = np.array([2.0, -3.0, 0.0])
        np.testing.assert_array_equal(orthant_project(w, face), w)

    def test_sign_flip_clipped(self):
        face = np.array([1], dtype=np.int8)
        np.testing.assert_array_equal(orthant_project(np.array([-3.0]), face),
                                      [0.0])

    def test_projection_is_nearest_feasible_point(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            omega = rng.integers(-1, 2, size=4).astype(np.int8)
            w = rng.normal(size=4) * 2
            proj = orthant_project(w, omega)
            assert face_conforms(omega, proj)
            dist = np.linalg.norm(proj - w)
            for _ in range(500):
                feas = rng.normal(size=4) * 2
                feas = np.where(omega > 0, np.abs(feas),
                                np.where(omega < 0, -np.abs(feas), 0.0))
                assert dist <= np.linalg.norm(feas - w) + 1e-12

    def test_nan_projects_to_zero(self):
        # the nested-where form kept a NaN on a free component
        face = np.array([1, -1, 0], dtype=np.int8)
        proj = orthant_project(np.full(3, np.nan), face)
        assert proj.tobytes() == np.zeros(3).tobytes()

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        face = rng.integers(-1, 2, size=6).astype(np.int8)
        w = rng.normal(size=6)
        once = orthant_project(w, face)
        np.testing.assert_array_equal(orthant_project(once, face), once)


class TestCgBudget:
    def test_schedule(self):
        for k in range(0, 10):
            assert cg_budget(k) == 1
        for k in range(10, 20):
            assert cg_budget(k) == 2
        for k in range(20, 40):
            assert cg_budget(k) == 3
        assert cg_budget(1000) == 3


class TestSubspaceCgSolve:
    def test_identity_hessian_single_iteration(self):
        n = 5
        model = QuadraticModel(np.zeros(n), np.zeros(n), 0.0,
                               lambda v: v.copy(), 0.3)
        omega = np.array([1, 1, -1, 0, 1], dtype=np.int8)
        v = np.array([0.2, -0.4, 0.6, 5.0, 0.0])
        d, _ = subspace_cg_solve(model, omega, v, cg_cap=1)
        expected = np.where(omega != 0, -v, 0.0)
        np.testing.assert_allclose(d, expected, atol=1e-14)

    def test_zero_free_gradient_gives_zero(self):
        rng = np.random.default_rng(6)
        model = _random_model(rng)
        omega = np.array([1, -1, 0, 0, 1, -1], dtype=np.int8)
        d, _ = subspace_cg_solve(model, omega, np.zeros(6), cg_cap=3)
        np.testing.assert_array_equal(d, np.zeros(6))

    def test_large_budget_matches_dense_solve(self):
        rng = np.random.default_rng(7)
        model = _random_model(rng)
        H = materialize_operator(model.hessian, 6)
        omega = np.array([1, -1, 0, 1, 1, -1], dtype=np.int8)
        free = omega != 0
        v = rng.normal(size=6)
        v[~free] = 0.0
        d, _ = subspace_cg_solve(model, omega, v, cg_cap=50)
        expected = np.zeros(6)
        expected[free] = -np.linalg.solve(H[np.ix_(free, free)], v[free])
        np.testing.assert_allclose(d, expected, rtol=1e-8, atol=1e-10)

    def test_counts_one_product_per_cg_iteration(self):
        rng = np.random.default_rng(8)
        model = _random_model(rng)
        face = np.ones(6, dtype=np.int8)
        v = rng.normal(size=6)
        for cap in (1, 2, 3):
            before = model.tally.hess_vec_products
            subspace_cg_solve(model, face, v, cg_cap=cap)
            assert model.tally.hess_vec_products - before == cap

    def test_descent_direction(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            model = _random_model(rng)
            z = rng.normal(size=6)
            z[rng.uniform(size=6) < 0.3] = 0.0
            u = model.smooth_eval(z)[1]
            v = min_norm_subgradient_from_gradient(u, z, model.mu)
            face = orthant_face(z, v)
            if not np.any(v[face != 0]):
                continue
            for cap in (1, 2, 3):
                d, _ = subspace_cg_solve(model, face, v, cg_cap=cap)
                assert v @ d < 0

    def test_nonpositive_curvature_falls_back_to_steepest_descent(self):
        # a concave model and a NaN one: the curvature test must trigger
        n = 3
        face = np.ones(n, dtype=np.int8)
        v = np.array([1.0, -2.0, 0.5])
        for hessian in (lambda w: -w, lambda w: np.full(n, np.nan)):
            model = QuadraticModel(np.zeros(n), np.zeros(n), 0.0, hessian, 0.0)
            d, _ = subspace_cg_solve(model, face, v, cg_cap=3)
            np.testing.assert_allclose(d, -v)

    @staticmethod
    def _check_product(model, face, v, cap, H):
        attributes = dict(vars(model))
        d, hd = subspace_cg_solve(model, face, v, cg_cap=cap)
        np.testing.assert_allclose(hd, H @ d, rtol=1e-12,
                                   atol=1e-12 * max(1.0, np.abs(H @ d).max()))
        # the model is left as it was: same attributes, same objects
        assert vars(model).keys() == attributes.keys()
        assert all(vars(model)[k] is val for k, val in attributes.items())
        return d

    def test_returned_product_is_the_dense_product(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            model = _random_model(rng)
            H = materialize_operator(model.hessian, 6)
            omega = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=6)
            for cap in (1, 2, 3):
                self._check_product(model, omega, rng.normal(size=6), cap, H)

    def test_returned_product_on_the_curvature_exit(self):
        # the first direction (1, 1, 0) has curvature 3 - 1 > 0 and the
        # second, (2, 6, 0), 12 - 36 < 0, so CG stops at its first iterate;
        # a concave model stops at once with the steepest descent direction
        face = np.ones(3, dtype=np.int8)
        v = np.array([-1.0, -1.0, 0.0])
        for H in (np.diag([3.0, -1.0, 1.0]), -np.eye(3)):
            model = QuadraticModel(np.zeros(3), np.zeros(3), 0.0,
                                   lambda w, H=H: H @ w, 0.0)
            d = self._check_product(model, face, v, 3, H)
            assert model.tally.hess_vec_products == (2 if H[0, 0] > 0 else 1)
            assert v @ d < 0


class TestProjectedLineSearch:
    def test_unit_step_for_exact_reduced_newton(self):
        rng = np.random.default_rng(10)
        model = _random_model(rng)
        H = materialize_operator(model.hessian, 6)
        z = np.abs(rng.normal(size=6)) + 1.0  # interior, all positive face
        u = model.smooth_eval(z)[1]
        v = min_norm_subgradient_from_gradient(u, z, model.mu)
        face = orthant_face(z, v)
        d = -np.linalg.solve(H, v)
        if not face_conforms(face, z + d):
            d *= 0.5 / np.max(np.abs(d) / np.minimum(z, 1.0))  # keep signs
        outcome = obm_projected_line_search(model, z, face, d, v,
                                            model_value(model, z))
        assert outcome.alpha == 1.0

    def test_zero_direction_raises(self):
        # as the outer search does: there is no step to take, and no
        # accepted point to return a smooth value and gradient for
        rng = np.random.default_rng(11)
        model = _random_model(rng)
        z = rng.normal(size=6)
        face = orthant_face(z, np.zeros(6))
        q_ref = model_value(model, z)
        products = model.tally.hess_vec_products
        with pytest.raises(ValueError, match="direction is zero"):
            obm_projected_line_search(model, z, face, np.zeros(6),
                                      np.zeros(6), q_ref)
        assert model.tally.hess_vec_products == products

    def test_ascent_direction_stalls_at_the_input(self):
        # v > 0 and z > 0, so z + alpha * v stays on the face and raises the
        # model for every alpha: the step halves down to its floor
        model = QuadraticModel(np.zeros(3), np.array([0.1, -0.2, 0.3]), 0.0,
                               lambda w: 2.0 * w, 0.5)
        z = np.array([1.0, 2.0, 3.0])
        v = min_norm_subgradient_from_gradient(model.smooth_eval(z)[1], z,
                                               model.mu)
        assert np.all(v > 0)
        q_z = model_value(model, z)
        outcome = obm_projected_line_search(model, z, orthant_face(z, v), v, v,
                                            q_z)
        assert outcome.stalled
        assert outcome.alpha == 0.0 and outcome.trials > 1
        np.testing.assert_array_equal(outcome.point, z)
        assert outcome.q_value == q_z

    def test_candidate_equal_to_the_input_stalls_unevaluated(self):
        # a direction below the rounding of z leaves every trial on z; both
        # tests would pass it with equality, so it ends the search at once
        model = QuadraticModel(np.zeros(3), np.array([0.1, -0.2, 0.3]), 0.0,
                               lambda w: 2.0 * w, 0.5)
        z = np.array([1.0, 2.0, 3.0])
        v = min_norm_subgradient_from_gradient(model.smooth_eval(z)[1], z,
                                               model.mu)
        q_z = model_value(model, z)
        products = model.tally.hess_vec_products
        outcome = obm_projected_line_search(model, z, orthant_face(z, v),
                                            -1e-20 * v, v, q_z)
        assert outcome.stalled
        assert (outcome.alpha, outcome.trials) == (0.0, 0)
        assert model.tally.hess_vec_products == products
        np.testing.assert_array_equal(outcome.point, z)
        assert outcome.q_value == q_z

    def test_candidate_conforms_to_face(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            model = _random_model(rng)
            z = rng.normal(size=6)
            z[rng.uniform(size=6) < 0.4] = 0.0
            u = model.smooth_eval(z)[1]
            v = min_norm_subgradient_from_gradient(u, z, model.mu)
            face = orthant_face(z, v)
            d, _ = subspace_cg_solve(model, face, v, cg_cap=2)
            if not np.any(d):
                continue
            outcome = obm_projected_line_search(model, z, face, d, v,
                                                model_value(model, z))
            assert face_conforms(face, outcome.point)

    def test_model_never_increases(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            model = _random_model(rng)
            z = rng.normal(size=6)
            u = model.smooth_eval(z)[1]
            v = min_norm_subgradient_from_gradient(u, z, model.mu)
            face = orthant_face(z, v)
            d, _ = subspace_cg_solve(model, face, v, cg_cap=1)
            if not np.any(d):
                continue
            q_z = model_value(model, z)
            outcome = obm_projected_line_search(model, z, face, d, v, q_ref=q_z)
            assert outcome.q_value <= q_z + 1e-12


class TestSearchReusesCgProducts:
    """A trial on the ray ``z + alpha d`` is evaluated from the products
    handed over with these very ``z`` and ``d``; any other trial pays one."""

    @staticmethod
    def _setup(model, z, cg_cap=3):
        u = model.smooth_eval(z)[1]
        v = min_norm_subgradient_from_gradient(u, z, model.mu)
        face = orthant_face(z, v)
        d, hd = subspace_cg_solve(model, face, v, cg_cap=cg_cap)
        q_z = model.smooth_eval(z)[0] + model.mu * np.abs(z).sum()
        return v, face, d, hd, q_z

    @staticmethod
    def _paid_search(model, z, face, d, v, q_ref):
        before = model.tally.hess_vec_products
        outcome = obm_projected_line_search(model, z, face, d, v, q_ref)
        return outcome, model.tally.hess_vec_products - before

    @classmethod
    def _search(cls, model, z, cg_cap=3):
        v, face, d, hd, q_z = cls._setup(model, z, cg_cap)
        model.search_products = (z, model.hessian(z - model.x_ref), d, hd)
        outcome, products = cls._paid_search(model, z, face, d, v, q_z)
        clipped = [not np.array_equal(
                       orthant_project(z + 0.5 ** i * d, face),
                       z + 0.5 ** i * d)
                   for i in range(outcome.trials)]
        return outcome, products, clipped

    @staticmethod
    def _check_against_direct_eval(model, outcome):
        sval, sgrad = model.smooth_eval(outcome.point)
        assert outcome.smooth_value == pytest.approx(sval, rel=1e-10)
        np.testing.assert_allclose(outcome.smooth_grad, sgrad, rtol=1e-10,
                                   atol=1e-10 * np.abs(sgrad).max())
        np.testing.assert_allclose(outcome.product, sgrad - model.g_ref,
                                   rtol=1e-10,
                                   atol=1e-10 * np.abs(sgrad).max())

    @staticmethod
    def _interior_model(seed=30):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(6, 6))
        H = A @ A.T + np.eye(6)
        # the model minimizer and z lie far inside the all-positive orthant
        # (H >= I keeps the Newton step short), so no trial clips
        model = QuadraticModel(np.abs(rng.normal(size=6)) + 100.0,
                               rng.normal(size=6), 0.9, lambda v: H @ v, 0.5)
        return model, model.x_ref + rng.normal(size=6)

    def test_unclipped_trial_pays_no_product(self):
        model, z = self._interior_model()
        outcome, products, clipped = self._search(model, z)
        assert outcome.trials >= 1 and not any(clipped)
        assert products == 0
        self._check_against_direct_eval(model, outcome)

    def test_clipped_trials_pay_one_product_each(self):
        rng = np.random.default_rng(31)
        seen_clipped = seen_unclipped = 0
        for _ in range(40):
            model = _random_model(rng)
            z = rng.normal(size=6)
            z[rng.uniform(size=6) < 0.3] = 0.0
            outcome, products, clipped = self._search(model, z)
            if outcome.trials == 0:
                continue
            assert products == sum(clipped)
            seen_clipped += sum(clipped)
            seen_unclipped += len(clipped) - sum(clipped)
            if not outcome.stalled:
                self._check_against_direct_eval(model, outcome)
        assert seen_clipped and seen_unclipped

    def test_direction_from_elsewhere_pays_per_trial(self):
        # nothing was handed over with this direction
        rng = np.random.default_rng(32)
        model = _random_model(rng)
        z = rng.normal(size=6)
        v, face, d, _, q_z = self._setup(model, z)
        outcome, products = self._paid_search(model, z, face, d, v, q_z)
        assert outcome.trials >= 1
        assert products == outcome.trials

    @pytest.mark.parametrize("copied", ["z", "d"])
    def test_a_hand_off_for_copies_is_ignored(self, copied):
        # the hand-off names the arrays by identity: equal copies do not
        # match, so the unclipped trials pay and stay exact
        model, z = self._interior_model()
        v, face, d, hd, _ = self._setup(model, z)
        hz = model.hessian(z - model.x_ref)
        handed_z = z.copy() if copied == "z" else z
        handed_d = d.copy() if copied == "d" else d
        model.search_products = (handed_z, hz, handed_d, hd)
        # an infinite reference value accepts the first trial
        outcome, products = self._paid_search(model, z, face, d, v, np.inf)
        assert outcome.trials == 1 and products == 1
        assert model.search_products is None
        self._check_against_direct_eval(model, outcome)

    def test_the_slot_is_empty_after_a_search_so_the_next_pays(self):
        model, z = self._interior_model()
        v, face, d, hd, q_z = self._setup(model, z)
        model.search_products = (z, model.hessian(z - model.x_ref), d, hd)
        first, free = self._paid_search(model, z, face, d, v, q_z)
        assert model.search_products is None
        second, paid = self._paid_search(model, z, face, d, v, q_z)
        assert free == 0 and paid == second.trials == first.trials
        np.testing.assert_array_equal(second.point, first.point)


class TestObmSolve:
    def test_immediate_stop_at_exact_minimizer(self):
        rng = np.random.default_rng(14)
        model = _random_model(rng, n=4)
        model = _centred_at(model, model_exact_minimizer(model))
        calls = []

        def stop(z, sval, sgrad, penalty, linear):
            Fq = sgrad - np.clip(sgrad - z / 0.5, -model.mu, model.mu)
            calls.append(np.linalg.norm(Fq))
            return np.linalg.norm(Fq) <= 1e-8

        res = obm_solve(model, stop, outer_k=1, max_iter=1000)
        assert res.status == "converged"
        assert res.inner_iterations == 0
        assert calls[0] <= 1e-8

    def test_separable_model_matches_closed_form(self):
        D = np.array([2.0, 0.5, 1.5])
        x_ref = np.array([1.0, -1.0, 0.2])
        g_ref = np.array([0.3, -0.4, 0.9])
        mu = 0.25
        model = QuadraticModel(x_ref, g_ref, 0.0, lambda v: D * v, mu)
        w = x_ref - g_ref / D
        expected = np.sign(w) * np.maximum(np.abs(w) - mu / D, 0.0)

        def stop(z, sval, sgrad, penalty, linear):
            Fq = sgrad - np.clip(sgrad - z / 0.5, -mu, mu)
            return np.linalg.norm(Fq) <= 1e-12

        res = obm_solve(model, stop, outer_k=100, max_iter=500)
        np.testing.assert_allclose(res.solution, expected, atol=1e-8)

    def test_qn_variant_minimizes_store_model(self):
        rng = np.random.default_rng(16)
        n = 5
        M = rng.normal(size=(n, n))
        A = M @ M.T + np.eye(n)
        _, vecs = np.linalg.eigh(A)
        store = LbfgsStore(memory=50)
        for i in range(n):
            s = vecs[:, i]
            store.update(s, A @ s)
        mu = 0.4
        model = QuadraticModel(rng.normal(size=n), rng.normal(size=n), 0.0,
                               store.hessian_vec, mu)
        ybar = model_exact_minimizer(model)

        def stop(z, sval, sgrad, penalty, linear):
            Fq = sgrad - np.clip(sgrad - z / 0.5, -mu, mu)
            return np.linalg.norm(Fq) <= 1e-10

        res = obm_solve(model, stop, outer_k=1, store=store, max_iter=300)
        assert res.status == "converged"
        np.testing.assert_allclose(res.solution, ybar, atol=1e-6)

    @pytest.mark.parametrize("direction", ["cg", "ascent"])
    def test_an_oracle_reusing_its_output_array_changes_nothing(
            self, monkeypatch, direction):
        # every product the solver keeps is its own array, so an oracle
        # that writes each product into one buffer gives the same iterates;
        # an ascent direction stalls every search, so the safeguard steps
        rng = np.random.default_rng(34)
        n = 8
        for outer_k in (1, 11, 25):
            A = rng.normal(size=(n, n))
            H = A @ A.T + 0.1 * np.eye(n)
            if direction == "ascent":
                monkeypatch.setattr(obm, "subspace_cg_solve",
                                    lambda model, face, v, cg_cap, H=H:
                                    (v.copy(), H @ v))
            x_ref, g_ref = rng.normal(size=n), 3.0 * rng.normal(size=n)
            buffer = np.empty(n)

            def into_buffer(v):
                buffer[...] = H @ v
                return buffer

            runs = []
            for hessian in (lambda v: H @ v, into_buffer):
                model = QuadraticModel(x_ref, g_ref, 0.0, hessian, 0.5)
                res = obm_solve(model, never_stop, outer_k, max_iter=40)
                runs.append((res.solution.tobytes(), res.inner_iterations,
                             res.status, model.tally.hess_vec_products))
            assert runs[0] == runs[1]
            assert runs[0][1] > 5

    def test_model_values_nonincreasing(self):
        rng = np.random.default_rng(17)
        model = _random_model(rng)
        values = []

        def stop(z, sval, sgrad, penalty, linear):
            values.append(sval + model.mu * np.abs(z).sum())
            return False

        obm_solve(model, stop, outer_k=5, max_iter=60)
        assert np.all(np.diff(np.array(values)) <= 1e-11)

    def test_subspace_objective_identity_on_face(self):
        # the subspace objective assembled around the current inner iterate
        # (model value there, plus min-norm-subgradient linear term, plus
        # curvature) equals the reference-centered quadratic with the l1
        # term linearized by the face signs; the constant mu * omega @ x_ref
        # carries the reference point's l1 contribution as seen by the face
        rng = np.random.default_rng(18)
        model = _random_model(rng, n=5, mu=0.7)
        H = materialize_operator(model.hessian, 5)
        z_t = rng.normal(size=5)
        z_t[2] = 0.0
        u = model.smooth_eval(z_t)[1]
        v = min_norm_subgradient_from_gradient(u, z_t, model.mu)
        face = orthant_face(z_t, v)
        q_zt = model_value(model, z_t)
        for _ in range(20):
            w = rng.normal(size=5)
            z = orthant_project(w, face)
            dz = z - z_t
            psi = q_zt + v @ dz + 0.5 * dz @ H @ dz
            dx = z - model.x_ref
            direct = (
                model.f_ref
                + (model.g_ref + model.mu * face) @ dx
                + 0.5 * dx @ H @ dx
                + model.mu * float(face @ model.x_ref)
            )
            assert psi == pytest.approx(direct, rel=1e-10, abs=1e-10)
            # on the face the subspace objective reproduces the model itself
            assert psi == pytest.approx(model_value(model, z), rel=1e-10,
                                        abs=1e-10)


class TestObmStallRecovery:
    def test_safeguard_decreases_the_model_after_a_stalled_search(
            self, monkeypatch):
        # an ascent subspace step stalls the projected search; the
        # proximal-gradient safeguard must still decrease the model
        rng = np.random.default_rng(17)
        model = _random_model(rng)
        # the product handed on with the direction is exact and uncounted
        monkeypatch.setattr(obm, "subspace_cg_solve",
                            lambda model, face, v, cg_cap:
                            (v.copy(), model.hessian(v)))
        safeguard = obm._ista_safeguard
        outcomes = []

        def spy(*args):
            outcomes.append(safeguard(*args))
            return outcomes[-1]

        monkeypatch.setattr(obm, "_ista_safeguard", spy)
        values = []

        def stop(z, sval, sgrad, penalty, linear):
            values.append(sval + model.mu * np.abs(z).sum())
            return False

        searches = []
        search = obm.obm_projected_line_search

        def counted_search(model, z, face, d, v, q_ref):
            before = model.tally.hess_vec_products
            outcome = search(model, z, face, d, v, q_ref)
            clipped = sum(not np.array_equal(
                              orthant_project(z + 0.5 ** i * d, face),
                              z + 0.5 ** i * d)
                          for i in range(outcome.trials))
            searches.append((clipped, model.tally.hess_vec_products - before))
            return outcome

        monkeypatch.setattr(obm, "obm_projected_line_search", counted_search)
        res = obm_solve(model, stop, outer_k=1, max_iter=60)
        # the direction comes with its product: only clipped trials pay
        assert searches and all(c == p for c, p in searches)
        assert outcomes and all(o is not None for o in outcomes)
        assert np.all(np.diff(values) <= 0.0)
        assert values[-1] < values[0]
        assert res.model_decrease == pytest.approx(values[0] - values[-1])

    def test_stalls_in_place_at_the_model_minimizer(self):
        # at the exact minimizer the minimum-norm subgradient is zero and no
        # step decreases the model, so the solve stops there without paying
        # a Hessian product
        model = QuadraticModel(np.zeros(3), np.array([-3.0, 0.5, 2.0]), 0.0,
                               lambda w: w.copy(), 1.0)
        ybar = np.array([2.0, 0.0, -1.0])
        model = _centred_at(model, ybar)
        res = obm_solve(model, never_stop, outer_k=1, max_iter=1000)
        assert res.status == "stalled"
        assert res.inner_iterations == 0
        assert res.model_decrease == 0.0
        np.testing.assert_array_equal(res.solution, ybar)
        assert model.tally.hess_vec_products == 0

    def test_nan_trial_value_stalls_at_once(self, monkeypatch):
        # the CG falls back to steepest descent on the NaN curvature, and
        # the projection clips the first trial, which then pays a NaN
        # product: no decrease is measurable, so neither more trials nor
        # the safeguard are tried
        model = _nan_model([1.0, -1.0, 0.5], np.array([3.0, 0.2, -0.1]))
        projections = []
        project = obm.orthant_project

        def recorded(w, face):
            projections.append((w, project(w, face)))
            return projections[-1][1]

        monkeypatch.setattr(obm, "orthant_project", recorded)
        res = obm_solve(model, never_stop, outer_k=1, max_iter=1000)
        ray, cand = projections[0]
        assert not np.array_equal(cand, ray)
        assert res.status == "stalled"
        assert res.inner_iterations == 0
        assert res.model_decrease == 0.0
        assert model.tally.hess_vec_products <= 2
        np.testing.assert_array_equal(res.solution, model.x_ref)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stalls_soon_after_its_last_decrease(self, seed):
        # at the model's rounding floor a search accepted trials that left
        # z unchanged, one product each, until max_iter (1000 iterations
        # and 1001 products; the last decrease came at iteration 64, 142
        # or 112); such a trial now stalls the search, and the safeguard,
        # which demands strict decrease, ends the solve
        model = _random_model(np.random.default_rng(seed))
        iterates, values = [], []  # from the start, which stop sees first

        def stop(z, sval, sgrad, penalty, linear):
            iterates.append(z.copy())
            values.append(sval + penalty)
            return False

        res = obm_solve(model, stop, 1, max_iter=1000)
        assert res.status == "stalled"
        last_decrease = max(np.nonzero(np.diff(values) < 0.0)[0]) + 1
        assert res.inner_iterations - last_decrease < 50
        assert model.tally.hess_vec_products < 600
        assert np.all(np.diff(values) <= 0.0)
        assert all((a != b).any() for a, b in zip(iterates, iterates[1:]))

    def test_safeguard_gives_up_at_its_first_nan_trial(self):
        model = _nan_model([1.0, -1.0, 0.5], np.array([3.0, 0.2, -0.1]))
        z = model.x_ref
        outcome = obm._ista_safeguard(model, z, model.g_ref, model.q_ref)
        assert outcome is None
        assert model.tally.hess_vec_products == 1

    def test_gives_up_when_the_safeguard_finds_no_decrease(self, monkeypatch):
        # a model of value 0.5 x'Hx about 1e-13 at its reference point: every
        # ascent search stalls, and the proximal-gradient steps decrease it
        # until a decrease beyond the safeguard's 1e-15 margin is out of
        # reach, where the solve ends on its last iterate
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 6))
        H = A @ A.T + np.eye(6)
        x_ref = 1e-7 * rng.normal(size=6)
        model = QuadraticModel(x_ref, H @ x_ref, 0.5 * x_ref @ H @ x_ref,
                               lambda v: H @ v, 0.0)
        monkeypatch.setattr(obm, "subspace_cg_solve",
                            lambda model, face, v, cg_cap:
                            (v.copy(), model.hessian(v)))
        safeguard = obm._ista_safeguard
        outcomes = []

        def spy(*args):
            before = model.tally.hess_vec_products
            outcomes.append((safeguard(*args),
                             model.tally.hess_vec_products - before))
            return outcomes[-1][0]

        monkeypatch.setattr(obm, "_ista_safeguard", spy)
        iterates, values = [], []

        def stop(z, sval, sgrad, penalty, linear):
            iterates.append(z.copy())
            values.append(sval + penalty)
            return False

        res = obm_solve(model, stop, outer_k=1, max_iter=1000)
        assert res.status == "stalled"
        # each iteration is a safeguard step; the last call gives up after
        # its 60 halvings
        assert res.inner_iterations == len(outcomes) - 1 > 0
        assert all(o is not None for o, _ in outcomes[:-1])
        assert outcomes[-1] == (None, 60)
        np.testing.assert_array_equal(res.solution, iterates[-1])
        assert res.model_decrease == model.q_ref - values[-1] > 0.0
        assert 0.0 <= values[-1] < 1e-14
