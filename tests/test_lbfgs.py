"""Correction-pair store: compact applies, reduced solves, update policy."""

import numpy as np
import pytest
import scipy.linalg

from sqamin import (
    LbfgsStore,
    OrthantFace,
    Telemetry,
    lbfgs_reduced_inverse_solve,
    lbfgs_update,
)

from helpers import lbfgs_inverse_vec, materialize_operator


def _filled_store(rng, n, n_pairs, memory=50):
    A = rng.normal(size=(n, n))
    Aspd = A @ A.T + np.eye(n)
    store = LbfgsStore(memory=memory)
    for _ in range(n_pairs):
        s = rng.normal(size=n)
        store.update(s, Aspd @ s)
    return store


class TestUpdatePolicy:
    def test_nonpositive_curvature_skipped(self):
        store = LbfgsStore(memory=5)
        s = np.array([1.0, 0.0])
        y = np.array([-1.0, 0.0])
        assert not store.update(s, y)
        assert len(store) == 0

    def test_skip_flagged_in_telemetry(self):
        store = LbfgsStore(memory=5)
        tally = Telemetry()
        lbfgs_update(store, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), tally)
        assert tally.lbfgs_skipped_updates == 1
        lbfgs_update(store, np.array([1.0, 0.0]), np.array([2.0, 0.0]), tally)
        assert tally.lbfgs_skipped_updates == 1
        assert len(store) == 1

    def test_memory_one_keeps_most_recent(self):
        store = LbfgsStore(memory=1)
        store.update(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        store.update(np.array([0.0, 1.0]), np.array([0.0, 3.0]))
        assert len(store) == 1
        # base scale follows the surviving pair: s@y / y@y = 3/9
        assert store.gamma_scale == pytest.approx(1.0 / 3.0)

    def test_scale_from_newest_pair(self):
        store = LbfgsStore(memory=4)
        store.update(np.array([1.0, 0.0]), np.array([4.0, 0.0]))
        assert store.gamma_scale == pytest.approx(0.25)


class TestApplies:
    def test_empty_store_is_identity(self):
        store = LbfgsStore()
        v = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(store.hessian_vec(v), v)
        np.testing.assert_array_equal(lbfgs_inverse_vec(store, v), v)

    def test_hessian_and_inverse_are_mutual_inverses(self):
        rng = np.random.default_rng(0)
        store = _filled_store(rng, n=9, n_pairs=6)
        for _ in range(10):
            v = rng.normal(size=9)
            w = lbfgs_inverse_vec(store, store.hessian_vec(v))
            np.testing.assert_allclose(w, v, rtol=1e-8, atol=1e-10)
            w2 = store.hessian_vec(lbfgs_inverse_vec(store, v))
            np.testing.assert_allclose(w2, v, rtol=1e-8, atol=1e-10)

    def test_secant_reconstruction_on_quadratic(self):
        # updates along the Hessian's eigenvector directions are mutually
        # conjugate, so after n of them the approximation reproduces A
        rng = np.random.default_rng(1)
        n = 6
        M = rng.normal(size=(n, n))
        A = M @ M.T + np.eye(n)
        _, vecs = np.linalg.eigh(A)
        store = LbfgsStore(memory=50)
        for i in range(n):
            s = vecs[:, i]
            store.update(s, A @ s)
        for _ in range(10):
            v = rng.normal(size=n)
            np.testing.assert_allclose(store.hessian_vec(v), A @ v,
                                       rtol=1e-6, atol=1e-8)

    def test_hessian_apply_positive_definite(self):
        rng = np.random.default_rng(2)
        store = _filled_store(rng, n=7, n_pairs=12, memory=5)
        for _ in range(100):
            v = rng.normal(size=7)
            assert v @ store.hessian_vec(v) > 0


class TestReducedSolve:
    def test_empty_store_negative_gradient(self):
        store = LbfgsStore()
        face = OrthantFace(np.array([1, -1, 0], dtype=np.int8))
        v = np.array([0.5, -0.25, 7.0])
        d = lbfgs_reduced_inverse_solve(store, face, v)
        np.testing.assert_allclose(d, [-0.5, 0.25, 0.0])

    def test_full_space_matches_inverse_apply(self):
        rng = np.random.default_rng(3)
        n = 8
        store = _filled_store(rng, n=n, n_pairs=5)
        face = OrthantFace(np.ones(n, dtype=np.int8))
        v = rng.normal(size=n)
        d = lbfgs_reduced_inverse_solve(store, face, v)
        np.testing.assert_allclose(d, -lbfgs_inverse_vec(store, v), rtol=1e-10,
                                   atol=1e-12)

    def test_matches_dense_reduced_assembly(self):
        rng = np.random.default_rng(4)
        n = 8
        store = _filled_store(rng, n=n, n_pairs=3)
        omega = np.array([1, 0, -1, 1, 0, -1, 1, 1], dtype=np.int8)
        face = OrthantFace(omega)
        free = face.free_mask
        B = materialize_operator(store.hessian_vec, n)
        v = rng.normal(size=n)
        expected = np.zeros(n)
        expected[free] = -np.linalg.solve(B[np.ix_(free, free)], v[free])
        d = lbfgs_reduced_inverse_solve(store, face, v)
        np.testing.assert_allclose(d, expected, rtol=1e-8, atol=1e-10)

    def test_active_components_zero(self):
        rng = np.random.default_rng(5)
        store = _filled_store(rng, n=6, n_pairs=4)
        omega = np.array([0, 1, 0, -1, 1, 0], dtype=np.int8)
        d = lbfgs_reduced_inverse_solve(store, OrthantFace(omega),
                                        rng.normal(size=6))
        np.testing.assert_array_equal(d[omega == 0], np.zeros(3))

    def test_all_active_face(self):
        rng = np.random.default_rng(6)
        store = _filled_store(rng, n=4, n_pairs=2)
        d = lbfgs_reduced_inverse_solve(
            store, OrthantFace(np.zeros(4, dtype=np.int8)), rng.normal(size=4)
        )
        np.testing.assert_array_equal(d, np.zeros(4))

    def test_singular_system_falls_back_to_steepest_descent(self, monkeypatch):
        rng = np.random.default_rng(7)
        store = _filled_store(rng, n=6, n_pairs=3)
        omega = np.array([1, 0, -1, 1, 0, 1], dtype=np.int8)
        v = rng.normal(size=6)

        def singular(*args, **kwargs):
            raise scipy.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(scipy.linalg, "solve", singular)
        tally = Telemetry()
        d = lbfgs_reduced_inverse_solve(store, OrthantFace(omega), v, tally)
        free = omega != 0
        np.testing.assert_array_equal(d[free], -v[free] / store.sigma)
        np.testing.assert_array_equal(d[~free], 0.0)
        assert tally.lbfgs_fallback_solves == 1
