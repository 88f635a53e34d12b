"""Correction-pair store: compact applies, reduced solves, update policy."""

import math

import numpy as np
import pytest

import sqamin.lbfgs
from sqamin import (
    LbfgsStore,
    OrthantFace,
    Telemetry,
    lbfgs_reduced_inverse_solve,
)

from helpers import lbfgs_inverse_vec, lbfgs_pairs, materialize_operator


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

    @pytest.mark.parametrize("n", [1, 7, 100, 3600])
    def test_curvature_guard_is_the_norm_product_rule(self, n):
        # the guard takes sqrt(s@s)*sqrt(y@y) from the inner products the
        # update needs; it must be np.linalg.norm's product bit for bit, so
        # pairs at the threshold are kept or skipped as by the norms
        rng = np.random.default_rng(n)
        for _ in range(20):
            s = rng.normal(size=n) * 10.0 ** rng.uniform(-100, 100)
            u = rng.normal(size=n) * 10.0 ** rng.uniform(-100, 100)
            norms = float(np.linalg.norm(s) * np.linalg.norm(u))
            assert (math.sqrt(s @ s) * math.sqrt(u @ u)).hex() == norms.hex()
            # y's angle to s puts s@y near the guard's threshold
            y = u - (s @ u) / (s @ s) * s if n > 1 else u
            y += (sqamin.lbfgs.CURVATURE_GUARD * rng.uniform(0.5, 1.5)
                  * np.linalg.norm(y) / np.linalg.norm(s)) * s
            skipped = float(s @ y) <= sqamin.lbfgs.CURVATURE_GUARD * float(
                np.linalg.norm(s) * np.linalg.norm(y))
            assert LbfgsStore(memory=2).update(s, y) is not skipped


def _snapshot(store):
    return {name: np.copy(value) for name, value in vars(store).items()}


def _support(store):
    """Per column, how many of the store's steps are nonzero there."""
    return (np.array([s for s, _ in lbfgs_pairs(store)]) != 0).sum(axis=0)


class TestRingBuffer:
    """A memory-3 store offered 8 pairs, the fifth skipped: the 7 kept
    wrap the ring to a row order (6, 4, 5) unlike the age order.  With
    ``zero_columns``, every step is zero on the first two columns and on
    about 40% of the others."""

    n = 8

    def _wrapped_store(self, zero_columns=False):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(self.n, self.n))
        A = A @ A.T + np.eye(self.n)
        store = LbfgsStore(memory=3)
        kept = []
        for i in range(8):
            s = rng.normal(size=self.n)
            if zero_columns:
                s[rng.uniform(size=self.n) < 0.4] = 0.0
                s[:2] = 0.0
            y = -s if i == 4 else A @ s
            if i == 4:
                before = _snapshot(store)
                assert not store.update(s, y)
                after = _snapshot(store)
                assert before.keys() == after.keys()
                for name in before:
                    np.testing.assert_array_equal(after[name], before[name],
                                                  err_msg=name)
            else:
                assert store.update(s, y)
                kept.append((s, y))
        return store, kept[-3:], rng

    def test_pairs_are_the_newest_oldest_first(self):
        store, newest, _ = self._wrapped_store()
        assert len(store) == 3
        for (s, y), (s_ref, y_ref) in zip(lbfgs_pairs(store), newest, strict=True):
            np.testing.assert_array_equal(s, s_ref)
            np.testing.assert_array_equal(y, y_ref)

    def test_hessian_is_the_inverse_of_the_two_loop_recursion(self):
        store, _, _ = self._wrapped_store()
        B = materialize_operator(store.hessian_vec, self.n)
        H = materialize_operator(lambda v: lbfgs_inverse_vec(store, v), self.n)
        np.testing.assert_allclose(B, np.linalg.inv(H), rtol=1e-9, atol=1e-9)

    def test_support_counts_the_nonzero_steps_per_column(self):
        store, _, _ = self._wrapped_store(zero_columns=True)
        np.testing.assert_array_equal(store._support, _support(store))
        # columns no step reaches, and columns only some of the kept steps
        # reach, after the ring dropped steps that reached them
        np.testing.assert_array_equal(store._support[:2], 0)
        assert 0 < store._support[2:].min() < 3

    def test_failed_factor_leaves_the_store_unchanged(self, monkeypatch):
        store, _, rng = self._wrapped_store()
        before = _snapshot(store)
        assert "_support" in before
        monkeypatch.setattr(sqamin.lbfgs, "dpotrf", lambda a, **kwargs: (a, 1))
        s = rng.normal(size=self.n)
        s[::2] = 0.0  # zeros where the oldest step has none, so a count
        # updated before the factor would differ
        with pytest.raises(np.linalg.LinAlgError):
            store.update(s, 2.0 * s)
        after = _snapshot(store)
        assert before.keys() == after.keys()
        for name in before:
            np.testing.assert_array_equal(after[name], before[name],
                                          err_msg=name)
        np.testing.assert_array_equal(store._support, _support(store))

    @pytest.mark.parametrize("n_free", [3, 6])  # both sides of n/2
    def test_reduced_solve_matches_dense_on_small_and_large_faces(self, n_free):
        # the second store's free columns are the ones most steps reach, so
        # its active set holds columns that no step reaches (which P skips)
        # and, on the smaller face, columns that one or two steps reach
        for zero_columns in (False, True):
            store, _, rng = self._wrapped_store(zero_columns)
            omega = np.zeros(self.n, dtype=np.int8)
            if zero_columns:
                picked = np.argsort(-store._support, kind="stable")[:n_free]
            else:
                picked = rng.choice(self.n, size=n_free, replace=False)
            omega[picked] = rng.choice([-1, 1], size=n_free)
            face = OrthantFace(omega)
            free = face.free_mask
            B = materialize_operator(store.hessian_vec, self.n)
            v = rng.normal(size=self.n)
            expected = np.zeros(self.n)
            expected[free] = -np.linalg.solve(B[np.ix_(free, free)], v[free])
            tally = Telemetry()
            d = lbfgs_reduced_inverse_solve(store, face, v, tally)
            np.testing.assert_allclose(d, expected, rtol=1e-9, atol=1e-11)
            assert tally.lbfgs_fallback_solves == 0


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

        def not_positive_definite(a, **kwargs):
            return a, 1  # LAPACK's report of a non-positive leading minor

        # the reduced solve's Cholesky factorizations; the store's own
        # factor was computed before the patch
        monkeypatch.setattr(sqamin.lbfgs, "dpotrf", not_positive_definite)
        tally = Telemetry()
        d = lbfgs_reduced_inverse_solve(store, OrthantFace(omega), v, tally)
        free = omega != 0
        np.testing.assert_array_equal(d[free], -v[free] / store.sigma)
        np.testing.assert_array_equal(d[~free], 0.0)
        assert tally.lbfgs_fallback_solves == 1
