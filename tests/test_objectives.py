"""Oracle consistency of the logistic, log-det, and quadratic objectives."""

import numpy as np
import pytest
import scipy.sparse

from sqamin import objectives
from sqamin import (
    CovarianceProblem,
    LogisticDataset,
    NotPositiveDefiniteError,
    logdet_gradient,
    logdet_hess_vec,
    logdet_value,
    logistic_gradient,
    logistic_hess_vec,
    logistic_problem,
    logistic_value,
    synthetic_logistic_dataset,
    synthetic_quadratic,
    synthetic_quadratic_matrices,
)

from helpers import (
    central_difference_gradient,
    directional_second_difference,
    long_run_ista,
)


def _small_dataset(rng, n_samples=12, n_features=6):
    Z = rng.normal(size=(n_samples, n_features))
    y = np.where(rng.uniform(size=n_samples) > 0.5, 1.0, -1.0)
    return LogisticDataset(scipy.sparse.csr_matrix(Z), y)


class TestLogisticDataset:
    def test_rejects_bad_labels(self):
        Z = scipy.sparse.csr_matrix(np.eye(3))
        with pytest.raises(ValueError):
            LogisticDataset(Z, np.array([1.0, 0.0, -1.0]))

    def test_rejects_unsorted_indices(self):
        data = np.array([1.0, 2.0])
        indices = np.array([2, 1])
        indptr = np.array([0, 2])
        Z = scipy.sparse.csr_matrix((data, indices, indptr), shape=(1, 3))
        with pytest.raises(ValueError):
            LogisticDataset(Z, np.array([1.0]))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_rejects_column_index_out_of_range(self, bad):
        # both bounds of [0, n_features); a negative index would otherwise
        # read x from the end
        Z = scipy.sparse.csr_matrix(
            (np.array([1.0, 2.0]), np.array([0, bad]), np.array([0, 1, 2])),
            shape=(2, 3),
        )
        with pytest.raises(ValueError, match=f"column index {bad} outside"):
            LogisticDataset(Z, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_features(self, bad):
        Z = scipy.sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(ValueError, match="finite"):
            LogisticDataset(Z, np.array([1.0, -1.0]))

    @staticmethod
    def _rows(rows, n_features=5):
        indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        indices = np.concatenate([np.asarray(r, dtype=np.int32) for r in rows])
        Z = scipy.sparse.csr_matrix(
            (np.ones(indices.size), indices, indptr),
            shape=(len(rows), n_features))
        return Z, np.ones(len(rows))

    def test_names_later_unsorted_row(self):
        Z, y = self._rows([[0, 2], [1, 3], [3, 0]])
        with pytest.raises(ValueError, match=r"^row 2: column indices not "
                                             r"strictly increasing$"):
            LogisticDataset(Z, y)

    def test_rejects_duplicate_index(self):
        Z, y = self._rows([[0], [1, 1], [2]])
        with pytest.raises(ValueError, match=r"^row 1: "):
            LogisticDataset(Z, y)

    def test_decrease_across_row_boundaries_and_empty_rows_accepted(self):
        Z, y = self._rows([[], [3, 4], [], [0, 1], [2], []])
        LogisticDataset(Z, y)

    def test_matches_row_by_row_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            rows = [np.sort(rng.choice(5, size=m, replace=False))
                    if rng.uniform() < 0.8 else rng.integers(0, 5, size=m)
                    for m in rng.integers(0, 4, size=6)]
            expected = next((i for i, row in enumerate(rows)
                             if np.any(np.diff(row) <= 0)), None)
            Z, y = self._rows(rows)
            if expected is None:
                LogisticDataset(Z, y)
            else:
                with pytest.raises(ValueError, match=f"^row {expected}: "):
                    LogisticDataset(Z, y)


class TestLogisticValue:
    def test_zero_point_gives_log_two(self):
        rng = np.random.default_rng(0)
        data = _small_dataset(rng)
        assert logistic_value(data, np.zeros(6)) == pytest.approx(np.log(2.0))

    def test_single_sample_closed_form(self):
        data = LogisticDataset(
            scipy.sparse.csr_matrix(np.array([[1.0]])), np.array([1.0])
        )
        for t in (0.0, 1.0, -2.0, 40.0, -40.0):
            expected = np.log1p(np.exp(-t)) if t > -30 else -t
            assert logistic_value(data, np.array([t])) == pytest.approx(
                expected, rel=1e-12
            )

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(1)
        data = _small_dataset(rng)
        Z = data.features.toarray()
        x = rng.normal(size=6)
        total = 0.0
        for i in range(data.n_samples):
            margin = 0.0
            for j in range(data.n_features):
                margin += x[j] * Z[i, j]
            total += np.log(1.0 + np.exp(-data.labels[i] * margin))
        assert logistic_value(data, x) == pytest.approx(
            total / data.n_samples, rel=1e-12
        )

    def test_overflow_safe_for_huge_margins(self):
        data = LogisticDataset(
            scipy.sparse.csr_matrix(np.array([[1.0]])), np.array([1.0])
        )
        val = logistic_value(data, np.array([-1000.0]))
        assert val == pytest.approx(1000.0)
        assert np.isfinite(logistic_value(data, np.array([1000.0])))


class TestLogisticGradient:
    def test_single_sample_at_zero(self):
        data = LogisticDataset(
            scipy.sparse.csr_matrix(np.array([[1.0]])), np.array([1.0])
        )
        np.testing.assert_allclose(
            logistic_gradient(data, np.zeros(1)), [-0.5]
        )

    def test_cancelling_labels_give_zero_gradient(self):
        Z = scipy.sparse.csr_matrix(np.ones((2, 3)))
        data = LogisticDataset(Z, np.array([1.0, -1.0]))
        np.testing.assert_allclose(
            logistic_gradient(data, np.zeros(3)), np.zeros(3), atol=1e-15
        )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        data = _small_dataset(rng)
        for _ in range(20):
            x = rng.normal(size=6)
            fd = central_difference_gradient(lambda z: logistic_value(data, z), x)
            got = logistic_gradient(data, x)
            np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-10)


class TestLogisticHessVec:
    def test_zero_vector(self):
        rng = np.random.default_rng(3)
        data = _small_dataset(rng)
        np.testing.assert_array_equal(
            logistic_hess_vec(data, np.ones(6), np.zeros(6)), np.zeros(6)
        )

    def test_matches_gradient_finite_differences(self):
        rng = np.random.default_rng(4)
        data = _small_dataset(rng)
        x = rng.normal(size=6)
        for _ in range(10):
            v = rng.normal(size=6)
            fd = directional_second_difference(
                lambda z: logistic_gradient(data, z), x, v
            )
            got = logistic_hess_vec(data, x, v)
            np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-9)

    def test_single_sample_scalar_reduction(self):
        z1 = np.array([[2.0, -1.0]])
        data = LogisticDataset(scipy.sparse.csr_matrix(z1), np.array([-1.0]))
        x = np.array([0.3, 0.7])
        v = np.array([1.0, 2.0])
        m = -1.0 * float(z1[0] @ x)
        s = 1.0 / (1.0 + np.exp(m))  # sigmoid(-y m) with y=-1
        w = s * (1 - s)
        expected = w * float(z1[0] @ v) * z1[0]
        np.testing.assert_allclose(logistic_hess_vec(data, x, v), expected,
                                   rtol=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        data = _small_dataset(rng)
        x = rng.normal(size=6)
        for _ in range(100):
            v = rng.normal(size=6)
            assert v @ logistic_hess_vec(data, x, v) >= -1e-14


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLogisticProblemCache:
    """The problem's oracles share margins between calls at one point, and
    agree bitwise with the pure functions at every point."""

    @staticmethod
    def _count_margins(monkeypatch):
        calls = []
        original = objectives._margins

        def counted(data, x):
            calls.append(1)
            return original(data, x)

        monkeypatch.setattr(objectives, "_margins", counted)
        return calls

    def _check_all(self, prob, data, x, v):
        assert _bitwise(prob.value(x), logistic_value(data, x))
        assert _bitwise(prob.hess_vec(x, v), logistic_hess_vec(data, x, v))
        assert _bitwise(prob.gradient(x), logistic_gradient(data, x))
        assert _bitwise(prob.hess_vec(x, 2.0 * v),
                        logistic_hess_vec(data, x, 2.0 * v))

    def test_interleaved_points_match_pure_functions(self):
        rng = np.random.default_rng(6)
        data = _small_dataset(rng)
        prob = logistic_problem(data, 0.1)
        x0, x1, v = rng.normal(size=(3, 6))
        mutated = x0.copy()
        nan_point = x1.copy()
        nan_point[2] = np.nan
        for x in (x0, x1, x0, mutated, nan_point, x1, nan_point):
            self._check_all(prob, data, x, v)
        # the same array, changed in place after the cache saw it
        mutated[3] += 0.5
        self._check_all(prob, data, mutated, v)
        mutated[:] = x1
        self._check_all(prob, data, mutated, v)
        # a Hessian product, then a value elsewhere, then back again
        assert _bitwise(prob.hess_vec(x0, v), logistic_hess_vec(data, x0, v))
        assert _bitwise(prob.value(x1), logistic_value(data, x1))
        assert _bitwise(prob.hess_vec(x0, v), logistic_hess_vec(data, x0, v))
        assert np.isnan(prob.value(nan_point))

    def test_wrong_shape_raises_and_cache_stays_usable(self, monkeypatch):
        rng = np.random.default_rng(7)
        data = _small_dataset(rng)
        prob = logistic_problem(data, 0.1)
        x, v = rng.normal(size=(2, 6))
        expected = prob.gradient(x), logistic_value(data, x)
        calls = self._count_margins(monkeypatch)
        for oracle in (prob.value, prob.gradient,
                       lambda z: prob.hess_vec(z, v)):
            with pytest.raises(ValueError, match="expected dimension 6"):
                oracle(np.zeros(7))
        with pytest.raises(ValueError, match="expected dimension 6"):
            prob.hess_vec(x, np.zeros(5))
        assert _bitwise(prob.gradient(x), expected[0])
        assert _bitwise(prob.value(x), expected[1])
        assert len(calls) == 3  # only the three failed attempts
        y = x + 1.0
        assert _bitwise(prob.hess_vec(y, v), logistic_hess_vec(data, y, v))

    def test_margins_computed_once_per_point(self, monkeypatch):
        rng = np.random.default_rng(8)
        data = _small_dataset(rng)
        prob = logistic_problem(data, 0.1)
        x = rng.normal(size=6)
        calls = self._count_margins(monkeypatch)
        prob.value(x)
        prob.gradient(x)
        for v in rng.normal(size=(5, 6)):
            prob.hess_vec(x, v)
        assert len(calls) == 1
        prob.value(x.copy())  # an equal point in a new array is a cache hit
        assert len(calls) == 1

    def test_construction_computes_nothing(self, monkeypatch):
        data = _small_dataset(np.random.default_rng(9))
        calls = self._count_margins(monkeypatch)
        transposes = []
        original = type(data.features).transpose

        def counted(self, *args, **kwargs):
            transposes.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(type(data.features), "transpose", counted)
        prob = logistic_problem(data, 0.1)
        assert calls == [] and transposes == []
        prob.value(np.zeros(6))
        assert transposes == []
        for x in np.eye(6):
            prob.gradient(x)
            prob.hess_vec(x, x)
        assert len(transposes) == 1  # built once per problem, on first use
        assert len(calls) == 1 + 6


class TestLogDet:
    def _problem(self, rng, p=4):
        M = rng.normal(size=(p, p))
        S = M @ M.T / p
        return CovarianceProblem(0.5 * (S + S.T))

    def _random_spd_vec(self, rng, p):
        M = rng.normal(size=(p, p))
        P = M @ M.T + p * np.eye(p)
        return P.ravel()

    def test_identity_pair(self):
        p = 4
        prob = CovarianceProblem(np.eye(p))
        assert logdet_value(prob, np.eye(p).ravel()) == pytest.approx(float(p))

    @pytest.mark.parametrize("S, message", [
        (np.ones((2, 3)), "square"),
        ([[1.0, np.inf], [np.inf, 1.0]], "finite"),
        ([[1.0, np.nan], [np.nan, 1.0]], "finite"),
        ([[1.0, 0.5], [0.4, 1.0]], "exactly symmetric"),
    ], ids=["not_square", "inf", "nan", "asymmetric"])
    def test_rejects_invalid_sample_covariance(self, S, message):
        with pytest.raises(ValueError,
                           match=f"sample covariance must be .*{message}"):
            CovarianceProblem(np.array(S))

    def test_infinite_off_the_cone(self):
        prob = CovarianceProblem(np.eye(2))
        P = np.diag([1.0, -0.5])
        assert logdet_value(prob, P.ravel()) == np.inf

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(6)
        p = 5
        prob = self._problem(rng, p)
        Pvec = self._random_spd_vec(rng, p)
        P = Pvec.reshape(p, p)
        lam = np.linalg.eigvalsh(0.5 * (P + P.T))
        expected = float(np.sum(prob.sample_cov * P)) - float(np.sum(np.log(lam)))
        assert logdet_value(prob, Pvec) == pytest.approx(expected, abs=1e-10)

    def test_gradient_zero_at_inverse(self):
        rng = np.random.default_rng(7)
        prob = self._problem(rng, 4)
        S = prob.sample_cov + 0.5 * np.eye(4)  # ensure PD
        prob = CovarianceProblem(0.5 * (S + S.T))
        Pstar = np.linalg.inv(prob.sample_cov)
        g = logdet_gradient(prob, (0.5 * (Pstar + Pstar.T)).ravel())
        np.testing.assert_allclose(g, np.zeros(16), atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        p = 5
        prob = self._problem(rng, p)
        Pvec = self._random_spd_vec(rng, p)
        fd = central_difference_gradient(lambda v: logdet_value(prob, v),
                                         Pvec, h=1e-5)
        got = logdet_gradient(prob, Pvec)
        np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-7)

    def test_gradient_raises_off_cone(self):
        prob = CovarianceProblem(np.eye(2))
        with pytest.raises(NotPositiveDefiniteError):
            logdet_gradient(prob, np.diag([1.0, -1.0]).ravel())

    def test_hess_vec_identity_action(self):
        prob = CovarianceProblem(np.eye(3))
        rng = np.random.default_rng(9)
        V = rng.normal(size=(3, 3))
        V = 0.5 * (V + V.T)
        out = logdet_hess_vec(prob, np.eye(3).ravel(), V.ravel())
        np.testing.assert_allclose(out, V.ravel(), atol=1e-14)

    def test_hess_vec_matches_gradient_differences(self):
        rng = np.random.default_rng(10)
        p = 5
        prob = self._problem(rng, p)
        Pvec = self._random_spd_vec(rng, p)
        V = rng.normal(size=(p, p))
        V = 0.5 * (V + V.T)
        fd = directional_second_difference(
            lambda v: logdet_gradient(prob, v), Pvec, V.ravel(), h=1e-6
        )
        got = logdet_hess_vec(prob, Pvec, V.ravel())
        np.testing.assert_allclose(got, fd, rtol=1e-4, atol=1e-7)

    def test_hess_vec_matches_kronecker(self):
        rng = np.random.default_rng(11)
        p = 3
        prob = self._problem(rng, p)
        Pvec = self._random_spd_vec(rng, p)
        P = Pvec.reshape(p, p)
        Pinv = np.linalg.inv(P)
        K = np.kron(Pinv, Pinv)
        V = rng.normal(size=(p, p))
        V = 0.5 * (V + V.T)
        np.testing.assert_allclose(
            logdet_hess_vec(prob, Pvec, V.ravel()), K @ V.ravel(), atol=1e-10
        )

    def test_outputs_symmetric(self):
        rng = np.random.default_rng(12)
        p = 4
        prob = self._problem(rng, p)
        Pvec = self._random_spd_vec(rng, p)
        g = logdet_gradient(prob, Pvec).reshape(p, p)
        np.testing.assert_allclose(g, g.T, atol=1e-12)
        Hv = logdet_hess_vec(prob, Pvec, rng.normal(size=p * p)).reshape(p, p)
        np.testing.assert_allclose(Hv, Hv.T, atol=1e-12)


class TestSyntheticQuadratic:
    def test_condition_one_is_identity(self):
        A, b = synthetic_quadratic_matrices(6, 1.0, seed=2)
        np.testing.assert_allclose(A, np.eye(6), atol=1e-12)
        prob = synthetic_quadratic(6, 1.0, seed=2)
        np.testing.assert_allclose(prob.gradient(b), np.zeros(6), atol=1e-12)

    def test_rejects_condition_below_one(self):
        with pytest.raises(ValueError):
            synthetic_quadratic(4, 0.5, seed=0)

    def test_deterministic_per_seed(self):
        A1, b1 = synthetic_quadratic_matrices(5, 10.0, seed=3)
        A2, b2 = synthetic_quadratic_matrices(5, 10.0, seed=3)
        np.testing.assert_array_equal(A1, A2)
        np.testing.assert_array_equal(b1, b2)

    def test_spectrum_spans_condition(self):
        A, _ = synthetic_quadratic_matrices(8, 100.0, seed=4)
        lam = np.linalg.eigvalsh(A)
        assert lam.min() == pytest.approx(1.0, rel=1e-10)
        assert lam.max() == pytest.approx(100.0, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        prob = synthetic_quadratic(5, 20.0, seed=5)
        rng = np.random.default_rng(5)
        x = rng.normal(size=5)
        fd = central_difference_gradient(prob.value, x)
        np.testing.assert_allclose(prob.gradient(x), fd, rtol=1e-6, atol=1e-8)

    def test_regularized_minimizer_matches_long_ista(self):
        prob = synthetic_quadratic(6, 10.0, seed=6, mu=0.5)
        A, _ = synthetic_quadratic_matrices(6, 10.0, seed=6)
        step = 1.0 / np.linalg.eigvalsh(A).max()
        xstar = long_run_ista(prob.gradient, np.zeros(6), step, prob.mu)
        # fixed point of the prox-gradient map is the regularized minimizer
        from sqamin import residual

        F = residual(xstar, prob.gradient(xstar), 0.5, prob.mu)
        assert np.max(np.abs(F)) <= 1e-9


class TestSyntheticLogistic:
    def test_shapes_and_labels(self):
        data = synthetic_logistic_dataset(30, 10, seed=0)
        assert data.n_samples == 30
        assert data.n_features == 10
        assert set(np.unique(data.labels)) <= {-1.0, 1.0}

    def test_problem_wiring(self):
        data = synthetic_logistic_dataset(20, 8, seed=1)
        prob = logistic_problem(data, 0.05)
        assert prob.dim == 8
        x = np.zeros(8)
        assert prob.objective(x) == pytest.approx(np.log(2.0))
