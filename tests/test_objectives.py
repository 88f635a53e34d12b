"""Oracle consistency of the logistic, log-det, and quadratic objectives."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse
from scipy.special import expit

from sqamin import objectives
from sqamin import (
    CovarianceProblem,
    LogisticDataset,
    NotPositiveDefiniteError,
    SolverConfig,
    covariance_problem,
    fista_baseline_solve,
    logistic_problem,
    sample_covariance,
    sqa_solve,
    synthetic_logistic_dataset,
    synthetic_quadratic,
    synthetic_quadratic_matrices,
)

from helpers import (
    central_difference_gradient,
    directional_second_difference,
    long_run_ista,
)


def _fresh(data):
    """A new problem, so a new cache: the uncached reference oracles."""
    return logistic_problem(data, 0.0)


def _fresh_cov(prob):
    """A new covariance problem: the uncached reference log-det oracles."""
    return covariance_problem(prob, 0.0)


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


def _one_per_row_dataset(rng, n_samples=12, n_features=6):
    # one nonzero per row: the CSR arrays take fewer bytes than a dense copy
    return _rows_dataset(rng, n_features, np.ones(n_samples, dtype=int))


def _rows_dataset(rng, n_features, counts):
    # row i stores counts[i] entries, in distinct random columns
    indices = [np.sort(rng.choice(n_features, size=c, replace=False))
               for c in counts]
    indptr = np.concatenate(([0], np.cumsum(counts)))
    Z = scipy.sparse.csr_matrix(
        (rng.normal(size=indptr[-1]), np.concatenate(indices), indptr),
        shape=(len(counts), n_features))
    y = np.where(rng.uniform(size=len(counts)) > 0.5, 1.0, -1.0)
    return LogisticDataset(Z, y)


def _csr_bytes(Z):
    return Z.data.nbytes + Z.indices.nbytes + Z.indptr.nbytes


class TestLogisticLayout:
    """The oracles multiply by a dense copy of the features exactly when it
    takes no more bytes than the CSR arrays; else by a CSC copy exactly when
    the design is tall with fewer than 32 stored entries per row on average;
    else by the CSR matrix itself."""

    @staticmethod
    def _row(n_features, columns):
        # one sample whose stored entries sit in the given columns
        Z = scipy.sparse.csr_matrix(
            (np.arange(1.0, len(columns) + 1), np.asarray(columns, np.int32),
             np.array([0, len(columns)], np.int32)), shape=(1, n_features))
        return LogisticDataset(Z, np.array([1.0]))

    def test_dense_features_take_the_dense_layout(self):
        data = _small_dataset(np.random.default_rng(20))
        assert 12 * 6 * 8 < _csr_bytes(data.features)
        assert isinstance(data.operand, np.ndarray)
        assert data.operand.dtype == np.float64
        np.testing.assert_array_equal(data.operand, data.features.toarray())

    def test_sparse_features_keep_the_csr_layout(self):
        # a wide design: the CSR loops over the fewer rows
        data = _one_per_row_dataset(np.random.default_rng(21), 6, 12)
        assert 6 * 12 * 8 > _csr_bytes(data.features)
        assert data.operand is data.features

    def test_tall_short_rows_take_a_csc_copy(self):
        data = _one_per_row_dataset(np.random.default_rng(24))
        assert 12 * 6 * 8 > _csr_bytes(data.features)
        Z, C = data.features, data.operand
        assert C.format == "csc" and C.has_sorted_indices
        assert C.dtype == Z.dtype and C.nnz == Z.nnz
        np.testing.assert_array_equal(C.toarray(), Z.toarray())
        # the transposed product runs on a view of the copy
        assert np.shares_memory(C.T.data, C.data)

    def test_tall_long_rows_keep_the_csr_layout(self):
        # 40 entries per row: 40*12 + 4 CSR bytes per row against 64*8 dense
        data = _rows_dataset(np.random.default_rng(25), 64, np.full(80, 40))
        assert 80 * 64 * 8 > _csr_bytes(data.features)
        assert data.operand is data.features

    def test_csc_needs_fewer_than_32_entries_per_row(self):
        counts = np.full(80, 32)
        at_boundary = _rows_dataset(np.random.default_rng(26), 64, counts)
        assert at_boundary.features.nnz == 32 * 80
        assert at_boundary.operand is at_boundary.features
        counts[-1] -= 1
        under = _rows_dataset(np.random.default_rng(26), 64, counts)
        assert under.features.nnz == 32 * 80 - 1
        assert under.operand.format == "csc"

    def test_equal_bytes_take_the_dense_layout(self):
        # 2 stored entries: 2*8 + 2*4 + 2*4 = 32 bytes of CSR, and 4 dense
        # columns of 8 bytes; one more column tips the rule over
        at_boundary = self._row(4, [0, 3])
        assert _csr_bytes(at_boundary.features) == 4 * 8
        assert isinstance(at_boundary.operand, np.ndarray)
        past_boundary = self._row(5, [0, 3])
        assert _csr_bytes(past_boundary.features) == 5 * 8 - 8
        assert past_boundary.operand is past_boundary.features

    def test_integer_features_give_a_float_operand(self):
        Z = scipy.sparse.csr_matrix(np.array([[1, 2], [3, 4]], dtype=np.int64))
        data = LogisticDataset(Z, np.array([1.0, -1.0]))
        assert data.operand.dtype == np.float64
        assert _fresh(data).value(np.array([0.5, -0.25])) == pytest.approx(
            0.5 * (np.log1p(np.exp(0.0)) + np.log1p(np.exp(0.5))), rel=1e-12)

    def test_both_layouts_agree(self):
        # one matrix stored twice: without its zeros (CSC layout, or the
        # CSR matrix when forced) and with every entry stored (dense
        # layout); the sparse layouts add the same terms in the same order
        rng = np.random.default_rng(22)
        n_samples, n_features = 40, 30
        Zd = rng.normal(size=(n_samples, n_features))
        Zd[rng.uniform(size=Zd.shape) > 0.1] = 0.0
        full = scipy.sparse.csr_matrix(
            (Zd.ravel(), np.tile(np.arange(n_features), n_samples),
             np.arange(0, Zd.size + 1, n_features)), shape=Zd.shape)
        y = np.where(rng.uniform(size=n_samples) > 0.5, 1.0, -1.0)
        sparse = LogisticDataset(scipy.sparse.csr_matrix(Zd), y)
        csr = LogisticDataset(sparse.features, y)
        vars(csr)["operand"] = csr.features
        dense = LogisticDataset(full, y)
        assert sparse.operand.format == "csc"
        assert isinstance(dense.operand, np.ndarray)

        def close(a, b):
            a, b = np.asarray(a), np.asarray(b)
            return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

        a, b, c = (logistic_problem(d, 0.1) for d in (sparse, dense, csr))
        for x, v in rng.normal(size=(5, 2, n_features)):
            assert close(_fresh(dense).value(x), _fresh(sparse).value(x))
            assert close(_fresh(dense).gradient(x),
                         _fresh(sparse).gradient(x))
            assert close(_fresh(dense).hess_vec(x, v),
                         _fresh(sparse).hess_vec(x, v))
            assert close(b.value(x), a.value(x))
            assert close(b.gradient(x), a.gradient(x))
            assert close(b.hess_vec(x, v), a.hess_vec(x, v))
            assert _bitwise(c.value(x), a.value(x))
            assert _bitwise(c.gradient(x), a.gradient(x))
            assert _bitwise(c.hess_vec(x, v), a.hess_vec(x, v))

    def test_overflowing_products_are_silent(self):
        # BLAS flags the overflow; the non-finite margins go to the solver
        data = LogisticDataset(scipy.sparse.csr_matrix(np.full((4, 1), 1e308)),
                               np.ones(4))
        assert isinstance(data.operand, np.ndarray)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _fresh(data).value(np.array([1e308])) == 0.0
            assert _fresh(data).gradient(np.zeros(1)) == -np.inf
            assert _fresh(data).hess_vec(np.zeros(1),
                                         np.array([1e308])) == np.inf


class TestLogisticValue:
    def test_zero_point_gives_log_two(self):
        rng = np.random.default_rng(0)
        data = _small_dataset(rng)
        assert _fresh(data).value(np.zeros(6)) == pytest.approx(np.log(2.0))

    def test_single_sample_closed_form(self):
        data = LogisticDataset(
            scipy.sparse.csr_matrix(np.array([[1.0]])), np.array([1.0])
        )
        for t in (0.0, 1.0, -2.0, 40.0, -40.0):
            expected = np.log1p(np.exp(-t)) if t > -30 else -t
            assert _fresh(data).value(np.array([t])) == pytest.approx(
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
        assert _fresh(data).value(x) == pytest.approx(
            total / data.n_samples, rel=1e-12
        )

    def test_overflow_safe_for_huge_margins(self):
        data = LogisticDataset(
            scipy.sparse.csr_matrix(np.array([[1.0]])), np.array([1.0])
        )
        val = _fresh(data).value(np.array([-1000.0]))
        assert val == pytest.approx(1000.0)
        assert np.isfinite(_fresh(data).value(np.array([1000.0])))


class TestLogisticGradient:
    def test_single_sample_at_zero(self):
        data = LogisticDataset(
            scipy.sparse.csr_matrix(np.array([[1.0]])), np.array([1.0])
        )
        np.testing.assert_allclose(
            _fresh(data).gradient(np.zeros(1)), [-0.5]
        )

    def test_cancelling_labels_give_zero_gradient(self):
        Z = scipy.sparse.csr_matrix(np.ones((2, 3)))
        data = LogisticDataset(Z, np.array([1.0, -1.0]))
        np.testing.assert_allclose(
            _fresh(data).gradient(np.zeros(3)), np.zeros(3), atol=1e-15
        )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        data = _small_dataset(rng)
        for _ in range(20):
            x = rng.normal(size=6)
            fd = central_difference_gradient(_fresh(data).value, x)
            got = _fresh(data).gradient(x)
            np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-10)


class TestLogisticHessVec:
    def test_zero_vector(self):
        rng = np.random.default_rng(3)
        data = _small_dataset(rng)
        np.testing.assert_array_equal(
            _fresh(data).hess_vec(np.ones(6), np.zeros(6)), np.zeros(6)
        )

    def test_matches_gradient_finite_differences(self):
        rng = np.random.default_rng(4)
        data = _small_dataset(rng)
        x = rng.normal(size=6)
        for _ in range(10):
            v = rng.normal(size=6)
            fd = directional_second_difference(
                _fresh(data).gradient, x, v
            )
            got = _fresh(data).hess_vec(x, v)
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
        np.testing.assert_allclose(_fresh(data).hess_vec(x, v), expected,
                                   rtol=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        data = _small_dataset(rng)
        x = rng.normal(size=6)
        for _ in range(100):
            v = rng.normal(size=6)
            assert v @ _fresh(data).hess_vec(x, v) >= -1e-14


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLogisticProblemCache:
    """The problem's oracles share margins between calls at one point, and
    agree bitwise with a fresh problem's at every point."""

    @staticmethod
    def _count_margins(monkeypatch):
        """Count the margin computations: the calls of ``at`` that miss the
        cache, whether they then store new margins or raise."""
        calls = []
        cls = objectives._LogisticLinearization
        original = cls.at

        def counted(self, x):
            key = self._key
            try:
                return original(self, x)
            except ValueError:
                calls.append(1)
                raise
            finally:
                if self._key is not key:
                    calls.append(1)

        monkeypatch.setattr(cls, "at", counted)
        return calls

    def _check_all(self, prob, data, x, v):
        assert _bitwise(prob.value(x), _fresh(data).value(x))
        assert _bitwise(prob.hess_vec(x, v), _fresh(data).hess_vec(x, v))
        assert _bitwise(prob.gradient(x), _fresh(data).gradient(x))
        assert _bitwise(prob.hess_vec(x, 2.0 * v),
                        _fresh(data).hess_vec(x, 2.0 * v))

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
        assert _bitwise(prob.hess_vec(x0, v), _fresh(data).hess_vec(x0, v))
        assert _bitwise(prob.value(x1), _fresh(data).value(x1))
        assert _bitwise(prob.hess_vec(x0, v), _fresh(data).hess_vec(x0, v))
        assert np.isnan(prob.value(nan_point))

    def test_wrong_shape_raises_and_cache_stays_usable(self, monkeypatch):
        rng = np.random.default_rng(7)
        data = _small_dataset(rng)
        prob = logistic_problem(data, 0.1)
        x, v = rng.normal(size=(2, 6))
        expected = prob.gradient(x), _fresh(data).value(x)
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
        assert _bitwise(prob.hess_vec(y, v), _fresh(data).hess_vec(y, v))

    def test_same_bytes_in_another_shape_raise(self, monkeypatch):
        rng = np.random.default_rng(10)
        data = _small_dataset(rng)
        prob = logistic_problem(data, 0.1)
        x = rng.normal(size=6)
        expected = prob.value(x)
        calls = self._count_margins(monkeypatch)
        with pytest.raises(ValueError, match="expected dimension 6"):
            prob.value(x.reshape(2, 3).copy())
        assert _bitwise(prob.value(x), expected)
        assert len(calls) == 1  # only the failed attempt

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

    @staticmethod
    def _count_method(monkeypatch, cls, name, calls=None):
        calls = [] if calls is None else calls
        original = getattr(cls, name)

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
        return calls

    def test_construction_computes_nothing(self, monkeypatch):
        # one dataset per layout: the dense or CSC copy is built once, on
        # first use, and only in its own layout
        rng = np.random.default_rng(9)
        for data, layout in ((_small_dataset(rng), "dense"),
                             (_one_per_row_dataset(rng), "csc"),
                             (_one_per_row_dataset(rng, 6, 12), "csr")):
            calls = self._count_margins(monkeypatch)
            csr = type(data.features)
            transposes = []
            for cls in (csr, scipy.sparse.csc_matrix):
                self._count_method(monkeypatch, cls, "transpose", transposes)
            dense = self._count_method(monkeypatch, csr, "toarray")
            csc = self._count_method(monkeypatch, csr, "tocsc")
            prob = logistic_problem(data, 0.1)
            assert calls == [] and transposes == [] and dense == [] and csc == []
            assert "operand" not in vars(data)
            n = data.n_features
            prob.value(np.zeros(n))
            assert transposes == []
            assert len(dense) == (layout == "dense")
            assert len(csc) == (layout == "csc")
            for x in np.eye(n):
                prob.gradient(x)
                prob.hess_vec(x, x)
            # the transpose is a view in every layout: the dense one an
            # ndarray attribute, the sparse ones taken once per problem
            assert len(transposes) == (layout != "dense")
            assert len(dense) == (layout == "dense")
            assert len(csc) == (layout == "csc")
            assert len(calls) == 1 + n
            monkeypatch.undo()


class TestLogisticGram:
    """On a dense operand with no more features than samples and at most
    ``_GRAM_MAX_FEATURES`` of them, the Hessian at a point is built once as
    its Gram matrix and each product is one matvec; every other operand
    keeps the two products."""

    @staticmethod
    def _count_grams(monkeypatch):
        """Count the Gram builds: the calls of ``hess_vec`` that leave a
        new matrix in the one-point Hessian slot, whether they then return
        or raise.  Patch before building the problem, whose oracles are
        bound methods."""
        calls = []
        cls = objectives._LogisticLinearization
        original = cls.hess_vec

        def counted(self, x, v):
            before = self._hess
            try:
                return original(self, x, v)
            finally:
                after = self._hess
                if after is not before and np.ndim(after) == 2:
                    calls.append(1)

        monkeypatch.setattr(cls, "hess_vec", counted)
        return calls

    @staticmethod
    def _two_products(data, x, v):
        """``Z.T @ (w * (Z @ v)) / N`` from the features, uncached."""
        Z = data.features.toarray()
        s = expit(-data.labels * (Z @ x))
        w = s * (1.0 - s)
        return Z.T @ (w * (Z @ v)) / data.n_samples, w

    @staticmethod
    def _close(a, b):
        return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    def test_built_once_per_point(self, monkeypatch):
        rng = np.random.default_rng(30)
        data = _small_dataset(rng)
        calls = self._count_grams(monkeypatch)
        margins = TestLogisticProblemCache._count_margins(monkeypatch)
        prob = logistic_problem(data, 0.1)
        assert calls == [] and margins == []  # nothing at construction
        x0, x1 = rng.normal(size=(2, 6))
        prob.value(x0)
        prob.gradient(x0)
        assert calls == []  # value and gradient need no Hessian
        for v in rng.normal(size=(5, 6)):
            prob.hess_vec(x0, v)
        assert len(calls) == 1 and len(margins) == 1
        hess = prob.hess_vec.__self__._hess
        assert hess.shape == (6, 6)
        np.testing.assert_array_equal(hess, hess.T)
        prob.hess_vec(x0.copy(), x1)  # an equal point in a new array
        assert len(calls) == 1
        prob.hess_vec(x1, x0)
        prob.value(x0)
        prob.hess_vec(x0, x1)  # a new point again: a new Gram
        assert len(calls) == 3 and len(margins) == 3
        with pytest.raises(ValueError, match="expected dimension 6"):
            prob.hess_vec(x0, np.zeros(5))
        assert len(calls) == 3

    def test_other_layouts_never_build_it(self, monkeypatch):
        rng = np.random.default_rng(31)
        wide = _small_dataset(rng, n_samples=6, n_features=12)
        assert isinstance(wide.operand, np.ndarray)
        for data, layout in ((_one_per_row_dataset(rng), "csc"),
                             (_one_per_row_dataset(rng, 6, 12), "csr"),
                             (wide, "dense")):
            calls = self._count_grams(monkeypatch)
            prob = logistic_problem(data, 0.1)
            assert layout == "dense" or data.operand.format == layout
            n = data.n_features
            for x, v in rng.normal(size=(3, 2, n)):
                expected, _ = self._two_products(data, x, v)
                assert self._close(prob.hess_vec(x, v), expected)
                assert np.ndim(prob.hess_vec.__self__._hess) == 1
            assert calls == []
            monkeypatch.undo()

    @pytest.mark.parametrize("cap, builds", [(5, 0), (6, 1)])
    def test_no_build_above_the_feature_cap(self, monkeypatch, cap, builds):
        rng = np.random.default_rng(36)
        data = _small_dataset(rng)  # 12 x 6, dense
        monkeypatch.setattr(objectives, "_GRAM_MAX_FEATURES", cap)
        calls = self._count_grams(monkeypatch)
        prob = logistic_problem(data, 0.1)
        x, v = rng.normal(size=(2, 6))
        expected, _ = self._two_products(data, x, v)
        assert self._close(prob.hess_vec(x, v), expected)
        assert len(calls) == builds

    def test_agrees_with_the_two_products(self):
        rng = np.random.default_rng(32)
        data = _small_dataset(rng, n_samples=40, n_features=10)
        prob = logistic_problem(data, 0.1)
        for x, v in rng.normal(size=(10, 2, 10)):
            expected, _ = self._two_products(data, x, v)
            assert self._close(prob.hess_vec(x, v), expected)

    def test_agrees_where_the_weights_underflow(self):
        # a tenth of the rows scaled by 1e4: their margins pass 745, so
        # s(1 - s) is exactly 0 there and the Gram takes no term from them
        rng = np.random.default_rng(33)
        Z = rng.normal(size=(40, 10))
        Z[::10] *= 1e4
        y = np.where(rng.uniform(size=40) > 0.5, 1.0, -1.0)
        data = LogisticDataset(scipy.sparse.csr_matrix(Z), y)
        prob = logistic_problem(data, 0.1)
        for x, v in rng.normal(size=(5, 2, 10)):
            expected, w = self._two_products(data, x, v)
            assert np.any(w == 0.0) and np.any(w > 0.0)
            assert self._close(prob.hess_vec(x, v), expected)
        # every weight 0: the product is exactly 0
        x = 1e6 * rng.normal(size=10)
        expected, w = self._two_products(data, x, v)
        assert not np.any(w)
        np.testing.assert_array_equal(prob.hess_vec(x, v), np.zeros(10))

    def test_row_blocks_sum_to_the_gram(self, monkeypatch):
        # 40 rows in blocks of 8 // p = 2 rows: twenty syrk terms
        rng = np.random.default_rng(35)
        data = _small_dataset(rng, n_samples=40, n_features=4)
        x, v = rng.normal(size=(2, 4))
        expected, _ = self._two_products(data, x, v)
        whole = logistic_problem(data, 0.1)
        whole.hess_vec(x, v)
        G = whole.hess_vec.__self__._hess
        monkeypatch.setattr(objectives, "_GRAM_BLOCK", 8)
        blocked = logistic_problem(data, 0.1)
        assert self._close(blocked.hess_vec(x, v), expected)
        Gb = blocked.hess_vec.__self__._hess
        np.testing.assert_array_equal(Gb, Gb.T)
        assert np.linalg.norm(Gb - G) <= 1e-12 * np.linalg.norm(G)

    def test_overflowing_gram_gives_nan_on_zero_directions(self):
        # G[0, 0] overflows to inf, and inf * 0 is NaN where the two
        # products skip the zero entry of v; the solvers catch either
        Z = np.column_stack([np.full(4, 1e308), [0.5, -0.25, 0.75, 1.0]])
        data = LogisticDataset(scipy.sparse.csr_matrix(Z), np.ones(4))
        assert isinstance(data.operand, np.ndarray)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hv = _fresh(data).hess_vec(np.zeros(2), np.array([0.0, 1.0]))
        assert np.isnan(hv[0]) and np.isfinite(hv[1])

    def test_nan_point_gives_a_silent_nan_product(self):
        rng = np.random.default_rng(34)
        data = _small_dataset(rng)
        prob = logistic_problem(data, 0.1)
        x, v = rng.normal(size=(2, 6))
        x[1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isnan(prob.hess_vec(x, v)))
            assert np.all(np.isnan(prob.hess_vec(x, 2.0 * v)))


def _cov_problem(rng, p=4):
    M = rng.normal(size=(p, p))
    S = M @ M.T / p
    return CovarianceProblem(0.5 * (S + S.T))


def _random_spd_vec(rng, p=4):
    M = rng.normal(size=(p, p))
    P = M @ M.T + p * np.eye(p)
    return P.ravel()


class TestLogDet:
    def test_identity_pair(self):
        p = 4
        prob = CovarianceProblem(np.eye(p))
        assert _fresh_cov(prob).value(np.eye(p).ravel()) == pytest.approx(float(p))

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

    @pytest.mark.parametrize("S", [
        [[2.0, 0.5], [0.5, 1.0]], np.array([[2, 1], [1, 1]], dtype=np.int64),
    ], ids=["nested_list", "int64"])
    def test_keeps_the_checked_float_array(self, S):
        prob = CovarianceProblem(S)
        assert prob.p == 2
        assert prob.sample_cov.dtype == np.float64
        np.testing.assert_array_equal(prob.sample_cov, np.asarray(S, float))
        problem = covariance_problem(prob, 0.1)
        x, report = sqa_solve(problem, SolverConfig(inner_solver="obm_cg"))
        assert report.status == "converged"

    def test_infinite_off_the_cone(self):
        prob = CovarianceProblem(np.eye(2))
        P = np.diag([1.0, -0.5])
        assert _fresh_cov(prob).value(P.ravel()) == np.inf

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(6)
        p = 5
        prob = _cov_problem(rng, p)
        Pvec = _random_spd_vec(rng, p)
        P = Pvec.reshape(p, p)
        lam = np.linalg.eigvalsh(0.5 * (P + P.T))
        expected = float(np.sum(prob.sample_cov * P)) - float(np.sum(np.log(lam)))
        assert _fresh_cov(prob).value(Pvec) == pytest.approx(expected, abs=1e-10)

    def test_gradient_zero_at_inverse(self):
        rng = np.random.default_rng(7)
        prob = _cov_problem(rng, 4)
        S = prob.sample_cov + 0.5 * np.eye(4)  # ensure PD
        prob = CovarianceProblem(0.5 * (S + S.T))
        Pstar = np.linalg.inv(prob.sample_cov)
        g = _fresh_cov(prob).gradient((0.5 * (Pstar + Pstar.T)).ravel())
        np.testing.assert_allclose(g, np.zeros(16), atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        p = 5
        prob = _cov_problem(rng, p)
        Pvec = _random_spd_vec(rng, p)
        fd = central_difference_gradient(_fresh_cov(prob).value,
                                         Pvec, h=1e-5)
        got = _fresh_cov(prob).gradient(Pvec)
        np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-7)

    def test_gradient_raises_off_cone(self):
        prob = CovarianceProblem(np.eye(2))
        with pytest.raises(NotPositiveDefiniteError):
            _fresh_cov(prob).gradient(np.diag([1.0, -1.0]).ravel())

    def test_hess_vec_identity_action(self):
        prob = CovarianceProblem(np.eye(3))
        rng = np.random.default_rng(9)
        V = rng.normal(size=(3, 3))
        V = 0.5 * (V + V.T)
        out = _fresh_cov(prob).hess_vec(np.eye(3).ravel(), V.ravel())
        np.testing.assert_allclose(out, V.ravel(), atol=1e-14)

    def test_hess_vec_matches_gradient_differences(self):
        rng = np.random.default_rng(10)
        p = 5
        prob = _cov_problem(rng, p)
        Pvec = _random_spd_vec(rng, p)
        V = rng.normal(size=(p, p))
        V = 0.5 * (V + V.T)
        fd = directional_second_difference(
            _fresh_cov(prob).gradient, Pvec, V.ravel(), h=1e-6
        )
        got = _fresh_cov(prob).hess_vec(Pvec, V.ravel())
        np.testing.assert_allclose(got, fd, rtol=1e-4, atol=1e-7)

    def test_hess_vec_matches_kronecker(self):
        rng = np.random.default_rng(11)
        p = 3
        prob = _cov_problem(rng, p)
        Pvec = _random_spd_vec(rng, p)
        P = Pvec.reshape(p, p)
        Pinv = np.linalg.inv(P)
        K = np.kron(Pinv, Pinv)
        V = rng.normal(size=(p, p))
        V = 0.5 * (V + V.T)
        np.testing.assert_allclose(
            _fresh_cov(prob).hess_vec(Pvec, V.ravel()), K @ V.ravel(), atol=1e-10
        )

    def test_outputs_symmetric(self):
        rng = np.random.default_rng(12)
        p = 4
        prob = _cov_problem(rng, p)
        Pvec = _random_spd_vec(rng, p)
        g = _fresh_cov(prob).gradient(Pvec).reshape(p, p)
        np.testing.assert_allclose(g, g.T, atol=1e-12)
        Hv = _fresh_cov(prob).hess_vec(Pvec, rng.normal(size=p * p)).reshape(p, p)
        np.testing.assert_allclose(Hv, Hv.T, atol=1e-12)


def _outcome(oracle, *args):
    """The oracle's result, or the type of the error it raised off the cone."""
    try:
        return oracle(*args)
    except NotPositiveDefiniteError as exc:
        return type(exc)


class TestCovarianceProblemCache:
    """The problem's log-det oracles share one Cholesky factor and inverse
    between calls at one point, and agree bitwise with a fresh problem's at
    every point."""

    @staticmethod
    def _count_factors(monkeypatch):
        calls = []
        original = objectives.dpotrf

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(objectives, "dpotrf", counted)
        return calls

    def _check_all(self, prob, cov, x, v):
        for oracle, args in ((prob.value, (x,)), (prob.hess_vec, (x, v)),
                             (prob.gradient, (x,)),
                             (prob.hess_vec, (x, 2.0 * v))):
            got = _outcome(oracle, *args)
            fresh = getattr(_fresh_cov(cov), oracle.__name__)
            expected = _outcome(fresh, *args)
            if isinstance(expected, type):
                assert got is expected
            else:
                assert _bitwise(got, expected)

    def test_interleaved_points_match_a_fresh_problem(self):
        rng = np.random.default_rng(13)
        cov = _cov_problem(rng)
        prob = covariance_problem(cov, 0.1)
        x0, x1 = _random_spd_vec(rng), _random_spd_vec(rng)
        v = rng.normal(size=16)
        off_cone = np.diag([1.0, -1.0, 2.0, 1.0]).ravel()
        nan_point, inf_point = x1.copy(), x1.copy()
        nan_point[6] = np.nan
        inf_point[0] = np.inf
        mutated = x0.copy()
        for x in (x0, x1, x0, off_cone, mutated, nan_point, x1, off_cone,
                  inf_point, nan_point):
            self._check_all(prob, cov, x, v)
        # the same array, changed in place after the cache saw it
        mutated[1] += 0.5
        self._check_all(prob, cov, mutated, v)
        mutated[:] = off_cone
        self._check_all(prob, cov, mutated, v)
        mutated[:] = x1
        self._check_all(prob, cov, mutated, v)
        assert prob.value(off_cone) == np.inf
        with pytest.raises(NotPositiveDefiniteError, match="gradient"):
            prob.gradient(off_cone)
        with pytest.raises(NotPositiveDefiniteError, match="Hessian"):
            prob.hess_vec(off_cone, v)
        for bad in (nan_point, inf_point):
            assert np.isnan(prob.value(bad))
            assert np.all(np.isnan(prob.gradient(bad)))
            assert np.all(np.isnan(prob.hess_vec(bad, v)))

    def test_wrong_shape_raises_and_cache_stays_usable(self, monkeypatch):
        rng = np.random.default_rng(14)
        cov = _cov_problem(rng)
        prob = covariance_problem(cov, 0.1)
        x, v = _random_spd_vec(rng), rng.normal(size=16)
        expected = prob.gradient(x), _fresh_cov(cov).value(x)
        calls = self._count_factors(monkeypatch)
        for oracle in (prob.value, prob.gradient,
                       lambda z: prob.hess_vec(z, v)):
            with pytest.raises(ValueError, match="Pvec must have length 16"):
                oracle(np.zeros(15))
            # the same bytes in another shape
            with pytest.raises(ValueError, match="Pvec must have length 16"):
                oracle(x.reshape(4, 4).copy())
        with pytest.raises(ValueError, match="Vvec must have length 16"):
            prob.hess_vec(x, np.zeros(9))
        assert _bitwise(prob.gradient(x), expected[0])
        assert _bitwise(prob.value(x), expected[1])
        assert calls == []  # no failed call factored, and x's factor is kept
        y = x + np.eye(4).ravel()
        assert _bitwise(prob.hess_vec(y, v), _fresh_cov(cov).hess_vec(y, v))

    def test_products_are_exactly_symmetric(self):
        rng = np.random.default_rng(15)
        p = 7
        prob = covariance_problem(_cov_problem(rng, p), 0.1)
        x = _random_spd_vec(rng, p)
        g = prob.gradient(x).reshape(p, p)
        assert np.array_equal(g, g.T)
        for v in rng.normal(size=(5, p * p)):
            H = prob.hess_vec(x, v).reshape(p, p)
            assert np.array_equal(H, H.T)

    @pytest.mark.parametrize("solver", ["fista", "sqa_obm_cg"])
    def test_one_factorization_per_point_of_a_solve(self, solver, monkeypatch):
        rng = np.random.default_rng(16)
        cov = sample_covariance(rng.normal(size=(40, 6)))
        prob = covariance_problem(cov, 0.05)
        points = []  # each point the oracles were asked at, once per visit

        def visits(oracle):
            def wrapped(x, *rest):
                key = np.asarray(x).tobytes()
                if not points or points[-1] != key:
                    points.append(key)
                return oracle(x, *rest)
            return wrapped

        traced = dataclasses.replace(
            prob, value=visits(prob.value), gradient=visits(prob.gradient),
            hess_vec=visits(prob.hess_vec))
        calls = self._count_factors(monkeypatch)
        if solver == "fista":
            _, report = fista_baseline_solve(traced, SolverConfig())
        else:
            _, report = sqa_solve(traced, SolverConfig(inner_solver="obm_cg"))
        assert report.status == "converged"
        assert len(calls) == len(points) == report.fg_evaluations
        if solver != "fista":
            assert report.hess_vec_products > 0


_QUAD_ARGS = (6, 20.0, (3, 1))


def _fresh_quad():
    """A new quadratic problem: the uncached reference oracles."""
    return synthetic_quadratic(*_QUAD_ARGS)


class TestQuadraticProblemCache:
    """The quadratic's value and gradient share ``A @ x`` at one point, and
    agree bitwise with a fresh problem's at every point."""

    @staticmethod
    def _counted(monkeypatch, args=_QUAD_ARGS, mu=0.1):
        """A quadratic problem whose ``A`` records each of its products with
        a vector, and the list it records them in."""
        products = []

        class Counted(np.ndarray):
            def __matmul__(self, other):
                products.append(1)
                return np.asarray(self) @ other

        original = objectives.synthetic_quadratic_matrices

        def counted(*matrix_args):
            A, b = original(*matrix_args)
            return A.view(Counted), b

        with monkeypatch.context() as m:
            m.setattr(objectives, "synthetic_quadratic_matrices", counted)
            return synthetic_quadratic(*args, mu=mu), products

    @staticmethod
    def _check(prob, x, products, new):
        """Value and gradient at ``x`` match a fresh problem's bitwise and
        cost ``new`` products by ``A``."""
        before = len(products)
        fresh = _fresh_quad()
        assert _bitwise(prob.value(x), fresh.value(x))
        assert _bitwise(prob.gradient(x), fresh.gradient(x))
        assert _bitwise(prob.value(x), fresh.value(x))
        assert len(products) == before + new

    def test_interleaved_points_match_a_fresh_problem(self, monkeypatch):
        rng = np.random.default_rng(17)
        prob, products = self._counted(monkeypatch)
        x0, x1, v = rng.normal(size=(3, 6))
        nan_point = x1.copy()
        nan_point[2] = np.nan
        for x, new in ((x0, 1), (x1, 1), (x0, 1), (x0.copy(), 0),
                       (nan_point, 1), (x1, 1), (nan_point, 1)):
            self._check(prob, x, products, new)
        assert np.isnan(prob.value(nan_point))
        # a Hessian product is one product by A and leaves the cache alone
        assert _bitwise(prob.hess_vec(x0, v), _fresh_quad().hess_vec(x0, v))
        assert len(products) == 7
        self._check(prob, nan_point, products, 0)

    def test_point_changed_in_place_gives_fresh_results(self, monkeypatch):
        rng = np.random.default_rng(18)
        prob, products = self._counted(monkeypatch)
        x = rng.normal(size=6)
        kept = x.copy()
        self._check(prob, x, products, 1)
        x[3] += 0.5
        self._check(prob, x, products, 1)
        x[:] = kept
        self._check(prob, x, products, 1)

    def test_wrong_shape_raises_and_cache_stays_usable(self, monkeypatch):
        rng = np.random.default_rng(19)
        prob, products = self._counted(monkeypatch)
        x = rng.normal(size=6)
        self._check(prob, x, products, 1)
        for oracle in (prob.value, prob.gradient):
            # another length, and the same bytes in two other shapes
            for bad in (np.zeros(7), x.reshape(2, 3).copy(), x[:, None].copy()):
                with pytest.raises(ValueError, match="expected dimension 6"):
                    oracle(bad)
        assert len(products) == 1  # no rejected point was multiplied
        self._check(prob, x, products, 0)  # and x's product is kept

    def test_mutating_a_returned_gradient_changes_nothing(self, monkeypatch):
        rng = np.random.default_rng(20)
        prob, products = self._counted(monkeypatch)
        x = rng.normal(size=6)
        g = prob.gradient(x)
        g += 1.0
        self._check(prob, x, products, 0)
        assert not _bitwise(g, prob.gradient(x))
        assert len(products) == 1

    @pytest.mark.parametrize("solver", ["fista", "sqa_obm_cg"])
    def test_one_product_per_point_of_a_solve(self, solver, monkeypatch):
        prob, products = self._counted(monkeypatch, (30, 100.0, 21), 0.05)
        points = []  # each point value or gradient was asked at, once per visit
        hess_products = []

        def visits(oracle):
            def wrapped(x):
                key = np.asarray(x).tobytes()
                if not points or points[-1] != key:
                    points.append(key)
                return oracle(x)
            return wrapped

        def hess_vec(x, v):
            hess_products.append(1)
            return prob.hess_vec(x, v)

        traced = dataclasses.replace(prob, value=visits(prob.value),
                                     gradient=visits(prob.gradient),
                                     hess_vec=hess_vec)
        if solver == "fista":
            _, report = fista_baseline_solve(traced, SolverConfig())
        else:
            _, report = sqa_solve(traced, SolverConfig(inner_solver="obm_cg"))
        assert report.status == "converged"
        at_points = len(products) - len(hess_products)
        assert at_points == len(points) == report.fg_evaluations
        assert len(hess_products) == report.hess_vec_products
        assert (report.hess_vec_products > 0) == (solver != "fista")


def _one_point_problem(family, rng):
    """A problem of one family, and a point inside its domain."""
    if family == "logistic":
        return logistic_problem(_small_dataset(rng, 12, 8), 0.1), rng.normal(size=8)
    if family == "covariance":
        return covariance_problem(_cov_problem(rng), 0.1), _random_spd_vec(rng)
    return synthetic_quadratic(8, 10.0, seed=22, mu=0.1), rng.normal(size=8)


class TestOnePointCache:
    """The contract of the cache that all three families share, run once on
    each family's oracles."""

    @pytest.mark.parametrize("family", ["logistic", "covariance", "quadratic"])
    def test_recomputes_only_at_a_new_point(self, family, monkeypatch):
        states = []  # the state computations that returned
        cls = objectives._OnePointCache
        init = cls.__init__

        def counted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            state = self._state

            def counted(x):
                kept = state(x)
                states.append(1)
                return kept

            self._state = counted

        monkeypatch.setattr(cls, "__init__", counted_init)
        prob, x = _one_point_problem(family, np.random.default_rng(23))
        assert states == []  # construction computes nothing
        value = prob.value(x)
        prob.gradient(x)
        prob.hess_vec(x, x)
        prob.value(x.copy())  # the same bytes in a new array
        assert len(states) == 1
        y = x.copy()
        y[0] += 0.25  # the first diagonal entry of a covariance point
        prob.value(y)
        assert len(states) == 2
        assert _bitwise(prob.value(x), value)  # one point kept: recomputed
        assert len(states) == 3
        for oracle in (prob.value, prob.gradient):
            for shape in ((2, -1), (-1, 1)):
                with pytest.raises(ValueError):
                    oracle(x.reshape(shape).copy())
        assert len(states) == 3  # rejected, and nothing stored
        assert _bitwise(prob.value(x), value)
        assert len(states) == 3

    @pytest.mark.parametrize("family", ["logistic", "covariance", "quadratic"])
    def test_hess_vec_rejects_a_direction_of_another_shape(self, family):
        prob, x = _one_point_problem(family, np.random.default_rng(24))
        for v in (x[:, None].copy(), np.append(x, 0.0)):
            with pytest.raises(ValueError,
                               match="expected dimension|must have length"):
                prob.hess_vec(x, v)


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
