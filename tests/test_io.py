"""SVMLight parsing, covariance estimation, report emission, CLI behavior."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
import scipy.sparse

from sqamin import (
    ConvergenceReport,
    LogisticDataset,
    SolverConfig,
    SvmlightParseError,
    TraceRow,
    load_dense_matrix,
    parse_svmlight,
    read_report,
    sample_covariance,
    write_report,
    write_svmlight,
)
import sqamin.io as sqio
from sqamin.cli import _build_parser, _load_problem, main
from sqamin.io import SOLVERS
from sqamin.model import ETA_RULES


class TestParseSvmlight:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("+1 1:0.5 3:2.0\n")
        data = parse_svmlight(path)
        assert data.n_samples == 1
        assert data.n_features == 3
        assert data.labels[0] == 1.0
        dense = data.features.toarray()
        np.testing.assert_allclose(dense, [[0.5, 0.0, 2.0]])

    def test_label_mapping(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("2 1:1.0\n-3 1:1.0\n0 1:1.0\n")
        data = parse_svmlight(path)
        np.testing.assert_array_equal(data.labels, [1.0, -1.0, -1.0])

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("# header\n+1 1:1.0 # trailing\n\n-1 2:3.0\n")
        data = parse_svmlight(path)
        assert data.n_samples == 2
        assert data.n_features == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("")
        data = parse_svmlight(path)
        assert data.n_samples == 0

    def test_malformed_token_reports_line(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("+1 1:1.0\n+1 2:abc\n")
        with pytest.raises(SvmlightParseError, match=":2:"):
            parse_svmlight(path)

    def test_token_with_two_colons_reports_line(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("+1 1:2:3\n")
        with pytest.raises(SvmlightParseError) as info:
            parse_svmlight(path)
        assert str(info.value) == f"{path}:1: bad feature token '1:2:3'"

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("spam 1:1.0\n")
        with pytest.raises(SvmlightParseError, match=":1:"):
            parse_svmlight(path)

    def test_nonmonotone_indices_rejected(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("+1 3:1.0 2:1.0\n")
        with pytest.raises(SvmlightParseError, match="strictly increasing"):
            parse_svmlight(path)

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("+1 2:1.0 2:4.0\n")
        with pytest.raises(SvmlightParseError):
            parse_svmlight(path)

    @pytest.mark.parametrize("token", ["2:nan", "1:inf", "1:-inf", "3:1e999"])
    def test_nonfinite_value_reports_line(self, tmp_path, token):
        path = tmp_path / "d.svm"
        path.write_text(f"+1 1:0.5\n\n-1 {token}\n")
        with pytest.raises(SvmlightParseError,
                           match=f":3: non-finite value in '{token}'"):
            parse_svmlight(path)

    def test_zero_index_rejected(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("+1 0:1.0\n")
        with pytest.raises(SvmlightParseError, match="not positive"):
            parse_svmlight(path)

    def test_feature_count_override(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("+1 1:1.0\n")
        data = parse_svmlight(path, n_features=10)
        assert data.n_features == 10
        with pytest.raises(SvmlightParseError):
            parse_svmlight(path, n_features=0)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        Z = scipy.sparse.random(17, 9, density=0.4, random_state=7,
                                format="csr")
        Z.data = rng.normal(size=Z.data.size)
        Z.sort_indices()
        labels = np.where(rng.uniform(size=17) > 0.5, 1.0, -1.0)
        data = LogisticDataset(Z, labels)
        path = tmp_path / "rt.svm"
        write_svmlight(data, path)
        back = parse_svmlight(path, n_features=9)
        np.testing.assert_array_equal(back.labels, data.labels)
        assert (back.features != data.features).nnz == 0

    def test_writer_bytes_match_the_per_entry_formula(self, tmp_path):
        # an empty row, -0.0, a subnormal and 1e300 among random values
        rng = np.random.default_rng(14)
        Z = scipy.sparse.random(30, 12, density=0.3, random_state=14,
                                format="csr")
        Z.data = rng.normal(size=Z.data.size)
        Z.sort_indices()
        Z.data[:3] = [-0.0, 5e-324, 1e300]
        Z = scipy.sparse.csr_matrix(
            (Z.data, Z.indices, np.insert(Z.indptr, 4, Z.indptr[4])),
            shape=(31, 12))
        labels = np.where(rng.uniform(size=31) > 0.5, 1.0, -1.0)
        path = tmp_path / "w.svm"
        write_svmlight(LogisticDataset(Z, labels), path)
        expected = _per_entry_svmlight(Z, labels)
        lines = expected.splitlines()
        assert lines[4] in ("+1", "-1")  # the empty row
        assert all(f":{v}" in lines[0] for v in ("-0.0", "5e-324", "1e+300"))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_writer_bytes_match_across_row_blocks(self, tmp_path):
        # two and a half blocks of the writer; the rows on either side of
        # the first boundary are empty
        rng = np.random.default_rng(15)
        block = sqio._WRITE_ROWS
        n = 2 * block + block // 2
        Z = scipy.sparse.random(n, 7, density=0.3, random_state=15,
                                format="lil")
        Z[block - 1:block + 1] = 0.0
        Z = Z.tocsr()
        Z.data = rng.normal(size=Z.data.size)
        Z.sort_indices()
        labels = np.where(rng.uniform(size=n) > 0.5, 1.0, -1.0)
        path = tmp_path / "b.svm"
        write_svmlight(LogisticDataset(Z, labels), path)
        expected = _per_entry_svmlight(Z, labels)
        lines = expected.splitlines()
        assert len(lines) == n
        assert lines[block - 1] in ("+1", "-1") and lines[block] in ("+1", "-1")
        assert path.read_bytes() == expected.encode("utf-8")

    def test_random_well_formed_files_accepted(self, tmp_path):
        # seeded mini-corpus of random shapes, densities and value scales
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            n_rows = int(rng.integers(1, 12))
            n_cols = int(rng.integers(1, 15))
            Z = scipy.sparse.random(n_rows, n_cols,
                                    density=float(rng.uniform(0.1, 0.9)),
                                    random_state=trial, format="csr")
            Z.data = rng.normal(size=Z.data.size) * 10.0 ** rng.integers(-6, 6)
            Z.sort_indices()
            labels = np.where(rng.uniform(size=n_rows) > 0.5, 1.0, -1.0)
            data = LogisticDataset(Z, labels)
            path = tmp_path / f"fuzz{trial}.svm"
            write_svmlight(data, path)
            back = parse_svmlight(path, n_features=n_cols)
            assert (back.features != data.features).nnz == 0
            np.testing.assert_array_equal(back.labels, data.labels)


def _per_entry_svmlight(Z, labels):
    """The SVMLight text of a CSR and its labels, one numpy scalar per
    entry."""
    lines = []
    for i in range(Z.shape[0]):
        row = Z.indices[Z.indptr[i]:Z.indptr[i + 1]]
        vals = Z.data[Z.indptr[i]:Z.indptr[i + 1]]
        label = "+1" if labels[i] > 0 else "-1"
        pairs = " ".join(f"{j + 1}:{float(v)!r}" for j, v in zip(row, vals))
        lines.append(f"{label} {pairs}".rstrip() + "\n")
    return "".join(lines)


def _write(tmp_path, text, name="d.svm"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def _assert_same_arrays(a, b):
    """Byte-equal CSR arrays and labels, dtypes included."""
    for x, y in ((a.features.data, b.features.data),
                 (a.features.indices, b.features.indices),
                 (a.features.indptr, b.features.indptr),
                 (a.labels, b.labels)):
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()
    assert a.features.shape == b.features.shape


class TestParsePaths:
    """``parse_svmlight`` converts all feature tokens with one numpy call and
    falls back to the token loop ``_parse_lines`` on any ``ValueError``; the
    two must agree byte for byte, and the loop alone names the bad line."""

    @pytest.fixture
    def loop_calls(self, monkeypatch):
        calls = []
        loop = sqio._parse_lines

        def recorded(path, n_features):
            calls.append(path)
            return loop(path, n_features)

        monkeypatch.setattr(sqio, "_parse_lines", recorded)
        return calls

    @pytest.mark.parametrize("text, via_loop", [
        ("+1 1:0.5 3:2\r\n-1 2:1.5\r\n", False),
        ("+1 1:0.5 3:2\r-1 2:1.5\r", False),
        ("+1\t1:0.5  \t 3:2\n-1   2:1.5\t\n", False),
        ("+1 1:0.5\f3:2\n-1 2:1.5\n", False),
        ("+1\n-1 2:1.5\n+1\n", False),
        ("# a\n+1 1:1 # b\n   # c\n-1 2:2\n", False),
        ("+1 1:0.5\n-1 2:1.5", False),
        ("+1 +5:1.0 07:2.0\n", False),
        ("-1 1:-0 2:-0.0 3:0 4:+0\n", False),
        ("+1 1:5e-324 2:1e-400 3:2.2250738585072014e-308 4:-1e-400\n",
         False),
        ("+1 1_0:1 11:2_5\n-1 \u0663:1\n", True),
    ], ids=["crlf", "lone_cr", "tabs_and_spaces", "form_feed", "label_only",
            "comment_only", "no_trailing_newline", "plus_and_zero_padded",
            "negative_zero", "subnormal_and_underflow", "python_only"])
    def test_fast_path_matches_the_loop(self, tmp_path, loop_calls, text,
                                        via_loop):
        path = _write(tmp_path, text)
        data = parse_svmlight(path)
        assert loop_calls == ([path] if via_loop else [])
        _assert_same_arrays(data, sqio._parse_lines(path, None))

    def test_form_feed_does_not_split_a_line(self, tmp_path):
        path = _write(tmp_path, "+1 1:0.5\f3:2\n-1 2:abc\n")
        with pytest.raises(SvmlightParseError) as info:
            parse_svmlight(path)
        assert str(info.value) == f"{path}:2: bad feature token '2:abc'"

    def test_values_and_signs_kept(self, tmp_path):
        path = _write(tmp_path, "-1 1:-0 2:1e-400 3:5e-324 4:-0.0\n"
                                "+1 +5:1.0 07:2.5\n+1 \u0663:4 1_0:3\n",
                      name="v.svm")
        data = parse_svmlight(path)
        Z = data.features
        np.testing.assert_array_equal(Z.indptr, [0, 4, 6, 8])
        np.testing.assert_array_equal(Z.indices, [0, 1, 2, 3, 4, 6, 2, 9])
        assert list(np.signbit(Z.data[:4])) == [True, False, False, True]
        assert Z.data[2] == 5e-324
        np.testing.assert_array_equal(Z.data[4:], [1.0, 2.5, 4.0, 3.0])

    def test_random_files_match_the_loop(self, tmp_path, loop_calls):
        # 17-digit values over a wide exponent range, as write_svmlight emits
        rng = np.random.default_rng(13)
        Z = scipy.sparse.random(200, 50, density=0.2, random_state=13,
                                format="csr")
        Z.data = rng.normal(size=Z.data.size) * 10.0 ** rng.integers(
            -300, 300, size=Z.data.size)
        Z.sort_indices()
        labels = np.where(rng.uniform(size=200) > 0.5, 1.0, -1.0)
        path = tmp_path / "r.svm"
        write_svmlight(LogisticDataset(Z, labels), path)
        data = parse_svmlight(path, n_features=50)
        assert loop_calls == []
        _assert_same_arrays(data, sqio._parse_lines(path, 50))
        assert Z.data.tobytes() == data.features.data.tobytes()

    @pytest.mark.parametrize("text, where, message", [
        ("+1 1:1\nspam 1:1.0\n", 2, "bad label 'spam'"),
        ("+1 1:1\n-1 5\n", 2, "bad feature token '5'"),
        ("+1 2:abc\n", 1, "bad feature token '2:abc'"),
        ("+1 3:\n", 1, "bad feature token '3:'"),
        ("+1 :3\n", 1, "bad feature token ':3'"),
        ("+1 1.0:2\n", 1, "bad feature token '1.0:2'"),
        ("+1 1:0x1p3\n", 1, "bad feature token '1:0x1p3'"),
        ("+1 1:0.5\n-1 2:inf\n", 2, "non-finite value in '2:inf'"),
        ("+1 0:1.0\n", 1, "index 0 is not positive"),
        ("+1 -4:1.0\n", 1, "index -4 is not positive"),
        ("+1 -4294967291:1.0\n", 1, "index -4294967291 is not positive"),
        ("+1 3000000000:1.0\n", 1, "index 3000000000 exceeds 2147483647"),
        ("+1 4294967301:1.0\n", 1, "index 4294967301 exceeds 2147483647"),
        ("+1 99999999999999999999:1.0\n", 1,
         "index 99999999999999999999 exceeds 2147483647"),
        ("+1 1:1\n-1 3:1.0 2:1.0\n", 2, "indices not strictly increasing"),
        ("+1 2:1.0 2:4.0\n", 1, "indices not strictly increasing"),
    ], ids=["label", "token_no_colon", "token_value", "token_empty_value",
            "token_empty_index", "token_float_index", "token_hex_value",
            "nonfinite", "zero_index", "negative_index", "negative_wraps_to_4",
            "index_above_int32", "positive_wraps_to_4", "index_above_int64",
            "decreasing", "duplicate"])
    def test_exact_message(self, tmp_path, text, where, message):
        path = _write(tmp_path, text)
        with pytest.raises(SvmlightParseError) as info:
            parse_svmlight(path)
        assert str(info.value) == f"{path}:{where}: {message}"

    def test_exact_message_for_too_few_features(self, tmp_path):
        path = _write(tmp_path, "+1 1:1.0 3:2.0\n")
        with pytest.raises(SvmlightParseError) as info:
            parse_svmlight(path, n_features=2)
        assert str(info.value) == (
            f"{path}: n_features=2 smaller than largest index 3")

    @pytest.mark.parametrize("text, message", [
        ("+1 1:1\n-1 2:x\n+1 0:1\n", ":2: bad feature token '2:x'"),
        ("+1 2:1 1:1\n-1 2:x\n", ":1: indices not strictly increasing"),
        ("+1 1:nan\nspam\n", ":1: non-finite value in '1:nan'"),
    ], ids=["two_bad_tokens", "order_before_token", "value_before_label"])
    def test_first_bad_line_named(self, tmp_path, text, message):
        path = _write(tmp_path, text)
        with pytest.raises(SvmlightParseError) as info:
            parse_svmlight(path)
        assert str(info.value) == f"{path}{message}"

    @pytest.mark.parametrize("text, n_features, shape", [
        ("+1\n-1\n", None, (2, 0)),
        ("+1\n-1 # none\n", 5, (2, 5)),
        ("# a\n\n   # b\n", None, (0, 0)),
    ], ids=["label_only", "label_only_wide", "comment_only"])
    def test_no_feature_tokens_without_warnings(self, tmp_path, loop_calls,
                                                text, n_features, shape):
        path = _write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = parse_svmlight(path, n_features=n_features)
        assert data.features.shape == shape
        assert data.features.nnz == 0
        assert loop_calls == []

    def test_missing_file_is_not_retried(self, tmp_path, loop_calls):
        with pytest.raises(FileNotFoundError):
            parse_svmlight(tmp_path / "missing.svm")
        assert loop_calls == []


class TestSampleCovariance:
    def test_identical_rows_give_zero(self):
        prob = sample_covariance(np.ones((5, 3)))
        np.testing.assert_array_equal(prob.sample_cov, np.zeros((3, 3)))

    def test_two_scalar_samples(self):
        prob = sample_covariance(np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(prob.sample_cov, [[1.0]])

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(1)
        prob = sample_covariance(rng.normal(size=(30, 6)))
        lam = np.linalg.eigvalsh(prob.sample_cov)
        assert lam.min() >= -1e-10

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            sample_covariance(np.ones((1, 3)))


CONTEXT = {"problem": "synthetic", "mu": 0.3, "seed": 0}


class TestReports:
    def _run(self):
        from sqamin import sqa_solve, synthetic_quadratic

        prob = synthetic_quadratic(10, 20.0, seed=3, mu=0.3)
        return sqa_solve(prob, SolverConfig(inner_solver="obm_cg"))

    def test_json_round_trip_exact(self, tmp_path):
        _, report = self._run()
        path = tmp_path / "r.json"
        write_report(report, path, "json", CONTEXT)
        payload = json.loads(path.read_text())
        report_keys = [f.name for f in dataclasses.fields(ConvergenceReport)]
        assert list(payload) == report_keys + ["problem", "mu", "seed"]
        row_keys = [f.name for f in dataclasses.fields(TraceRow)]
        assert all(list(row) == row_keys for row in payload["trace"])
        back = read_report(path)
        assert back.outer_iterations == report.outer_iterations
        assert back.inner_iterations == report.inner_iterations
        assert back.fg_evaluations == report.fg_evaluations
        assert back.hess_vec_products == report.hess_vec_products
        assert back.final_residual_inf == report.final_residual_inf
        assert back.wall_time_seconds == report.wall_time_seconds
        assert len(back.trace) == len(report.trace)
        for a, b in zip(back.trace, report.trace):
            assert (a.k, a.objective, a.residual_inf, a.alpha,
                    a.inner_iterations, a.eta) == \
                   (b.k, b.objective, b.residual_inf, b.alpha,
                    b.inner_iterations, b.eta)

    def test_json_without_lbfgs_counters_loads_them_as_zero(self, tmp_path):
        _, report = self._run()
        path = tmp_path / "r.json"
        write_report(report, path, "json", CONTEXT)
        payload = json.loads(path.read_text())
        del payload["lbfgs_skipped_updates"], payload["lbfgs_fallback_solves"]
        path.write_text(json.dumps(payload))
        back = read_report(path)
        assert back.lbfgs_skipped_updates == back.lbfgs_fallback_solves == 0
        assert back.outer_iterations == report.outer_iterations

    def test_json_without_a_required_field_fails(self, tmp_path):
        _, report = self._run()
        path = tmp_path / "r.json"
        write_report(report, path, "json", CONTEXT)
        payload = json.loads(path.read_text())
        del payload["trace"]
        path.write_text(json.dumps(payload))
        with pytest.raises(KeyError, match="trace"):
            read_report(path)

    def test_csv_layout(self, tmp_path):
        _, report = self._run()
        path = tmp_path / "r.csv"
        write_report(report, path, "csv", CONTEXT)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "outer_iterations", "inner_iterations", "fg_evaluations",
            "hess_vec_products", "wall_time_seconds", "final_residual_inf",
        ]
        assert len(lines[1].split(",")) == 6
        assert lines[2].split(",") == [
            "k", "objective", "residual_inf", "alpha", "inner_iterations",
            "eta",
        ]
        assert len(lines) == 3 + len(report.trace)

    def test_write_failure_carries_path_context(self, tmp_path):
        _, report = self._run()
        missing_dir = tmp_path / "no" / "such" / "dir" / "r.json"
        with pytest.raises(OSError, match="cannot write report"):
            write_report(report, missing_dir, "json", CONTEXT)

    def test_unknown_format_rejected(self, tmp_path):
        _, report = self._run()
        path = tmp_path / "r.xml"
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            write_report(report, path, "xml")
        assert not path.exists()

    def test_seeded_runs_identical_up_to_time(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            _, report = self._run()
            path = tmp_path / f"{tag}.json"
            write_report(report, path, "json", CONTEXT)
            paths.append(path)
        payloads = []
        for path in paths:
            payload = json.loads(path.read_text())
            payload["wall_time_seconds"] = 0.0
            payloads.append(json.dumps(payload, sort_keys=True))
        assert payloads[0] == payloads[1]


class TestRunSpec:
    """The parsed CLI flags are the run specification; _load_problem checks
    that they name every input the problem kind needs."""

    def _load(self, argv):
        return _load_problem(_build_parser().parse_args(argv), 0.01)

    def test_logistic_requires_data(self):
        with pytest.raises(ValueError, match="require a data path"):
            self._load(["--problem", "logistic"])

    def test_synthetic_standalone(self):
        problem = self._load(["--problem", "synthetic", "--n", "5"])
        assert problem.dim == 5


class TestCli:
    def test_solver_choices_single_sourced(self):
        (action,) = [a for a in _build_parser()._actions if a.dest == "solver"]
        assert tuple(action.choices) == SOLVERS
        assert SOLVERS == ("fista", "sqa_fista", "sqa_obm_cg", "sqa_obm_qn")

    def test_each_config_field_is_one_flag(self):
        # main builds the SolverConfig from the parsed dests; the solver
        # flag names the inner solver and the baseline, so it is mapped
        dests = [a.dest for a in _build_parser()._actions]
        for f in dataclasses.fields(SolverConfig):
            if f.name != "inner_solver":
                assert dests.count(f.name) == 1, f.name

    def test_eta_rule_choices_single_sourced(self):
        (action,) = [a for a in _build_parser()._actions
                     if a.dest == "eta_rule"]
        assert tuple(action.choices) == ("paper",) + ETA_RULES

    @pytest.mark.parametrize("flag, etas", [
        ("paper", [0.9, 0.5]), ("inverse_k", [0.9, 0.5]),
        ("constant", [0.5, 0.5])])
    def test_eta_rule_reaches_the_trace(self, capsys, tmp_path, flag, etas):
        # paper is an alias of inverse_k, max(1/k, 0.1) capped at 0.9;
        # constant takes SolverConfig.eta_constant
        report_path = tmp_path / "run.json"
        code = main(["--problem", "synthetic", "--solver", "sqa_fista",
                     "--n", "20", "--eta-rule", flag,
                     "--report", str(report_path)])
        assert code == 0
        trace = json.loads(report_path.read_text())["trace"]
        assert [row["eta"] for row in trace[1:3]] == etas

    def test_eta_constant_reaches_the_trace(self, capsys, tmp_path):
        report_path = tmp_path / "run.json"
        code = main(["--problem", "synthetic", "--solver", "sqa_fista",
                     "--n", "20", "--eta-rule", "constant",
                     "--eta-constant", "0.25", "--report", str(report_path)])
        assert code == 0
        trace = json.loads(report_path.read_text())["trace"]
        assert [row["eta"] for row in trace[1:3]] == [0.25, 0.25]

    @pytest.mark.parametrize("value", ["0", "1", "-0.5", "nan"])
    def test_eta_constant_out_of_range_is_input_error(self, capsys, value):
        code = main(["--problem", "synthetic", "--n", "5",
                     "--eta-rule", "constant", "--eta-constant", value])
        assert code == 1
        captured = capsys.readouterr()
        assert "eta_constant must lie in (0, 1)" in captured.err
        assert captured.out == ""

    def test_synthetic_end_to_end(self, capsys):
        code = main(["--problem", "synthetic", "--solver", "sqa_obm_cg",
                         "--n", "30", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: converged" in out
        assert "hess_vec_products:" in out

    def test_summary_prints_the_lbfgs_counters(self, capsys):
        code = main(["--problem", "synthetic", "--solver", "sqa_obm_qn",
                     "--n", "30", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lbfgs_skipped_updates: 0" in out
        assert "lbfgs_fallback_solves: 0" in out

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_summary_prints_every_report_field_but_the_trace_once(
            self, capsys, tmp_path, solver):
        report_path = tmp_path / "run.json"
        code = main(["--problem", "synthetic", "--solver", solver,
                     "--n", "20", "--seed", "1", "--report", str(report_path)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        names = [f.name for f in dataclasses.fields(ConvergenceReport)
                 if f.name != "trace"]
        assert [line.split(": ", 1)[0] for line in lines] == names
        report = read_report(report_path)
        for line, name in zip(lines, names):
            assert line == f"{name}: {getattr(report, name)}"

    def test_tolerance_flag_respected(self, capsys, tmp_path):
        report_path = tmp_path / "run.json"
        code = main(["--problem", "synthetic", "--solver", "sqa_fista",
                         "--n", "20", "--tol", "1e-5",
                         "--report", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["final_residual_inf"] <= 1e-5

    def test_missing_data_for_logistic(self, capsys):
        code = main(["--problem", "logistic", "--mu", "0.01"])
        assert code == 1
        assert "logistic problems require a data path" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        code = main(["--problem", "synthetic", "--frobnicate"])
        assert code == 1

    def test_iteration_cap_exit_code(self, capsys):
        code = main(["--problem", "synthetic", "--n", "40",
                         "--condition", "10000", "--mu", "0.001",
                         "--max-outer", "2", "--solver", "sqa_obm_cg"])
        assert code == 2

    def test_logistic_from_file(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        lines = []
        for i in range(40):
            label = "+1" if rng.uniform() > 0.5 else "-1"
            feats = " ".join(
                f"{j + 1}:{rng.normal():.6f}" for j in range(8)
            )
            lines.append(f"{label} {feats}")
        path = tmp_path / "train.svm"
        path.write_text("\n".join(lines) + "\n")
        code = main(["--problem", "logistic", "--data", str(path),
                         "--mu", "0.05", "--solver", "sqa_obm_cg"])
        assert code == 0

    def test_logistic_nonfinite_feature_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "f.svm"
        path.write_text("+1 1:0.5 2:nan\n-1 1:inf\n+1 2:1.0\n-1 1:-0.5\n")
        code = main(["--problem", "logistic", "--data", str(path),
                         "--mu", "0.1"])
        assert code == 1
        captured = capsys.readouterr()
        assert f"{path}:1: non-finite value" in captured.err
        assert captured.out == ""

    def test_logistic_huge_index_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "huge.svm"
        path.write_text("+1 1:0.5\n-1 3000000000:1.0\n")
        code = main(["--problem", "logistic", "--data", str(path),
                     "--mu", "0.1"])
        assert code == 1
        captured = capsys.readouterr()
        assert f"{path}:2: index 3000000000 exceeds 2147483647" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text, mu, message", [
        ("# no samples\n", "0.1", "dataset is empty"),
        ("+1 1:1.0\n-1 1:-1.0\n", None,
         "logistic problems require an explicit --mu"),
    ], ids=["empty", "no_mu"])
    def test_logistic_input_errors(self, capsys, tmp_path, text, mu, message):
        path = tmp_path / "d.svm"
        path.write_text(text)
        argv = ["--problem", "logistic", "--data", str(path)]
        if mu is not None:
            argv += ["--mu", mu]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_covariance_from_samples(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=(40, 6))
        path = tmp_path / "samples.txt"
        np.savetxt(path, samples)
        code = main(["--problem", "covariance", "--samples", str(path),
                         "--solver", "sqa_obm_cg"])
        assert code == 0

    def test_covariance_from_matrix(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(6, 6))
        S = M @ M.T / 6 + 0.5 * np.eye(6)
        path = tmp_path / "S.txt"
        np.savetxt(path, S)
        code = main(["--problem", "covariance", "--data", str(path),
                         "--solver", "sqa_fista"])
        assert code == 0

    @pytest.mark.parametrize("flag, text, message", [
        (None, None, "covariance problems require a matrix or samples path"),
        ("--samples", "1 2\nnan 0\n3 1\n", "sample covariance must be finite"),
        ("--data", "1 0.5\n0.5 1\n0 0\n",
         "sample covariance must be a square matrix"),
        ("--data", "1 inf\ninf 1\n", "sample covariance must be finite"),
    ], ids=["no_path", "samples_nan", "data_not_square", "data_inf"])
    def test_covariance_input_errors(self, capsys, tmp_path, flag, text,
                                     message):
        argv = ["--problem", "covariance"]
        if flag is not None:
            path = tmp_path / "input.txt"
            path.write_text(text)
            argv += [flag, str(path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_covariance_from_one_column_of_samples(self, capsys, tmp_path):
        # one value per line is one sample each: a p=1 problem whose
        # objective at P = 1 is the sample variance
        path = tmp_path / "col.txt"
        path.write_text("1\n2\n4\n7\n")
        args = _build_parser().parse_args(
            ["--problem", "covariance", "--samples", str(path)])
        prob = _load_problem(args, 0.5)
        assert prob.dim == 1
        assert prob.value(np.ones(1)) == pytest.approx(5.25, rel=1e-15)
        assert main(["--problem", "covariance", "--samples", str(path)]) == 0

    @pytest.mark.parametrize("flag", ["--samples", "--data"])
    def test_covariance_from_empty_file(self, capsys, tmp_path, flag):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert main(["--problem", "covariance", flag, str(path)]) == 1
        captured = capsys.readouterr()
        assert f"{path}: file holds no data" in captured.err
        assert captured.out == ""

    def test_infinite_tolerance_rejected(self, capsys):
        code = main(["--problem", "synthetic", "--n", "5", "--tol", "inf"])
        assert code == 1
        captured = capsys.readouterr()
        assert "tol_inf must be finite and positive" in captured.err
        assert captured.out == ""

    def test_nonfinite_start_gradient_exit_code(self, capsys, tmp_path):
        # four equal rows of 1e308 overflow the gradient sum at x = 0
        path = tmp_path / "huge.svm"
        path.write_text("+1 1:1e308\n" * 4)
        code = main(["--problem", "logistic", "--data", str(path),
                     "--mu", "0.1"])
        assert code == 2
        assert "status: nonfinite_oracle" in capsys.readouterr().out

    def test_byte_identical_reports_except_time(self, tmp_path):
        payloads = []
        for tag in ("r1", "r2"):
            path = tmp_path / f"{tag}.json"
            code = main(["--problem", "synthetic", "--n", "25",
                             "--seed", "9", "--solver", "sqa_obm_qn",
                             "--report", str(path)])
            assert code == 0
            payload = json.loads(path.read_text())
            payload["wall_time_seconds"] = 0.0
            payloads.append(json.dumps(payload, sort_keys=True))
        assert payloads[0] == payloads[1]


class TestLoadDenseMatrix:
    def test_row_vector_promoted(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1.0 2.0 3.0\n")
        M = load_dense_matrix(path)
        assert M.shape == (1, 3)

    def test_one_value_per_line_is_a_column(self, tmp_path):
        path = tmp_path / "col.txt"
        path.write_text("1\n2\n4\n7\n")
        M = load_dense_matrix(path)
        assert M.shape == (4, 1)
        np.testing.assert_array_equal(M[:, 0], [1.0, 2.0, 4.0, 7.0])

    @pytest.mark.parametrize("text", ["", "\n \n", "# no rows\n"],
                             ids=["empty", "blank", "comment"])
    def test_no_data_raises_naming_the_path(self, tmp_path, text):
        # tier-1 turns numpy's "input contained no data" warning into an
        # error, so this also checks that none is emitted
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="holds no data") as info:
            load_dense_matrix(path)
        assert str(path) in str(info.value)
