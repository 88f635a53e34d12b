"""SVMLight parsing, covariance estimation, report emission, CLI behavior."""

import dataclasses
import json

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
from sqamin.cli import _build_parser, _load_problem, main
from sqamin.io import SOLVERS


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

    def test_synthetic_end_to_end(self, capsys):
        code = main(["--problem", "synthetic", "--solver", "sqa_obm_cg",
                         "--n", "30", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: converged" in out
        assert "Hessian-vector mults:" in out

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
