"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Desk-scale instances are seed-fixed; expected values come from
independent recomputation (dense spectra, finite differences, enumeration,
long-running fixed-point iterations), never from the code paths under test.
"""

import time

import numpy as np
import pytest

import sqamin.obm as obm_module
from sqamin import (
    LbfgsStore,
    QuadraticModel,
    SolverConfig,
    cg_budget,
    fista_baseline_solve,
    lbfgs_reduced_inverse_solve,
    logistic_problem,
    residual,
    sample_covariance,
    covariance_problem,
    soft_threshold,
    sqa_solve,
    synthetic_logistic_dataset,
    synthetic_quadratic,
    synthetic_quadratic_matrices,
)

from helpers import (
    AnalysisConstants,
    central_difference_gradient,
    directional_second_difference,
    face_conforms,
    materialize_operator,
    model_exact_minimizer,
    model_value,
    objective_values,
)

QUAD_N, QUAD_COND, QUAD_SEED, QUAD_MU = 100, 1e4, 11, 1.0
LOGI_N_SAMPLES, LOGI_N_FEATURES, LOGI_SEED, LOGI_SCALE, LOGI_MU = \
    200, 50, 7, 4.0, 0.1
TOL_INF = 1e-5


def _report_line(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _desk_logistic():
    data = synthetic_logistic_dataset(LOGI_N_SAMPLES, LOGI_N_FEATURES,
                                      seed=LOGI_SEED,
                                      feature_scale=LOGI_SCALE)
    return data, logistic_problem(data, LOGI_MU)


@pytest.fixture(scope="module")
def benchmark_runs():
    """Criterion-4 protocol: four solvers on two seed-fixed desk instances."""
    quad = synthetic_quadratic(QUAD_N, QUAD_COND, seed=QUAD_SEED, mu=QUAD_MU)
    _, logi = _desk_logistic()
    runs = {}
    t0 = time.perf_counter()
    for label, prob in (("quadratic", quad), ("logistic", logi)):
        for solver in ("fista", "sqa_fista", "sqa_obm_cg", "sqa_obm_qn"):
            records = []
            if solver == "fista":
                x, rep = fista_baseline_solve(prob, SolverConfig(tol_inf=TOL_INF))
            else:
                inner = solver.removeprefix("sqa_")
                config = SolverConfig(inner_solver=inner, tol_inf=TOL_INF,
                                      max_inner=5000)
                x, rep = sqa_solve(prob, config, observer=records.append)
            runs[(label, solver)] = (x, rep, records)
    return {"runs": runs, "elapsed": time.perf_counter() - t0,
            "quad": quad, "logi": logi}


class TestCriterion01ResidualIdentity:
    def test_displacement_matches_scaled_residual(self):
        rng = np.random.default_rng(1001)
        t0 = time.perf_counter()
        worst = 0.0
        for tau in (0.1, 0.5, 0.9):
            for mu in (0.0, 0.5, 2.0):
                for _ in range(1000):
                    x = rng.normal(size=8) * 2
                    g = rng.normal(size=8) * 2
                    F = residual(x, g, tau, mu)
                    z = soft_threshold(x - tau * g, tau * mu)
                    step = np.linalg.norm(z - x)
                    worst = max(worst, abs(tau * np.linalg.norm(F) - step))
        elapsed = time.perf_counter() - t0
        _report_line(
            "criterion 01 residual identity",
            worst <= 1e-10 and elapsed < 1.0,
            f"max deviation {worst:.2e}, {elapsed:.2f}s",
        )


class TestCriterion02StrongMonotonicity:
    def test_model_residual_map_strongly_monotone(self):
        rng = np.random.default_rng(1002)
        t0 = time.perf_counter()
        n = 20
        M = rng.normal(size=(n, n))
        H = M @ M.T + 0.5 * np.eye(n)
        lam_min = float(np.linalg.eigvalsh(H).min())
        tau = 0.9 / float(np.linalg.norm(H, 2))
        mu = 0.7
        x = rng.normal(size=n)
        g = rng.normal(size=n)

        def F_q(points):
            u = g + (points - x) @ H
            return u - np.clip(u - points / tau, -mu, mu)

        Y = rng.normal(size=(10_000, n)) * 2
        Z = rng.normal(size=(10_000, n)) * 2
        diff = Z - Y
        lhs = np.einsum("ij,ij->i", diff, F_q(Z) - F_q(Y))
        rhs = 0.5 * lam_min * np.einsum("ij,ij->i", diff, diff)
        violations = int(np.sum(lhs < rhs))
        elapsed = time.perf_counter() - t0
        _report_line(
            "criterion 02 strong monotonicity",
            violations == 0 and elapsed < 5.0,
            f"{violations} violations over 10000 pairs, {elapsed:.2f}s",
        )


class TestCriterion03OracleChecks:
    def test_derivative_oracles(self):
        rng = np.random.default_rng(1003)
        data, _ = _desk_logistic()
        small = synthetic_logistic_dataset(25, 8, seed=3)
        checks = []

        x = rng.normal(size=8) * 0.3
        small_prob = logistic_problem(small, 0.0)
        fd = central_difference_gradient(small_prob.value, x)
        got = small_prob.gradient(x)
        rel = np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-30)
        checks.append(("logistic gradient", rel <= 1e-5, rel))

        v = rng.normal(size=8)
        fd_h = directional_second_difference(small_prob.gradient, x, v)
        got_h = small_prob.hess_vec(x, v)
        rel = np.linalg.norm(got_h - fd_h) / max(np.linalg.norm(fd_h), 1e-30)
        checks.append(("logistic hessian-vector", rel <= 1e-4, rel))

        p = 5
        cov = sample_covariance(rng.normal(size=(30, p)))
        Pvec = (np.eye(p) + 0.1 * np.ones((p, p))).ravel()
        fd = central_difference_gradient(covariance_problem(cov, 0.0).value,
                                         Pvec, h=1e-5)
        got = covariance_problem(cov, 0.0).gradient(Pvec)
        rel = np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-30)
        checks.append(("log-det gradient", rel <= 1e-5, rel))

        V = rng.normal(size=(p, p))
        V = 0.5 * (V + V.T)
        fd_h = directional_second_difference(
            covariance_problem(cov, 0.0).gradient, Pvec, V.ravel(), h=1e-6)
        got_h = covariance_problem(cov, 0.0).hess_vec(Pvec, V.ravel())
        rel = np.linalg.norm(got_h - fd_h) / max(np.linalg.norm(fd_h), 1e-30)
        checks.append(("log-det hessian-vector", rel <= 1e-4, rel))

        p3 = 3
        cov3 = sample_covariance(rng.normal(size=(20, p3)))
        M = rng.normal(size=(p3, p3))
        P3 = (M @ M.T + p3 * np.eye(p3))
        Pinv = np.linalg.inv(P3)
        K = np.kron(Pinv, Pinv)
        V3 = rng.normal(size=(p3, p3))
        V3 = 0.5 * (V3 + V3.T)
        kron_err = np.max(np.abs(
            covariance_problem(cov3, 0.0).hess_vec(P3.ravel(), V3.ravel())
            - K @ V3.ravel()))
        checks.append(("log-det Kronecker action", kron_err <= 1e-10, kron_err))

        # the desk instance's oracles get the same treatment
        xzero = np.zeros(data.n_features)
        data_prob = logistic_problem(data, 0.0)
        fd = central_difference_gradient(data_prob.value, xzero)
        rel = np.linalg.norm(data_prob.gradient(xzero) - fd) / \
            max(np.linalg.norm(fd), 1e-30)
        checks.append(("desk logistic gradient", rel <= 1e-5, rel))

        ok = all(c[1] for c in checks)
        detail = "; ".join(f"{name} {err:.1e}" for name, _, err in checks)
        _report_line("criterion 03 oracle checks", ok, detail)


class TestCriterion04CrossSolverAgreement:
    def test_all_solvers_converge_and_agree(self, benchmark_runs):
        runs = benchmark_runs["runs"]
        ok = True
        details = []
        for label in ("quadratic", "logistic"):
            sols = {}
            for solver in ("fista", "sqa_fista", "sqa_obm_cg", "sqa_obm_qn"):
                x, rep, _ = runs[(label, solver)]
                sols[solver] = x
                if rep.status != "converged" or \
                        rep.final_residual_inf > TOL_INF or \
                        rep.outer_iterations > 3000:
                    ok = False
                    details.append(f"{label}/{solver} did not converge")
                phis = objective_values(rep)
                if not np.all(np.diff(phis) < 0):
                    ok = False
                    details.append(f"{label}/{solver} trace not decreasing")
            names = list(sols)
            dmax = max(
                np.linalg.norm(sols[a] - sols[b])
                for i, a in enumerate(names) for b in names[i + 1:]
            )
            details.append(f"{label} max pairwise distance {dmax:.2e}")
            if dmax > 1e-4:
                ok = False
        elapsed = benchmark_runs["elapsed"]
        if elapsed >= 30.0:
            ok = False
        _report_line("criterion 04 cross-solver agreement", ok,
                     "; ".join(details) + f"; {elapsed:.1f}s")


class TestCriterion05DecreaseBoundAudit:
    def test_linear_decrease_bound_on_exact_hessian_runs(self, benchmark_runs):
        runs = benchmark_runs["runs"]
        A, _ = synthetic_quadratic_matrices(QUAD_N, QUAD_COND, seed=QUAD_SEED)
        quad_spectrum = np.linalg.eigvalsh(A)
        data, logi_prob = _desk_logistic()
        violations = 0
        audited = 0
        for label in ("quadratic", "logistic"):
            for solver in ("sqa_fista", "sqa_obm_cg"):
                _, _, records = runs[(label, solver)]
                for rec in records:
                    # the bound's derivation assumes the accepted solution
                    # passed the inexactness test, so the inner run must
                    # have stopped on it rather than on its iteration cap
                    assert rec.inner.status == "converged"
                    if label == "quadratic":
                        lam_lo = float(quad_spectrum.min())
                        lam_hi = float(quad_spectrum.max())
                    else:
                        H = materialize_operator(
                            lambda v: logi_prob.hess_vec(rec.x, v),
                            LOGI_N_FEATURES)
                        spec = np.linalg.eigvalsh(0.5 * (H + H.T))
                        lam_lo, lam_hi = float(spec.min()), float(spec.max())
                    gamma = AnalysisConstants.gamma_coefficient(
                        lam_lo, lam_hi, rec.eta, 0.5)
                    ell_dec = rec.q_reference - rec.ell_candidate
                    audited += 1
                    if ell_dec < gamma * rec.residual_norm2**2:
                        violations += 1
        _report_line(
            "criterion 05 decrease-bound audit",
            violations == 0 and audited > 0,
            f"{audited} accepted steps audited, {violations} violations",
        )


class TestCriterion06UnitSteps:
    def test_unit_steps_near_solution(self, benchmark_runs):
        _, prob = _desk_logistic()
        config = SolverConfig(inner_solver="fista",
                              inexactness_mode="strengthened", zeta=0.25,
                              tol_inf=TOL_INF)
        _, rep = sqa_solve(prob, config, hessian_source="exact")
        alphas = [row.alpha for row in rep.trace[1:]]
        tail_ok = all(a == 1.0 for k, a in enumerate(alphas, start=1) if k >= 4)

        runs = benchmark_runs["runs"]
        all_alphas = []
        for (label, solver), (_, rep4, _) in runs.items():
            if solver != "fista":
                all_alphas += [row.alpha for row in rep4.trace[1:]]
        unit_fraction = float(np.mean([a == 1.0 for a in all_alphas]))
        _report_line(
            "criterion 06 unit-step acceptance",
            tail_ok and unit_fraction >= 0.95 and rep.status == "converged",
            f"alphas={alphas}; unit fraction {unit_fraction:.3f}",
        )


class TestCriterion07RateControl:
    def test_forcing_sequence_controls_rate(self):
        _, prob = _desk_logistic()
        ref_cfg = SolverConfig(inner_solver="fista", zeta=0.25,
                               tol_inf=1e-12, max_inner=20000)
        xstar, ref_rep = sqa_solve(prob, ref_cfg)
        assert ref_rep.status == "converged"

        def errors_for(eta_rule, eta_constant=0.5):
            cfg = SolverConfig(inner_solver="fista", zeta=0.25, tol_inf=1e-8,
                               eta_rule=eta_rule, eta_constant=eta_constant,
                               max_inner=20000)
            errs = [np.linalg.norm(prob.start_point() - xstar)]
            obs = lambda rec: errs.append(np.linalg.norm(rec.x_next - xstar))
            _, rep = sqa_solve(prob, cfg, observer=obs)
            assert rep.status == "converged"
            errs = np.array(errs)
            return errs, errs[1:] / errs[:-1]

        errs_a, ratios_a = errors_for("constant", 0.5)
        errs_b, ratios_b = errors_for("inverse_k")
        errs_c, ratios_c = errors_for("residual")

        checks = []
        # (a) constant forcing factor: linear convergence, ratio bounded < 1
        final_a = ratios_a[-5:]
        checks.append(("constant rule ratios < 1", bool(np.all(final_a < 1.0))))
        # (b) decaying rule beats the constant rule at matched error levels:
        # compare each late ratio of (b) against the (a) ratio whose starting
        # error is closest
        comparisons = []
        for idx in range(max(0, len(ratios_b) - 4), len(ratios_b)):
            err_level = errs_b[idx]
            j = int(np.argmin(np.abs(errs_a[:-1] - err_level)))
            comparisons.append(ratios_b[idx] < ratios_a[j])
        checks.append(("decaying rule strictly faster", all(comparisons)))
        # (c) residual-proportional rule: quadratic tail
        final_c = ratios_c[-3:]
        checks.append(("residual rule final ratio <= 0.1", final_c[-1] <= 0.1))
        checks.append(
            ("residual rule ratios decreasing",
             bool(np.all(np.diff(final_c) < 0))))
        ok = all(flag for _, flag in checks)
        detail = (
            f"a={np.round(final_a, 3).tolist()} "
            f"b={np.round(ratios_b[-4:], 3).tolist()} "
            f"c={[f'{r:.1e}' for r in final_c]}"
        )
        _report_line("criterion 07 rate control", ok, detail)


class TestCriterion08HalfDecrease:
    def test_exact_minimizer_halves_linear_decrease(self):
        rng = np.random.default_rng(1008)
        worst = np.inf
        for _ in range(20):
            n = 5
            M = rng.normal(size=(n, n))
            H = M @ M.T + 0.5 * np.eye(n)
            model = QuadraticModel(rng.normal(size=n), rng.normal(size=n),
                                   float(rng.normal()), lambda v, _H=H: _H @ v,
                                   float(rng.uniform(0.1, 1.0)))
            ybar = model_exact_minimizer(model)
            q_dec = model.q_ref - model_value(model, ybar)
            ell_dec = model.q_ref - model.linear_value(ybar)
            worst = min(worst, q_dec - 0.5 * ell_dec)
        _report_line(
            "criterion 08 exact-minimizer half decrease",
            worst >= -1e-10,
            f"min slack {worst:.2e} over 20 random models",
        )


class TestCriterion09ObmConformanceAndBudget:
    def test_budget_schedule(self):
        expected = {k: min(3, 1 + k // 10) for k in range(0, 40)}
        ok = all(cg_budget(k) == v for k, v in expected.items())
        ok = ok and all(cg_budget(k) == 1 for k in range(0, 10))
        ok = ok and all(cg_budget(k) == 2 for k in range(10, 20))
        ok = ok and all(cg_budget(k) == 3 for k in range(20, 40))
        _report_line("criterion 09a CG budget schedule", ok)

    def test_iterates_conform_and_budget_used(self, monkeypatch):
        conform_failures = []
        budget_calls = []
        real_search = obm_module.obm_projected_line_search
        real_budget = obm_module.cg_budget

        def checked_search(model, z, face, d, v, q_ref):
            outcome = real_search(model, z, face, d, v, q_ref)
            if not outcome.stalled and not face_conforms(face, outcome.point):
                conform_failures.append(outcome.point)
            return outcome

        def recording_budget(outer_k):
            cap = real_budget(outer_k)
            budget_calls.append((outer_k, cap))
            return cap

        monkeypatch.setattr(obm_module, "obm_projected_line_search",
                            checked_search)
        monkeypatch.setattr(obm_module, "cg_budget", recording_budget)
        prob = synthetic_quadratic(60, 1e3, seed=23, mu=0.05)
        # a weak constant forcing factor stretches the run past outer
        # iteration 20 so that all three budget levels are exercised
        config = SolverConfig(inner_solver="obm_cg", max_inner=5000,
                              eta_rule="constant", eta_constant=0.9)
        _, rep = sqa_solve(prob, config)
        budget_ok = all(cap == min(3, 1 + k // 10) for k, cap in budget_calls)
        ks = sorted({k for k, _ in budget_calls})
        deep_enough = max(ks) >= 20  # exercises caps 1, 2 and 3
        _report_line(
            "criterion 09b OBM conformance and budget",
            rep.status == "converged" and not conform_failures and budget_ok
            and deep_enough,
            f"{len(budget_calls)} budgeted solves over outer iterations "
            f"{min(ks)}..{max(ks)}, {len(conform_failures)} conformance "
            f"failures",
        )

    def test_reduced_solve_matches_dense_assembly(self):
        rng = np.random.default_rng(1009)
        n = 8
        M = rng.normal(size=(n, n))
        A = M @ M.T + np.eye(n)
        store = LbfgsStore(memory=50)
        for _ in range(3):
            s = rng.normal(size=n)
            store.update(s, A @ s)
        worst = 0.0
        for _ in range(10):
            omega = rng.integers(-1, 2, size=n).astype(np.int8)
            if not np.any(omega):
                omega[0] = 1
            free = omega != 0
            B = materialize_operator(store.hessian_vec, n)
            v = rng.normal(size=n)
            expected = np.zeros(n)
            expected[free] = -np.linalg.solve(B[np.ix_(free, free)], v[free])
            d = lbfgs_reduced_inverse_solve(store, omega, v)
            worst = max(worst, float(np.max(np.abs(d - expected))))
        _report_line(
            "criterion 09c reduced quasi-Newton solve",
            worst <= 1e-8,
            f"max deviation {worst:.2e} (n=8, memory 3)",
        )


class TestCriterion10CovarianceDeskRun:
    def test_covariance_estimation_run(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        p = 20
        cov = sample_covariance(rng.normal(size=(50, p)))
        prob = covariance_problem(cov, 0.5)
        min_eigs = []

        def observer(rec):
            P = rec.x_next.reshape(p, p)
            min_eigs.append(float(np.linalg.eigvalsh(0.5 * (P + P.T)).min()))

        x, rep = sqa_solve(prob, SolverConfig(inner_solver="obm_cg",
                                              tol_inf=TOL_INF),
                           observer=observer)
        xb, rep_b = fista_baseline_solve(prob, SolverConfig(tol_inf=TOL_INF))
        distance = float(np.linalg.norm(x - xb))
        elapsed = time.perf_counter() - t0
        all_pd = bool(min_eigs and min(min_eigs) > 0.0)
        _report_line(
            "criterion 10 covariance desk run",
            rep.status == "converged" and rep_b.status == "converged"
            and all_pd and distance <= 1e-4 and elapsed < 60.0,
            f"residual {rep.final_residual_inf:.1e}, min iterate eigenvalue "
            f"{min(min_eigs):.3f}, baseline distance {distance:.1e}, "
            f"{elapsed:.1f}s",
        )


class TestCriterion11LineSearchFloor:
    def test_accepted_steps_above_theory_floor(self):
        theta = 0.1
        failures = []
        details = []
        for n, cond, seed in ((20, 10.0, 31), (30, 100.0, 32),
                              (40, 1000.0, 33)):
            prob = synthetic_quadratic(n, cond, seed=seed, mu=0.2)
            A, _ = synthetic_quadratic_matrices(n, cond, seed=seed)
            spectrum = np.linalg.eigvalsh(A)
            floor = (1 - theta) * float(spectrum.min()) / \
                (2.0 * float(spectrum.max()))
            for inner in ("fista", "obm_cg"):
                _, rep = sqa_solve(
                    prob, SolverConfig(inner_solver=inner, theta=theta))
                alphas = [row.alpha for row in rep.trace[1:]]
                if any(a < floor for a in alphas):
                    failures.append((n, cond, inner))
                details.append(f"n={n} cond={cond:g} min alpha "
                               f"{min(alphas):.3g} floor {floor:.3g}")
        _report_line(
            "criterion 11 line-search floor",
            not failures,
            "; ".join(details),
        )


class TestCriterion12InputOutput:
    def test_round_trips_and_determinism(self, tmp_path):
        import json

        from sqamin import (LogisticDataset, parse_svmlight,
                            read_report, write_report, write_svmlight)
        import scipy.sparse

        rng = np.random.default_rng(1012)
        Z = scipy.sparse.random(25, 12, density=0.35, random_state=4,
                                format="csr")
        Z.data = rng.normal(size=Z.data.size)
        Z.sort_indices()
        labels = np.where(rng.uniform(size=25) > 0.5, 1.0, -1.0)
        data = LogisticDataset(Z, labels)
        svm_path = tmp_path / "data.svm"
        write_svmlight(data, svm_path)
        back = parse_svmlight(svm_path, n_features=12)
        svm_ok = (back.features != data.features).nnz == 0 and \
            np.array_equal(back.labels, data.labels)

        prob = synthetic_quadratic(20, 50.0, seed=12, mu=0.4)
        payloads = []
        report_ok = True
        for tag in ("first", "second"):
            _, rep = sqa_solve(prob, SolverConfig(inner_solver="obm_cg"))
            path = tmp_path / f"{tag}.json"
            write_report(rep, path, "json",
                         {"problem": "synthetic", "mu": 0.4, "seed": 0})
            restored = read_report(path)
            report_ok = report_ok and (
                restored.outer_iterations == rep.outer_iterations
                and restored.hess_vec_products == rep.hess_vec_products
                and restored.final_residual_inf == rep.final_residual_inf
                and len(restored.trace) == len(rep.trace)
            )
            payload = json.loads(path.read_text())
            payload["wall_time_seconds"] = 0.0
            payloads.append(json.dumps(payload, sort_keys=True))
        deterministic = payloads[0] == payloads[1]
        _report_line(
            "criterion 12 input/output round trips",
            svm_ok and report_ok and deterministic,
            f"svmlight exact={svm_ok}, report exact={report_ok}, "
            f"seeded runs identical modulo time={deterministic}",
        )
