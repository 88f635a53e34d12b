"""Outer loop: forcing schedule, inexactness gate, line search, full solves."""

import dataclasses
import json
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.sparse

from sqamin import (
    CompositeProblem,
    ConvergenceReport,
    CovarianceProblem,
    LbfgsStore,
    LineSearchError,
    LogisticDataset,
    QuadraticModel,
    SolverConfig,
    covariance_problem,
    eta_schedule,
    fista_baseline_solve,
    inexactness_check,
    logistic_problem,
    outer_line_search,
    read_report,
    residual,
    sqa_solve,
    synthetic_logistic_dataset,
    synthetic_quadratic,
    synthetic_quadratic_matrices,
    write_report,
)
from sqamin import driver, fista, objectives, obm
from sqamin.io import SOLVERS

from helpers import (
    AnalysisConstants,
    long_run_ista,
    model_exact_minimizer,
    objective_values,
    with_one_blas_thread,
)


class TestEtaSchedule:
    def test_mid_range(self):
        assert eta_schedule(5) == pytest.approx(0.2)

    def test_floor_active(self):
        assert eta_schedule(20) == pytest.approx(0.1)
        assert eta_schedule(1000) == pytest.approx(0.1)

    def test_cap_applies_at_first_iteration(self):
        # the raw 1/k rule yields 1.0 at k=1, which is not a valid forcing
        # factor; the cap keeps it strictly below one
        assert eta_schedule(1) == pytest.approx(0.9)

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            eta_schedule(0)


def _random_model(rng, n=3, mu=0.5):
    A = rng.normal(size=(n, n))
    H = A @ A.T + np.eye(n)
    return QuadraticModel(
        rng.normal(size=n), rng.normal(size=n), 0.8, lambda v: H @ v, mu
    )


class TestInexactnessCheck:
    def test_true_at_exact_minimizer_both_modes(self):
        rng = np.random.default_rng(0)
        model = _random_model(rng)
        ybar = model_exact_minimizer(model)
        for mode in ("simple", "strengthened"):
            rep = inexactness_check(model, ybar, eta=0.01, tau=0.5, mode=mode,
                                    zeta=0.25)
            assert rep.ok, mode
            assert rep.residual_norm <= 1e-8

    def test_false_at_reference_point(self):
        rng = np.random.default_rng(1)
        model = _random_model(rng)
        rep = inexactness_check(model, model.x_ref, eta=0.5, tau=0.5)
        assert not rep.ok
        # residual ratio is exactly one there and the model has not decreased
        assert rep.residual_norm == pytest.approx(2 * rep.residual_bound)
        assert rep.decrease_lhs == pytest.approx(0.0, abs=1e-14)

    def test_near_minimizer_accepted(self):
        rng = np.random.default_rng(2)
        model = _random_model(rng)
        ybar = model_exact_minimizer(model)
        for _ in range(20):
            xhat = ybar + rng.normal(size=3) * 1e-9
            rep = inexactness_check(model, xhat, eta=0.1, tau=0.5,
                                    mode="strengthened", zeta=0.25)
            assert rep.ok

    def test_diagnostics_carry_both_sides(self):
        rng = np.random.default_rng(3)
        model = _random_model(rng)
        ybar = model_exact_minimizer(model)
        rep = inexactness_check(model, ybar, eta=0.3, tau=0.5,
                                mode="strengthened", zeta=0.25)
        F_ref = residual(model.x_ref, model.g_ref, 0.5, model.mu)
        assert rep.residual_bound == pytest.approx(0.3 * np.linalg.norm(F_ref))
        assert rep.q_reference == pytest.approx(model.q_ref)
        assert rep.decrease_rhs <= 0.0

    def test_costs_one_hessian_product(self):
        rng = np.random.default_rng(4)
        model = _random_model(rng)
        inexactness_check(model, rng.normal(size=3), eta=0.5, tau=0.5)
        assert model.tally.hess_vec_products == 1

    @pytest.mark.parametrize("mode", ["simple", "strengthened"])
    def test_report_sides_bit_for_bit(self, mode):
        # the report takes the model's cached reference value and shares the
        # l1 term between q_hat and the linear model; each side must still
        # be the bits of the model's own methods
        rng = np.random.default_rng(5)
        model = _random_model(rng, n=40)
        xhat = rng.normal(size=40)
        xhat[::3] = 0.0
        rep = inexactness_check(model, xhat, eta=0.5, tau=0.5, mode=mode,
                                zeta=0.25)
        sval, sgrad = model.smooth_eval(xhat)
        q_ref = model.q_ref
        expected_rhs = (0.0 if mode == "simple"
                        else 0.25 * (model.linear_value(xhat) - q_ref))
        assert rep.q_reference.hex() == q_ref.hex()
        assert rep.decrease_rhs.hex() == expected_rhs.hex()
        q_hat = sval + model.mu * float(np.abs(xhat).sum())
        assert rep.q_candidate.hex() == q_hat.hex()
        assert rep.decrease_lhs.hex() == (q_hat - q_ref).hex()
        F = residual(xhat, sgrad, 0.5, model.mu)
        assert rep.residual_norm.hex() == float(np.linalg.norm(F)).hex()

    def test_linear_side_follows_a_point_changed_in_place(self):
        rng = np.random.default_rng(6)
        model = _random_model(rng, n=40)
        xhat = rng.normal(size=40)
        for edit in (None, 0.0):
            if edit is not None:
                xhat[::3] = edit
            rep = inexactness_check(model, xhat, eta=0.5, tau=0.5,
                                    mode="strengthened", zeta=0.25)
            expected = 0.25 * (model.linear_value(xhat) - model.q_ref)
            assert rep.decrease_rhs.hex() == expected.hex()


class TestOuterLineSearch:
    def test_unit_step_for_exact_quadratic_model(self):
        prob = synthetic_quadratic(6, 50.0, seed=0, mu=0.4)
        A, b = synthetic_quadratic_matrices(6, 50.0, seed=0)
        x = np.zeros(6)
        model = QuadraticModel(x, prob.gradient(x), prob.value(x),
                               lambda v: A @ v, prob.mu)
        ybar = model_exact_minimizer(model)
        result = outer_line_search(prob, model, ybar - x, theta=0.1)
        assert result.alpha == 1.0
        assert result.trials == 1

    def test_zero_direction_rejected(self):
        prob = synthetic_quadratic(4, 10.0, seed=1, mu=0.1)
        x = np.zeros(4)
        model = QuadraticModel(x, prob.gradient(x), prob.value(x),
                               lambda v: v, prob.mu)
        with pytest.raises(ValueError):
            outer_line_search(prob, model, np.zeros(4))

    def test_each_trial_counts_one_evaluation(self):
        prob = synthetic_quadratic(6, 50.0, seed=2, mu=0.4)
        A, _ = synthetic_quadratic_matrices(6, 50.0, seed=2)
        x = np.zeros(6)
        model = QuadraticModel(x, prob.gradient(x), prob.value(x),
                               lambda v: A @ v, prob.mu)
        ybar = model_exact_minimizer(model)
        result = outer_line_search(prob, model, ybar - x)
        assert model.tally.fg_evaluations == result.trials

    def test_ascent_direction_raises_after_underflow(self):
        # a direction with no linear-model decrease violates the
        # preconditions; the search must fail loudly instead of accepting
        prob = synthetic_quadratic(5, 10.0, seed=21, mu=0.0)
        x = np.ones(5)
        g = prob.gradient(x)
        model = QuadraticModel(x, g, prob.value(x), lambda v: v.copy(),
                               prob.mu)
        with pytest.raises(RuntimeError, match="underflow"):
            outer_line_search(prob, model, +g)

    def test_trial_that_rounds_to_the_reference_raises_unevaluated(self):
        # 1e-20 * d vanishes against entries of size 1: the unit trial is
        # x_ref itself, where both sides of the decrease test are exactly 0
        prob = synthetic_quadratic(5, 10.0, seed=22, mu=0.1)
        x = np.ones(5)
        g = prob.gradient(x)
        model = QuadraticModel(x, g, prob.value(x), lambda v: v.copy(),
                               prob.mu)
        with pytest.raises(LineSearchError, match="reference point"):
            outer_line_search(prob, model, -1e-20 * g)
        assert model.tally.fg_evaluations == 0

    def test_backtracks_on_overshooting_direction(self):
        # a crude model (identity Hessian on a stiff problem) produces an
        # overlong direction; the search must cut it down, not fail
        prob = synthetic_quadratic(6, 1000.0, seed=3, mu=0.0)
        x = np.zeros(6)
        model = QuadraticModel(x, prob.gradient(x), prob.value(x),
                               lambda v: v.copy(), prob.mu)
        d = -prob.gradient(x)  # steepest descent against identity model
        result = outer_line_search(prob, model, d, theta=0.1)
        assert 0 < result.alpha < 1.0
        phi0 = prob.objective(x)
        assert result.phi_next < phi0


class TestSqaSolve:
    def test_zero_outer_iterations_when_optimal(self):
        # mu dominates the gradient at zero, so zero is already optimal
        prob = synthetic_quadratic(5, 10.0, seed=4, mu=50.0)
        x, report = sqa_solve(prob, SolverConfig(inner_solver="fista"))
        assert report.status == "converged"
        assert report.outer_iterations == 0
        np.testing.assert_array_equal(x, np.zeros(5))

    def test_quadratic_matches_long_run_ista(self):
        mu = 0.6  # roughly half the coordinates end up at zero
        prob = synthetic_quadratic(50, 100.0, seed=5, mu=mu)
        A, _ = synthetic_quadratic_matrices(50, 100.0, seed=5)
        step = 1.0 / float(np.linalg.eigvalsh(A).max())
        xstar = long_run_ista(prob.gradient, np.zeros(50), step, mu)
        x, report = sqa_solve(prob, SolverConfig(inner_solver="obm_cg"))
        assert report.status == "converged"
        assert report.final_residual_inf <= 1e-5
        assert np.linalg.norm(x - xstar) <= 1e-4

    def test_cross_solver_agreement(self):
        prob = synthetic_quadratic(30, 200.0, seed=6, mu=0.5)
        solutions = []
        for inner, source in (("fista", "exact"), ("obm_cg", "exact"),
                              ("obm_qn", "lbfgs")):
            x, report = sqa_solve(prob, SolverConfig(inner_solver=inner),
                                  hessian_source=source)
            assert report.status == "converged"
            solutions.append(x)
        for i in range(len(solutions)):
            for j in range(i + 1, len(solutions)):
                assert np.linalg.norm(solutions[i] - solutions[j]) <= 1e-4

    def test_objective_trace_strictly_decreasing(self):
        prob = synthetic_quadratic(20, 100.0, seed=7, mu=0.3)
        _, report = sqa_solve(prob, SolverConfig(inner_solver="fista"))
        phis = objective_values(report)
        assert np.all(np.diff(phis) < 0)

    def test_trace_rows_well_formed(self):
        prob = synthetic_quadratic(12, 30.0, seed=8, mu=0.2)
        _, report = sqa_solve(prob, SolverConfig(inner_solver="obm_cg"))
        ks = [row.k for row in report.trace]
        assert ks == list(range(len(ks)))
        assert report.trace[0].alpha == 0.0
        assert all(row.inner_iterations >= 0 for row in report.trace)
        assert sum(r.inner_iterations for r in report.trace) == \
            report.inner_iterations
        assert report.trace[-1].residual_inf == report.final_residual_inf

    def test_fg_evaluations_track_line_search(self):
        # all-unit-step runs evaluate the oracle once at the start and once
        # per accepted iterate
        prob = synthetic_quadratic(15, 10.0, seed=9, mu=0.5)
        _, report = sqa_solve(prob, SolverConfig(inner_solver="fista"))
        alphas = [row.alpha for row in report.trace[1:]]
        if all(a == 1.0 for a in alphas):
            assert report.fg_evaluations == report.outer_iterations + 1

    def test_observer_sees_every_accepted_iteration(self):
        prob = synthetic_quadratic(10, 40.0, seed=10, mu=0.4)
        records = []
        _, report = sqa_solve(prob, SolverConfig(inner_solver="fista"),
                              observer=records.append)
        assert len(records) == report.outer_iterations
        assert [r.k for r in records] == list(range(1, len(records) + 1))
        for rec in records:
            assert rec.q_candidate < rec.q_reference
            assert rec.ell_candidate < rec.q_reference

    def test_fista_inner_solver_pays_one_product_per_iteration(self):
        prob = synthetic_quadratic(60, 1e3, seed=5, mu=0.1)
        _, report = sqa_solve(prob, SolverConfig(inner_solver="fista"))
        assert report.status == "converged"
        assert report.hess_vec_products <= 1.1 * report.inner_iterations

    @pytest.mark.parametrize("inner", ["fista", "obm_cg", "obm_qn"])
    def test_inner_solve_pays_no_product_at_its_start(self, inner,
                                                      monkeypatch):
        # the inner solve starts from the model's reference point, whose
        # value and gradient the driver has evaluated, so the model Hessian
        # is never applied to the zero step
        prob = synthetic_quadratic(60, 1e3, seed=5, mu=0.1)
        steps = []

        def hess_vec(x, v):
            steps.append(v.copy())
            return prob.hess_vec(x, v)

        lbfgs_hessian_vec = LbfgsStore.hessian_vec

        def lbfgs_recorded(store, v):
            steps.append(np.array(v, dtype=float))
            return lbfgs_hessian_vec(store, v)

        monkeypatch.setattr(LbfgsStore, "hessian_vec", lbfgs_recorded)
        _, report = sqa_solve(dataclasses.replace(prob, hess_vec=hess_vec),
                              SolverConfig(inner_solver=inner))
        assert report.status == "converged"
        assert len(steps) == report.hess_vec_products
        assert all(np.any(v) for v in steps)

    def test_iteration_cap_status(self):
        prob = synthetic_quadratic(40, 1e4, seed=11, mu=0.01)
        _, report = sqa_solve(
            prob, SolverConfig(inner_solver="fista", max_outer=2, max_inner=5)
        )
        assert report.status == "iteration_cap"
        assert report.outer_iterations == 2

    def test_eta_rules_drive_trace(self):
        prob = synthetic_quadratic(10, 20.0, seed=12, mu=0.3)
        _, rep = sqa_solve(prob, SolverConfig(inner_solver="fista"))
        etas = [row.eta for row in rep.trace[1:]]
        expected = [eta_schedule(k) for k in range(1, len(etas) + 1)]
        assert etas == pytest.approx(expected)
        _, rep_c = sqa_solve(
            prob,
            SolverConfig(inner_solver="fista", eta_rule="constant",
                         eta_constant=0.5),
        )
        assert all(row.eta == pytest.approx(0.5) for row in rep_c.trace[1:])

    def test_invalid_hessian_source(self):
        # the inner solver fixes the backend; any other source is rejected
        prob = synthetic_quadratic(4, 2.0, seed=13, mu=0.1)
        for inner, source in (("fista", "lbfgs"), ("obm_cg", "lbfgs"),
                              ("obm_qn", "exact"), ("obm_cg", "diagonal")):
            with pytest.raises(ValueError, match=repr(source)):
                sqa_solve(prob, SolverConfig(inner_solver=inner),
                          hessian_source=source)

    def test_qn_inner_requires_lbfgs_source(self):
        prob = synthetic_quadratic(4, 2.0, seed=13, mu=0.1)
        with pytest.raises(ValueError, match="lbfgs"):
            sqa_solve(prob, SolverConfig(inner_solver="obm_qn"),
                      hessian_source="exact")

    def test_qn_inner_defaults_to_lbfgs_source(self):
        prob = synthetic_quadratic(20, 50.0, seed=22, mu=0.3)
        config = SolverConfig(inner_solver="obm_qn")
        x_default, rep_default = sqa_solve(prob, config)
        x_lbfgs, rep_lbfgs = sqa_solve(prob, config, hessian_source="lbfgs")
        np.testing.assert_array_equal(x_default, x_lbfgs)
        for name in ("status", "outer_iterations", "inner_iterations",
                     "fg_evaluations", "hess_vec_products"):
            assert getattr(rep_default, name) == getattr(rep_lbfgs, name)

    def test_report_carries_the_lbfgs_skip_count(self, monkeypatch):
        c = _HUBER_CENTRE
        prob = _huber_problem()
        accepted = []
        update = LbfgsStore.update

        def recording_update(store, s, y):
            accepted.append(update(store, s, y))
            return accepted[-1]

        monkeypatch.setattr(LbfgsStore, "update", recording_update)
        x, report = sqa_solve(prob, SolverConfig(inner_solver="obm_qn"))
        assert report.status == "converged"
        np.testing.assert_allclose(x, c - 0.1 * np.sign(c), atol=1e-5)
        skipped = accepted.count(False)
        assert skipped >= 1
        assert report.lbfgs_skipped_updates == skipped
        assert report.lbfgs_fallback_solves == 0

    def test_skip_flagged_in_telemetry(self, tmp_path):
        # every Telemetry counter of a run that skips a pair reaches the
        # report field of the same name, and survives a JSON round trip
        records = []
        _, report = sqa_solve(_huber_problem(),
                              SolverConfig(inner_solver="obm_qn"),
                              observer=records.append)
        tally = records[-1].model.tally
        assert all(record.model.tally is tally for record in records)
        assert tally.lbfgs_skipped_updates >= 1
        counters = dataclasses.asdict(tally)
        assert {name: getattr(report, name) for name in counters} == counters
        path = tmp_path / "r.json"
        write_report(report, path)
        back = read_report(path)
        assert {name: getattr(back, name) for name in counters} == counters
        # a report written before the defaulted fields existed loads each
        # one as its default
        defaults = {f.name: f.default
                    for f in dataclasses.fields(ConvergenceReport)
                    if f.default is not dataclasses.MISSING}
        assert set(defaults) <= set(counters)
        payload = json.loads(path.read_text())
        for name in defaults:
            del payload[name]
        path.write_text(json.dumps(payload))
        old = read_report(path)
        assert {name: getattr(old, name) for name in defaults} == defaults
        assert old.outer_iterations == report.outer_iterations

    def test_qn_below_its_rounding_floor_ends_early_without_warnings(self):
        # tol_inf=1e-10 lies below what this instance's L-BFGS model can
        # resolve; the run must stop on its own long before max_outer, and
        # tier-1 turns any warning from the reduced solves into an error
        prob = synthetic_quadratic(500, 1e4, seed=(11, 2), mu=1.0)
        _, report = sqa_solve(
            prob, SolverConfig(inner_solver="obm_qn", tol_inf=1e-10))
        assert report.outer_iterations < 300
        assert report.final_residual_inf < 1e-6
        assert report.lbfgs_fallback_solves == 0

    def test_qn_spin_below_its_rounding_floor_ends_line_search_failed(self):
        # at 1e-10 the outer steps of this run stop moving x; the search
        # refuses a trial equal to its reference point, so the run ends
        # instead of accepting such steps up to max_outer
        prob = synthetic_quadratic(100, 1e4, seed=(11, 1), mu=1.0)
        _, report = sqa_solve(
            prob, SolverConfig(inner_solver="obm_qn", tol_inf=1e-10))
        assert report.status == "line_search_failed"
        assert report.outer_iterations < 300

    def test_qn_spin_ends_the_same_way_with_one_blas_thread(self):
        status, outer = with_one_blas_thread(
            "import json; from sqamin import *; _, r = sqa_solve("
            "synthetic_quadratic(100, 1e4, (11, 1), mu=1.0), SolverConfig("
            "inner_solver='obm_qn', tol_inf=1e-10)); "
            "print(json.dumps([r.status, r.outer_iterations]))")
        assert status == "line_search_failed"
        assert outer < 300


# a Huber loss is linear far from its centre, so the first L-BFGS steps
# from zero see no curvature (y = 0) and the guard skips them
_HUBER_CENTRE = np.array([5.0, -4.0, 3.0])


def _huber_problem():
    c = _HUBER_CENTRE

    def value(x):
        r = np.abs(x - c)
        return float(np.where(r <= 1.0, 0.5 * r**2, r - 0.5).sum())

    return CompositeProblem(
        value, lambda x: np.clip(x - c, -1.0, 1.0),
        lambda x, v: np.where(np.abs(x - c) <= 1.0, v, 0.0), 3, 0.1)


def _counting(calls, name, fn):
    def counted(*args):
        calls[name] += 1
        return fn(*args)
    return counted


def _run(prob, solver, **settings):
    if solver == "fista":
        return fista_baseline_solve(prob, SolverConfig(**settings))
    config = SolverConfig(inner_solver=solver.removeprefix("sqa_"), **settings)
    return sqa_solve(prob, config)


class TestRunCounters:
    """The report's work counters equal the oracle calls the run made."""

    INSTANCES = {
        "quadratic": lambda: synthetic_quadratic(40, 1e3, seed=3, mu=0.2),
        "logistic": lambda: logistic_problem(
            synthetic_logistic_dataset(80, 12, seed=4, feature_scale=2.0),
            mu=0.05),
    }

    @pytest.mark.parametrize("instance", sorted(INSTANCES))
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_counters_match_oracle_calls(self, instance, solver, monkeypatch):
        calls = Counter()
        prob = self.INSTANCES[instance]()
        hook = prob.on_line

        def on_line(*args):  # an answer is an evaluation, a None is not
            momentum = hook(*args)
            calls["on_line"] += momentum is not None
            return momentum

        prob = dataclasses.replace(
            prob,
            value=_counting(calls, "value", prob.value),
            hess_vec=_counting(calls, "hess_vec", prob.hess_vec),
            on_line=None if hook is None else on_line,
        )
        monkeypatch.setattr(
            LbfgsStore, "hessian_vec",
            _counting(calls, "lbfgs_hessian_vec", LbfgsStore.hessian_vec))
        _, report = _run(prob, solver)
        assert report.status == "converged"
        assert report.fg_evaluations == calls["value"] + calls["on_line"] > 0
        # the logistic hook answers at the baseline's momentum points
        assert (calls["on_line"] > 0) == (solver == "fista"
                                          and instance == "logistic")
        if solver == "sqa_obm_qn":
            assert calls["hess_vec"] == 0
            assert report.hess_vec_products == calls["lbfgs_hessian_vec"] > 0
        elif solver == "fista":
            assert report.hess_vec_products == 0
            assert calls["hess_vec"] == calls["lbfgs_hessian_vec"] == 0
        else:
            assert calls["lbfgs_hessian_vec"] == 0
            assert report.hess_vec_products == calls["hess_vec"] > 0


class TestLogisticOracleCache:
    """The logistic problem's cached oracles take the same steps as pure
    ones: those of a fresh problem, so a fresh cache, per call."""

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_solve_matches_pure_oracles(self, solver):
        data = synthetic_logistic_dataset(80, 12, seed=4, feature_scale=2.0)
        fresh = lambda: logistic_problem(data, 0.05)

        def on_line(x, fx, gx, c, fc, gc, beta):
            # both margins from fresh products, extrapolated as the cached
            # problem's hook does
            problem = fresh()
            problem.value(x)
            problem.value(c)
            return problem.on_line(x, fx, gx, c, fc, gc, beta)

        pure = CompositeProblem(
            value=lambda x: fresh().value(x),
            gradient=lambda x: fresh().gradient(x),
            hess_vec=lambda x, v: fresh().hess_vec(x, v),
            dim=data.n_features,
            mu=0.05,
            on_line=on_line,
        )
        x_pure, r_pure = _run(pure, solver)
        x, report = _run(logistic_problem(data, 0.05), solver)
        assert report.status == "converged"
        assert x.tobytes() == x_pure.tobytes()
        for name in ("outer_iterations", "inner_iterations", "fg_evaluations",
                     "hess_vec_products"):
            assert getattr(report, name) == getattr(r_pure, name)
        assert report.trace == r_pure.trace

    def test_baseline_makes_no_design_product_at_a_momentum_point(
            self, monkeypatch):
        # every momentum point with nonzero momentum is answered by the
        # hook; the design multiplies only the points that were evaluated
        data = synthetic_logistic_dataset(80, 12, seed=4, feature_scale=2.0)
        prob = logistic_problem(data, 0.05)
        momentum_points = []

        def on_line(x, fx, gx, c, fc, gc, beta):
            momentum = prob.on_line(x, fx, gx, c, fc, gc, beta)
            assert momentum is not None
            momentum_points.append((c + beta * (c - x)).tobytes())
            return momentum

        operand = data.operand
        forward = []
        product = objectives._product

        def counted(A, v):
            if A is operand:
                forward.append(np.asarray(v).tobytes())
            return product(A, v)

        monkeypatch.setattr(objectives, "_product", counted)
        _, report = _run(dataclasses.replace(prob, on_line=on_line), "fista")
        assert report.status == "converged"
        assert momentum_points
        assert not set(momentum_points) & set(forward)
        assert len(forward) + len(momentum_points) == report.fg_evaluations

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_csc_layout_takes_the_csr_steps(self, solver):
        # a tall design with 4 stored entries per row takes the CSC copy;
        # forcing the CSR matrix must not move a bit of the run
        rng = np.random.default_rng(11)
        Z = scipy.sparse.random(400, 40, density=0.1, format="csr",
                                random_state=rng)
        y = np.where(Z @ rng.normal(size=40) + 0.1 * rng.normal(size=400)
                     >= 0, 1.0, -1.0)
        runs = []
        for force_csr in (False, True):
            data = LogisticDataset(Z, y)
            if force_csr:
                vars(data)["operand"] = data.features
            else:
                assert data.operand.format == "csc"
            runs.append(_run(logistic_problem(data, 0.01), solver))
        (x, report), (x_csr, r_csr) = runs
        assert report.status == "converged"
        assert x.tobytes() == x_csr.tobytes()
        for name in ("outer_iterations", "inner_iterations", "fg_evaluations",
                     "hess_vec_products"):
            assert getattr(report, name) == getattr(r_csr, name)
        rows, rows_csr = (np.array([dataclasses.astuple(row) for row in r.trace])
                          for r in (report, r_csr))
        assert rows.shape == rows_csr.shape
        assert rows.tobytes() == rows_csr.tobytes()


class TestNonfiniteObjective:
    """A NaN smooth value or gradient, or a NaN Hessian product, ends every
    path with a report and the last accepted iterate instead of an
    exception."""

    @staticmethod
    def _nan_off_zero(prob, after):
        # exact values for the first `after` calls, then NaN off zero
        calls = Counter()

        def value(x):
            calls["value"] += 1
            if calls["value"] > after and np.any(x):
                return float("nan")
            return prob.value(x)

        return dataclasses.replace(prob, value=value)

    @pytest.mark.parametrize("after", [0, 8])
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_ends_at_last_accepted_iterate(self, solver, after):
        prob = synthetic_quadratic(10, 100.0, seed=0, mu=0.1)
        x, report = _run(self._nan_off_zero(prob, after), solver)
        assert report.status == "line_search_failed"
        assert len(report.trace) == report.outer_iterations + 1
        assert report.trace[-1].objective == prob.objective(x)
        if after == 0:
            np.testing.assert_array_equal(x, prob.start_point())
        else:
            assert report.outer_iterations >= 1
            # the clean run capped at the accepted steps takes the same ones
            x_clean, _ = _run(prob, solver, max_outer=report.outer_iterations)
            np.testing.assert_array_equal(x, x_clean)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_first_nan_trial_ends_the_search(self, solver):
        # one evaluation at the start and one NaN trial, not a whole
        # backtracking budget spent on NaN
        prob = synthetic_quadratic(10, 100.0, seed=0, mu=0.1)
        _, report = _run(self._nan_off_zero(prob, 0), solver)
        assert report.status == "line_search_failed"
        assert report.fg_evaluations == 2

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_nan_start_gradient_is_caught_where_it_enters(self, solver):
        # a NaN start value is caught at the same place, and row 0 still
        # holds the start residual
        prob = synthetic_quadratic(10, 100.0, seed=0, mu=0.1)
        x0 = prob.start_point()
        start_residual = float(np.max(np.abs(
            residual(x0, prob.gradient(x0), SolverConfig().tau, prob.mu))))
        for broken, row0_residual in (
                ({"gradient": lambda x: np.full(10, np.nan)}, np.nan),
                ({"value": lambda x: float("nan")}, start_residual)):
            x, report = _run(dataclasses.replace(prob, **broken), solver)
            assert report.status == "nonfinite_oracle", broken
            assert (report.outer_iterations, report.fg_evaluations,
                    report.hess_vec_products) == (0, 1, 0)
            assert len(report.trace) == 1
            np.testing.assert_array_equal(report.trace[0].residual_inf,
                                          row0_residual)
            np.testing.assert_array_equal(x, x0)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_start_outside_the_domain_takes_no_gradient(self, solver):
        # a +inf start value: the log-det gradient there would raise
        prob = dataclasses.replace(
            covariance_problem(CovarianceProblem(np.eye(2)), 0.1),
            x0=np.diag([1.0, -1.0]).ravel())
        x, report = _run(prob, solver)
        assert report.status == "nonfinite_oracle"
        assert (report.outer_iterations, report.fg_evaluations,
                report.hess_vec_products) == (0, 1, 0)
        assert len(report.trace) == 1
        assert report.trace[0].objective == np.inf
        np.testing.assert_array_equal(x, prob.start_point())

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_nan_start_on_the_log_det_is_caught_where_it_enters(self, solver):
        # a NaN entry gives a NaN value, not +inf, so the start gradient is
        # taken: it is NaN too, not an exception
        x0 = np.eye(3)
        x0[0, 1] = np.nan
        prob = dataclasses.replace(
            covariance_problem(CovarianceProblem(np.eye(3)), 0.1),
            x0=x0.ravel())
        x, report = _run(prob, solver)
        assert report.status == "nonfinite_oracle"
        assert (report.outer_iterations, report.fg_evaluations,
                report.hess_vec_products) == (0, 1, 0)
        assert len(report.trace) == 1
        np.testing.assert_array_equal(x, prob.start_point())

    @pytest.mark.parametrize("solver", ["sqa_fista", "sqa_obm_cg"])
    def test_nan_hessian_product_stalls_the_inner_solve(self, solver):
        # the model value is NaN from the first product on, so no inner
        # solver can decrease it
        prob = synthetic_quadratic(10, 100.0, seed=0, mu=0.1)
        bad = dataclasses.replace(prob,
                                  hess_vec=lambda x, v: np.full(10, np.nan))
        x, report = _run(bad, solver)
        assert report.status == "inner_stall"
        assert report.outer_iterations == 0
        assert report.hess_vec_products == 1
        assert len(report.trace) == 1
        np.testing.assert_array_equal(x, prob.start_point())

    @pytest.mark.parametrize("solver", ["sqa_fista", "sqa_obm_cg",
                                        "sqa_obm_qn"])
    def test_wrong_sign_hessian_ends_without_a_warning(self, solver):
        # a negated Hessian makes the model unbounded below, so the inner
        # iterates grow until their products overflow; the run still ends
        # with a report and no floating-point warning.  The L-BFGS model
        # does not use the oracle's Hessian and solves the problem.
        prob = synthetic_quadratic(60, 1e3, seed=23, mu=0.05)
        bad = dataclasses.replace(
            prob, hess_vec=lambda x, v: -prob.hess_vec(x, v))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, report = _run(bad, solver)
        if solver == "sqa_obm_qn":
            assert report.status == "converged"
            return
        assert report.status == "line_search_failed"
        assert report.outer_iterations == 0
        assert report.inner_iterations > 0
        np.testing.assert_array_equal(x, prob.start_point())

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_nan_gradient_at_an_accepted_iterate_ends_the_run(self, solver):
        # exact gradients for the first few calls, then NaN at the point
        # that would be the third accepted iterate: that step is not taken.
        # The sqa_* paths take one gradient per accepted iterate; the
        # baseline also takes them at its backtracking trials and momentum
        # points, 10 before its third iterate here (none at the first
        # step's momentum point, which is its candidate).
        good = 10 if solver == "fista" else 3
        prob = synthetic_quadratic(10, 100.0, seed=0, mu=0.1)
        bad, _ = self._nan_gradient_after(prob, good)
        x, report = _run(bad, solver)
        self._check_ended_at_second_iterate(prob, solver, x, report)

    def test_nan_gradient_at_a_momentum_point_ends_the_run(self):
        # the baseline's 10th gradient is at the momentum point of its second
        # step (see above), so a NaN there leaves a NaN candidate; the
        # curvature search that fails on it names the oracle, and the
        # evaluations counted still end with that candidate's
        prob = synthetic_quadratic(10, 100.0, seed=0, mu=0.1)
        bad, asked = self._nan_gradient_after(prob, 9)
        x, report = _run(bad, "fista")
        self._check_ended_at_second_iterate(prob, "fista", x, report)
        assert report.fg_evaluations == 11
        # the NaN was asked beyond the second iterate, on the line through
        # the first two
        x1, _ = _run(prob, "fista", max_outer=1)
        step, momentum = x - x1, asked[9] - x
        beta = float(momentum @ step) / float(step @ step)
        assert 0.0 < beta < 1.0
        np.testing.assert_allclose(momentum, beta * step, rtol=0, atol=1e-12)

    def test_nan_gradient_from_the_momentum_hook_ends_the_run(self):
        # the logistic hook answers at the baseline's momentum points; a NaN
        # gradient in its fourth answer (at the momentum point after the fifth
        # step) leaves a NaN candidate, and the run ends on the oracle
        # with the last accepted iterate
        prob = logistic_problem(
            synthetic_logistic_dataset(80, 12, seed=4, feature_scale=2.0),
            mu=0.05)
        answers = []

        def on_line(*args):
            value, gradient = prob.on_line(*args)
            answers.append(value)
            if len(answers) > 3:
                gradient = np.full(prob.dim, np.nan)
            return value, gradient

        bad = dataclasses.replace(prob, on_line=on_line)
        x, report = _run(bad, "fista")
        assert len(answers) == 4 and np.isfinite(answers).all()
        assert report.status == "nonfinite_oracle"
        assert report.outer_iterations == 5
        assert len(report.trace) == report.outer_iterations + 1
        assert np.isfinite(report.final_residual_inf)
        x_clean, _ = _run(prob, "fista", max_outer=report.outer_iterations)
        np.testing.assert_array_equal(x, x_clean)

    @staticmethod
    def _nan_gradient_after(prob, good):
        """``prob`` with exact gradients for ``good`` calls and NaN from
        then on, and the list of the points they were asked at."""
        asked = []

        def gradient(x):
            asked.append(np.array(x, dtype=float))
            if len(asked) > good:
                return np.full(prob.dim, np.nan)
            return prob.gradient(x)

        return dataclasses.replace(prob, gradient=gradient), asked

    @staticmethod
    def _check_ended_at_second_iterate(prob, solver, x, report):
        assert report.status == "nonfinite_oracle"
        assert report.outer_iterations == 2
        assert len(report.trace) == report.outer_iterations + 1
        assert np.isfinite(report.final_residual_inf)
        assert report.final_residual_inf == report.trace[-1].residual_inf
        x_clean, _ = _run(prob, solver, max_outer=report.outer_iterations)
        np.testing.assert_array_equal(x, x_clean)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_minus_inf_value_off_the_start_is_never_kept(self, solver):
        # -inf passes every decrease test, so only the gate that checks the
        # start point can stop it, and it checks every point a driver keeps
        prob = synthetic_quadratic(20, 10.0, seed=3, mu=0.1)
        bad = dataclasses.replace(
            prob, value=lambda x: -np.inf if np.max(np.abs(x)) > 0
            else prob.value(x))
        x, report = _run(bad, solver)
        assert report.status == "nonfinite_oracle"
        assert report.outer_iterations == 0
        assert all(np.isfinite(row.objective) for row in report.trace)
        np.testing.assert_array_equal(x, prob.start_point())


class TestFistaBaseline:
    def test_identity_quadratic_fast(self):
        prob = synthetic_quadratic(8, 1.0, seed=14, mu=0.0)
        A, b = synthetic_quadratic_matrices(8, 1.0, seed=14)
        x, report = fista_baseline_solve(prob, SolverConfig())
        assert report.status == "converged"
        np.testing.assert_allclose(x, b, atol=1e-4)
        assert report.outer_iterations <= 25

    def test_no_hessian_products(self):
        prob = synthetic_quadratic(12, 50.0, seed=15, mu=0.3)
        _, report = fista_baseline_solve(prob, SolverConfig())
        assert report.hess_vec_products == 0
        assert report.inner_iterations == 0

    def test_agrees_with_model_based_solver(self):
        prob = synthetic_quadratic(25, 100.0, seed=16, mu=0.4)
        xb, rb = fista_baseline_solve(prob, SolverConfig())
        xs, rs = sqa_solve(prob, SolverConfig(inner_solver="fista"))
        assert rb.status == rs.status == "converged"
        assert np.linalg.norm(xb - xs) <= 1e-4

    def test_trace_monotone(self):
        prob = synthetic_quadratic(15, 80.0, seed=17, mu=0.2)
        _, report = fista_baseline_solve(prob, SolverConfig())
        phis = objective_values(report)
        assert np.all(np.diff(phis) <= 1e-12)

    @pytest.mark.parametrize("instance", sorted(TestRunCounters.INSTANCES))
    def test_capped_run_evaluates_nothing_after_its_last_iterate(self,
                                                                instance):
        # no momentum point follows the last iterate that max_outer allows:
        # no later step would read it
        prob = TestRunCounters.INSTANCES[instance]()
        evaluated = []  # points given to value; None for a hook's answer

        def on_line(*args):
            momentum = prob.on_line(*args)
            if momentum is not None:
                evaluated.append(None)
            return momentum

        traced = dataclasses.replace(
            prob, value=lambda z: evaluated.append(np.copy(z)) or prob.value(z),
            on_line=None if prob.on_line is None else on_line)
        x, report = fista_baseline_solve(traced, SolverConfig(max_outer=5))
        assert report.status == "iteration_cap"
        assert report.outer_iterations == 5
        assert report.fg_evaluations == len(evaluated)
        assert evaluated[-1] is not None
        assert evaluated[-1].tobytes() == x.tobytes()
        hook_answers = sum(point is None for point in evaluated)
        assert (hook_answers > 0) == (prob.on_line is not None)


class TestDecreaseProperties:
    def test_linear_decrease_lower_bound_along_run(self):
        # every accepted inner solution must decrease the linear model by at
        # least gamma * ||F||**2 with gamma assembled from the instance
        # spectrum, the step's forcing factor, and tau
        mu = 0.5
        prob = synthetic_quadratic(20, 100.0, seed=18, mu=mu)
        A, _ = synthetic_quadratic_matrices(20, 100.0, seed=18)
        lam = np.linalg.eigvalsh(A)
        records = []
        _, report = sqa_solve(prob, SolverConfig(inner_solver="fista"),
                              observer=records.append)
        assert report.status == "converged"
        assert records
        for rec in records:
            gamma = AnalysisConstants.gamma_coefficient(
                lam.min(), lam.max(), rec.eta, 0.5
            )
            ell_dec = rec.q_reference - rec.ell_candidate
            assert ell_dec >= gamma * rec.residual_norm2**2

    def test_linear_decrease_dominates_step_energy(self):
        # accepted steps also satisfy the curvature lower bound
        # ell decrease > 0.5 * lambda_min * ||step||**2
        prob = synthetic_quadratic(20, 100.0, seed=19, mu=0.5)
        A, _ = synthetic_quadratic_matrices(20, 100.0, seed=19)
        lam_min = float(np.linalg.eigvalsh(A).min())
        records = []
        sqa_solve(prob, SolverConfig(inner_solver="obm_cg"),
                  observer=records.append)
        for rec in records:
            ell_dec = rec.q_reference - rec.ell_candidate
            step = np.linalg.norm(rec.x_hat - rec.x)
            assert ell_dec > 0.5 * lam_min * step**2 - 1e-12


class TestDeterminism:
    def test_repeated_runs_identical(self):
        prob = synthetic_quadratic(15, 60.0, seed=20, mu=0.3)
        x1, r1 = sqa_solve(prob, SolverConfig(inner_solver="obm_cg"))
        x2, r2 = sqa_solve(prob, SolverConfig(inner_solver="obm_cg"))
        np.testing.assert_array_equal(x1, x2)
        assert r1.outer_iterations == r2.outer_iterations
        assert r1.hess_vec_products == r2.hess_vec_products
        for a, b in zip(r1.trace, r2.trace):
            assert a.objective == b.objective
            assert a.residual_inf == b.residual_inf


class TestOneL1TermPerPoint:
    """The l1 term is formed once per trial point, by the solver that tries
    it; the inexactness stop takes it from there instead of forming it."""

    @staticmethod
    def _count_l1(monkeypatch):
        calls = Counter()
        for module in (driver, fista, obm):
            monkeypatch.setattr(
                module, "l1_penalty",
                _counting(calls, module.__name__, module.l1_penalty))
        return calls

    @staticmethod
    def _spy(monkeypatch, module, name, results):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(module, name, spy)

    def _solve(self, monkeypatch, solver):
        """Run ``solver`` counting l1 terms, those formed inside the stop
        test separately; returns the counts, the report and the inner
        results."""
        calls = self._count_l1(monkeypatch)
        report_sides = driver._inexactness_report

        def stop_forming_none(*args, **kwargs):
            before = sum(calls.values())
            report = report_sides(*args, **kwargs)
            calls["in stop"] += sum(calls.values()) - before
            return report

        monkeypatch.setattr(driver, "_inexactness_report", stop_forming_none)
        inner, searches = [], []
        self._spy(monkeypatch, driver, "outer_line_search", searches)
        self._spy(monkeypatch, driver, "fista_composite", inner)
        self._spy(monkeypatch, driver, "obm_solve", inner)
        _, report = _run(synthetic_quadratic(40, 1e3, seed=3, mu=0.2), solver)
        assert report.status == "converged"
        # the start row, then one term per outer line-search trial
        assert calls["sqamin.driver"] == 1 + sum(s.trials for s in searches)
        assert calls["in stop"] == 0
        return calls, report, inner

    def test_obm_forms_one_per_search_trial(self, monkeypatch):
        trials, safeguards = [], []
        self._spy(monkeypatch, obm, "obm_projected_line_search", trials)
        self._spy(monkeypatch, obm, "_ista_safeguard", safeguards)
        calls, _, inner = self._solve(monkeypatch, "sqa_obm_cg")
        assert not safeguards
        # one at each solve's start, then one per projected-search trial
        assert calls["sqamin.obm"] == (len(inner)
                                       + sum(t.trials for t in trials))
        assert calls["sqamin.fista"] == 0
        assert sum(r.inner_iterations for r in inner) == len(trials) > 0

    def test_fista_forms_one_per_accepted_curvature_trial(self, monkeypatch):
        calls, report, inner = self._solve(monkeypatch, "sqa_fista")
        # one at each solve's start, then one per prox step that passed the
        # curvature test, a monotone fallback's redone step included
        assert calls["sqamin.fista"] == sum(
            1 + r.inner_iterations + r.monotone_fallbacks for r in inner)
        assert calls["sqamin.obm"] == 0
        assert report.inner_iterations > 0

    def test_inexactness_check_forms_its_own(self, monkeypatch):
        calls = self._count_l1(monkeypatch)
        rng = np.random.default_rng(7)
        model = _random_model(rng, n=5)
        x_hat = rng.normal(size=5)
        report = inexactness_check(model, x_hat, eta=0.5, tau=0.5)
        assert calls == Counter({"sqamin.driver": 1})
        sval, _ = model.smooth_eval(x_hat)
        assert report.q_candidate == sval + model.mu * np.abs(x_hat).sum()
