"""Benchmark command line: one solver run per invocation.

Exit codes: 0 when the run converged, 2 when it stopped for any other
reason (the iteration cap, an inner-solver stall), 1 on any usage or input
error.
"""

import argparse
import sys

from .driver import fista_baseline_solve, sqa_solve
from .io import (
    PROBLEM_KINDS,
    SOLVERS,
    RunSpec,
    SvmlightParseError,
    load_dense_matrix,
    parse_svmlight,
    sample_covariance,
    write_report,
)
from .model import INEXACTNESS_MODES, SolverConfig
from .objectives import (
    CovarianceProblem,
    covariance_problem,
    logistic_problem,
    synthetic_quadratic,
)

__all__ = ["main", "cli_main"]

_DEFAULT_MU = {"covariance": 0.5, "synthetic": 0.1}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(
        prog="sqamin",
        description="Minimize an l1-regularized convex objective and report "
                    "iteration counters.",
    )
    parser.add_argument("--problem", required=True, choices=PROBLEM_KINDS)
    parser.add_argument("--data", default=None,
                        help="SVMLight file (logistic) or dense matrix file "
                             "holding the sample covariance (covariance)")
    parser.add_argument("--samples", default=None,
                        help="dense matrix file of raw sample rows; the "
                             "covariance is estimated from it")
    defaults = ", ".join(f"{kind} {mu}" for kind, mu in _DEFAULT_MU.items())
    parser.add_argument("--mu", type=float, default=None,
                        help=f"l1 weight; defaults: {defaults}, required for "
                             "logistic")
    parser.add_argument("--solver", default=RunSpec.solver, choices=SOLVERS)
    parser.add_argument("--tol", type=float, default=SolverConfig.tol_inf)
    parser.add_argument("--max-outer", type=int, default=SolverConfig.max_outer)
    parser.add_argument("--max-inner", type=int, default=SolverConfig.max_inner)
    parser.add_argument("--tau", type=float, default=SolverConfig.tau)
    parser.add_argument("--theta", type=float, default=SolverConfig.theta)
    # The paper's experiments set zeta = theta = 0.1; SolverConfig defaults
    # to 0.25, strictly between theta and 1/2 as the unit-step theory wants.
    parser.add_argument("--zeta", type=float, default=0.1)
    parser.add_argument("--eta-rule", default="paper",
                        choices=["paper", "residual"],
                        help="forcing sequence: max(1/k, 0.1) or the current "
                             "residual norm")
    parser.add_argument("--inexactness", default=SolverConfig.inexactness_mode,
                        choices=INEXACTNESS_MODES)
    parser.add_argument("--memory", type=int, default=SolverConfig.lbfgs_memory)
    parser.add_argument("--seed", type=int, default=RunSpec.seed)
    parser.add_argument("--n", type=int, default=RunSpec.dimension,
                        help="dimension of the synthetic problem")
    parser.add_argument("--condition", type=float, default=RunSpec.condition,
                        help="condition number of the synthetic problem")
    parser.add_argument("--report", default=None, help="report output path")
    parser.add_argument("--format", default="json", choices=["json", "csv"])
    return parser


def _load_problem(spec):
    if spec.problem_kind == "synthetic":
        return synthetic_quadratic(spec.dimension, spec.condition, spec.seed,
                                   mu=spec.mu)
    if spec.problem_kind == "logistic":
        data = parse_svmlight(spec.data_path)
        if data.n_samples == 0:
            raise ValueError(f"{spec.data_path}: dataset is empty")
        return logistic_problem(data, spec.mu)
    if spec.samples_path is not None:
        cov = sample_covariance(load_dense_matrix(spec.samples_path))
    else:
        S = load_dense_matrix(spec.data_path)
        cov = CovarianceProblem(0.5 * (S + S.T))
    return covariance_problem(cov, spec.mu)


def run(spec):
    """Execute one run; returns (solution, report)."""
    problem = _load_problem(spec)
    if spec.solver == "fista":
        return fista_baseline_solve(problem, spec.config)
    return sqa_solve(problem, spec.config)


def _print_summary(report, stream):
    print(f"solver: {report.solver}", file=stream)
    print(f"status: {report.status}", file=stream)
    print(f"outer iterations: {report.outer_iterations}", file=stream)
    print(f"inner iterations: {report.inner_iterations}", file=stream)
    print(f"function/gradient evals: {report.fg_evaluations}", file=stream)
    print(f"Hessian-vector mults: {report.hess_vec_products}", file=stream)
    print(f"time (s): {report.wall_time_seconds:.2f}", file=stream)
    print(f"final residual (inf-norm): {report.final_residual_inf:.3e}",
          file=stream)


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        mu = args.mu
        if mu is None:
            if args.problem == "logistic":
                raise ValueError("logistic problems require an explicit --mu")
            mu = _DEFAULT_MU[args.problem]
        config = SolverConfig(
            theta=args.theta,
            zeta=args.zeta,
            tau=args.tau,
            tol_inf=args.tol,
            max_outer=args.max_outer,
            max_inner=args.max_inner,
            inner_solver=args.solver.removeprefix("sqa_"),
            inexactness_mode=args.inexactness,
            lbfgs_memory=args.memory,
            eta_rule="inverse_k" if args.eta_rule == "paper" else "residual",
        )
        spec = RunSpec(
            problem_kind=args.problem,
            data_path=args.data,
            samples_path=args.samples,
            mu=mu,
            solver=args.solver,
            config=config,
            dimension=args.n,
            condition=args.condition,
            seed=args.seed,
        )
        _, report = run(spec)
    except (ValueError, OSError, SvmlightParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_summary(report, sys.stdout)
    if args.report is not None:
        try:
            write_report(report, spec, args.report, args.format)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0 if report.status == "converged" else 2


main = cli_main


if __name__ == "__main__":
    sys.exit(main())
