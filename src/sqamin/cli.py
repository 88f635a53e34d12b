"""Benchmark command line: one solver run per invocation.

Exit codes: 0 when the run converged, 2 when it stopped for any other
reason (the iteration cap, an inner-solver stall, a failed line search, a
non-finite gradient at the start point: ``nonfinite_oracle``), 1 on any
usage or input error.
"""

import argparse
import sys

from .driver import fista_baseline_solve, sqa_solve
from .io import (
    PROBLEM_KINDS,
    SOLVERS,
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

__all__ = ["main"]

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
    parser.add_argument("--solver", default="sqa_obm_cg", choices=SOLVERS)
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
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=50,
                        help="dimension of the synthetic problem")
    parser.add_argument("--condition", type=float, default=100.0,
                        help="condition number of the synthetic problem")
    parser.add_argument("--report", default=None, help="report output path")
    parser.add_argument("--format", default="json", choices=["json", "csv"])
    return parser


def _load_problem(args, mu):
    if args.problem == "synthetic":
        return synthetic_quadratic(args.n, args.condition, args.seed, mu=mu)
    if args.problem == "logistic":
        if args.data is None:
            raise ValueError("logistic problems require a data path")
        data = parse_svmlight(args.data)
        if data.n_samples == 0:
            raise ValueError(f"{args.data}: dataset is empty")
        return logistic_problem(data, mu)
    if args.samples is not None:
        cov = sample_covariance(load_dense_matrix(args.samples))
    elif args.data is not None:
        S = load_dense_matrix(args.data)
        if S.shape[0] != S.shape[1]:
            raise ValueError("sample covariance must be a square matrix")
        cov = CovarianceProblem(0.5 * (S + S.T))
    else:
        raise ValueError("covariance problems require a matrix or samples path")
    return covariance_problem(cov, mu)


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


def main(argv=None):
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
        solve = fista_baseline_solve if args.solver == "fista" else sqa_solve
        _, report = solve(_load_problem(args, mu), config)
    except (ValueError, OSError, SvmlightParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_summary(report, sys.stdout)
    if args.report is not None:
        try:
            write_report(report, args.report, args.format,
                         {"problem": args.problem, "mu": mu, "seed": args.seed})
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0 if report.status == "converged" else 2


if __name__ == "__main__":
    sys.exit(main())
