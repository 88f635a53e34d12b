"""Inexact successive quadratic approximation solvers for l1-regularized
convex minimization.

The outer loop minimizes a piecewise quadratic model of the composite
objective at every iteration, stopping the inner minimization as soon as a
semi-smooth optimality residual has been reduced by a forcing factor and the
model has decreased.  Inner solvers: accelerated proximal gradients and a
two-phase orthant-based method with conjugate-gradient or compact L-BFGS
subspace steps.
"""

from .driver import (
    InexactnessReport,
    LineSearchResult,
    OuterIterationRecord,
    eta_schedule,
    fista_baseline_solve,
    inexactness_check,
    outer_line_search,
    sqa_solve,
)
from .fista import InnerResult, fista_composite
from .io import (
    RunSpec,
    SvmlightParseError,
    load_dense_matrix,
    parse_svmlight,
    read_report,
    sample_covariance,
    write_report,
    write_svmlight,
)
from .lbfgs import LbfgsStore, lbfgs_reduced_inverse_solve, lbfgs_update
from .model import (
    CompositeProblem,
    ConvergenceReport,
    QuadraticModel,
    SolverConfig,
    Telemetry,
    TraceRow,
)
from .obm import (
    OrthantFace,
    cg_budget,
    min_norm_subgradient,
    min_norm_subgradient_from_gradient,
    obm_projected_line_search,
    obm_solve,
    orthant_face,
    orthant_project,
    subspace_cg_solve,
)
from .objectives import (
    CovarianceProblem,
    LogisticDataset,
    NotPositiveDefiniteError,
    covariance_problem,
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
from .prox import is_optimal, ista_point, residual, soft_threshold, subproblem_residual

__version__ = "0.1.0"

__all__ = [
    "CompositeProblem",
    "ConvergenceReport",
    "CovarianceProblem",
    "InexactnessReport",
    "InnerResult",
    "LbfgsStore",
    "LineSearchResult",
    "LogisticDataset",
    "NotPositiveDefiniteError",
    "OrthantFace",
    "OuterIterationRecord",
    "QuadraticModel",
    "RunSpec",
    "SolverConfig",
    "SvmlightParseError",
    "Telemetry",
    "TraceRow",
    "cg_budget",
    "covariance_problem",
    "eta_schedule",
    "fista_baseline_solve",
    "fista_composite",
    "inexactness_check",
    "is_optimal",
    "ista_point",
    "lbfgs_reduced_inverse_solve",
    "lbfgs_update",
    "load_dense_matrix",
    "logdet_gradient",
    "logdet_hess_vec",
    "logdet_value",
    "logistic_gradient",
    "logistic_hess_vec",
    "logistic_problem",
    "logistic_value",
    "min_norm_subgradient",
    "min_norm_subgradient_from_gradient",
    "obm_projected_line_search",
    "obm_solve",
    "orthant_face",
    "orthant_project",
    "outer_line_search",
    "parse_svmlight",
    "read_report",
    "residual",
    "sample_covariance",
    "soft_threshold",
    "sqa_solve",
    "subproblem_residual",
    "subspace_cg_solve",
    "synthetic_logistic_dataset",
    "synthetic_quadratic",
    "synthetic_quadratic_matrices",
    "write_report",
    "write_svmlight",
]
