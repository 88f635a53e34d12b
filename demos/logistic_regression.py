"""Sparse logistic regression on synthetic classification data.

Fits an l1-regularized logistic model with the model-based solvers and the
direct baseline, then inspects the selected features and the step lengths:
near the solution the outer line search accepts the unit step every time.
"""

import numpy as np

from sqamin import (
    SolverConfig,
    fista_baseline_solve,
    logistic_problem,
    sqa_solve,
    synthetic_logistic_dataset,
)


def main():
    data = synthetic_logistic_dataset(200, 50, seed=7, feature_scale=4.0)
    problem = logistic_problem(data, mu=0.1)
    print(f"{data.n_samples} samples, {data.n_features} features, mu = 0.1")
    print()

    for solver in ("sqa_obm_cg", "sqa_obm_qn", "sqa_fista", "fista"):
        if solver == "fista":
            x, report = fista_baseline_solve(problem, SolverConfig())
        else:
            inner = solver.removeprefix("sqa_")
            x, report = sqa_solve(problem, SolverConfig(inner_solver=inner))
        support = np.flatnonzero(np.abs(x) > 1e-8)
        print(f"{solver:<11} outer={report.outer_iterations:<4} "
              f"inner={report.inner_iterations:<5} "
              f"H*v={report.hess_vec_products:<5} "
              f"residual={report.final_residual_inf:.1e} "
              f"selected {support.size}/{data.n_features} features")

    # step lengths along one exact-Hessian run
    _, report = sqa_solve(problem, SolverConfig(inner_solver="fista",
                                                zeta=0.25))
    alphas = [row.alpha for row in report.trace[1:]]
    print()
    print("step lengths along the exact-Hessian run:", alphas)
    print("objective trace:",
          [f"{row.objective:.6f}" for row in report.trace])


if __name__ == "__main__":
    main()
