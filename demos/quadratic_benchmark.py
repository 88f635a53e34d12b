"""Benchmark all four solvers on one seeded l1-regularized quadratic.

The problem is 0.5 x@A@x - b@x + mu*||x||_1 with A having a log-spaced
spectrum in [1, 1e4].  The direct accelerated-gradient baseline needs
hundreds of cheap iterations; the model-based solvers need a handful of
outer steps whose cost is dominated by inner Hessian-vector products.
"""

import numpy as np

from sqamin import (
    SolverConfig,
    fista_baseline_solve,
    sqa_solve,
    synthetic_quadratic,
)

N, CONDITION, SEED, MU = 100, 1e4, 11, 1.0


def main():
    problem = synthetic_quadratic(N, CONDITION, seed=SEED, mu=MU)
    print(f"dimension {N}, condition {CONDITION:g}, mu {MU}, seed {SEED}")
    print()

    rows = []
    x_reference = None
    for solver in ("fista", "sqa_fista", "sqa_obm_cg", "sqa_obm_qn"):
        if solver == "fista":
            x, report = fista_baseline_solve(problem, SolverConfig())
        else:
            inner = solver.removeprefix("sqa_")
            config = SolverConfig(inner_solver=inner, max_inner=5000)
            x, report = sqa_solve(problem, config)
        if x_reference is None:
            x_reference = x
        rows.append((
            solver,
            report.status,
            report.outer_iterations,
            report.inner_iterations,
            report.fg_evaluations,
            report.hess_vec_products,
            report.wall_time_seconds,
            float(np.linalg.norm(x - x_reference)),
            int(np.count_nonzero(np.abs(x) > 1e-10)),
        ))

    header = (f"{'solver':<12} {'status':<11} {'outer':>6} {'inner':>6} "
              f"{'f/g':>5} {'H*v':>6} {'time(s)':>8} {'spread':>9} {'nnz':>4}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row[0]:<12} {row[1]:<11} {row[2]:>6} {row[3]:>6} "
              f"{row[4]:>5} {row[5]:>6} {row[6]:>8.3f} {row[7]:>9.2e} "
              f"{row[8]:>4}")
    print()
    print("'spread' is the distance to the first solver's solution; all four")
    print("agree to a few digits past the termination tolerance.")


if __name__ == "__main__":
    main()
