"""The counter ledger: status, report counters and objective of every desk
solve, so that tier-1 fails when the work a solver does moves.

``tests/data/ledger.json`` holds, per desk instance of ``helpers`` and per
solver path, the status, the six report counters and the final objective,
at the benchmark tolerance.  ``tests/test_ledger.py`` recomputes it.  A
change that moves an entry on purpose regenerates the file and names each
moved counter, with its reason, in CHANGES.md.  Regenerate from the
repository root with::

    PYTHONPATH=src python3 tests/ledger.py
"""

import json
import os
import sys

from sqamin import SolverConfig, fista_baseline_solve, sqa_solve
from sqamin.io import SOLVERS

from helpers import DESK_SEEDS, DESK_WORKLOADS

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "ledger.json")
TOL_INF = 1e-5
COUNTERS = ("outer_iterations", "inner_iterations", "fg_evaluations",
            "hess_vec_products", "lbfgs_skipped_updates",
            "lbfgs_fallback_solves")


def solve(problem, solver, tol_inf=TOL_INF):
    """``(x, report)`` of one solver path."""
    if solver == "fista":
        return fista_baseline_solve(problem, SolverConfig(tol_inf=tol_inf))
    config = SolverConfig(tol_inf=tol_inf,
                          inner_solver=solver.removeprefix("sqa_"))
    return sqa_solve(problem, config)


def entry(problem, solver):
    """One ledger entry: the status, counters and objective of one solve."""
    x, report = solve(problem, solver)
    row = {"status": report.status}
    row.update((name, getattr(report, name)) for name in COUNTERS)
    row["objective"] = problem.objective(x)
    return row


def compute(workloads=tuple(DESK_WORKLOADS)):
    """The ledger of ``workloads``, keyed ``workload/seed index/solver``."""
    ledger = {}
    for workload in workloads:
        for i, seed in enumerate(DESK_SEEDS):
            for solver in SOLVERS:
                # a fresh problem per solve, so no oracle cache carries over
                problem = DESK_WORKLOADS[workload](seed)
                ledger[f"{workload}/{i}/{solver}"] = entry(problem, solver)
    return ledger


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else PATH
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(compute(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
