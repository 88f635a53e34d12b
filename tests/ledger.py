"""The counter ledger: status, report counters and objective of every desk
solve, so that tier-1 fails when the work a solver does moves.

``tests/data/ledger.json`` holds, per desk instance of ``helpers`` and per
solver path, the status, the six report counters and the final objective,
at the benchmark tolerance.  ``tests/test_ledger.py`` recomputes it.  A
change that moves an entry on purpose regenerates the file and names each
moved counter, with its reason, in CHANGES.md.  Regenerate from the
repository root with::

    PYTHONPATH=src python3 tests/ledger.py

or, to list what moved without writing anything, ::

    PYTHONPATH=src python3 tests/ledger.py --diff

which prints each moved status and counter, and each objective that moved
beyond the test's relative tolerance, and exits 1 if anything moved.
"""

import argparse
import json
import os
import sys

import pytest

from sqamin import SolverConfig, fista_baseline_solve, sqa_solve
from sqamin.io import SOLVERS

from helpers import DESK_SEEDS, DESK_WORKLOADS

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "ledger.json")
TOL_INF = 1e-5
OBJECTIVE_RTOL = 1e-12  # the objective tolerance of tests/test_ledger.py
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


def moves(old, new):
    """One line per entry, status, counter or objective of ``old`` that
    ``new`` does not match as ``tests/test_ledger.py`` checks it."""
    lines = [f"{key}: {'missing' if key in old else 'new entry'}"
             for key in sorted(set(old) ^ set(new))]
    for key in sorted(set(old) & set(new)):
        for name in ("status",) + COUNTERS:
            if old[key][name] != new[key][name]:
                lines.append(f"{key} {name}: {old[key][name]} -> "
                             f"{new[key][name]}")
        was, now = old[key]["objective"], new[key]["objective"]
        if now != pytest.approx(was, rel=OBJECTIVE_RTOL):
            lines.append(f"{key} objective: {was!r} -> {now!r}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", nargs="?", default=PATH,
                        help="where to write the ledger (default: %(default)s)")
    parser.add_argument("--diff", action="store_true",
                        help="compare with the committed ledger instead of "
                        "writing one; exit 1 if anything moved")
    args = parser.parse_args(argv)
    ledger = compute()
    if args.diff:
        with open(PATH, encoding="utf-8") as handle:
            lines = moves(json.load(handle), ledger)
        print("\n".join(lines + [f"{len(lines)} moved"]))
        return 1 if lines else 0
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
