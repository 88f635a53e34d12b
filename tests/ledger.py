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
beyond the test's relative tolerance, and exits 1 if anything moved.  With
``--workload W`` (repeatable) either form takes only the named workloads:
the diff compares their entries alone, and writing merges their entries
into the file, replacing only theirs, so that a new desk workload is added
without regenerating the others::

    PYTHONPATH=src python3 tests/ledger.py --workload logistic_sparse_mu2e-3

With ``--digest`` it writes nothing and prints instead one SHA-256 per
bench solve and, last, the SHA-256 of those in order: the 48 solves of
seed 11, instances 0-2 of every ``perfbench`` workload by every solver path,
each instance built by the workload's own set-up and load steps and solved
by the four paths in turn.  A solve's hash covers the bytes of ``x``, every
trace row, the status and the six report counters, so two trees with the
same digest solve the bench bit for bit alike.  BLAS rounding can depend on
the thread count, so compare digests taken under the same
``OPENBLAS_NUM_THREADS``::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/ledger.py --digest
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

import pytest

from sqamin import SolverConfig, fista_baseline_solve, sqa_solve
from sqamin.io import SOLVERS

from helpers import DESK_SEEDS, DESK_WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "data", "ledger.json")
BENCH = os.path.join(os.path.dirname(HERE), "perfbench")
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


def bench_digest(seed=11, instances=3):
    """Yield ``(label, SHA-256)`` for each bench solve of ``seed``'s
    instances ``0..instances-1`` (see the module docstring), then
    ``("digest", SHA-256 of the per-solve hashes in order)``."""
    sys.path.insert(0, BENCH)
    import workloads as bench

    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        for name, workload_class in bench.WORKLOADS.items():
            workload = workload_class()
            for i in range(instances):
                setup = workload.setup([seed, i], workdir)
                problem = workload.load(setup)
                for path in bench.PATHS:
                    x, report = bench.solve(problem, path, setup.tol_inf)
                    one = hashlib.sha256(x.tobytes())
                    for row in report.trace:
                        one.update(repr(row).encode())
                    one.update(repr([report.status] + [
                        getattr(report, counter) for counter in COUNTERS
                    ]).encode())
                    total.update(one.digest())
                    yield f"{name}/{i}/{path}", one.hexdigest()
    yield "digest", total.hexdigest()


def _read(path, workloads):
    """The entries of the ledger file at ``path`` that belong to
    ``workloads`` (a workload name is the first part of a key), and the
    others."""
    with open(path, encoding="utf-8") as handle:
        ledger = json.load(handle)
    ours = {key: row for key, row in ledger.items()
            if key.split("/")[0] in workloads}
    return ours, {key: ledger[key] for key in set(ledger) - set(ours)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", nargs="?", default=PATH,
                        help="where to write the ledger (default: %(default)s)")
    parser.add_argument("--diff", action="store_true",
                        help="compare with the committed ledger instead of "
                        "writing one; exit 1 if anything moved")
    parser.add_argument("--workload", action="append",
                        choices=sorted(DESK_WORKLOADS),
                        help="compute, compare or merge only this workload's "
                        "entries (repeatable; default: every workload)")
    parser.add_argument("--digest", action="store_true",
                        help="print the SHA-256 of the seed-11 bench solves "
                        "instead of writing a ledger")
    args = parser.parse_args(argv)
    if args.digest:
        for label, sha in bench_digest():
            print(label, sha, flush=True)
        return 0
    workloads = args.workload or tuple(DESK_WORKLOADS)
    ledger = compute(workloads)
    if args.diff:
        lines = moves(_read(PATH, workloads)[0], ledger)
        print("\n".join(lines + [f"{len(lines)} moved"]))
        return 1 if lines else 0
    if args.workload and os.path.exists(args.out):
        ledger.update(_read(args.out, workloads)[1])
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
