"""Duality gaps certify the desk solves without a reference solve: the gap
of ``helpers`` bounds the objective's distance to the optimum from above,
so it may not be negative beyond rounding, and it must fall as the
tolerance tightens."""

import pytest

from sqamin.io import SOLVERS

import ledger
from helpers import DESK_DUALITY_GAPS, DESK_SEEDS, DESK_WORKLOADS


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("workload", sorted(DESK_WORKLOADS))
def test_gap_is_nonnegative_and_falls_with_the_tolerance(workload, solver):
    seed = DESK_SEEDS[0]
    gaps = []
    for tol_inf in (1e-5, 1e-7):
        problem = DESK_WORKLOADS[workload](seed)
        x, _ = ledger.solve(problem, solver, tol_inf)
        gap = DESK_DUALITY_GAPS[workload](seed, problem.mu, x)
        gaps.append(gap / max(1.0, abs(problem.objective(x))))
    assert gaps[0] >= -1e-12 and gaps[1] >= -1e-12, gaps
    assert gaps[1] < gaps[0], gaps
