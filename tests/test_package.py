"""The package export list, the demos run end to end against it, and the
benchmark's traced layer surface still resolves."""

import ast
import importlib
import runpy
from pathlib import Path

import numpy as np
import pytest

import sqamin
from sqamin import LbfgsStore, Telemetry, synthetic_quadratic

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MODULES = (sqamin.driver, sqamin.fista, sqamin.io, sqamin.lbfgs, sqamin.model,
           sqamin.objectives, sqamin.obm, sqamin.prox)


def _names_imported_from_sqamin(path):
    tree = ast.parse(path.read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "sqamin"
            for alias in node.names}


class TestExports:
    def test_no_duplicates(self):
        assert len(sqamin.__all__) == len(set(sqamin.__all__))

    def test_every_entry_resolves(self):
        for name in sqamin.__all__:
            assert hasattr(sqamin, name), name

    def test_union_of_module_lists(self):
        union = set().union(*(m.__all__ for m in MODULES))
        assert set(sqamin.__all__) == union

    def test_covers_demo_and_benchmark_imports(self):
        files = DEMOS + sorted((ROOT / "perfbench").glob("*.py"))
        used = set().union(*(_names_imported_from_sqamin(f) for f in files))
        assert used, "no 'from sqamin import' found in demos/ or perfbench/"
        assert used <= set(sqamin.__all__)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_traced_benchmark_surface(monkeypatch):
    # perfbench/tracing.py wraps library attributes by name; a renamed or
    # moved one would silently drop its spans from the traced run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    prob = synthetic_quadratic(20, 50.0, seed=1, mu=0.3)
    with tracing.Tracer() as tracer:
        for path in workloads.PATHS:
            tracer.begin()
            _, report = workloads.solve(tracer.traced_problem(prob), path, 1e-5)
            assert report.status == "converged", path
            _, calls, _ = tracer.end(path)
            spans = {metric[:-2] for metric in tracing.PATH_METRICS[path]
                     if metric.endswith(".s") and not metric.startswith("trace.")}
            assert spans <= set(calls), (path, sorted(spans - set(calls)))


def test_traced_reduced_solve_reads_the_tally(monkeypatch):
    # the reduced solve's hook finds the tally as the fourth positional
    # argument, where obm_solve passes it
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    rng = np.random.default_rng(7)
    M = rng.normal(size=(6, 6))
    A = M @ M.T + np.eye(6)
    store = LbfgsStore()
    for _ in range(3):
        s = rng.normal(size=6)
        store.update(s, A @ s)
    # fail the reduced solve's factorizations, as LAPACK reports a
    # non-positive leading minor, so that it falls back once
    monkeypatch.setattr(sqamin.lbfgs, "dpotrf", lambda a, **kwargs: (a, 1))
    face = np.array([1, 0, -1, 1, 0, 1], dtype=np.int8)
    tally = Telemetry()
    with tracing.Tracer() as tracer:
        sqamin.obm.lbfgs_reduced_inverse_solve(store, face, rng.normal(size=6),
                                               tally)
    assert tally.lbfgs_fallback_solves == 1
    assert tracer.counts["lbfgs.fallback_solves"] == 1
