"""The package export list, and the demos run end to end against it."""

import ast
import runpy
from pathlib import Path

import pytest

import sqamin

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
