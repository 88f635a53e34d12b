"""The counter ledger: every desk solve keeps its status and counters.

A failure here means a change moved the work some solver path does.  If
the move is intended, regenerate ``tests/data/ledger.json`` with
``PYTHONPATH=src python3 tests/ledger.py`` and name each moved entry, with
its reason, in CHANGES.md.
"""

import hashlib
import json
import sys
from functools import partial

import pytest

import ledger
from helpers import with_one_blas_thread

with open(ledger.PATH, encoding="utf-8") as _handle:
    _LEDGER = json.load(_handle)


def test_ledger_holds_the_desk_workloads_only():
    assert {key.split("/")[0] for key in _LEDGER} == set(ledger.DESK_WORKLOADS)


def _check(workloads, got):
    """``got``, the ledger of ``workloads``, matches the file's entries."""
    assert sorted(got) == sorted(k for k in _LEDGER
                                 if k.split("/")[0] in workloads)
    for key, row in got.items():
        want = dict(_LEDGER[key])
        objective = want.pop("objective")
        assert {k: row[k] for k in want} == want, key
        assert row["objective"] == pytest.approx(objective, rel=1e-12), key


@pytest.mark.parametrize("workload", sorted(ledger.DESK_WORKLOADS))
def test_counters_match_the_ledger(workload):
    _check((workload,), ledger.compute((workload,)))


def test_dense_workloads_match_the_ledger_with_one_blas_thread():
    # the two workloads whose products are dense BLAS calls, which can
    # round differently with one thread than with several
    workloads = ("quadratic", "logistic_hard")
    _check(workloads, with_one_blas_thread(
        "import json, ledger; "
        f"print(json.dumps(ledger.compute({workloads!r})))"))


def test_diff_names_each_move_but_not_objective_noise():
    # regenerating the ledger moves objectives by about 2e-13 relative;
    # only a move beyond the test's tolerance is named
    old = {"quadratic/0/fista": dict(status="converged", objective=2.0,
                                     **dict.fromkeys(ledger.COUNTERS, 7))}
    new = {key: dict(row, objective=2.0 * (1.0 + 2.3e-13))
           for key, row in old.items()}
    assert ledger.moves(old, new) == []
    new["quadratic/0/fista"].update(status="iteration_cap",
                                    hess_vec_products=8, objective=2.5)
    new["quadratic/1/fista"] = old["quadratic/0/fista"]
    assert ledger.moves(old, new) == [
        "quadratic/1/fista: new entry",
        "quadratic/0/fista status: converged -> iteration_cap",
        "quadratic/0/fista hess_vec_products: 7 -> 8",
        "quadratic/0/fista objective: 2.0 -> 2.5",
    ]


def test_workload_option_diffs_and_merges_only_that_workload(tmp_path,
                                                             capsys):
    # a file with another workload's entry changed and no quadratic ones:
    # merging the quadratic entries adds them and leaves the other as it is
    path = tmp_path / "ledger.json"
    changed = {key: row for key, row in _LEDGER.items()
               if not key.startswith("quadratic/")}
    changed["covariance/0/fista"] = dict(changed["covariance/0/fista"],
                                         outer_iterations=-1)
    path.write_text(json.dumps(changed))
    assert ledger.main(["--workload", "quadratic", str(path)]) == 0
    merged = json.loads(path.read_text())
    assert {key: merged.pop(key) for key in changed} == changed
    _check(("quadratic",), merged)  # recomputed: objectives to rounding
    capsys.readouterr()
    assert ledger.main(["--diff", "--workload", "quadratic"]) == 0
    assert capsys.readouterr().out == "0 moved\n"


def test_digest_hashes_each_bench_solve_and_then_their_sequence(
        monkeypatch, capsys):
    # one bench workload and instance keep it short; the hash of a solve
    # covers x, the trace rows, the status and the six counters
    sys.path.insert(0, ledger.BENCH)
    import workloads as bench

    monkeypatch.setattr(bench, "WORKLOADS",
                        {"quadratic": bench.WORKLOADS["quadratic"]})
    monkeypatch.setattr(ledger, "bench_digest",
                        partial(ledger.bench_digest, instances=1))
    assert ledger.main(["--digest"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [label for label, _ in lines] == [
        f"quadratic/0/{path}" for path in bench.PATHS] + ["digest"]
    hashes = [bytes.fromhex(sha) for _, sha in lines]
    assert hashlib.sha256(b"".join(hashes[:-1])).digest() == hashes[-1]
    workload = bench.WORKLOADS["quadratic"]()
    setup = workload.setup([11, 0], None)
    x, report = bench.solve(workload.load(setup), "fista", setup.tol_inf)
    one = hashlib.sha256(x.tobytes())
    for row in report.trace:
        one.update(repr(row).encode())
    one.update(repr([report.status] + [getattr(report, name)
                                        for name in ledger.COUNTERS]).encode())
    assert one.digest() == hashes[0]
