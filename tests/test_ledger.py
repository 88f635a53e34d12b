"""The counter ledger: every desk solve keeps its status and counters.

A failure here means a change moved the work some solver path does.  If
the move is intended, regenerate ``tests/data/ledger.json`` with
``PYTHONPATH=src python3 tests/ledger.py`` and name each moved entry, with
its reason, in CHANGES.md.
"""

import json

import pytest

import ledger

with open(ledger.PATH, encoding="utf-8") as _handle:
    _LEDGER = json.load(_handle)


def test_ledger_holds_the_desk_workloads_only():
    assert {key.split("/")[0] for key in _LEDGER} == set(ledger.DESK_WORKLOADS)


@pytest.mark.parametrize("workload", sorted(ledger.DESK_WORKLOADS))
def test_counters_match_the_ledger(workload):
    got = ledger.compute((workload,))
    assert sorted(got) == sorted(k for k in _LEDGER
                                 if k.startswith(f"{workload}/"))
    for key, row in got.items():
        want = dict(_LEDGER[key])
        objective = want.pop("objective")
        assert {k: row[k] for k in want} == want, key
        assert row["objective"] == pytest.approx(objective, rel=1e-12), key
