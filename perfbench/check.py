"""Self-checks of the benchmark, on small instances of every workload.

Run from the repository root:

    python3 perfbench/check.py

For each workload it runs the benchmark twice untraced and once traced on
the same seed and checks that

* every solve passes the correctness gate;
* the per-path work counters (outer and inner iterations, fg evaluations,
  Hessian-vector products) of every instance repeat exactly across the two
  untraced runs and the traced run, so tracing does not perturb the solvers;
* the printed metrics are exactly those ``BENCHMARK.json`` lists, with the
  same units;
* in the traced run, the layer self times of each path add up to its traced
  solve time within ``tracing.SELF_SUM_MARGIN``.

Finally it checks that the benchmark fails, printing no result, in a copy
that holds only ``BENCHMARK.json`` and the benchmark's own files.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace),
           "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _details(workload, trace):
    path = HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_workload(workload, manifest, errors):
    expected = {0: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
                1: {m["name"]: m["unit"] for m in manifest["per_layer"]}}
    counters = []
    for trace in (0, 0, 1):
        proc = _run(workload, trace)
        tag = f"{workload} trace={trace}"
        if proc.returncode != 0:
            errors.append(f"{tag}: exit code {proc.returncode}\n{proc.stderr}")
            return
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"{tag}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"]:
            errors.append(f"{tag}: correct={result['correct']} failed="
                          f"{result['failed']}\n{proc.stderr}")
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        if units != expected[trace]:
            errors.append(f"{tag}: metrics differ from BENCHMARK.json: "
                          f"{sorted(set(units) ^ set(expected[trace]))}")
        counters.append(_details(workload, trace)["counters"])
    untraced, again, traced = counters
    if untraced != again:
        errors.append(f"{workload}: work counters differ between two runs")
    if not traced or any(untraced.get(key) != value
                         for key, value in traced.items()):
        errors.append(f"{workload}: traced work counters differ from the "
                      f"untraced ones")


def check_bare_copy(errors):
    """Without ``src/`` the benchmark must fail and print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for source in HERE.glob("*.*"):
            shutil.copy(source, bare / "perfbench")
        proc = _run("quadratic", 0, cwd=bare)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            errors.append("a copy without the library sources did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    errors = []
    for workload in (w["name"] for w in manifest["workloads"]):
        check_workload(workload, manifest, errors)
        print(f"checked {workload}", flush=True)
    check_bare_copy(errors)
    for error in errors:
        print(f"FAIL: {error}")
    print("all checks passed" if not errors else f"{len(errors)} check(s) failed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
