"""Seeded solver benchmark for sqamin.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up generates the workload's instances from the seed, writes their input
files and solves each once at a tighter tolerance for the correctness gate.
The timed part is a closed loop, one process and one BLAS thread: each
instance is loaded through the library's I/O functions and solved by all
four solver paths, one solve after another, in passes over the instances
until ``--seconds`` have gone by (the first pass always completes).  Times
are reported in reference seconds, scaled by a machine-speed probe that
runs between operations (see ``speed.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones.  With ``--trace 1`` every solve of the
first half of the instances runs twice, untraced and then with layer
wrappers installed, and the metrics are the per-layer ones.  Details
(environment, raw times, work counters, checks) and the traced spans go to
``perfbench/out/``.
"""

import os

# Pin the BLAS and OpenMP pools before numpy is imported: with the default
# of one thread per core, small dense factorizations run several times
# slower on a two-core machine and timings stop scaling smoothly with size.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

COUNTERS = ("outer_iterations", "inner_iterations", "fg_evaluations",
            "hess_vec_products")

# End-to-end metric -> unit; ``solve_s`` has one entry per solver path.
END_TO_END_UNITS = {"setup_s": "s", "load_s": "s", "solve_s": "s",
                    "peak_rss_mb": "MB"}


def _import_library():
    """Import sqamin from this checkout's ``src``; None when it is absent."""
    if not (SRC / "sqamin" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import sqamin

    if SRC not in Path(sqamin.__file__).resolve().parents:
        return None
    return sqamin


def _blas_info():
    """Thread count and build string of the OpenBLAS bundled with numpy and
    with scipy (already loaded by their imports)."""
    import ctypes
    import glob

    import numpy
    import scipy

    info = []
    for package in (numpy, scipy):
        libs_dir = Path(package.__file__).parent.with_name(
            f"{package.__name__}.libs")
        for lib_path in sorted(glob.glob(str(libs_dir / "libscipy_openblas*.so"))):
            lib = ctypes.CDLL(lib_path)
            entry = {"package": package.__name__,
                     "library": os.path.basename(lib_path)}
            for suffix in ("64_", ""):
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry["threads"] = threads()
                entry["config"] = config().decode()
                break
            info.append(entry)
    return info


def environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_info(),
        "thread_env": {var: os.environ.get(var)
                       for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")},
    }


def mean_over_instances(per_instance):
    """Mean over instances of each instance's median time.

    Instances of one workload differ in difficulty; the mean over many of
    them is what keeps a run's figure steady from seed to seed.
    """
    return statistics.fmean(statistics.median(times) for times in per_instance)


class Run:
    """State of one benchmark run: timings, counters and failures."""

    def __init__(self, workloads, workload, setups, probe, tracer=None):
        self.wl = workloads
        self.probe = probe
        self.workload = workload
        self.setups = setups
        self.tracer = tracer
        n = len(setups)
        self.solve_times = {path: [[] for _ in range(n)] for path in workloads.PATHS}
        self.load_times = [[] for _ in range(n)]
        self.counters = {}
        self.attempted = 0
        self.failures = []
        self.problems = []
        if tracer is not None:
            import tracing

            self.path_totals = {path: tracing.PathTotals(path)
                                for path in workloads.PATHS}
            self.io_self = {}
            self.io_loads = 0

    def load(self, i):
        """Load instance ``i``, repeating short loads; returns the problem."""
        setup = self.setups[i]
        elapsed = 0.0
        reps = 0
        while reps < 3 and (reps == 0 or elapsed < 0.05):
            start = time.perf_counter()
            problem = self.workload.load(setup)
            took = time.perf_counter() - start
            self.load_times[i].append(took)
            elapsed += took
            reps += 1
        if self.tracer is not None:
            self.tracer.begin()
            with self.tracer:
                self.workload.load(setup)
            self_seconds, _, _ = self.tracer.end(f"load/{i}")
            for name, value in self_seconds.items():
                self.io_self[name] = self.io_self.get(name, 0.0) + value
            self.io_loads += 1
        return problem

    def _timed_solve(self, problem, path, i, label):
        """One timed solve; returns ``(seconds, x, report)``.

        A raising solve is a failed operation, recorded and survived: the
        report is then None.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            x, report = self.wl.solve(problem, path, self.setups[i].tol_inf)
        except Exception:
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return time.perf_counter() - start, None, None
        return time.perf_counter() - start, x, report

    def _check(self, problem, x, report, i, path, label):
        """Correctness gate plus the repeat check on the work counters."""
        if report is None:
            return
        setup = self.setups[i]
        counters = tuple(getattr(report, name) for name in COUNTERS)
        first = self.counters.setdefault((i, path), counters)
        if first != counters:
            self.problems.append(f"{label}: counters {counters} differ from "
                                 f"an earlier solve's {first}")
        if report.status != "converged":
            error = f"status {report.status!r}"
        elif not max(report.final_residual_inf,
                     self.wl.residual_inf(problem, x)) <= setup.tol_inf:
            error = (f"residual {report.final_residual_inf:.3e} (reported) or "
                     f"{self.wl.residual_inf(problem, x):.3e} (recomputed) "
                     f"above tol_inf {setup.tol_inf:.1e}")
        else:
            objective = problem.objective(x)
            ref = setup.reference_objective
            if abs(objective - ref) <= self.wl.OBJECTIVE_RTOL * max(1.0, abs(ref)):
                return
            error = f"objective {objective!r} differs from reference {ref!r}"
        self.failures.append(f"{label}: {error}")

    def solve(self, problem, path, i):
        label = f"instance {i} {path}"
        self.probe()
        took, x, report = self._timed_solve(problem, path, i, label)
        self._check(problem, x, report, i, path, label)
        self.solve_times[path][i].append(took)
        if self.tracer is None:
            return
        traced_problem = self.tracer.traced_problem(problem)
        self.tracer.begin()
        with self.tracer:
            traced_took, x, report = self._timed_solve(traced_problem, path, i,
                                                       label + " (traced)")
        spans = self.tracer.end(f"solve/{i}/{path}")
        self._check(problem, x, report, i, path, label + " (traced)")
        if report is not None:
            self.path_totals[path].add(spans, traced_took, took)

    def measure(self, seconds):
        deadline = time.perf_counter() + seconds
        first_pass = True
        while True:
            for i in range(len(self.setups)):
                if not first_pass and time.perf_counter() >= deadline:
                    return
                self.probe()
                problem = self.load(i)
                for path in self.wl.PATHS:
                    self.solve(problem, path, i)
            first_pass = False

    def end_to_end(self, setup_times, setup_scale):
        """End-to-end metrics, times in reference seconds (see speed.py).

        Set-up and measurement are scaled by the probe times of their own
        phase.
        """
        scale = self.probe.scale()
        metrics = {
            "setup_s": setup_scale * statistics.median(setup_times),
            "load_s": scale * mean_over_instances(self.load_times),
        }
        for path, per_instance in self.solve_times.items():
            metrics[f"solve_s.{path}"] = scale * mean_over_instances(per_instance)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024.0)
        return metrics

    def per_layer(self):
        import tracing

        metrics = {}
        for name in tracing.IO_METRICS:
            if name == "io.input_bytes":
                metrics[name] = float(statistics.fmean(
                    s.input_bytes for s in self.setups))
            else:
                metrics[name] = self.io_self.get(name[:-2], 0.0) / self.io_loads
        for path, totals in self.path_totals.items():
            if totals.solves == 0:
                continue
            ratio = totals.self_sum_ratio()
            if abs(ratio - 1.0) > tracing.SELF_SUM_MARGIN:
                self.problems.append(
                    f"{path}: layer self times sum to {ratio:.4f} of the "
                    f"traced solve time, outside +/-{tracing.SELF_SUM_MARGIN}")
            metrics.update(totals.metrics())
        missing = set(tracing.PER_LAYER_METRICS) - set(metrics)
        if missing:
            self.problems.append(f"per-layer metrics missing: {sorted(missing)}")
        return metrics


def _metric_block(metrics, trace):
    import tracing

    def unit(name):
        if trace:
            return tracing.unit_of(name)
        return END_TO_END_UNITS[name.split(".")[0]]

    return {name: {"value": value, "unit": unit(name)}
            for name, value in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small instances, for the self-checks in check.py")
    args = parser.parse_args(argv)

    if _import_library() is None:
        print(f"perfbench: the sqamin sources are not under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](small=args.small)
    env = environment()
    print("perfbench env: " + json.dumps(env), flush=True)

    setup_probe = speed.SpeedProbe()
    probe = speed.SpeedProbe()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    inputs = OUT / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    setups = []
    setup_times = []
    try:
        # A traced solve also runs untraced, so the traced run takes half the
        # instances to last about as long as an untraced one.
        count = workload.instances
        if args.trace:
            count = max(1, count // 2)
        for i in range(count):
            setup_probe()
            start = time.perf_counter()
            setups.append(workload.setup([args.seed, i], str(inputs)))
            setup_times.append(time.perf_counter() - start)
        run = Run(workloads, workload, setups, probe, tracer)
        run.measure(args.seconds)
    finally:
        for setup in setups:
            if setup.input_path and os.path.exists(setup.input_path):
                os.remove(setup.input_path)

    if tracer is None:
        metrics = run.end_to_end(setup_times, setup_probe.scale())
    else:
        metrics = run.per_layer()
    failed = len(run.failures)
    correct = failed == 0 and not run.problems
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small, "env": env,
        "correct": correct, "attempted": run.attempted, "failed": failed,
        "failures": run.failures, "problems": run.problems,
        "setup_times": setup_times,
        "load_times": run.load_times,
        "solve_times": run.solve_times,
        "setup_probe_times": setup_probe.times,
        "probe_times": probe.times,
        "speed_scale": probe.scale(),
        "counters": {f"{i}/{path}": dict(zip(COUNTERS, values))
                     for (i, path), values in sorted(run.counters.items())},
        "metrics": metrics,
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)
    if tracer is not None:
        with open(OUT / f"{stem}-spans.json", "w", encoding="utf-8") as handle:
            json.dump(tracer.archive, handle, separators=(",", ":"))
    for message in run.failures + run.problems:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": failed,
                      "metrics": _metric_block(metrics, args.trace)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
