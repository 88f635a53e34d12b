"""Outside-in layer timing for the traced benchmark run.

Wrappers are installed from here around the library's public functions and
methods (module attributes and class attributes), and around the oracle
callables of the ``CompositeProblem`` the benchmark builds.  Nothing inside
the library changes.  Each call records a span ``[name, start, end,
parent]``; spans stay in memory and are written out when the run ends.  A
span's self time is its duration minus the durations of its direct
children, so the self times of all spans of one solve add up to the
duration of its root span.

Return hooks read per-call counts (iterations, trials, acceptances) from the
values the wrapped functions return, so ratios are measured where the work
happens.
"""

import dataclasses
from collections import Counter, defaultdict
from time import perf_counter

import sqamin.driver
import sqamin.io
import sqamin.obm
from sqamin.lbfgs import LbfgsStore
from sqamin.model import QuadraticModel

import workloads

# Per-layer metrics recorded for each solver path, as ``<layer>.<function>.
# <stat>``; only the layers a path touches are listed.  Workload-level I/O
# metrics carry no path prefix.
IO_METRICS = ["io.parse_svmlight.s", "io.dataset.s", "io.load_dense_matrix.s",
              "io.sample_covariance.s", "io.input_bytes"]
_VALUE_GRADIENT = ["objectives.value.calls", "objectives.value.s",
                   "objectives.gradient.calls", "objectives.gradient.s"]
_HESS_VEC = ["objectives.hess_vec.calls", "objectives.hess_vec.s"]
_MODEL = ["model.apply_hessian.calls", "model.apply_hessian.s"]
_FISTA = ["fista.fista_composite.s", "fista.fista_composite.iterations",
          "fista.fista_composite.converged_ratio",
          "fista.fista_composite.monotone_fallbacks"]
_OBM = ["obm.obm_solve.s", "obm.obm_solve.converged_ratio",
        "obm.projected_line_search.trials",
        "obm.projected_line_search.stalled", "obm.projected_line_search.s"]
_CG = ["obm.subspace_cg_solve.calls", "obm.subspace_cg_solve.s"]
_LBFGS = ["lbfgs.update.s", "lbfgs.update.accepted_ratio",
          "lbfgs.hessian_vec.s", "lbfgs.reduced_solve.s",
          "lbfgs.fallback_solves"]
_SQA_DRIVER = ["driver.outer_iterations", "driver.inner_iterations",
               "driver.fg_evaluations", "driver.hess_vec_products",
               "driver.outer_line_search.trials", "driver.outer_line_search.s",
               "driver.unit_step_ratio", "driver.sqa_solve.s"]
_TRACE = ["trace.overhead_s", "trace.self_sum_ratio"]

PATH_METRICS = {
    "fista": (_VALUE_GRADIENT + ["prox.residual.s", "prox.soft_threshold.s"]
              + _FISTA + ["driver.outer_iterations", "driver.fg_evaluations",
                          "driver.fista_baseline_solve.s"] + _TRACE),
    "sqa_fista": (_VALUE_GRADIENT + _HESS_VEC + _MODEL
                  + ["prox.residual.s", "prox.soft_threshold.s"] + _FISTA
                  + _SQA_DRIVER + _TRACE),
    "sqa_obm_cg": (_VALUE_GRADIENT + _HESS_VEC + _MODEL + ["prox.residual.s"]
                   + _OBM + _CG + _SQA_DRIVER + _TRACE),
    "sqa_obm_qn": (_VALUE_GRADIENT + _MODEL + ["prox.residual.s"] + _OBM
                   + _LBFGS + _SQA_DRIVER + _TRACE),
}
assert set(PATH_METRICS) == set(workloads.PATHS)

PER_LAYER_METRICS = IO_METRICS + [f"{path}.{metric}"
                           for path, names in PATH_METRICS.items()
                           for metric in names]

# The summed self times of a traced solve must match its wall time within
# this share; the only gap is the root wrapper's own bookkeeping.
SELF_SUM_MARGIN = 0.02

# Numerator and denominator counters of each ratio metric.
_RATIOS = {
    "fista.fista_composite.converged_ratio": ("fista.converged", "fista.calls"),
    "obm.obm_solve.converged_ratio": ("obm.converged", "obm.calls"),
    "lbfgs.update.accepted_ratio": ("lbfgs.accepted", "lbfgs.updates"),
    "driver.unit_step_ratio": ("driver.unit_steps", "driver.line_searches"),
}


def unit_of(metric):
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def _fista_hook(counts, args, kwargs, result):
    counts["fista.calls"] += 1
    counts["fista.converged"] += result.status == "converged"
    counts["fista.fista_composite.iterations"] += result.inner_iterations
    counts["fista.fista_composite.monotone_fallbacks"] += result.monotone_fallbacks


def _obm_hook(counts, args, kwargs, result):
    counts["obm.calls"] += 1
    counts["obm.converged"] += result.status == "converged"


def _projected_search_hook(counts, args, kwargs, result):
    counts["obm.projected_line_search.trials"] += result.trials
    counts["obm.projected_line_search.stalled"] += result.stalled


def _update_hook(counts, args, kwargs, result):
    counts["lbfgs.updates"] += 1
    counts["lbfgs.accepted"] += bool(result)


def _reduced_solve_hook(counts, args, kwargs, result):
    tally = args[3] if len(args) > 3 else kwargs.get("tally")
    if tally is not None:
        # One telemetry record per solve, so its running total is the
        # solve's fallback count.
        counts["lbfgs.fallback_solves"] = tally.lbfgs_fallback_solves


def _line_search_hook(counts, args, kwargs, result):
    counts["driver.line_searches"] += 1
    counts["driver.unit_steps"] += result.alpha == 1.0
    counts["driver.outer_line_search.trials"] += result.trials


def _report_hook(counts, args, kwargs, result):
    report = result[1]
    counts["driver.outer_iterations"] = report.outer_iterations
    counts["driver.inner_iterations"] = report.inner_iterations
    counts["driver.fg_evaluations"] = report.fg_evaluations
    counts["driver.hess_vec_products"] = report.hess_vec_products


# (owner, attribute, span name, return hook)
_PATCHES = [
    (sqamin.io, "parse_svmlight", "io.parse_svmlight", None),
    (sqamin.io, "LogisticDataset", "io.dataset", None),
    (sqamin.io, "load_dense_matrix", "io.load_dense_matrix", None),
    (sqamin.io, "sample_covariance", "io.sample_covariance", None),
    (workloads, "sqa_solve", "driver.sqa_solve", _report_hook),
    (workloads, "fista_baseline_solve", "driver.fista_baseline_solve",
     _report_hook),
    (sqamin.driver, "fista_composite", "fista.fista_composite", _fista_hook),
    (sqamin.driver, "obm_solve", "obm.obm_solve", _obm_hook),
    (sqamin.driver, "outer_line_search", "driver.outer_line_search",
     _line_search_hook),
    (sqamin.driver, "residual", "prox.residual", None),
    (sqamin.driver, "soft_threshold", "prox.soft_threshold", None),
    (sqamin.obm, "subspace_cg_solve", "obm.subspace_cg_solve", None),
    (sqamin.obm, "obm_projected_line_search", "obm.projected_line_search",
     _projected_search_hook),
    (sqamin.obm, "lbfgs_reduced_inverse_solve", "lbfgs.reduced_solve",
     _reduced_solve_hook),
    (QuadraticModel, "apply_hessian", "model.apply_hessian", None),
    (LbfgsStore, "update", "lbfgs.update", _update_hook),
    (LbfgsStore, "hessian_vec", "lbfgs.hessian_vec", None),
]


class Tracer:
    """Span recorder for one traced run; install it with ``with tracer:``."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []
        self.archive = []

    def wrap(self, name, fn, hook=None):
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def traced_problem(self, problem):
        """Copy of ``problem`` whose oracle callables record spans."""
        return dataclasses.replace(
            problem,
            value=self.wrap("objectives.value", problem.value),
            gradient=self.wrap("objectives.gradient", problem.gradient),
            hess_vec=self.wrap("objectives.hess_vec", problem.hess_vec),
        )

    def __enter__(self):
        for owner, attr, name, hook in _PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def begin(self):
        """Start a fresh span list and counter set for one traced call."""
        self.spans = []
        self.counts = Counter()

    def end(self, label):
        """Close the current call: archive its spans, return its totals.

        Returns ``(self_seconds, calls, counts)``; the first two map span
        names to summed self time and call count.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_seconds = defaultdict(float)
        calls = Counter()
        for (name, start, end, parent), inner in zip(spans, child_time):
            self_seconds[name] += (end - start) - inner
            calls[name] += 1
        # Archived compactly: name index, start and end in microseconds from
        # the first span, parent index.
        origin = spans[0][1] if spans else 0.0
        names = {}
        rows = [[names.setdefault(name, len(names)),
                 round((start - origin) * 1e6, 1),
                 round((end - origin) * 1e6, 1), parent]
                for name, start, end, parent in spans]
        self.archive.append({"label": label, "names": list(names),
                             "spans": rows})
        return self_seconds, calls, self.counts


class PathTotals:
    """Per-layer totals of one solver path, summed over its traced solves."""

    def __init__(self, path):
        self.path = path
        self.solves = 0
        self.self_seconds = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.wall = 0.0
        self.untraced_wall = 0.0

    def add(self, traced, wall, untraced_wall):
        self_seconds, calls, counts = traced
        self.solves += 1
        for name, value in self_seconds.items():
            self.self_seconds[name] += value
        self.calls.update(calls)
        self.counts.update(counts)
        self.wall += wall
        self.untraced_wall += untraced_wall

    def self_sum_ratio(self):
        return sum(self.self_seconds.values()) / self.wall

    def metrics(self):
        """Per-solve means of every metric listed for this path."""
        n = self.solves
        out = {}
        for metric in PATH_METRICS[self.path]:
            if metric in _RATIOS:
                num, den = _RATIOS[metric]
                value = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
            elif metric == "trace.overhead_s":
                value = (self.wall - self.untraced_wall) / n
            elif metric == "trace.self_sum_ratio":
                value = self.self_sum_ratio()
            elif metric.endswith(".s"):
                value = self.self_seconds[metric[:-2]] / n
            elif metric.endswith(".calls"):
                value = self.calls[metric[:-6]] / n
            else:
                value = self.counts[metric] / n
            out[f"{self.path}.{metric}"] = value
        return out
