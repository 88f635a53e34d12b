"""Data ingestion and report emission.

Supports SVMLight-format classification data ("label idx:val idx:val ..."
with 1-based indices), whitespace-delimited dense matrices, and JSON/CSV
convergence reports with a fixed schema.
"""

import csv
import json
import math
from dataclasses import asdict, fields

import numpy as np
import scipy.sparse

from .model import INNER_SOLVERS, ConvergenceReport, TraceRow
from .objectives import CovarianceProblem, LogisticDataset

__all__ = [
    "SvmlightParseError",
    "parse_svmlight",
    "write_svmlight",
    "load_dense_matrix",
    "sample_covariance",
    "write_report",
    "read_report",
]

# The direct baseline, then one outer-loop path per inner solver.
SOLVERS = ("fista",) + tuple(f"sqa_{name}" for name in INNER_SOLVERS)
PROBLEM_KINDS = ("logistic", "covariance", "synthetic")

_REPORT_FIELDS = tuple(f.name for f in fields(ConvergenceReport))
_SUMMARY_FIELDS = tuple(name for name in _REPORT_FIELDS
                        if name not in ("solver", "status", "trace"))
_TRACE_FIELDS = tuple(f.name for f in fields(TraceRow))


class SvmlightParseError(ValueError):
    """Malformed SVMLight input; the message carries the line number."""


def parse_svmlight(path, n_features=None):
    """Parse "label idx:val ..." lines into a :class:`LogisticDataset`.

    Indices are 1-based in the file and strictly increasing within a line;
    any positive label maps to +1, everything else to -1; text after '#' is
    ignored.  The feature count is inferred from the largest index unless
    ``n_features`` overrides it (it must then cover every index seen).
    """
    labels = []
    indptr = [0]
    indices = []
    values = []
    max_index = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError as exc:
                raise SvmlightParseError(
                    f"{path}:{lineno}: bad label {tokens[0]!r}") from exc
            labels.append(1.0 if label > 0 else -1.0)
            previous = 0
            for token in tokens[1:]:
                part = token.split(":")
                if len(part) != 2:
                    raise SvmlightParseError(
                        f"{path}:{lineno}: bad feature token {token!r}")
                try:
                    idx = int(part[0])
                    val = float(part[1])
                except ValueError as exc:
                    raise SvmlightParseError(
                        f"{path}:{lineno}: bad feature token {token!r}") from exc
                if not math.isfinite(val):
                    raise SvmlightParseError(
                        f"{path}:{lineno}: non-finite value in {token!r}")
                if idx < 1:
                    raise SvmlightParseError(
                        f"{path}:{lineno}: index {idx} is not positive")
                if idx <= previous:
                    raise SvmlightParseError(
                        f"{path}:{lineno}: indices not strictly increasing")
                previous = idx
                indices.append(idx - 1)
                values.append(val)
            max_index = max(max_index, previous)
            indptr.append(len(indices))
    n = max_index if n_features is None else int(n_features)
    if n < max_index:
        raise SvmlightParseError(
            f"{path}: n_features={n} smaller than largest index {max_index}")
    matrix = scipy.sparse.csr_matrix(
        (np.array(values, dtype=float),
         np.array(indices, dtype=np.int32),
         np.array(indptr, dtype=np.int32)),
        shape=(len(labels), n),
    )
    return LogisticDataset(matrix, np.array(labels))


def write_svmlight(data, path):
    """Emit a dataset in SVMLight format; values use round-tripping repr."""
    Z = data.features
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(data.n_samples):
            row = Z.indices[Z.indptr[i]:Z.indptr[i + 1]]
            vals = Z.data[Z.indptr[i]:Z.indptr[i + 1]]
            label = "+1" if data.labels[i] > 0 else "-1"
            pairs = " ".join(f"{j + 1}:{float(v)!r}" for j, v in zip(row, vals))
            handle.write(f"{label} {pairs}".rstrip() + "\n")


def load_dense_matrix(path):
    """Whitespace-delimited rows of reals as a 2-D float array."""
    matrix = np.loadtxt(path, dtype=float)
    return np.atleast_2d(matrix)


def sample_covariance(samples):
    """Maximum-likelihood (1/N-normalized) covariance of the sample rows."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n_samples = samples.shape[0]
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    centered = samples - samples.mean(axis=0)
    S = (centered.T @ centered) / n_samples
    S = 0.5 * (S + S.T)
    return CovarianceProblem(S)


def write_report(report, path, report_format="json", context=None):
    """Emit counters plus the per-iteration trace as JSON or CSV.

    JSON holds the report's fields followed by those of ``context``.  The
    CSV layout is one summary header row and its values (exactly the six
    counter/result columns, in stable order), then a trace section with its
    own header; it ignores ``context``.
    """
    try:
        if report_format == "json":
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({**asdict(report), **(context or {})}, handle, indent=2)
                handle.write("\n")
        elif report_format == "csv":
            with open(path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(_SUMMARY_FIELDS)
                writer.writerow([getattr(report, name) for name in _SUMMARY_FIELDS])
                writer.writerow(_TRACE_FIELDS)
                for row in report.trace:
                    writer.writerow([getattr(row, name) for name in _TRACE_FIELDS])
        else:
            raise ValueError(f"unknown report format {report_format!r}")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def read_report(path):
    """Load a JSON report back into a :class:`ConvergenceReport`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    report = ConvergenceReport(**{name: payload[name] for name in _REPORT_FIELDS})
    report.trace = [TraceRow(**{name: row[name] for name in _TRACE_FIELDS})
                    for row in report.trace]
    return report
