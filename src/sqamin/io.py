"""Data ingestion and report emission.

Supports SVMLight-format classification data ("label idx:val idx:val ..."
with 1-based indices), whitespace-delimited dense matrices, and JSON/CSV
convergence reports with a fixed schema.
"""

import csv
import json
import math
import warnings
from dataclasses import MISSING, asdict, fields

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

# report fields with a plain default are JSON-only, so the CSV summary keeps
# its six columns, and an older JSON report loads a missing one as its default
_REPORT_DEFAULTS = {f.name: f.default for f in fields(ConvergenceReport)
                    if f.default is not MISSING}
_SUMMARY_FIELDS = tuple(f.name for f in fields(ConvergenceReport)
                        if f.name not in ("solver", "status", "trace")
                        and f.name not in _REPORT_DEFAULTS)
_TRACE_FIELDS = tuple(f.name for f in fields(TraceRow))


_PAIR = [("index", np.int64), ("value", np.float64)]
_MAX_INDEX = int(np.iinfo(np.int32).max)


class SvmlightParseError(ValueError):
    """Malformed SVMLight input; the message carries the line number."""


def parse_svmlight(path, n_features=None):
    """Parse "label idx:val ..." lines into a :class:`LogisticDataset`.

    Indices are 1-based in the file, at most ``2**31 - 1`` and strictly
    increasing within a line; any positive label maps to +1, everything
    else to -1; text after '#' is ignored.  The feature count is inferred
    from the largest index unless ``n_features`` overrides it (it must then
    cover every index seen).

    Python reads the file line by line and keeps each line's label and
    feature count; one ``np.loadtxt`` call converts all the ``idx:val``
    tokens, streamed to it, and :class:`LogisticDataset` checks the values,
    index range and order.  When that raises ``ValueError``, the file is
    read again token by token: that pass raises :class:`SvmlightParseError`
    naming ``path:line``, or accepts the few tokens that only Python's
    ``int`` and ``float`` read (such as ``1_0``) with the same values.
    """
    labels, counts = [], []
    try:
        with (open(path, "r", encoding="utf-8") as handle,
              warnings.catch_warnings()):
            # a file of labels and comments only has no feature token
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            pairs = np.loadtxt(_feature_tokens(handle, labels, counts),
                               delimiter=":", dtype=_PAIR, ndmin=1)
        index = pairs["index"]
        # astype(np.int32) below would wrap an index outside this range
        if index.size and not 1 <= index.min() <= index.max() <= _MAX_INDEX:
            raise ValueError("feature index outside [1, 2**31 - 1]")
        n = int(index.max(initial=0)) if n_features is None else int(n_features)
        matrix = scipy.sparse.csr_matrix(
            (np.ascontiguousarray(pairs["value"]),
             (index - 1).astype(np.int32),
             np.cumsum([0] + counts).astype(np.int32)),
            shape=(len(labels), n),
        )
        y = np.array([1.0 if float(label) > 0 else -1.0 for label in labels])
        return LogisticDataset(matrix, y)
    except ValueError:
        return _parse_lines(path, n_features)


def _feature_tokens(handle, labels, counts):
    """Yield the ``idx:val`` tokens of each data line of ``handle``, after
    appending the line's label token to ``labels`` and its number of
    feature tokens to ``counts``."""
    for raw in handle:
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            labels.append(tokens[0])
            counts.append(len(tokens) - 1)
            yield from tokens[1:]


def _parse_lines(path, n_features):
    """:func:`parse_svmlight` one token at a time, naming the first bad line."""
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
                if idx > _MAX_INDEX:
                    raise SvmlightParseError(
                        f"{path}:{lineno}: index {idx} exceeds {_MAX_INDEX}")
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


_WRITE_ROWS = 1000  # rows whose entries write_svmlight lists at a time


def write_svmlight(data, path):
    """Emit a dataset in SVMLight format; values use round-tripping repr.

    Indices and values are formatted from Python lists, not one numpy
    scalar per entry, listed ``_WRITE_ROWS`` rows at a time so that the
    lists stay small beside the matrix."""
    Z = data.features
    bounds = Z.indptr.tolist()
    positive = (np.asarray(data.labels) > 0).tolist()
    with open(path, "w", encoding="utf-8") as handle:
        for start in range(0, len(positive), _WRITE_ROWS):
            stop = min(start + _WRITE_ROWS, len(positive))
            first, last = bounds[start], bounds[stop]
            cols = (Z.indices[first:last] + 1).tolist()
            vals = Z.data[first:last].astype(float, copy=False).tolist()
            for i in range(start, stop):
                lo, hi = bounds[i] - first, bounds[i + 1] - first
                pairs = " ".join(f"{j}:{v!r}"
                                 for j, v in zip(cols[lo:hi], vals[lo:hi]))
                handle.write(f"{'+1' if positive[i] else '-1'} {pairs}".rstrip()
                             + "\n")


def load_dense_matrix(path):
    """Whitespace-delimited rows of reals as a 2-D float array, one per line."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        matrix = np.loadtxt(path, dtype=float, ndmin=2)
    if matrix.size == 0:
        raise ValueError(f"{path}: file holds no data")
    return matrix


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
    """Load a JSON report back into a :class:`ConvergenceReport`.

    A field with a plain default that the report lacks (one written before
    the field existed) loads as that default; any other missing field
    raises KeyError.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = {**_REPORT_DEFAULTS, **json.load(handle)}
    report = ConvergenceReport(**{f.name: payload[f.name]
                                  for f in fields(ConvergenceReport)})
    report.trace = [TraceRow(**{name: row[name] for name in _TRACE_FIELDS})
                    for row in report.trace]
    return report
