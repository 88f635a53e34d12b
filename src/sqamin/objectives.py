"""Concrete smooth oracles: logistic regression, log-det covariance, quadratics.

Each family exposes pure value/gradient/Hessian-vector functions plus a
constructor returning a :class:`~sqamin.model.CompositeProblem` with the l1
weight attached.  The logistic problem's oracles keep a one-point cache of
the margins and Hessian weights, reused while the solver stays at one
iterate, so such a problem should not be shared between threads.  The
log-det objective treats non-positive-definite points as ``+inf`` so that
line searches reject them and every accepted iterate stays inside the cone.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.special import expit

from .model import CompositeProblem

__all__ = [
    "LogisticDataset",
    "logistic_value",
    "logistic_gradient",
    "logistic_hess_vec",
    "logistic_problem",
    "synthetic_logistic_dataset",
    "CovarianceProblem",
    "NotPositiveDefiniteError",
    "logdet_value",
    "logdet_gradient",
    "logdet_hess_vec",
    "covariance_problem",
    "synthetic_quadratic",
    "synthetic_quadratic_matrices",
]


class NotPositiveDefiniteError(ValueError):
    """Raised when a derivative of the log-det objective is requested at a
    point outside the positive definite cone."""


# ---------------------------------------------------------------------------
# l1-regularized logistic regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogisticDataset:
    """Binary classification data: sparse row-major features, +/-1 labels."""

    features: scipy.sparse.csr_matrix
    labels: np.ndarray

    def __post_init__(self):
        Z = self.features
        if not scipy.sparse.issparse(Z):
            raise ValueError("features must be a scipy sparse matrix")
        if Z.format != "csr":
            raise ValueError("features must be in CSR (row-major) format")
        y = np.asarray(self.labels)
        if y.shape != (Z.shape[0],):
            raise ValueError("label count does not match sample count")
        if not np.all(np.isin(y, (-1, 1))):
            raise ValueError("labels must all be -1 or +1")
        if not np.all(np.isfinite(Z.data)):
            raise ValueError("feature values must be finite")
        indptr, indices = Z.indptr, Z.indices
        outside = (indices < 0) | (indices >= Z.shape[1])
        if np.any(outside):
            raise ValueError(f"column index {indices[np.argmax(outside)]} outside "
                             f"[0, {Z.shape[1]})")
        rows = np.repeat(np.arange(Z.shape[0]), np.diff(indptr))
        bad = (np.diff(indices) <= 0) & (rows[1:] == rows[:-1])
        if np.any(bad):
            i = rows[np.argmax(bad)]
            raise ValueError(f"row {i}: column indices not strictly increasing")

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]


def _margins(data, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (data.n_features,):
        raise ValueError(f"expected dimension {data.n_features}, got {x.shape}")
    return data.labels * (data.features @ x)


class _LogisticLinearization:
    """Margins ``y * (Z@x)`` at the last point asked for, shared by value,
    gradient and Hessian products there; the point is compared by value with
    a stored copy, so mutating ``x`` in place never gives stale results.  The
    weights ``w = s(1-s)`` are kept from the first Hessian product at a point
    and ``Z.T`` from its first use.  Not safe to share between threads."""

    def __init__(self, data):
        self.data = data
        self._x = self._m = self._w = None

    def _margins_at(self, x):
        if not np.array_equal(x, self._x):
            m = _margins(self.data, x)
            self._x, self._m, self._w = np.array(x, dtype=float), m, None
        return self._m

    @cached_property
    def _zt(self):
        return self.data.features.T

    def value(self, x):
        t = -self._margins_at(x)
        return float(np.mean(np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))))

    def gradient(self, x):
        s = expit(-self._margins_at(x))
        return -np.asarray(self._zt @ (self.data.labels * s)) / self.data.n_samples

    def hess_vec(self, x, v):
        data = self.data
        v = np.asarray(v, dtype=float)
        if v.shape != (data.n_features,):
            raise ValueError(f"expected dimension {data.n_features}, got {v.shape}")
        m = self._margins_at(x)
        if self._w is None:
            s = expit(-m)
            self._w = s * (1.0 - s)
        return np.asarray(self._zt @ (self._w * (data.features @ v))) / data.n_samples


def logistic_value(data, x):
    """Mean logistic loss ``(1/N) sum log(1 + exp(-y_i x@z_i))``.

    Uses the overflow-safe form ``max(t, 0) + log1p(exp(-|t|))`` of
    ``log(1 + exp(t))`` so large margins neither overflow nor lose accuracy.
    """
    return _LogisticLinearization(data).value(x)


def logistic_gradient(data, x):
    """Gradient ``-(1/N) Z.T (y * sigmoid(-y * Zx))``."""
    return _LogisticLinearization(data).gradient(x)


def logistic_hess_vec(data, x, v):
    """Hessian-vector product ``(1/N) Z.T (w * (Z v))`` with ``w = s(1-s)``."""
    return _LogisticLinearization(data).hess_vec(x, v)


def logistic_problem(data, mu):
    """Composite problem for the l1-regularized mean logistic loss.  Its
    oracles share a one-point cache, so do not share it between threads."""
    lin = _LogisticLinearization(data)
    return CompositeProblem(value=lin.value, gradient=lin.gradient,
                            hess_vec=lin.hess_vec, dim=data.n_features, mu=mu)


def synthetic_logistic_dataset(n_samples, n_features, seed, feature_scale=1.0):
    """Random dense-as-sparse classification data with a sparse true signal.

    Labels come from a noisy linear model over a planted coefficient vector
    whose support covers roughly a quarter of the features; deterministic
    per seed.
    """
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n_samples, n_features)) * feature_scale
    w_true = np.zeros(n_features)
    support = rng.choice(n_features, size=max(1, n_features // 4), replace=False)
    w_true[support] = rng.normal(size=support.size)
    score = Z @ w_true + 0.5 * rng.normal(size=n_samples)
    y = np.where(score >= 0, 1.0, -1.0)
    return LogisticDataset(scipy.sparse.csr_matrix(Z), y)


# ---------------------------------------------------------------------------
# Sparse inverse covariance (log-det) objective
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceProblem:
    """Sample covariance matrix for the l1-penalized log-det objective.

    The optimization variable is the flattened candidate inverse covariance
    matrix (length p**2), symmetrized on every oracle read.
    """

    sample_cov: np.ndarray

    def __post_init__(self):
        S = np.asarray(self.sample_cov, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("sample covariance must be a square matrix")
        if not np.all(np.isfinite(S)):
            raise ValueError("sample covariance must be finite")
        if not np.array_equal(S, S.T):
            raise ValueError("sample covariance must be exactly symmetric")

    @property
    def p(self):
        return self.sample_cov.shape[0]


def _read_symmetric(prob, vec, what):
    vec = np.asarray(vec, dtype=float)
    p = prob.p
    if vec.shape != (p * p,):
        raise ValueError(f"{what} must have length {p * p}, got shape {vec.shape}")
    M = vec.reshape(p, p)
    return 0.5 * (M + M.T)


def logdet_value(prob, Pvec):
    """``tr(S P) - log det P`` for positive definite P, else ``+inf``.

    Positive definiteness is decided by whether a Cholesky factorization
    succeeds; no eigenvalue threshold is involved.
    """
    P = _read_symmetric(prob, Pvec, "Pvec")
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return np.inf
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return float(np.sum(prob.sample_cov * P)) - logdet


def logdet_gradient(prob, Pvec):
    """Flattened ``S - P^{-1}``; raises off the positive definite cone."""
    P = _read_symmetric(prob, Pvec, "Pvec")
    try:
        c = scipy.linalg.cho_factor(P, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("gradient requested at a non-PD point") from exc
    Pinv = scipy.linalg.cho_solve(c, np.eye(prob.p))
    Pinv = 0.5 * (Pinv + Pinv.T)
    return (prob.sample_cov - Pinv).ravel()


def logdet_hess_vec(prob, Pvec, Vvec):
    """Flattened ``P^{-1} V P^{-1}`` with V symmetrized on read."""
    P = _read_symmetric(prob, Pvec, "Pvec")
    V = _read_symmetric(prob, Vvec, "Vvec")
    try:
        c = scipy.linalg.cho_factor(P, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("Hessian requested at a non-PD point") from exc
    A = scipy.linalg.cho_solve(c, V)
    B = scipy.linalg.cho_solve(c, A.T).T
    return (0.5 * (B + B.T)).ravel()


def covariance_problem(prob, mu):
    """Composite problem over flattened matrices, started at the identity.

    Zero is infeasible for the log-det term, so the conventional feasible
    identity matrix replaces the all-zeros default start.
    """
    p = prob.p
    return CompositeProblem(
        value=lambda x: logdet_value(prob, x),
        gradient=lambda x: logdet_gradient(prob, x),
        hess_vec=lambda x, v: logdet_hess_vec(prob, x, v),
        dim=p * p,
        mu=mu,
        x0=np.eye(p).ravel(),
    )


# ---------------------------------------------------------------------------
# Synthetic strongly convex quadratic generator
# ---------------------------------------------------------------------------


def synthetic_quadratic_matrices(n, condition, seed):
    """SPD matrix with log-spaced spectrum in [1, condition] and a target b."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if condition < 1:
        raise ValueError(f"condition number must be >= 1, got {condition}")
    rng = np.random.default_rng(seed)
    lam = np.logspace(0.0, np.log10(condition), n) if condition > 1 else np.ones(n)
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    Q = Q * np.sign(np.diag(R))
    A = (Q * lam) @ Q.T
    A = 0.5 * (A + A.T)
    b = rng.normal(size=n)
    return A, b


def synthetic_quadratic(n, condition, seed, mu=0.0):
    """Composite problem ``0.5 x@A@x - b@x + mu*||x||_1``, seeded."""
    A, b = synthetic_quadratic_matrices(n, condition, seed)
    return CompositeProblem(
        value=lambda x: 0.5 * float(x @ (A @ x)) - float(b @ x),
        gradient=lambda x: A @ x - b,
        hess_vec=lambda x, v: A @ v,
        dim=n,
        mu=mu,
    )
