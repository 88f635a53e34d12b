"""Concrete smooth oracles: logistic regression, log-det covariance, quadratics.

Each family has a constructor returning a
:class:`~sqamin.model.CompositeProblem` with the l1 weight attached.  The
oracles of every problem share a one-point cache, reused while the solver
stays at one iterate, so no problem should be shared between threads: the
logistic margins and Hessian, the log-det Cholesky factor and inverse, or
the quadratic's ``A @ x``.  The logistic oracles multiply by a dense, CSC
or CSR layout of the design (see :attr:`LogisticDataset.operand`), and on
a small dense one keep the Hessian as its Gram matrix, so that each
product is one BLAS matvec.  The log-det objective treats
non-positive-definite points as ``+inf`` so that line searches reject them
and every accepted iterate stays inside the cone.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit

from .model import CompositeProblem

__all__ = [
    "LogisticDataset",
    "logistic_problem",
    "synthetic_logistic_dataset",
    "CovarianceProblem",
    "NotPositiveDefiniteError",
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
    """Binary classification data: sparse row-major features, +/-1 labels.

    The oracles multiply by :attr:`operand`, built on first use and kept,
    so a dataset holds at most one more copy of the CSR's size.
    """

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

    @cached_property
    def operand(self):
        """The layout the oracles multiply by, the first that applies:

        - ``features`` as a dense ``float64`` array, so that BLAS runs the
          products, when that takes no more bytes than the CSR's ``data``,
          ``indices`` and ``indptr`` arrays;
        - a CSC copy, ``features.tocsc()``, when there are more samples
          than features and fewer than 32 stored entries per sample on
          average: both products then loop over the few columns instead of
          the many short rows, and add the same terms in the same order;
        - else ``features`` itself.

        Its transpose is a view, so either copy is the only one made.  A dense
        operand with ``n_features <= min(n_samples, 1000)`` also gets its
        logistic Hessian built as one ``n_features``-square Gram matrix per
        point, no larger than the operand, so that each Hessian product is one
        matvec; other operands keep the two products.  A build costs as much as
        15 two-product HVPs at N x p = 600x100, 57 at 600x600, 101 at 1000x1000
        and 133 at 2400x2400, and the sqa paths made 59 to 532 products per
        point on dense AR(1) logistic designs with N from 200 to 2400 and p
        from N/6 to 1.5 N (one BLAS thread; ``sweep`` in ``BENCH_19.json``).
        Inside the rule the Gram sped up both paths at every measured shape, by
        4% to 74%; outside it ``sqa_fista`` ran 9% slower at 600x900 and 33%
        slower at 2400x2400.  The Gram of a sparse design is mostly dense, so a
        dense matvec by it is no cheaper than the two sparse products."""
        Z = self.features
        csr_bytes = Z.data.nbytes + Z.indices.nbytes + Z.indptr.nbytes
        if Z.shape[0] * Z.shape[1] * np.dtype(float).itemsize <= csr_bytes:
            return Z.toarray().astype(float, copy=False)
        if Z.shape[0] > Z.shape[1] and Z.nnz < 32 * Z.shape[0]:
            return Z.tocsc()
        return Z


def _product(A, v):
    """``A @ v`` without floating-point warnings: BLAS flags an overflow the
    sparse kernels pass silently, and the solvers catch non-finite oracle
    output where it enters."""
    with np.errstate(all="ignore"):
        return A @ v


_GRAM_BLOCK = 1 << 18  # entries of one scaled row block (2 MiB)
_GRAM_MAX_FEATURES = 1000  # the widest Gram (see LogisticDataset.operand)


class _OnePointCache:
    """``state(x)`` at the last point asked for, shared by value, gradient
    and Hessian products there; the point is matched by its shape and a
    stored copy of its bytes, so mutating ``x`` in place never gives stale
    results.  With ``dim`` set, a point of another shape raises before
    anything is stored.  A subclass defines ``_state``.  Not thread-safe."""

    _key = _kept = None

    def __init__(self, dim=None, state=None):
        self._dim = dim
        if state is not None:
            self._state = state

    def at(self, x):
        x = np.asarray(x, dtype=float)
        key = x.shape, x.tobytes()
        if key != self._key:
            if self._dim is not None and x.shape != (self._dim,):
                raise ValueError(f"expected dimension {self._dim}, got {x.shape}")
            self._kept = self._state(x)
            self._key = key
        return self._kept


class _LogisticLinearization(_OnePointCache):
    """Margins ``y * (Z@x)`` at the last point asked for (see
    :class:`_OnePointCache`).  The Hessian at that point is kept from its
    first product there, in the same one-point slot: on a dense operand with
    ``n_features <= min(n_samples, 1000)`` as the Gram matrix
    ``G = (Zs.T @ Zs) / N``, ``Zs = sqrt(w) * Z`` with ``w = s(1-s)``,
    summed over row blocks (see :meth:`_gram`), and each product is
    ``G @ v``; on every other layout as the weights ``w``, and each
    product is ``Z.T (w * (Z v)) / N``.  On a design whose Gram overflows,
    ``G @ v`` gives NaN where an ``inf`` entry of ``G`` meets a zero of
    ``v``, where the two products might give a finite value or ``inf``;
    the solvers stop on either.  The transposed operand, a view in every
    layout, is kept from its first use."""

    _hess = None

    def __init__(self, data):
        super().__init__(data.n_features)
        self.data = data

    def _state(self, x):
        self._hess = None
        return self.data.labels * _product(self.data.operand, x)

    @cached_property
    def _zt(self):
        return self.data.operand.T

    @cached_property
    def _keeps_gram(self):
        """Whether the Hessian is kept as its Gram matrix (see the class)."""
        data = self.data
        return (isinstance(data.operand, np.ndarray)
                and data.n_features <= min(data.n_samples, _GRAM_MAX_FEATURES))

    def _gram(self, sw):
        """``(Zs.T @ Zs) / N`` with ``Zs = sw * Z`` row-wise, summed over
        blocks of ``_GRAM_BLOCK // p`` rows, so that a build holds one
        2 MiB block and one block product beside ``G`` instead of a scaled
        copy of the design; each block's product is a syrk, so the sum
        stays exactly symmetric."""
        Z = self.data.operand
        n, p = Z.shape
        rows = max(1, _GRAM_BLOCK // max(p, 1))
        G = np.zeros((p, p))
        for i in range(0, n, rows):
            zb = Z[i:i + rows] * sw[i:i + rows, None]
            G += zb.T @ zb
        G /= n
        return G

    def value(self, x):
        """Mean loss ``log(1 + e^t)``, ``t = -y_i x@z_i``, overflow-safe."""
        t = -self.at(x)
        return float(np.mean(np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))))

    def gradient(self, x):
        """``-(1/N) Z.T (y * sigmoid(-y * Zx))``."""
        s = expit(-self.at(x))
        r = self.data.labels * s
        return -np.asarray(_product(self._zt, r)) / self.data.n_samples

    def hess_vec(self, x, v):
        """``(1/N) Z.T (w * (Z v))`` with ``w = s(1-s)``."""
        data = self.data
        v = np.asarray(v, dtype=float)
        if v.shape != (data.n_features,):
            raise ValueError(f"expected dimension {data.n_features}, got {v.shape}")
        m = self.at(x)
        with np.errstate(all="ignore"):  # as _product does
            if self._hess is None:
                s = expit(-m)
                w = s * (1.0 - s)
                if self._keeps_gram:
                    w = self._gram(np.sqrt(w))
                self._hess = w
            if self._keeps_gram:
                return self._hess @ v
            hv = self._zt @ (self._hess * (data.operand @ v))
        return np.asarray(hv) / data.n_samples


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
        object.__setattr__(self, "sample_cov", S)  # the float array checked

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


class _LogdetLinearization(_OnePointCache):
    """The symmetrized point ``P`` and its lower Cholesky factor, None where
    the factorization fails (off the cone), at the last point asked for,
    and ``W = P^{-1}`` from the first gradient or product there (see
    :class:`_OnePointCache`): a solver iterate costs one factorization.  A
    point with a non-finite entry gives a NaN value, gradient and products."""

    def __init__(self, prob):
        super().__init__()
        self.prob = prob

    def _state(self, x):
        """``(P, L)`` at ``x``; ``L`` is None off the cone."""
        with np.errstate(all="ignore"):
            P = _read_symmetric(self.prob, x, "Pvec")
        if not np.isfinite(P).all():
            P = np.full_like(P, np.nan)  # factors into NaN, no exception
        L, info = dpotrf(P, lower=1, clean=1)
        self._W = None
        return P, (L if info == 0 else None)

    def _inverse_at(self, x, what):
        L = self.at(x)[1]
        if L is None:
            raise NotPositiveDefiniteError(f"{what} requested at a non-PD point")
        if self._W is None:
            W = dpotrs(L, np.eye(self.prob.p), lower=1)[0]
            self._W = 0.5 * (W + W.T)
        return self._W

    def value(self, x):
        """``tr(S P) - log det P`` for positive definite P, else ``+inf``."""
        P, L = self.at(x)
        if L is None:
            return np.inf
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        return float(np.sum(self.prob.sample_cov * P)) - logdet

    def gradient(self, x):
        """Flattened ``S - P^{-1}``; raises off the positive definite cone."""
        return (self.prob.sample_cov - self._inverse_at(x, "gradient")).ravel()

    def hess_vec(self, x, v):
        """Flattened ``0.5 (B + B.T)``, ``B = P^{-1} V P^{-1}`` with V
        symmetrized on read, so every product is exactly symmetric."""
        W = self._inverse_at(x, "Hessian")
        B = W @ _read_symmetric(self.prob, v, "Vvec") @ W
        return (0.5 * (B + B.T)).ravel()


def covariance_problem(prob, mu):
    """Composite problem over flattened matrices, started at the identity.

    Zero is infeasible for the log-det term, so the conventional feasible
    identity matrix replaces the all-zeros default start.  Its oracles
    share a one-point cache, so do not share it between threads.
    """
    lin = _LogdetLinearization(prob)
    return CompositeProblem(value=lin.value, gradient=lin.gradient,
                            hess_vec=lin.hess_vec, dim=prob.p * prob.p,
                            mu=mu, x0=np.eye(prob.p).ravel())


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
    """Composite problem ``0.5 x@A@x - b@x + mu*||x||_1``, seeded.  Value
    and gradient share ``A @ x`` through a one-point cache, so do not share
    it between threads."""
    A, b = synthetic_quadratic_matrices(n, condition, seed)
    ax = _OnePointCache(n, lambda x: A @ x).at

    def hess_vec(x, v):
        if np.shape(v) != (n,):
            raise ValueError(f"expected dimension {n}, got {np.shape(v)}")
        return A @ v
    return CompositeProblem(value=lambda x: 0.5 * float(x @ ax(x)) - float(b @ x),
                            gradient=lambda x: ax(x) - b,
                            hess_vec=hess_vec, dim=n, mu=mu)
