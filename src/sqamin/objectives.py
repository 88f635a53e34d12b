"""Concrete smooth oracles: logistic regression, log-det covariance, quadratics.

Each family has a constructor returning a
:class:`~sqamin.model.CompositeProblem` with the l1 weight attached.  The
oracles of every problem share a one-point cache, reused while the solver
stays at one iterate, so no problem should be shared between threads: one
record per point of the logistic margins, their one exponential, sigmoid
and Hessian, or of the log-det Cholesky factor and inverse, or the
quadratic's ``A @ x``.  Each cache also keeps the record that its last
point replaced, which only the logistic ``on_line`` hook reads: the FISTA
baseline's momentum point lies on the line through its last two iterates,
so its margins are extrapolated from theirs with no product by the design.
The logistic oracles multiply by a dense, CSC or
CSR layout of the design with its rows signed by the labels (see
:attr:`LogisticDataset.operand`), on a sparse one forward over only the
columns their vectors use (see :class:`_ForwardProduct`), and on a small
dense one keep the Hessian as its Gram matrix; each product by it or by
the quadratic's ``A`` reads one triangle (see :func:`_symv`).  The
log-det objective treats non-positive-definite points as ``+inf`` so that
line searches reject them and every accepted iterate stays inside the cone.
"""

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dpotrf, dpotrs

from .fista import _quadratic_on_line
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
    so a dataset holds at most one more copy of the CSR's size; each
    problem on a sparse operand keeps a copy of some of its columns too
    (see :class:`_ForwardProduct`).
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
        """The signed design ``diag(labels) @ features``, so that the
        margins are ``operand @ x``: each row is scaled once, by its +/-1
        label, which only flips signs, so every product is bitwise the
        unsigned one with the signs applied.  Its ``float64`` layout is the
        first that applies:

        - a dense array, so that BLAS runs the products, when that takes no
          more bytes than the CSR's ``data``, ``indices`` and ``indptr``
          arrays;
        - a CSC copy, ``features.tocsc()`` scaled in place, when there are
          more samples than features and fewer than 32 stored entries per
          sample on average: both products then loop over the few columns
          instead of the many short rows, and add the same terms in the
          same order;
        - else a CSR matrix on a new ``data`` array and the ``indices`` and
          ``indptr`` of ``features``.

        Its transpose is a view, so the dataset makes no other copy; a
        problem's forward products may keep one of at most half of a sparse
        operand's entries (see :class:`_ForwardProduct`).  A dense
        operand with ``n_features <= min(n_samples, 1000)`` also gets its
        logistic Hessian built as one ``n_features``-square Gram matrix per
        point, no larger than the operand, so that each Hessian product is one
        symmetric matvec; other operands keep the two products.  README.md's
        Objectives section gives the rule's measurements (``sweep`` in
        ``BENCH_19.json``)."""
        Z = self.features
        y = np.asarray(self.labels, dtype=float)
        csr_bytes = Z.data.nbytes + Z.indices.nbytes + Z.indptr.nbytes
        if Z.shape[0] * Z.shape[1] * np.dtype(float).itemsize <= csr_bytes:
            A = Z.toarray().astype(float, copy=False)
            A *= y[:, None]
            return A
        if Z.shape[0] > Z.shape[1] and Z.nnz < 32 * Z.shape[0]:
            A = Z.tocsc().astype(float, copy=False)
            A.data *= y[A.indices]
            return A
        data = Z.data * np.repeat(y, np.diff(Z.indptr))
        return scipy.sparse.csr_matrix((data, Z.indices, Z.indptr),
                                       shape=Z.shape)


def _product(A, v):
    """``A @ v`` without floating-point warnings: BLAS flags an overflow the
    sparse kernels pass silently, and the solvers catch non-finite oracle
    output where it enters."""
    with np.errstate(all="ignore"):
        return A @ v


class _ForwardProduct:
    """``data.operand @ v`` for one logistic problem: the margins' product
    and the first of each Hessian product's two.  On a sparse operand it is
    ``operand[:, W] @ v[W]`` by one kept copy, where ``W`` holds every
    column on which some vector multiplied so far was nonzero (NaN and inf
    count).  A skipped column would add ``data * 0.0``, an exact zero, at
    its place in each row's sum, the kept ones add theirs in the same
    order, and the features are finite, so the result is bitwise
    ``operand @ v``.  A vector nonzero outside ``W`` grows ``W`` by its
    support and rebuilds the copy; once ``W`` would hold more than half of
    the operand's stored entries, the copy is dropped and every later
    product takes the whole operand.  A dense operand keeps its BLAS
    product, whose rounding depends on the columns it spans.  The copy is
    made at the first product, and this object refers to the data only, so
    a dropped problem is freed without the cyclic garbage collector."""

    _sub = _cols = _rest = None  # the copy, W and the other columns
    _whole = False

    def __init__(self, data):
        self.data = data

    def __call__(self, v):
        if not self._whole and (self._sub is None
                                or v.take(self._rest).any()):
            self._grow(v)
        if self._whole:
            return _product(self.data.operand, v)
        return _product(self._sub, v.take(self._cols))

    def _grow(self, v):
        A = self.data.operand
        cols = v != 0
        if self._cols is not None:
            cols[self._cols] = True
        self._whole = (isinstance(A, np.ndarray)
                       or 2 * A.getnnz(axis=0)[cols].sum() > A.nnz)
        if self._whole:
            self._sub = self._cols = self._rest = None
        else:
            self._cols, self._rest = np.flatnonzero(cols), np.flatnonzero(~cols)
            self._sub = A[:, self._cols]


def _symv(S, v):
    """``S @ v`` for a C-ordered symmetric ``S`` by BLAS ``dsymv``, which reads
    one triangle and raises no floating-point warning; ``S.T`` is ``S`` in
    Fortran order, so nothing is copied."""
    return dsymv(1.0, S.T, v)


_GRAM_BLOCK = 1 << 18  # entries of one scaled row block (2 MiB)
_GRAM_MAX_FEATURES = 1000  # the widest Gram (see LogisticDataset.operand)


class _OnePointCache:
    """``state(x)`` at the last point asked for, shared by value, gradient
    and Hessian products there; the point is matched by its shape and a
    stored copy of its bytes, so mutating ``x`` in place never gives stale
    results.  With ``dim`` set, a point of another shape raises before
    anything is stored.  A logistic or log-det state is a record, a dict to
    which a value built on first use there is added, so a new point drops it
    with the rest; its state function holds the data, not the cache, so a
    dropped problem is freed at once.  The state a new point replaced is
    kept too, for :meth:`recorded`, which computes nothing; :meth:`at`
    serves only the last point's.  So a cache holds two states, and only
    the logistic ``on_line`` hook reads the older one.  Not thread-safe."""

    _key = _kept = None
    _replaced = (None, None)  # the key and state that the last point replaced

    def __init__(self, state, dim=None):
        self._state = state
        self._dim = dim

    @staticmethod
    def _key_of(x):
        x = np.asarray(x, dtype=float)
        return x, (x.shape, x.tobytes())

    def at(self, x):
        x, key = self._key_of(x)
        if key != self._key:
            if self._dim is not None and x.shape != (self._dim,):
                raise ValueError(f"expected dimension {self._dim}, got {x.shape}")
            state = self._state(x)
            self._replaced = self._key, self._kept
            self._key, self._kept = key, state
        return self._kept

    def recorded(self, x):
        """The state at ``x`` if it is the last point asked for, or the one
        before it, else None."""
        key = self._key_of(x)[1]
        for kept_key, state in ((self._key, self._kept), self._replaced):
            if key == kept_key:
                return state
        return None


def _margin_record(m):
    """The record of margins ``m = operand @ x``, ``y * (Z @ x)`` by the
    unsigned design: ``m``, ``e = exp(-|m|)``, the one exponential that
    value, gradient and Hessian read, and
    ``s = sigmoid(-m)``: ``e/(1+e)`` where ``m > 0`` and ``1/(1+e)``
    elsewhere, as ``max(e, m <= 0) / (1 + e)`` (``e <= 1``).  The exponent
    is never positive, so nothing overflows; ``m = +inf`` gives ``s = 0``,
    ``-inf`` gives 1 and NaN stays NaN."""
    e = np.exp(-np.abs(m))
    s = np.maximum(e, m <= 0.0)
    s /= 1.0 + e
    return {"m": m, "e": e, "s": s}


def _mean_loss(rec):
    """The mean of ``log1p(e) - min(m, 0)``, as ``np.mean`` forms it
    without its wrapper: the sum divided by the count."""
    loss = np.log1p(rec["e"])
    loss -= np.minimum(rec["m"], 0.0)
    return float(loss.sum() / loss.size)


class _LogisticLinearization(_OnePointCache):
    """The record of the last point asked for (see :func:`_margin_record`).
    ``A`` below is the signed operand ``diag(y) Z`` (see
    :attr:`LogisticDataset.operand`), so the margins are ``A x``, the
    gradient ``A.T s / -N`` and no oracle reads the labels.  The Hessian
    there is added to the record, as ``"hess"``, by the first product: on a
    dense operand with ``n_features <= min(n_samples, 1000)`` as the Gram
    matrix ``G = (As.T @ As) / N``, ``As = sqrt(w) * A`` with
    ``w = e / (1 + e)**2``, summed over row blocks (see :meth:`_gram`), and
    each product is ``_symv(G, v)``; on every other layout as the weights
    ``w``, and each product is ``A.T (w * (A v)) / N``.  The signs cancel in
    both, so they are ``Z``'s bit for bit.  An overflowing Gram gives NaN
    where an ``inf`` entry meets a zero of ``v``, where the two products
    might not; the solvers stop on either.  The transposed operand, a view
    in every layout, is kept from its first use.  ``A x`` and ``A v`` are
    taken by one :class:`_ForwardProduct`, which on a sparse operand keeps
    a copy of the columns used so far, at most half of its entries.
    :meth:`on_line` reads the record that the last point replaced, which
    the cache keeps."""

    def __init__(self, data):
        self._forward = _ForwardProduct(data)
        super().__init__(partial(self._record, self._forward),
                         data.n_features)
        self.data = data

    @staticmethod
    def _record(forward, x):
        return _margin_record(forward(x))

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
        """``(As.T @ As) / N`` with ``As = sw * A`` row-wise, summed over
        blocks of ``_GRAM_BLOCK // p`` rows, so that a build holds one
        2 MiB block and one block product beside ``G`` instead of a scaled
        copy of the design; each block's product is a syrk, so the sum
        stays exactly symmetric."""
        A = self.data.operand
        n, p = A.shape
        rows = max(1, _GRAM_BLOCK // max(p, 1))
        G = np.zeros((p, p))
        with np.errstate(all="ignore"):  # as _product does
            for i in range(0, n, rows):
                zb = A[i:i + rows] * sw[i:i + rows, None]
                G += zb.T @ zb
        G /= n
        return G

    def value(self, x):
        """Mean loss ``log(1 + exp(-m))`` as ``log1p(e) - min(m, 0)``,
        overflow-safe."""
        return _mean_loss(self.at(x))

    def gradient(self, x):
        """``-(1/N) Z.T (y * sigmoid(-y * Zx))``, as ``A.T s / -N``."""
        return self._gradient(self.at(x))

    def _gradient(self, rec):
        return _product(self._zt, rec["s"]) / -self.data.n_samples

    def on_line(self, x, fx, gx, c, fc, gc, beta):
        """Value and gradient at the FISTA momentum point
        ``c + beta (c - x)``, whose margins are ``m_c + beta (m_c - m_x)``
        since margins are linear in the point: one product, the gradient's,
        where evaluating the point makes two.  ``m_x`` and ``m_c`` come from
        the records of ``x`` and ``c`` that the cache keeps (see
        :class:`_OnePointCache`); without both it returns None.  The
        momentum point's record is not kept.  The other arguments are
        unused."""
        rec_x, rec_c = self.recorded(x), self.recorded(c)
        if rec_x is None or rec_c is None:
            return None
        with np.errstate(all="ignore"):  # inf - inf where margins overflow
            m = rec_c["m"] - rec_x["m"]
            m *= beta
            m += rec_c["m"]
        rec = _margin_record(m)
        return _mean_loss(rec), self._gradient(rec)

    def hess_vec(self, x, v):
        """``(1/N) A.T (w * (A v))`` with ``w = s(1-s)`` as ``e/(1+e)**2``,
        which does not cancel where ``m`` is very negative."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self._dim,):
            raise ValueError(f"expected dimension {self._dim}, got {v.shape}")
        rec = self.at(x)
        if "hess" not in rec:
            w = rec["e"] / np.square(1.0 + rec["e"])
            rec["hess"] = self._gram(np.sqrt(w)) if self._keeps_gram else w
        if self._keeps_gram:
            return _symv(rec["hess"], v)
        with np.errstate(all="ignore"):  # as _product does
            hv = self._zt @ (rec["hess"] * self._forward(v))
        return np.asarray(hv) / self.data.n_samples


def logistic_problem(data, mu):
    """Composite problem for the l1-regularized mean logistic loss.  Its
    oracles share a one-point cache, so do not share it between threads;
    its ``on_line`` hook extrapolates the FISTA momentum point's margins
    from those kept there."""
    lin = _LogisticLinearization(data)
    return CompositeProblem(value=lin.value, gradient=lin.gradient,
                            hess_vec=lin.hess_vec, dim=data.n_features, mu=mu,
                            on_line=lin.on_line)


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
    """The record of the last point asked for (see :class:`_OnePointCache`):
    the symmetrized point ``"P"``, its lower Cholesky factor ``"L"``, None
    off the cone, and ``"W" = P^{-1}`` from the first gradient or product
    there, so a solver iterate costs one factorization.  A point with a
    non-finite entry gives a NaN value, gradient and products."""

    def __init__(self, prob):
        super().__init__(partial(self._record, prob))
        self.prob = prob

    @staticmethod
    def _record(prob, x):
        with np.errstate(all="ignore"):
            P = _read_symmetric(prob, x, "Pvec")
        if not np.isfinite(P).all():
            P = np.full_like(P, np.nan)  # factors into NaN, no exception
        L, info = dpotrf(P, lower=1, clean=1)
        return {"P": P, "L": L if info == 0 else None}

    def _inverse_at(self, x, what):
        rec = self.at(x)
        if rec["L"] is None:
            raise NotPositiveDefiniteError(f"{what} requested at a non-PD point")
        if "W" not in rec:
            W = dpotrs(rec["L"], np.eye(self.prob.p), lower=1)[0]
            rec["W"] = 0.5 * (W + W.T)
        return rec["W"]

    def value(self, x):
        """``tr(S P) - log det P`` for positive definite P, else ``+inf``."""
        rec = self.at(x)
        if rec["L"] is None:
            return np.inf
        logdet = 2.0 * float(np.sum(np.log(np.diag(rec["L"]))))
        return float(np.sum(self.prob.sample_cov * rec["P"])) - logdet

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
    it between threads; it and each Hessian product ``A @ v`` are one
    :func:`_symv`, and no oracle raises a floating-point warning.  Its
    ``on_line`` hook, :func:`~sqamin.fista._quadratic_on_line`, forms the
    FISTA momentum point from the two iterates' values and gradients, with
    no product by ``A``."""
    A, b = synthetic_quadratic_matrices(n, condition, seed)
    ax = _OnePointCache(lambda x: _symv(A, x), n).at

    def value(x):
        with np.errstate(all="ignore"):  # as _product does
            return 0.5 * float(x @ ax(x)) - float(b @ x)

    def hess_vec(x, v):
        if np.shape(v) != (n,):
            raise ValueError(f"expected dimension {n}, got {np.shape(v)}")
        return _symv(A, v)
    return CompositeProblem(value=value, gradient=lambda x: ax(x) - b,
                            hess_vec=hess_vec, dim=n, mu=mu,
                            on_line=_quadratic_on_line)
