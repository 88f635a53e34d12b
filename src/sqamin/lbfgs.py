"""Limited-memory BFGS pairs with compact-form Hessian and reduced solves.

The store keeps at most ``memory`` curvature-guarded correction pairs from
outer-iteration differences.  The implied Hessian approximation ``B`` (base
``sigma * I`` with ``sigma = y@y / s@y`` of the newest pair) is the compact
representation of Byrd, Nocedal and Schnabel (1994)

    B = sigma*I - U W^{-1} U.T,   U = [sigma*S  Y],
    W = [[sigma*S.T@S, L], [L.T, -D]],

with ``D`` the diagonal and ``L`` the strictly lower triangle of ``S.T@Y``,
the pairs taken oldest first.

The pairs live in two ``memory``-by-n ring buffers, one row per pair, and a
new pair overwrites the oldest row.  Chronological order lives only in an
age index per row, which fixes ``L`` and ``D``; the small matrices are kept
in buffer-row order, which permutes ``W`` symmetrically and leaves ``B`` as
it is.
The Grams ``S.T@S`` and ``S.T@Y`` are ``memory``-square arrays, and each
accepted pair rewrites one row and one column of each at O(n*memory) cost.
``U`` and ``W`` are never formed.  Products with ``B`` solve ``W`` by block
elimination on ``D``, which needs one Cholesky factor per accepted pair, of
the SPD matrix ``sigma*S.T@S + L D^{-1} L.T``.

Reduced solves on the free variables ``F`` of an orthant face (``A`` the
active ones) invert ``B_FF`` by the Sherman-Morrison-Woodbury identity,
whose middle matrix ``W - U_F.T@U_F/sigma`` has the blocks

    P = sigma*S_A.T@S_A,   Q = L - S_F.T@Y_F,   -N = -(D + Y_F.T@Y_F/sigma).

Eliminating on the SPD ``N`` leaves the Schur complement ``P + Q N^{-1} Q.T``,
SPD whenever ``B_FF`` is, so a solve takes two ``memory``-square Choleskys
and never forms an n-by-n matrix.  Each block is formed from the columns
it names, so none needs cancellation.  The store counts, per column, the
stored steps that are nonzero there, and ``P`` is gathered only over the
active columns where that count is positive: the others add exact zeros.
Everything else, the right-hand sides and the back-substitution included,
runs over the columns of ``F`` alone.
"""

import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

__all__ = ["LbfgsStore", "lbfgs_reduced_inverse_solve"]

CURVATURE_GUARD = 1e-10


# The systems are at most ``memory`` square, so the LAPACK routines are
# called directly: scipy.linalg's checking wrappers cost more than the work.
def _cholesky(A):
    """Lower Cholesky factor of a symmetric matrix; LinAlgError unless SPD."""
    R, info = dpotrf(A, lower=1, clean=1)
    if info != 0:
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return R


def _cho_solve(R, b):
    """Solve ``R R.T x = b`` for a lower Cholesky factor ``R``."""
    return dpotrs(R, b, lower=1)[0]


def _lower_solve(R, b, trans=0):
    """Solve ``R x = b`` (``R.T x = b`` if ``trans``) for lower-triangular ``R``."""
    return dtrtrs(R, b, lower=1, trans=trans)[0]


class LbfgsStore:
    """Correction pairs in ring buffers plus their compact-form factors."""

    def __init__(self, memory=50):
        if memory < 1:
            raise ValueError(f"memory must be positive, got {memory}")
        self.memory = memory
        self.gamma_scale = 1.0  # inverse-Hessian base scale, s@y / y@y
        self._S = self._Y = None  # memory-by-n ring buffers, allocated lazily
        self._support = None  # per column, the stored steps nonzero there
        self._SS = np.zeros((memory, memory))
        self._SY = np.zeros((memory, memory))  # _SY[i, j] = s_i @ y_j
        self._age = np.zeros(memory, dtype=np.int64)
        self._count = 0  # pairs accepted so far; the next one's age
        self._L = None  # strictly-lower part of S.T@Y by age, row order
        self._d = None  # diagonal of S.T@Y
        self._C_chol = None  # lower factor of sigma*S.T@S + L D^{-1} L.T

    def __len__(self):
        return min(self._count, self.memory)

    @property
    def sigma(self):
        """Base scale of the direct Hessian approximation."""
        return 1.0 / self.gamma_scale

    def update(self, s, y):
        """Append a pair unless it fails the curvature guard.

        Returns True if the pair was stored.  Skipped pairs leave the store
        (and its factors) untouched, and so does a pair whose factor fails,
        which raises LinAlgError.
        """
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        if s.shape != y.shape:
            raise ValueError("s and y dimensions differ")
        sy, ss, yy = float(s @ y), float(s @ s), float(y @ y)
        # the product of np.linalg.norm(s) and np.linalg.norm(y), bit for bit
        if sy <= CURVATURE_GUARD * (math.sqrt(ss) * math.sqrt(yy)):
            return False
        if self._S is None:
            self._S = np.zeros((self.memory, s.size))
            self._Y = np.zeros((self.memory, s.size))
            self._support = np.zeros(s.size, dtype=np.int64)
        slot = self._count % self.memory  # the oldest row once full
        k = min(self._count + 1, self.memory)
        # the new Grams, L, D and factor are built on copies and stored only
        # once the factor exists; row ``slot`` of S and Y is still the old
        # pair, so the diagonal entries are set from the new one
        S, Y = self._S[:k], self._Y[:k]
        SS, SY = self._SS[:k, :k].copy(), self._SY[:k, :k].copy()
        SS[slot] = SS[:, slot] = S @ s
        SY[:, slot] = S @ y
        SY[slot] = Y @ s
        SS[slot, slot], SY[slot, slot] = ss, sy
        age = self._age[:k].copy()
        age[slot] = self._count
        L = np.where(age[:, None] > age[None, :], SY, 0.0)
        d = SY.diagonal().copy()
        gamma_scale = sy / yy
        C_chol = _cholesky((1.0 / gamma_scale) * SS + (L / d) @ L.T)
        self._support -= self._S[slot] != 0
        self._support += s != 0
        self._S[slot] = s
        self._Y[slot] = y
        self._SS[:k, :k], self._SY[:k, :k] = SS, SY
        self._age[slot] = self._count
        self._count += 1
        self.gamma_scale = gamma_scale
        self._L, self._d, self._C_chol = L, d, C_chol
        return True

    def hessian_vec(self, v):
        """Apply the direct approximation ``B`` to ``v``."""
        v = np.asarray(v, dtype=float)
        k = len(self)
        if k == 0:
            return v.copy()
        S, Y = self._S[:k], self._Y[:k]
        sigma, L, d = self.sigma, self._L, self._d
        q = Y @ v
        x = _cho_solve(self._C_chol, sigma * (S @ v) + L @ (q / d))
        y = (L.T @ x - q) / d
        return sigma * v - S.T @ (sigma * x) - Y.T @ y


def lbfgs_reduced_inverse_solve(store, face, v, tally=None):
    """Exact Newton direction on the free variables of an orthant face.

    Returns ``d`` with ``d_F = -(B_FF)^{-1} v_F`` and zeros on the active
    set, where ``B_FF`` is the free principal block of the store's Hessian
    approximation.  A reduced system that cannot be Cholesky factored falls
    back to scaled steepest descent, flagged in the telemetry.
    """
    v = np.asarray(v, dtype=float)
    free = face.free_mask
    d = np.zeros_like(v)
    if not free.any():
        return d
    vf = v[free]
    sigma = store.sigma
    k = len(store)
    if k == 0:
        d[free] = -vf / sigma
        return d
    S, Y = store._S[:k], store._Y[:k]
    # taking index arrays gathers columns of the row buffers faster than a
    # boolean mask does; an active column where every stored step is zero
    # adds only zeros to P
    S_A = S.take(np.flatnonzero((store._support > 0) & ~free), axis=1)
    P = sigma * (S_A @ S_A.T)
    free_ix = np.flatnonzero(free)
    S_F, Y_F = S.take(free_ix, axis=1), Y.take(free_ix, axis=1)
    Q = store._L - S_F @ Y_F.T
    N = (Y_F @ Y_F.T) / sigma
    N.flat[::k + 1] += store._d
    p = sigma * (S_F @ vf)
    q = Y_F @ vf
    try:
        R_N = _cholesky(N)
        # N^{-1} Q.T = R_N^{-T} G and N^{-1} q = R_N^{-T} h
        Gh = _lower_solve(R_N, np.column_stack([Q.T, q]))
        G, h = Gh[:, :k], Gh[:, k]
        x = _cho_solve(_cholesky(P + G.T @ G), p + G.T @ h)
        y = _lower_solve(R_N, G @ x - h, trans=1)
    except np.linalg.LinAlgError:
        if tally is not None:
            tally.lbfgs_fallback_solves += 1
        d[free] = -vf / sigma
        return d
    w = S_F.T @ x + Y_F.T @ (y / sigma)
    d[free] = -(vf + w) / sigma
    return d
