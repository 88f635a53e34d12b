"""Limited-memory BFGS pairs with compact-form Hessian and reduced solves.

The store keeps at most ``memory`` curvature-guarded correction pairs from
outer-iteration differences.  The implied Hessian approximation ``B`` (base
``sigma * I`` with ``sigma = y@y / s@y`` of the newest pair) is applied
through the compact low-rank representation

    B = sigma*I - U W^{-1} U.T,   U = [sigma*S  Y],
    W = [[sigma*S.T@S, L], [L.T, -D]],

with ``D`` the diagonal and ``L`` the strictly lower triangle of ``S.T@Y``.
Reduced solves restricted to the free variables of an orthant face invert
``B_FF = sigma*I - U_F W^{-1} U_F.T`` via the Sherman-Morrison-Woodbury
identity, which needs only one dense factorization of size at most
``2*memory`` and never forms an n-by-n matrix.
"""

import numpy as np
import scipy.linalg

__all__ = ["LbfgsStore", "lbfgs_update", "lbfgs_reduced_inverse_solve"]

CURVATURE_GUARD = 1e-10


class LbfgsStore:
    """Correction pairs plus refreshed compact factors."""

    def __init__(self, memory=50):
        if memory < 1:
            raise ValueError(f"memory must be positive, got {memory}")
        self.memory = memory
        self._s = []
        self._y = []
        self.gamma_scale = 1.0  # inverse-Hessian base scale, s@y / y@y
        self._U = None
        self._W_lu = None
        self._W = None

    def __len__(self):
        return len(self._s)

    @property
    def sigma(self):
        """Base scale of the direct Hessian approximation."""
        return 1.0 / self.gamma_scale

    def update(self, s, y):
        """Append a pair unless it fails the curvature guard.

        Returns True if the pair was stored.  Skipped pairs leave the store
        (and its factors) untouched.
        """
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        if s.shape != y.shape:
            raise ValueError("s and y dimensions differ")
        sy = float(s @ y)
        if sy <= CURVATURE_GUARD * float(np.linalg.norm(s) * np.linalg.norm(y)):
            return False
        self._s.append(s.copy())
        self._y.append(y.copy())
        if len(self._s) > self.memory:
            self._s.pop(0)
            self._y.pop(0)
        self.gamma_scale = sy / float(y @ y)
        self._refresh()
        return True

    def _refresh(self):
        S = np.stack(self._s, axis=1)
        Y = np.stack(self._y, axis=1)
        m = S.shape[1]
        sigma = self.sigma
        SY = S.T @ Y
        D = np.diag(np.diag(SY))
        Lmat = np.tril(SY, -1)
        W = np.empty((2 * m, 2 * m))
        W[:m, :m] = sigma * (S.T @ S)
        W[:m, m:] = Lmat
        W[m:, :m] = Lmat.T
        W[m:, m:] = -D
        self._U = np.hstack([sigma * S, Y])
        self._W = W
        self._W_lu = scipy.linalg.lu_factor(W)

    def hessian_vec(self, v):
        """Apply the direct approximation ``B`` to ``v``."""
        v = np.asarray(v, dtype=float)
        if not self._s:
            return v.copy()
        coeff = scipy.linalg.lu_solve(self._W_lu, self._U.T @ v)
        return self.sigma * v - self._U @ coeff


def lbfgs_update(store, s, y, tally=None):
    """Curvature-guarded store update; skips are flagged in the telemetry."""
    accepted = store.update(s, y)
    if not accepted and tally is not None:
        tally.lbfgs_skipped_updates += 1
    return store


def lbfgs_reduced_inverse_solve(store, face, v, tally=None):
    """Exact Newton direction on the free variables of an orthant face.

    Returns ``d`` with ``d_F = -(B_FF)^{-1} v_F`` and zeros on the active
    set, where ``B_FF`` is the free principal block of the store's Hessian
    approximation.  A singular reduced system falls back to scaled steepest
    descent, flagged in the telemetry.
    """
    v = np.asarray(v, dtype=float)
    free = face.free_mask
    d = np.zeros_like(v)
    if not np.any(free):
        return d
    vf = v[free]
    sigma = store.sigma
    if len(store) == 0:
        d[free] = -vf / sigma
        return d
    Uf = store._U[free, :]
    M = store._W - (Uf.T @ Uf) / sigma
    try:
        coeff = scipy.linalg.solve(M, Uf.T @ vf)
        df = -(vf / sigma + (Uf @ coeff) / sigma**2)
    except (scipy.linalg.LinAlgError, ValueError):
        if tally is not None:
            tally.lbfgs_fallback_solves += 1
        df = -vf / sigma
    d[free] = df
    return d
