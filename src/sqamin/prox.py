"""Soft-thresholding, the proximal-gradient step, and semi-smooth optimality residuals.

The residual map F measures how far a point is from satisfying the first-order
optimality conditions of ``min f(x) + mu*||x||_1``: it vanishes exactly at
minimizers, and the proximal-gradient (ISTA) displacement obeys
``||ista_point(x, g, tau, mu) - x|| = tau * ||residual(x, g, tau, mu)||``.
"""

import numpy as np

__all__ = [
    "soft_threshold",
    "ista_point",
    "residual",
    "is_optimal",
]


def soft_threshold(v, t):
    """Componentwise shrinkage of ``v`` toward zero by ``t``.

    Solves ``argmin_x 0.5*(x - v_i)**2 + t*|x|`` in closed form for each
    component.
    """
    if t < 0:
        raise ValueError(f"shrinkage amount must be nonnegative, got {t}")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def ista_point(x, g, tau, mu):
    """Exact minimizer of the first-order prox model around ``x``.

    Returns ``argmin_z g @ (z - x) + ||z - x||**2 / (2*tau) + mu*||z||_1``,
    which is ``soft_threshold(x - tau*g, tau*mu)``.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if x.shape != g.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs g {g.shape}")
    return soft_threshold(x - tau * g, tau * mu)


def residual(x, g, tau, mu):
    """Semi-smooth optimality residual ``g - clip(g - x/tau, -mu, +mu)``.

    Zero exactly at points satisfying the subdifferential optimality
    conditions of the l1-regularized problem with smooth gradient ``g``.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if x.shape != g.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs g {g.shape}")
    return g - np.clip(g - x / tau, -mu, mu)


def is_optimal(Fx, tol_inf):
    """True iff the max-norm of the residual is at or below ``tol_inf``."""
    Fx = np.asarray(Fx)
    if Fx.size == 0:
        return True
    return float(np.max(np.abs(Fx))) <= tol_inf
