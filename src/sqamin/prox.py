"""Soft-thresholding and semi-smooth optimality residuals.

The residual map F measures how far a point is from satisfying the first-order
optimality conditions of ``min f(x) + mu*||x||_1``: it vanishes exactly at
minimizers, and the proximal-gradient (ISTA) point
``z = soft_threshold(x - tau*g, tau*mu)`` obeys
``||z - x|| = tau * ||residual(x, g, tau, mu)||``.
"""

import numpy as np

__all__ = [
    "l1_penalty",
    "soft_threshold",
    "residual",
]


def l1_penalty(x, mu):
    """The l1 term ``mu * ||x||_1``, the one place the solvers form it."""
    return mu * float(np.abs(x).sum())


def soft_threshold(v, t):
    """Componentwise shrinkage of ``v`` toward zero by ``t``.

    Solves ``argmin_x 0.5*(x - v_i)**2 + t*|x|`` in closed form for each
    component.
    """
    if not t >= 0:  # NaN fails too
        raise ValueError(f"shrinkage amount must be nonnegative, got {t}")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def residual(x, g, tau, mu):
    """Semi-smooth optimality residual ``g - clip(g - x/tau, -mu, +mu)``.

    Zero exactly at points satisfying the subdifferential optimality
    conditions of the l1-regularized problem with smooth gradient ``g``.
    """
    if not tau > 0:  # NaN fails too
        raise ValueError(f"tau must be positive, got {tau}")
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if x.shape != g.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs g {g.shape}")
    # minimum/maximum keep their second operand on ties, as np.clip does x
    return g - np.minimum(mu, np.maximum(-mu, g - x / tau))

