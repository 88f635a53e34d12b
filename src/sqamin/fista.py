"""Monotone accelerated proximal gradient method with backtracking curvature.

Generic over the smooth part: the same routine minimizes the per-iteration
quadratic model (smooth evaluations cost one Hessian-vector product each) or
the original composite objective (smooth evaluations cost one
function/gradient call each).  The classical accelerated scheme is made
monotone by falling back to a plain proximal step from the current iterate
whenever the accelerated candidate would increase the objective; this keeps
objective decrease available at any stopping time.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["InnerResult", "fista_composite"]

_BACKTRACK_GROWTH = 2.0
_CURVATURE_LIMIT = 1e30


class _CurvatureDiverged(Exception):
    """Curvature backtracking passed its limit."""


@dataclass
class InnerResult:
    """Outcome of one inner minimization."""

    solution: np.ndarray
    inner_iterations: int
    model_decrease: float
    status: str
    lipschitz: float = float("nan")
    monotone_fallbacks: int = 0


def _backtracked_prox_step(smooth, prox, y, fy, gy, L):
    """Largest-step proximal move from ``y`` passing the curvature test.

    Doubles ``L`` until the smooth part at the candidate is bounded by its
    quadratic upper model at ``y``; an infinite candidate value (outside the
    smooth domain) also triggers doubling, since the bound is finite.
    """
    while True:
        cand = prox(y - gy / L, 1.0 / L)
        fc, gc = smooth(cand)
        d = cand - y
        bound = fy + float(gy @ d) + 0.5 * L * float(d @ d)
        if fc <= bound + 1e-12 * max(1.0, abs(bound)):
            return cand, fc, gc, L
        L *= _BACKTRACK_GROWTH
        if L > _CURVATURE_LIMIT:
            raise _CurvatureDiverged


def fista_composite(smooth, penalty, prox, start, stop=None, max_iter=1000,
                    lipschitz0=1.0):
    """Minimize ``smooth(x) + penalty(x)`` by accelerated proximal descent.

    Parameters
    ----------
    smooth : callable
        ``smooth(x) -> (value, gradient)``.  May return ``(inf, None)`` for
        points outside the domain; the momentum point is then reset to the
        last accepted iterate.
    penalty : callable
        Nonsmooth term value, e.g. ``mu * ||x||_1``.
    prox : callable
        ``prox(v, t)`` solving ``argmin_x ||x - v||**2 / (2 t) + penalty(x)``.
    start : ndarray
        Initial point; must be in the smooth domain.
    stop : callable, optional
        ``stop(x, smooth_value, smooth_gradient)`` evaluated at the start
        and after every accepted iterate; a truthy return ends the run.
    max_iter : int
        Iteration cap; reaching it is a status, not an error.  So is a
        diverged curvature backtracking (``"line_search_failed"``).
    lipschitz0 : float
        Initial curvature estimate; only ever increased.

    Evaluation counting is the caller's job, through the ``smooth`` callable.
    Each regular iteration evaluates ``smooth`` exactly twice (once at the
    momentum point, once at the candidate); curvature backtracking and the
    monotone fallback add evaluations only when they trigger.
    """
    x = np.array(start, dtype=float)
    fx, gx = smooth(x)
    if not math.isfinite(fx):
        raise ValueError("start point lies outside the smooth domain")
    if stop is not None and stop(x, fx, gx):
        return InnerResult(x, 0, 0.0, "converged", lipschitz0)
    qx = fx + penalty(x)
    q_start = qx
    L = max(float(lipschitz0), 1e-12)
    y, fy, gy = x, fx, gx
    t = 1.0
    iterations = 0
    fallbacks = 0
    status = "iteration_cap"
    try:
        for _ in range(max_iter):
            if not math.isfinite(fy):
                y, fy, gy = x, fx, gx
                t = 1.0
            cand, fc, gc, L = _backtracked_prox_step(smooth, prox, y, fy, gy, L)
            qc = fc + penalty(cand)
            if qc > qx and y is not x:
                # Monotone fallback: redo the step from the accepted iterate.
                fallbacks += 1
                y, fy, gy = x, fx, gx
                t = 1.0
                cand, fc, gc, L = _backtracked_prox_step(smooth, prox, y, fy, gy, L)
                qc = fc + penalty(cand)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y_next = cand + ((t - 1.0) / t_next) * (cand - x)
            x, fx, gx, qx = cand, fc, gc, qc
            iterations += 1
            if stop is not None and stop(x, fx, gx):
                status = "converged"
                break
            t = t_next
            y = y_next
            fy, gy = smooth(y)
    except _CurvatureDiverged:
        status = "line_search_failed"
    return InnerResult(x, iterations, q_start - qx, status, L, fallbacks)
