"""Monotone accelerated proximal gradient method with backtracking curvature.

Generic over the smooth part: the same routine minimizes the per-iteration
quadratic model (smooth evaluations cost one Hessian-vector product each) or
the original composite objective (smooth evaluations cost one
function/gradient call each).  The momentum point lies on the line through
the last two iterates, and an ``on_line`` hook may form its value and
gradient from what is known there instead of a smooth evaluation: on an
exact quadratic from the two iterates' values and gradients
(:func:`_quadratic_on_line`), on a logistic loss from their margins.  The
classical accelerated scheme is made monotone by falling back to a plain
proximal step from the current iterate whenever the accelerated candidate
would increase the objective; this keeps objective decrease available at
any stopping time.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .prox import l1_penalty

__all__ = ["InnerResult", "fista_composite"]

_BACKTRACK_GROWTH = 2.0
_CURVATURE_LIMIT = 1e30


class _CurvatureDiverged(Exception):
    """Curvature backtracking passed its limit or met a NaN value."""


@dataclass
class InnerResult:
    """Outcome of one inner minimization."""

    solution: np.ndarray
    inner_iterations: int
    model_decrease: float
    status: str
    lipschitz: float = float("nan")
    monotone_fallbacks: int = 0


def _backtracked_prox_step(smooth, mu, shrink, y, fy, gy, L):
    """Largest-step proximal move from ``y`` passing the curvature test.

    Doubles ``L`` until the smooth part at the candidate is bounded by its
    quadratic upper model at ``y``; an infinite candidate value (outside the
    smooth domain) also triggers doubling, since the bound is finite, and a
    NaN one ends the search, since no curvature can pass it.
    """
    while True:
        cand = shrink(y - gy / L, (1.0 / L) * mu)
        fc, gc = smooth(cand)
        if math.isnan(fc):
            raise _CurvatureDiverged
        d = cand - y
        bound = fy + float(gy @ d) + 0.5 * L * float(d @ d)
        if fc <= bound + 1e-12 * max(1.0, abs(bound)):
            return cand, fc, gc, L
        L *= _BACKTRACK_GROWTH
        if L > _CURVATURE_LIMIT:
            raise _CurvatureDiverged


def _quadratic_on_line(x, fx, gx, c, fc, gc, beta):
    """Value and gradient of a quadratic at ``c + beta (c - x)``, that is
    ``x + s (c - x)`` with ``s = 1 + beta``, from its values and gradients
    at ``x`` and ``c``: an ``on_line`` hook of :func:`fista_composite`.

    The gradient is affine, so it moves by ``s (gc - gx)``, and
    ``(gc - gx) @ (c - x)`` is the curvature along the line.
    """
    s = 1.0 + beta
    e = c - x
    dg = gc - gx
    value = fx + s * float(gx @ e) + 0.5 * s * s * float(dg @ e)
    return value, gx + s * dg


def fista_composite(smooth, mu, shrink, start, stop, max_iter=1000,
                    lipschitz0=1.0, on_line=None):
    """Minimize ``smooth(x) + mu * ||x||_1`` by accelerated proximal descent.

    Parameters
    ----------
    smooth : callable
        ``smooth(x) -> (value, gradient)``.  May return ``(inf, None)`` for
        points outside the domain; the momentum point is then reset to the
        last accepted iterate.
    mu : float
        Weight of the l1 term, formed by :func:`~sqamin.prox.l1_penalty`.
    shrink : callable
        The l1 prox :func:`~sqamin.prox.soft_threshold` (or a wrapper of
        it), called once per curvature trial as ``shrink(v, (1 / L) * mu)``.
    start : tuple
        ``(x, value, gradient)``: the initial point with its smooth value and
        gradient, both finite.  The caller evaluates and checks the start,
        so it costs no evaluation here.
    stop : callable
        ``stop(x, smooth_value, smooth_gradient, penalty)`` evaluated after
        every accepted iterate, ``penalty`` being the l1 term at ``x`` that
        the monotone test formed; a truthy return ends the run.
    max_iter : int
        Iteration cap; reaching it is a status, not an error.  So is a
        diverged or NaN curvature backtracking (``"line_search_failed"``,
        or ``"nonfinite_oracle"`` if it stepped from a non-finite gradient).
    lipschitz0 : float
        Initial curvature estimate; only ever increased.
    on_line : callable, optional
        ``on_line(x, fx, gx, c, fc, gc, beta) -> (value, gradient) | None``,
        called after the stop test when another iteration follows, with the
        previous iterate ``x``, the new one ``c`` (each with its smooth value
        and gradient) and the momentum weight ``beta``.  It returns the smooth
        value and gradient at the momentum point ``c + beta (c - x)``, or
        None, and then that point is evaluated by ``smooth`` as without a
        hook (unless ``beta`` is 0: the point is then ``c``).  A
        :class:`~sqamin.model.QuadraticModel` takes
        :func:`_quadratic_on_line`.

    Evaluation counting is the caller's job, through the ``smooth`` and
    ``on_line`` callables.  Each regular iteration evaluates ``smooth``
    twice, once at the momentum point and once at the candidate, or only at
    the candidate when ``on_line`` answers: on the model that is one
    Hessian-vector product per iteration.  After a step with zero momentum
    (``t = 1``: the first and each restart) the momentum point is the
    candidate, and costs none; the last iteration forms none.  Curvature
    backtracking and the monotone fallback add evaluations only on trigger.
    """
    x, fx, gx = start
    qx = fx + l1_penalty(x, mu)
    q_start = qx
    L = max(float(lipschitz0), 1e-12)
    prox_step = partial(_backtracked_prox_step, smooth, mu, shrink)
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
            cand, fc, gc, L = prox_step(y, fy, gy, L)
            pc = l1_penalty(cand, mu)
            qc = fc + pc
            if qc > qx and y is not x:
                # Monotone fallback: redo the step from the accepted iterate.
                fallbacks += 1
                y, fy, gy = x, fx, gx
                t = 1.0
                cand, fc, gc, L = prox_step(y, fy, gy, L)
                pc = l1_penalty(cand, mu)
                qc = fc + pc
            previous = x, fx, gx
            x, fx, gx, qx = cand, fc, gc, qc
            iterations += 1
            if stop(x, fx, gx, pc):
                status = "converged"
                break
            if iterations == max_iter:  # no later step reads a momentum point
                break
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            y = x + beta * (x - previous[0])
            t = t_next
            momentum = (None if on_line is None
                        else on_line(*previous, x, fx, gx, beta))
            if momentum is None:  # beta == 0 puts y on x
                momentum = (fx, gx) if beta == 0.0 else smooth(y)
            fy, gy = momentum
    except _CurvatureDiverged:  # gy is scanned here, not per evaluation
        finite = np.isfinite(gy).all()
        status = "line_search_failed" if finite else "nonfinite_oracle"
    return InnerResult(x, iterations, q_start - qx, status, L, fallbacks)
