"""Two-phase orthant-based inner solver for the piecewise quadratic model.

Each iteration identifies the orthant face spanned by the current iterate
and the minimum-norm subgradient, takes a second-order step restricted to
the face's free variables (truncated conjugate gradients against the model
Hessian, or an exact reduced quasi-Newton solve), and backtracks along the
direction with re-projection onto the face until the model decreases
sufficiently.  The l1 term is linear on each face, which is what makes the
subspace phase a smooth quadratic problem.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fista import InnerResult
from .lbfgs import lbfgs_reduced_inverse_solve
from .prox import soft_threshold

__all__ = [
    "OrthantFace",
    "orthant_face",
    "orthant_project",
    "min_norm_subgradient_from_gradient",
    "cg_budget",
    "subspace_cg_solve",
    "obm_projected_line_search",
    "ProjectedSearchResult",
    "obm_solve",
]

ARMIJO_CONSTANT = 1e-4
ALPHA_MIN = 1e-12


@dataclass(frozen=True)
class OrthantFace:
    """Sign vector defining a closed orthant face; zeros form the active set."""

    omega: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega)
        if not np.all((omega == 0) | (np.abs(omega) == 1)):
            raise ValueError("face signs must be -1, 0 or +1")

    @property
    def active_mask(self):
        return self.omega == 0

    @property
    def free_mask(self):
        return self.omega != 0

    @property
    def active_set(self):
        """Indices pinned to zero on this face."""
        return np.flatnonzero(self.omega == 0)

    def conforms(self, z):
        """True iff ``z`` lies in the face: sign-consistent, zero on actives."""
        z = np.asarray(z)
        return bool(np.all(z * self.omega >= 0) and np.all(z[self.active_mask] == 0))


def orthant_face(z, v):
    """Face spanned by the iterate's signs, broken by the steepest descent
    direction ``-v`` on zero components."""
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    if z.shape != v.shape:
        raise ValueError(f"shape mismatch: z {z.shape} vs v {v.shape}")
    omega = np.where(z != 0, np.sign(z), np.sign(-v))
    return OrthantFace(omega.astype(np.int8))


def orthant_project(w, face):
    """Euclidean projection onto the face (componentwise clipping)."""
    w = np.asarray(w, dtype=float)
    return np.where(
        face.omega > 0,
        np.maximum(w, 0.0),
        np.where(face.omega < 0, np.minimum(w, 0.0), 0.0),
    )


def min_norm_subgradient_from_gradient(u, z, mu):
    """Minimum-Euclidean-norm element of the model subdifferential at ``z``,
    given the smooth gradient ``u`` there.

    On nonzero components the l1 term contributes ``mu * sign(z_i)``; on zero
    components the contribution is the choice in ``[-mu, mu]`` that brings
    ``u_i`` closest to zero.
    """
    plus = u + mu
    minus = u - mu
    return np.where(
        z > 0,
        plus,
        np.where(
            z < 0,
            minus,
            np.where(plus < 0, plus, np.where(minus > 0, minus, 0.0)),
        ),
    )


def cg_budget(outer_k):
    """Conjugate-gradient iteration cap as a function of the outer iteration."""
    return min(3, 1 + outer_k // 10)


def subspace_cg_solve(model, face, v, cg_cap):
    """Truncated CG on the face-reduced Newton system ``H_FF d_F = -v_F``.

    Starts from zero, applies the Hessian to zero-padded directions (one
    product per CG iteration), and returns early on nonpositive curvature:
    the current iterate if any progress was made, otherwise the steepest
    descent direction ``-v_F``.
    """
    if cg_cap < 1:
        raise ValueError(f"cg_cap must be >= 1, got {cg_cap}")
    v = np.asarray(v, dtype=float)
    free = face.free_mask
    d = np.zeros_like(v)
    r = -v[free]
    rs = float(r @ r)
    if rs == 0.0 or r.size == 0:
        return d
    tol2 = max(rs * 1e-28, 1e-300)
    df = np.zeros_like(r)
    p = r.copy()
    for i in range(cg_cap):
        padded = np.zeros_like(v)
        padded[free] = p
        w = model.apply_hessian(padded)[free]
        curvature = float(p @ w)
        if curvature <= 0.0:
            if i == 0:
                df = r.copy()
            break
        step = rs / curvature
        df += step * p
        r -= step * w
        rs_new = float(r @ r)
        if rs_new <= tol2:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    d[free] = df
    return d


class ProjectedSearchResult(NamedTuple):
    point: np.ndarray
    alpha: float
    trials: int
    smooth_value: float
    smooth_grad: np.ndarray
    q_value: float
    stalled: bool


def obm_projected_line_search(model, z, face, d, v, q_ref):
    """Backtrack along ``d`` with re-projection onto the face.

    Accepts the first halved step whose projected candidate satisfies the
    Armijo test against the subgradient linearization and does not increase
    the model value ``q_ref`` at ``z`` (projection can flip the sign of the
    linearized change, so the plain-decrease guard keeps the iterates
    monotone).  Returns ``z`` flagged as stalled when the step underflows.
    """
    z = np.asarray(z, dtype=float)
    d = np.asarray(d, dtype=float)
    if not np.any(d):
        return ProjectedSearchResult(z, 0.0, 0, math.nan, None, q_ref, False)
    alpha = 1.0
    trials = 0
    while alpha >= ALPHA_MIN:
        cand = orthant_project(z + alpha * d, face)
        sval, sgrad = model.smooth_eval(cand)
        q_cand = sval + model.mu * float(np.abs(cand).sum())
        trials += 1
        linearized = float(v @ (cand - z))
        if q_cand <= q_ref + ARMIJO_CONSTANT * linearized and q_cand <= q_ref:
            return ProjectedSearchResult(cand, alpha, trials, sval, sgrad,
                                         q_cand, False)
        alpha *= 0.5
    return ProjectedSearchResult(z, 0.0, trials, math.nan, None, q_ref, True)


def _ista_safeguard(model, z, sgrad, q_ref):
    """Backtracked proximal-gradient step on the model; guarantees decrease.

    Used when the projected search stalls (face identification can produce
    arbitrarily small steps).  Returns None when no decrease is achievable,
    i.e. the iterate is numerically optimal for the model.
    """
    step = 1.0
    for _ in range(60):
        cand = soft_threshold(z - step * sgrad, step * model.mu)
        sval, sgrad_c = model.smooth_eval(cand)
        q_cand = sval + model.mu * float(np.abs(cand).sum())
        if q_cand < q_ref - 1e-15 * max(1.0, abs(q_ref)):
            return ProjectedSearchResult(cand, step, 1, sval, sgrad_c,
                                         q_cand, False)
        step *= 0.5
    return None


def obm_solve(model, start, stop, outer_k, store=None, max_iter=200):
    """Minimize the model by orthant-face identification plus subspace steps.

    The subspace phase runs truncated conjugate gradients with the
    outer-iteration budget ``min(3, 1 + outer_k // 10)``, or, given a
    quasi-Newton ``store``, solves that store's reduced system exactly.
    ``stop`` has the signature ``stop(z, smooth_value, smooth_grad)`` and is
    checked at the start and after every accepted iterate.  Model values are
    nonincreasing along the iterates; a stalled projected search falls back
    to a proximal-gradient step with guaranteed decrease before giving up.
    """
    z = np.array(start, dtype=float)
    sval, sgrad = model.smooth_eval(z)
    q_z = sval + model.mu * float(np.abs(z).sum())
    q_start = q_z
    iterations = 0
    status = "iteration_cap"
    done = stop is not None and stop(z, sval, sgrad)
    while not done and iterations < max_iter:
        v = min_norm_subgradient_from_gradient(sgrad, z, model.mu)
        face = orthant_face(z, v)
        if store is None:
            d = subspace_cg_solve(model, face, v, cg_budget(outer_k))
        else:
            d = lbfgs_reduced_inverse_solve(store, face, v, model.tally)
        if np.any(d):
            outcome = obm_projected_line_search(model, z, face, d, v, q_ref=q_z)
        else:
            outcome = ProjectedSearchResult(z, 0.0, 0, sval, sgrad, q_z, True)
        if outcome.stalled:
            outcome = _ista_safeguard(model, z, sgrad, q_z)
            if outcome is None:
                status = "stalled"
                break
        z, sval, sgrad, q_z = (outcome.point, outcome.smooth_value,
                               outcome.smooth_grad, outcome.q_value)
        iterations += 1
        done = stop is not None and stop(z, sval, sgrad)
    if done:
        status = "converged"
    return InnerResult(z, iterations, q_start - q_z, status)
