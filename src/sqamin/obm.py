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
    descent direction ``-v_F``.  The full-space product ``H d``, summed from
    those of the CG directions, is left on the model as a copy
    ``model.step_product = (d, H d)`` for the projected search.
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
    hd = np.zeros_like(v)
    p = r.copy()
    for i in range(cg_cap):
        padded = np.zeros_like(v)
        padded[free] = p
        hp = model.apply_hessian(padded)
        w = hp[free]
        curvature = float(p @ w)
        if curvature <= 0.0:
            if i == 0:
                df, hd = r.copy(), hp  # the first direction is r itself
            break
        step = rs / curvature
        df += step * p
        hd += step * hp
        r -= step * w
        rs_new = float(r @ r)
        if rs_new <= tol2:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    d[free] = df
    model.step_product = (d.copy(), hd.copy())
    return d


class ProjectedSearchResult(NamedTuple):
    point: np.ndarray
    alpha: float
    trials: int
    smooth_value: float
    smooth_grad: np.ndarray
    q_value: float
    stalled: bool


def _known_products(model, z, d):
    """``(H(z - x_ref), H d)`` when the model already holds both, else None.

    The first is there when the model's last ``smooth_eval`` was at ``z``,
    the second when ``d`` is the direction ``subspace_cg_solve`` last
    returned.  Both are matched bit for bit (faster than ``np.array_equal``)
    against the model's copies, so a point or direction changed in place
    since pays for its products.
    """
    last, step = model.last_eval, model.step_product
    if (last is None or step is None or last[0].tobytes() != z.tobytes()
            or step[0].tobytes() != d.tobytes()):
        return None
    return last[1], step[1]


def obm_projected_line_search(model, z, face, d, v, q_ref):
    """Backtrack along ``d`` with re-projection onto the face.

    Accepts the first halved step whose projected candidate satisfies the
    Armijo test against the subgradient linearization and does not increase
    the model value ``q_ref`` at ``z`` (projection can flip the sign of the
    linearized change, so the plain-decrease guard keeps the iterates
    monotone).  Returns ``z`` flagged as stalled when the step underflows.

    A trial that the projection leaves unclipped lies on the ray
    ``z + alpha d``; when the model holds ``H(z - x_ref)`` and ``H d`` (see
    :func:`_known_products`), such a trial is evaluated from them without a
    Hessian-vector product.  Every other trial pays one.
    """
    z = np.asarray(z, dtype=float)
    d = np.asarray(d, dtype=float)
    if not np.any(d):
        return ProjectedSearchResult(z, 0.0, 0, math.nan, None, q_ref, False)
    known = _known_products(model, z, d)
    alpha = 1.0
    trials = 0
    while alpha >= ALPHA_MIN:
        ray = z + alpha * d
        cand = orthant_project(ray, face)
        hdx = None
        if known is not None and np.array_equal(cand, ray):
            hdx = known[0] + alpha * known[1]
        sval, sgrad = model.smooth_eval(cand, hdx)
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
    A NaN model value at the start admits no decrease: the solve ends there
    with status ``"stalled"``.

    The start costs one Hessian-vector product, each CG iteration one, and
    each projected-search trial one unless it is an unclipped point along a
    CG direction, whose product the CG already applied.  Quasi-Newton
    directions and safeguard steps pay one per trial.
    """
    z = np.array(start, dtype=float)
    sval, sgrad = model.smooth_eval(z)
    q_z = sval + model.mu * float(np.abs(z).sum())
    q_start = q_z
    iterations = 0
    status = "iteration_cap"
    done = stop is not None and stop(z, sval, sgrad)
    if not done and math.isnan(q_z):
        return InnerResult(z, 0, 0.0, "stalled")
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
