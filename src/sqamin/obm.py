"""Two-phase orthant-based inner solver for the piecewise quadratic model.

Each iteration identifies the orthant face spanned by the current iterate
and the minimum-norm subgradient, takes a second-order step restricted to
the face's free variables (truncated conjugate gradients against the model
Hessian, or an exact reduced quasi-Newton solve), and backtracks along the
direction with re-projection onto the face until the model decreases
sufficiently.  The l1 term is linear on each face, which is what makes the
subspace phase a smooth quadratic problem.  A face is the int8 sign vector
of :func:`orthant_face`; zeros are the active set.
"""

import math
from typing import NamedTuple, Optional

import numpy as np

from .fista import InnerResult
from .lbfgs import lbfgs_reduced_inverse_solve
from .prox import l1_penalty, soft_threshold

__all__ = [
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


def orthant_face(z, v):
    """Face spanned by the iterate's signs, broken by the steepest descent
    direction ``-v`` on zero components, as its int8 sign vector."""
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    if z.shape != v.shape:
        raise ValueError(f"shape mismatch: z {z.shape} vs v {v.shape}")
    return np.sign(np.where(z != 0, z, -v)).astype(np.int8)


def orthant_project(w, face):
    """Euclidean projection onto the face (componentwise clipping); a NaN
    component projects to 0."""
    w = np.asarray(w, dtype=float)
    return np.where(face * w > 0, w, 0.0)


def min_norm_subgradient_from_gradient(u, z, mu):
    """Minimum-Euclidean-norm element of the model subdifferential at ``z``,
    given the smooth gradient ``u`` there.

    On nonzero components the l1 term contributes ``mu * sign(z_i)``; on zero
    components the contribution is the choice in ``[-mu, mu]`` that brings
    ``u_i`` closest to zero, ``-clip(u_i, -mu, mu)``.  A NaN in ``u`` stays
    NaN on every component.
    """
    # minimum and maximum return their second operand on ties, so this
    # keeps np.clip's signed zeros; copysign(mu, -z) is -mu * sign(z)
    clipped = np.minimum(mu, np.maximum(-mu, u))
    return u - np.where(z == 0, clipped, np.copysign(mu, -z))


def cg_budget(outer_k):
    """Conjugate-gradient iteration cap as a function of the outer iteration."""
    return min(3, 1 + outer_k // 10)


def subspace_cg_solve(model, face, v, cg_cap):
    """Truncated CG on the face-reduced Newton system ``H_FF d_F = -v_F``.

    Starts from zero, applies the Hessian to each direction zero-padded in
    one reused buffer (one product per CG iteration), and returns early on
    nonpositive or NaN curvature: the current iterate if any progress was
    made, otherwise the steepest descent direction ``-v_F``.  Returns
    ``(d, H d)``, the full-space product summed from those of the CG
    directions, in arrays of its own; the model is left as it was.
    """
    if cg_cap < 1:
        raise ValueError(f"cg_cap must be >= 1, got {cg_cap}")
    v = np.asarray(v, dtype=float)
    free = face.nonzero()[0]
    d = np.zeros(v.shape)
    hd = np.zeros(v.shape)
    r = -v.take(free)
    rs = float(r @ r)
    if rs == 0.0 or r.size == 0:
        return d, hd
    tol2 = max(rs * 1e-28, 1e-300)
    df = np.zeros(r.shape)
    padded = np.zeros(v.shape)  # zero off the face for every direction
    p = r.copy()
    for i in range(cg_cap):
        padded.put(free, p)
        hp = model.apply_hessian(padded)
        w = hp.take(free)
        curvature = float(p @ w)
        if not curvature > 0.0:
            if i == 0:  # the first direction is r itself
                df, hd = r, hp.copy()
            break
        step = rs / curvature
        df += step * p
        hd += step * hp
        if i + 1 == cg_cap:  # the residual would go unused
            break
        r -= step * w
        rs_new = float(r @ r)
        if rs_new <= tol2:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    d.put(free, df)
    return d, hd


class ProjectedSearchResult(NamedTuple):
    point: np.ndarray
    alpha: float
    trials: int
    smooth_value: float
    smooth_grad: np.ndarray
    q_value: float
    stalled: bool
    product: Optional[np.ndarray] = None  # H(point - x_ref) when accepted


def obm_projected_line_search(model, z, face, d, v, q_ref):
    """Backtrack along ``d`` with re-projection onto the face.

    Accepts the first halved step whose projected candidate satisfies the
    Armijo test against the subgradient linearization and does not increase
    the model value ``q_ref`` at ``z`` (projection can flip the sign of the
    linearized change, so the plain-decrease guard keeps the iterates
    monotone).  Returns ``z``, stalled, when the step underflows, and at
    once with a NaN ``q_value`` at a NaN trial.  A zero ``d``, which
    :func:`obm_solve` never passes, raises ``ValueError``.

    A trial that the projection leaves unclipped lies on the ray
    ``z + alpha d``.  When ``model.search_products`` holds
    ``(z, H(z - x_ref), d, H d)`` for these very ``z`` and ``d`` objects,
    such a trial is evaluated from those products without a Hessian-vector
    product; every other trial pays one.  The slot is cleared on entry,
    whether it matched or not.  An accepted point carries its product.
    """
    handed, model.search_products = model.search_products, None
    known = None
    if handed is not None and handed[0] is z and handed[2] is d:
        known = handed[1], handed[3]
    z = np.asarray(z, dtype=float)
    d = np.asarray(d, dtype=float)
    if not d.any():
        raise ValueError("line search direction is zero")
    alpha = 1.0
    trials = 0
    while alpha >= ALPHA_MIN:
        ray = z + alpha * d
        cand = orthant_project(ray, face)
        on_ray = known is not None and (cand == ray).all()
        hdx = (known[0] + alpha * known[1] if on_ray
               else model.apply_hessian(cand - model.x_ref))
        sval, sgrad = model.smooth_eval(cand, hdx)
        q_cand = sval + l1_penalty(cand, model.mu)
        trials += 1
        if math.isnan(q_cand):
            return ProjectedSearchResult(z, 0.0, trials, math.nan, None,
                                         math.nan, True)
        linearized = float(v @ (cand - z))
        if q_cand <= q_ref + ARMIJO_CONSTANT * linearized and q_cand <= q_ref:
            # an oracle's product is copied: it may reuse its output array
            return ProjectedSearchResult(cand, alpha, trials, sval, sgrad,
                                         q_cand, False,
                                         hdx if on_ray else hdx.copy())
        alpha *= 0.5
    return ProjectedSearchResult(z, 0.0, trials, math.nan, None, q_ref, True)


def _ista_safeguard(model, z, sgrad, q_ref):
    """Backtracked proximal-gradient step on the model; guarantees decrease.

    Used when the projected search stalls (face identification can produce
    arbitrarily small steps).  Returns None when no decrease is achievable:
    the iterate is numerically optimal for the model, or a trial is NaN.
    """
    step = 1.0
    for _ in range(60):
        cand = soft_threshold(z - step * sgrad, step * model.mu)
        hdx = model.apply_hessian(cand - model.x_ref)
        sval, sgrad_c = model.smooth_eval(cand, hdx)
        q_cand = sval + l1_penalty(cand, model.mu)
        if math.isnan(q_cand):
            return None
        if q_cand < q_ref - 1e-15 * max(1.0, abs(q_ref)):
            return ProjectedSearchResult(cand, step, 1, sval, sgrad_c,
                                         q_cand, False, hdx.copy())
        step *= 0.5
    return None


def obm_solve(model, stop, outer_k, store=None, *, max_iter):
    """Minimize the model by orthant-face identification plus subspace steps.

    The subspace phase runs truncated conjugate gradients with the
    outer-iteration budget ``min(3, 1 + outer_k // 10)``, or, given a
    quasi-Newton ``store``, solves that store's reduced system exactly.
    ``stop`` has the signature ``stop(z, smooth_value, smooth_grad)`` and is
    checked at the start and after every accepted iterate.  Model values are
    nonincreasing along the iterates; a stalled projected search falls back
    to a proximal-gradient step with guaranteed decrease before giving up.
    A NaN trial value, or a zero minimum-norm subgradient (an exact model
    minimizer, where no step decreases the model), ends the solve with
    status ``"stalled"``; ``max_iter`` iterates end it ``"iteration_cap"``.

    The start, the model's reference point, costs no Hessian-vector product,
    each CG iteration one, and each projected-search trial one unless it is
    unclipped on a CG direction: the solve keeps its iterate's product and
    hands it to the search with the CG's.  Quasi-Newton directions and
    safeguard steps pay one per trial.  An iteration with one CG step and
    one trial also makes about 58 O(n) numpy passes (subgradient 7, face 5,
    CG 17 plus 12 per further step, search 19, stop test 10), at n in the
    hundreds mostly call overhead.  The model gradient must be finite, as
    the driver's oracle checks make it.
    """
    z, sval, sgrad = model.x_ref.copy(), model.f_ref, model.g_ref
    hz = np.zeros_like(z)  # H(z - x_ref)
    q_z = q_start = model.q_ref
    iterations = 0
    status = "iteration_cap"
    done = stop is not None and stop(z, sval, sgrad)
    while not done and iterations < max_iter:
        v = min_norm_subgradient_from_gradient(sgrad, z, model.mu)
        face = orthant_face(z, v)
        if store is None:
            d, hd = subspace_cg_solve(model, face, v, cg_budget(outer_k))
            model.search_products = (z, hz, d, hd)
        else:
            d = lbfgs_reduced_inverse_solve(store, face, v, model.tally)
        if d.any():
            outcome = obm_projected_line_search(model, z, face, d, v, q_ref=q_z)
        else:
            model.search_products = None
            outcome = ProjectedSearchResult(z, 0.0, 0, sval, sgrad, q_z, True)
        # a zero v marks an exact model minimizer: no step decreases the model
        if outcome.stalled and not math.isnan(outcome.q_value) and v.any():
            outcome = _ista_safeguard(model, z, sgrad, q_z)
        if outcome is None or outcome.stalled:
            status = "stalled"
            break
        z, sval, sgrad, q_z, hz = (outcome.point, outcome.smooth_value,
                                   outcome.smooth_grad, outcome.q_value,
                                   outcome.product)
        iterations += 1
        done = stop is not None and stop(z, sval, sgrad)
    if done:
        status = "converged"
    return InnerResult(z, iterations, q_start - q_z, status)
