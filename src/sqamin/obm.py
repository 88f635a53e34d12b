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
    return _face(z, v, z == 0)


def _face(z, v, at_zero):
    return np.sign(np.where(at_zero, -v, z)).astype(np.int8)


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
    return _subgradient(u, z, mu, z == 0)


def _subgradient(u, z, mu, at_zero):
    # minimum and maximum return their second operand on ties, so this
    # keeps np.clip's signed zeros; copysign(mu, -z) is -mu * sign(z)
    clipped = np.minimum(mu, np.maximum(-mu, u))
    return u - np.where(at_zero, clipped, np.copysign(mu, -z))


def _subgradient_and_face(u, z, mu):
    """``(v, face)``: :func:`min_norm_subgradient_from_gradient` and the
    :func:`orthant_face` it spans at ``z``, from one ``z == 0`` mask."""
    at_zero = z == 0
    v = _subgradient(u, z, mu, at_zero)
    return v, _face(z, v, at_zero)


def cg_budget(outer_k):
    """Conjugate-gradient iteration cap as a function of the outer iteration."""
    return min(3, 1 + outer_k // 10)


def subspace_cg_solve(model, face, v, cg_cap):
    """Truncated CG on the face-reduced Newton system ``H_FF d_F = -v_F``.

    Starts from zero, applies the Hessian to each direction zero-padded in
    one reused buffer (one product per CG iteration), and returns early on
    nonpositive or NaN curvature: the current iterate if any progress was
    made, otherwise the steepest descent direction ``-v_F``.  Returns
    ``(d, H d)``, summed full-length from the padded directions and their
    products, in arrays of its own; the model is left as it was.
    """
    if cg_cap < 1:
        raise ValueError(f"cg_cap must be >= 1, got {cg_cap}")
    v = np.asarray(v, dtype=float)
    free = face.nonzero()[0]
    r = -v.take(free)
    rs = float(r @ r)
    if rs == 0.0:
        return np.zeros(v.shape), np.zeros(v.shape)
    tol2 = max(rs * 1e-28, 1e-300)
    padded = np.zeros(v.shape)  # zero off the face for every direction
    p = r
    for i in range(cg_cap):
        padded.put(free, p)
        hp = model.apply_hessian(padded)
        w = hp.take(free)
        curvature = float(p @ w)
        if not curvature > 0.0:
            if i == 0:  # the first direction is r itself
                d, hd = padded, hp.copy()
            break
        step = rs / curvature
        if i == 0:
            d, hd = step * padded, step * hp
        else:
            d += step * padded
            hd += step * hp
        if i + 1 == cg_cap:  # the residual would go unused
            break
        r = r - step * w
        rs_new = float(r @ r)
        if rs_new <= tol2:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return d, hd


class ProjectedSearchResult(NamedTuple):
    point: np.ndarray
    alpha: float
    trials: int
    smooth_value: float
    smooth_grad: np.ndarray
    q_value: float
    stalled: bool
    # at an accepted point: H(point - x_ref), the l1 term and g_ref @
    # (point - x_ref), which the solve hands to its stop test
    product: Optional[np.ndarray] = None
    penalty: float = math.nan
    linear: float = math.nan


def _trial(model, cand, hdx=None):
    """``(q, smooth value, smooth gradient, H(cand - x_ref), l1 term,
    g_ref @ (cand - x_ref))`` of the model at ``cand``, from the product
    ``hdx`` when it is known, else from one Hessian-vector product, whose
    array the oracle may reuse: a caller copies it on acceptance."""
    dx = cand - model.x_ref
    if hdx is None:
        hdx = model.apply_hessian(dx)
    sval, sgrad, linear = model.step_eval(dx, hdx)
    penalty = l1_penalty(cand, model.mu)
    return sval + penalty, sval, sgrad, hdx, penalty, linear


def obm_projected_line_search(model, z, face, d, v, q_ref):
    """Backtrack along ``d`` with re-projection onto the face.

    Accepts the first halved step whose projected candidate satisfies the
    Armijo test against the subgradient linearization and does not increase
    the model value ``q_ref`` at ``z`` (projection can flip the sign of the
    linearized change, so the plain-decrease guard keeps the iterates
    monotone).  Returns ``z``, stalled, when the step underflows or a
    candidate equals ``z``, before that candidate is evaluated (both tests
    would pass it with equality, and every shorter step rounds to ``z``
    too), so at once with no trial for a zero ``d`` and ``z`` on the face,
    and with a NaN ``q_value`` at a NaN trial.

    A trial that the projection leaves unclipped lies on the ray
    ``z + alpha d``.  When ``model.search_products`` holds
    ``(z, H(z - x_ref), d, H d)`` for these very ``z`` and ``d`` objects,
    such a trial is evaluated from those products without a Hessian-vector
    product; every other trial pays one.  The slot is cleared on entry,
    whether it matched or not.  An accepted point carries its product, its
    l1 term and its linear term.
    """
    handed, model.search_products = model.search_products, None
    if handed is not None and handed[0] is z and handed[2] is d:
        hz, hd = handed[1], handed[3]
    else:
        hd, d = None, np.asarray(d, dtype=float)
    z = np.asarray(z, dtype=float)
    alpha = 1.0
    trials = 0
    while alpha >= ALPHA_MIN:
        # at alpha = 1 the steps are d and hd themselves, the bits of 1.0 * d
        ray = z + (d if alpha == 1.0 else alpha * d)
        cand = orthant_project(ray, face)
        step = cand - z
        slope = float(v @ step)  # 0 at a step of zeros, the only scan then
        if slope == 0.0 and not step.any():  # shorter steps leave z too
            break
        on_ray = hd is not None and (cand == ray).all()
        q, sval, sgrad, hdx, penalty, linear = _trial(
            model, cand,
            hz + (hd if alpha == 1.0 else alpha * hd) if on_ray else None)
        trials += 1
        if math.isnan(q):
            return ProjectedSearchResult(z, 0.0, trials, math.nan, None,
                                         math.nan, True)
        if q <= q_ref and q <= q_ref + ARMIJO_CONSTANT * slope:
            return ProjectedSearchResult(cand, alpha, trials, sval, sgrad, q,
                                         False, hdx if on_ray else hdx.copy(),
                                         penalty, linear)
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
        q, sval, sgrad_c, hdx, penalty, linear = _trial(model, cand)
        if math.isnan(q):
            return None
        if q < q_ref - 1e-15 * max(1.0, abs(q_ref)):
            return ProjectedSearchResult(cand, step, 1, sval, sgrad_c, q,
                                         False, hdx.copy(), penalty, linear)
        step *= 0.5
    return None


def obm_solve(model, stop, outer_k, store=None, *, max_iter):
    """Minimize the model by orthant-face identification plus subspace steps.

    The subspace phase runs truncated conjugate gradients with the
    outer-iteration budget ``min(3, 1 + outer_k // 10)``, or, given a
    quasi-Newton ``store``, solves that store's reduced system exactly.
    The iterate is the :class:`ProjectedSearchResult` that accepted it,
    from the search or the safeguard step, and at the start a record of the
    model's reference point (product zero, linear term 0).  The required
    ``stop(z, smooth_value, smooth_grad, penalty, linear)`` reads that
    record's fields at the start and after every accepted iterate;
    ``penalty`` is the l1 term at ``z`` and ``linear`` is
    ``g_ref @ (z - x_ref)``.  Model values are nonincreasing along the
    iterates; a stalled projected search, a zero direction's included,
    falls back to a proximal-gradient step with guaranteed decrease before
    giving up.  A NaN trial value, or a zero minimum-norm subgradient (an
    exact model minimizer, where no step decreases the model), ends the
    solve with status ``"stalled"``; ``max_iter`` iterates end it
    ``"iteration_cap"``.

    The start costs no Hessian-vector product, each CG iteration one, and
    each projected-search trial one unless it is unclipped on a CG
    direction: the solve hands the search its iterate's product with the
    CG's.  Quasi-Newton directions and safeguard steps pay one per trial.
    The model gradient must be finite, as the driver's oracle checks make
    it.
    """
    current = ProjectedSearchResult(
        model.x_ref.copy(), 0.0, 0, model.f_ref, model.g_ref, model.q_ref,
        False, np.zeros(model.dim), l1_penalty(model.x_ref, model.mu), 0.0)
    cg_cap = cg_budget(outer_k)
    iterations = 0
    status = "iteration_cap"
    done = stop(current.point, current.smooth_value, current.smooth_grad,
                current.penalty, current.linear)
    while not done and iterations < max_iter:
        z, sgrad, q_z = current.point, current.smooth_grad, current.q_value
        v, face = _subgradient_and_face(sgrad, z, model.mu)
        if store is None:
            d, hd = subspace_cg_solve(model, face, v, cg_cap)
            model.search_products = (z, current.product, d, hd)
        else:
            d = lbfgs_reduced_inverse_solve(store, face, v, model.tally)
        outcome = obm_projected_line_search(model, z, face, d, v, q_z)
        # a zero v marks an exact model minimizer: no step decreases the model
        if outcome.stalled and not math.isnan(outcome.q_value) and v.any():
            outcome = _ista_safeguard(model, z, sgrad, q_z)
        if outcome is None or outcome.stalled:
            status = "stalled"
            break
        current = outcome
        iterations += 1
        done = stop(current.point, current.smooth_value, current.smooth_grad,
                    current.penalty, current.linear)
    if done:
        status = "converged"
    return InnerResult(current.point, iterations,
                       model.q_ref - current.q_value, status)
