"""Outer loop: inexactness-gated model minimization with backtracking search.

Each outer iteration freezes a quadratic model at the current iterate, runs
the configured inner solver until the candidate satisfies the inexactness
conditions (model residual reduced by the forcing factor eta, plus model
decrease), then backtracks along the resulting direction until the composite
objective decrease is at least ``theta`` times the decrease of the piecewise
linear model.  A direct accelerated proximal gradient run on the original
objective serves as the baseline.
"""

import math
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .fista import _quadratic_on_line, fista_composite
from .lbfgs import LbfgsStore
from .model import ConvergenceReport, QuadraticModel, Telemetry, TraceRow
from .obm import obm_solve
from .prox import l1_penalty, residual, soft_threshold

__all__ = [
    "eta_schedule",
    "InexactnessReport",
    "inexactness_check",
    "LineSearchError",
    "LineSearchResult",
    "outer_line_search",
    "OuterIterationRecord",
    "sqa_solve",
    "fista_baseline_solve",
]

ALPHA_UNDERFLOW = 1e-14
ETA_FLOOR = 0.1
ETA_CAP = 0.9
BACKTRACK_FACTOR = 0.5


def eta_schedule(k):
    """Forcing factor for outer iteration ``k >= 1``: ``max(1/k, 0.1)``,
    capped at 0.9 (the raw rule at k=1 would give 1.0, which is not a
    valid forcing factor)."""
    if k < 1:
        raise ValueError(f"outer iteration index must be >= 1, got {k}")
    return min(ETA_CAP, max(1.0 / k, ETA_FLOOR))


def _eta_value(config, k, residual_norm2):
    if config.eta_rule == "inverse_k":
        return eta_schedule(k)
    if config.eta_rule == "residual":
        return min(ETA_CAP, residual_norm2)
    return min(ETA_CAP, config.eta_constant)


@dataclass
class InexactnessReport:
    """Both sides of both inexactness inequalities at a candidate point."""

    ok: bool
    residual_norm: float
    residual_bound: float
    q_candidate: float
    q_reference: float
    decrease_lhs: float
    decrease_rhs: float
    mode: str

    def __bool__(self):
        return self.ok


def _inexactness_report(model, x_hat, sval, sgrad, penalty, linear, eta, tau,
                        mode, zeta, ref_residual_norm):
    """Evaluate the inexactness conditions from what the inner solver formed
    at ``x_hat``: the smooth value and gradient, the l1 term ``penalty`` and
    the linear term ``linear = g_ref @ (x_hat - x_ref)``."""
    F = residual(x_hat, sgrad, tau, model.mu)
    rnorm = math.sqrt(F @ F)  # np.linalg.norm of a 1-D array
    bound = eta * ref_residual_norm
    q_hat = sval + penalty
    q_ref = model.q_ref
    lhs = q_hat - q_ref
    if mode == "simple":
        rhs = 0.0
        decrease_ok = lhs < 0.0
    else:
        # model.linear_value(x_hat), sharing the penalty with q_hat
        ell = model.f_ref + linear + penalty
        rhs = zeta * (ell - q_ref)
        decrease_ok = lhs <= rhs
    return InexactnessReport(
        ok=(rnorm <= bound) and decrease_ok,
        residual_norm=rnorm,
        residual_bound=bound,
        q_candidate=q_hat,
        q_reference=q_ref,
        decrease_lhs=lhs,
        decrease_rhs=rhs,
        mode=mode,
    )


def inexactness_check(model, x_hat, eta, tau, mode="strengthened", zeta=0.25):
    """Is ``x_hat`` an acceptable approximate minimizer of the model?

    Requires the model residual norm at ``x_hat`` to be at most ``eta`` times
    the residual norm at the reference point, together with model decrease:
    simple mode asks for any decrease, strengthened mode for at least
    ``zeta`` times the linear model's decrease.  Costs one Hessian-vector
    product, and takes the smooth value, gradient and linear term from
    :meth:`~sqamin.model.QuadraticModel.step_eval`, as the OBM stop does.
    The returned report is truthy iff both conditions hold and carries both
    sides of both inequalities.
    """
    ref_norm = float(
        np.linalg.norm(residual(model.x_ref, model.g_ref, tau, model.mu))
    )
    x_hat = model._check_dim(x_hat)
    dx = x_hat - model.x_ref
    sval, sgrad, linear = model.step_eval(dx, model.apply_hessian(dx))
    return _inexactness_report(model, x_hat, sval, sgrad,
                               l1_penalty(x_hat, model.mu), linear, eta, tau,
                               mode, zeta, ref_norm)


class LineSearchError(RuntimeError):
    """The outer line search underflowed without accepting a step."""


class LineSearchResult(NamedTuple):
    alpha: float
    x_next: np.ndarray
    f_next: float
    phi_next: float
    trials: int


def outer_line_search(problem, model, d, theta=0.1):
    """Backtrack from a unit step, halving it, until the composite objective
    decrease is at least ``theta`` times the linear model decrease.

    Each trial evaluates the smooth value once, counted on ``model.tally``,
    and forms the l1 term once, for both the objective and the linear model
    (whose ``mu`` is the problem's).
    An infinite value backtracks; a NaN value, or step length underflow
    (violated preconditions: the direction must carry positive linear-model
    decrease), raises :class:`LineSearchError`.  So does a trial equal to
    ``model.x_ref``, before it is evaluated: both sides of the decrease test
    would be exactly 0, and every shorter step rounds to the same point.
    """
    d = np.asarray(d, dtype=float)
    if not np.any(d):
        raise ValueError("line search direction is zero")
    phi_ref = model.q_ref
    alpha = 1.0
    trials = 0
    while alpha >= ALPHA_UNDERFLOW:
        x_trial = model.x_ref + alpha * d
        if (x_trial == model.x_ref).all():
            raise LineSearchError("line search trial rounds to the reference "
                                  "point; no step can make progress")
        f_trial = problem.value(x_trial)
        model.tally.fg_evaluations += 1
        trials += 1
        if np.isnan(f_trial):
            raise LineSearchError("smooth value is NaN at a line search trial")
        penalty = l1_penalty(x_trial, problem.mu)
        phi_trial = f_trial + penalty
        # model.linear_value(x_trial), sharing the penalty with phi_trial
        ell = (model.f_ref + float(model.g_ref @ (x_trial - model.x_ref))
               + penalty)
        linear_decrease = phi_ref - ell
        if phi_ref - phi_trial >= theta * linear_decrease:
            return LineSearchResult(alpha, x_trial, f_trial, phi_trial, trials)
        alpha *= BACKTRACK_FACTOR
    raise LineSearchError(
        "line search step length underflow; direction does not satisfy the "
        "inexactness preconditions or the oracle is inconsistent"
    )


@dataclass
class OuterIterationRecord:
    """Observer payload describing one accepted outer iteration."""

    k: int
    x: np.ndarray
    x_hat: np.ndarray
    x_next: np.ndarray
    eta: float
    alpha: float
    residual_norm2: float
    residual_inf: float
    ell_candidate: float
    q_reference: float
    q_candidate: float
    inner: object
    model: QuadraticModel


def _keep(problem, tau, k, x, fx, gx, objective, alpha=0.0, inner=0,
          eta=0.0):
    """The one non-finite gate of a point a driver would keep.

    ``objective`` is ``fx`` plus the l1 term at ``x``, as the caller formed
    it.  Returns ``(residual, trace row, status)``: without a gradient the
    residual is None and the row's max-norm NaN; the status is
    ``"nonfinite_oracle"`` unless value plus max-norm is finite, else None.
    """
    F = None if gx is None else residual(x, gx, tau, problem.mu)
    res_inf = math.nan if F is None else float(np.max(np.abs(F)))
    row = TraceRow(k, objective, res_inf, alpha, inner, eta)
    return F, row, None if math.isfinite(fx + res_inf) else "nonfinite_oracle"


def _start(problem, tau, tally):
    """Evaluate a run's start point once and gate it, for both drivers.

    No gradient is taken at a ``+inf`` value (outside the smooth domain).
    Returns ``(x, value, gradient, residual, trace, status)``, the trace
    holding row 0 and the residual and status being those of :func:`_keep`.
    """
    x = problem.start_point()
    fx = problem.value(x)
    tally.fg_evaluations += 1
    gx = None if fx == np.inf else problem.gradient(x)
    F, row, status = _keep(problem, tau, 0, x, fx, gx,
                           fx + l1_penalty(x, problem.mu))
    return x, fx, gx, F, [row], status


def _report(solver, status, trace, tally, t0, tol_inf):
    """The run's report; a run not ended by a failure status converged iff
    its last residual is within ``tol_inf``."""
    res_inf = trace[-1].residual_inf
    if status is None:
        status = "converged" if res_inf <= tol_inf else "iteration_cap"
    return ConvergenceReport(
        solver=solver,
        status=status,
        outer_iterations=len(trace) - 1,
        wall_time_seconds=time.perf_counter() - t0,
        final_residual_inf=res_inf,
        trace=trace,
        **asdict(tally),
    )


def _fista_stop(stop, model, z, sval, sgrad, penalty):
    """The inexactness stop for FISTA iterates, which come without the
    linear term: it is formed here."""
    return stop(z, sval, sgrad, penalty,
                float(model.g_ref @ (z - model.x_ref)))


def sqa_solve(problem, config, hessian_source=None, observer=None):
    """Successive quadratic approximation loop.

    The inner solver fixes the model Hessian: the ``obm_qn`` solver
    minimizes a limited-memory model built from correction pairs of outer
    gradient differences, the others use the problem's Hessian-vector
    oracle at the current iterate.  ``hessian_source``, when given, must
    name that backend (``"lbfgs"`` or ``"exact"``).  Returns the final
    iterate and a :class:`ConvergenceReport` whose trace holds one row per
    accepted step (row 0 is the starting point).

    The inner solver is stopped by the inexactness conditions with forcing
    factor from the configured eta rule.  If it exhausts its iteration cap
    having decreased the model, the step is still used (descent is implied
    by model decrease); otherwise the run aborts with status
    ``"inner_stall"`` (as when a NaN Hessian product leaves the model value
    undefined); a line search that finds no acceptable step ends it with
    status ``"line_search_failed"``, keeping the last accepted iterate.
    One non-finite rule holds at the start and at each point the line search
    accepts: a non-finite value or gradient there ends the run with status
    ``"nonfinite_oracle"``, returning the start point or the last iterate
    whose value and gradient were finite.

    The stop test takes the inner solver's l1 term, and the OBM solver's
    linear term ``g_ref @ (x_hat - x_ref)`` too.  Overflow inside an inner
    solve (a model that is not convex) raises no warning; the solvers end
    on the non-finite values it leaves.
    """
    store = (LbfgsStore(config.lbfgs_memory)
             if config.inner_solver == "obm_qn" else None)
    backend = "exact" if store is None else "lbfgs"
    if hessian_source not in (None, backend):
        raise ValueError(
            f"inner solver {config.inner_solver!r} uses the {backend!r} "
            f"Hessian, got hessian_source={hessian_source!r}"
        )
    tally = Telemetry()
    t0 = time.perf_counter()
    mu, tau = problem.mu, config.tau
    x, fx, gx, F, trace, status = _start(problem, tau, tally)
    k = 0
    warm_lipschitz = 1.0
    # a NaN residual is not optimal
    while (status is None and not trace[-1].residual_inf <= config.tol_inf
           and k < config.max_outer):
        res_norm2 = float(np.linalg.norm(F))
        hess_op = (partial(problem.hess_vec, x) if store is None
                   else store.hessian_vec)
        model = QuadraticModel(x, gx, fx, hess_op, mu, tally)
        eta = _eta_value(config, k + 1, res_norm2)
        stop = partial(_inexactness_report, model, eta=eta, tau=tau,
                       mode=config.inexactness_mode, zeta=config.zeta,
                       ref_residual_norm=res_norm2)
        # overflow from a model that is not convex warns nothing
        with np.errstate(over="ignore", invalid="ignore"):
            if config.inner_solver == "fista":
                inner = fista_composite(
                    model.smooth_eval, mu, soft_threshold, (x, fx, gx),
                    stop=partial(_fista_stop, stop, model),
                    max_iter=config.max_inner, lipschitz0=warm_lipschitz,
                    on_line=_quadratic_on_line)
                warm_lipschitz = inner.lipschitz
            else:
                inner = obm_solve(model, stop, k + 1, store,
                                  max_iter=config.max_inner)
        tally.inner_iterations += inner.inner_iterations
        d = inner.solution - x
        stalled = inner.status != "converged" and not inner.model_decrease > 0.0
        if stalled or not np.any(d):
            status = "inner_stall"
            break
        try:
            ls = outer_line_search(problem, model, d, config.theta)
        except LineSearchError:
            status = "line_search_failed"
            break
        g_next = problem.gradient(ls.x_next)  # same point as the accepted
        # trial, so it does not open a new evaluation point
        F_next, row, status = _keep(problem, tau, k + 1, ls.x_next,
                                    ls.f_next, g_next, ls.phi_next, ls.alpha,
                                    inner.inner_iterations, eta)
        if status is not None:
            break
        k += 1
        if store is not None and not store.update(ls.x_next - x, g_next - gx):
            tally.lbfgs_skipped_updates += 1
        if observer is not None:
            observer(
                OuterIterationRecord(
                    k=k,
                    x=x,
                    x_hat=inner.solution,
                    x_next=ls.x_next,
                    eta=eta,
                    alpha=ls.alpha,
                    residual_norm2=res_norm2,
                    residual_inf=trace[-1].residual_inf,
                    ell_candidate=model.linear_value(inner.solution),
                    q_reference=model.q_ref,
                    q_candidate=model.q_ref - inner.model_decrease,
                    inner=inner,
                    model=model,
                )
            )
        x, fx, gx, F = ls.x_next, ls.f_next, g_next, F_next
        trace.append(row)
    return x, _report("sqa_" + config.inner_solver, status, trace, tally, t0,
                      config.tol_inf)


def fista_baseline_solve(problem, config):
    """Accelerated proximal gradient applied directly to the objective.

    No quadratic models and no Hessian-vector products; one evaluation point
    per smooth call, two per iteration plus backtracking (one in the last
    and after a step with zero momentum).  A problem with an ``on_line``
    hook (see :class:`~sqamin.model.CompositeProblem`) has it form the
    momentum point's value and gradient, one evaluation point that makes no
    product by the design on a logistic loss and none at all on a
    quadratic; only where it returns None is the point evaluated.
    Terminates on the max-norm of the optimality residual.  The non-finite
    rule of :func:`sqa_solve` holds at the start and at each iterate the
    inner loop accepts.  A non-finite gradient at a momentum point ends the
    run ``"nonfinite_oracle"`` too, once the curvature search fails on the
    non-finite candidate it leaves.
    """
    tally = Telemetry()
    t0 = time.perf_counter()
    mu, tau = problem.mu, config.tau
    x, fx, gx, _, trace, status = _start(problem, tau, tally)

    def smooth(z):
        val = problem.value(z)
        tally.fg_evaluations += 1
        return val, (problem.gradient(z) if np.isfinite(val) else None)

    def on_line(x, fx, gx, c, fc, gc, beta):
        if beta == 0.0:  # the momentum point is c, evaluated
            return None
        momentum = problem.on_line(x, fx, gx, c, fc, gc, beta)
        tally.fg_evaluations += momentum is not None
        return momentum

    def stop(z, fz, gz, penalty):
        nonlocal x, status
        _, row, status = _keep(problem, tau, len(trace), z, fz, gz,
                               fz + penalty, 1.0)
        if status is not None:
            return True
        x = z
        trace.append(row)
        return row.residual_inf <= config.tol_inf

    if status is None and not trace[0].residual_inf <= config.tol_inf:
        result = fista_composite(smooth, mu, soft_threshold, (x, fx, gx),
                                 stop=stop, max_iter=config.max_outer,
                                 lipschitz0=1.0,
                                 on_line=(None if problem.on_line is None
                                          else on_line))
        status = status or result.status
    return x, _report("fista", status, trace, tally, t0, config.tol_inf)
