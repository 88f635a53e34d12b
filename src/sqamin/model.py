"""Composite problems, the per-iteration quadratic model, configuration, telemetry.

A :class:`CompositeProblem` bundles a smooth convex oracle with an l1 penalty
weight.  Each outer iteration of the solver freezes a :class:`QuadraticModel`
snapshot (reference point, gradient, Hessian operator) whose inexact
minimization produces the step.  All evaluation counters live in one
:class:`Telemetry` record per run, which each :class:`QuadraticModel` of the
run carries; the oracles count nothing, but those of every problem in
:mod:`sqamin.objectives` share a one-point cache, so a problem should not
be shared between threads.  The paper's fixed forcing and backtracking
constants are in :mod:`sqamin.driver`, not in the config.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .prox import l1_penalty

__all__ = [
    "CompositeProblem",
    "QuadraticModel",
    "SolverConfig",
    "Telemetry",
    "TraceRow",
    "ConvergenceReport",
]

INNER_SOLVERS = ("fista", "obm_cg", "obm_qn")
INEXACTNESS_MODES = ("simple", "strengthened")
ETA_RULES = ("inverse_k", "residual", "constant")


@dataclass
class Telemetry:
    """Mutable per-run counters. Single-owner; never shared across runs.

    ``fg_evaluations`` counts distinct points at which the smooth oracle was
    evaluated (value, gradient, or both at the same point count once).
    ``hess_vec_products`` counts every application of the model Hessian
    operator, whichever backend (exact or quasi-Newton) provides it.
    """

    inner_iterations: int = 0
    fg_evaluations: int = 0
    hess_vec_products: int = 0
    lbfgs_skipped_updates: int = 0
    lbfgs_fallback_solves: int = 0


@dataclass(frozen=True)
class CompositeProblem:
    """A smooth convex oracle plus an l1 penalty weight.

    ``value``, ``gradient`` and ``hess_vec`` evaluate the smooth part; the
    full objective is ``value(x) + mu * ||x||_1``.  ``x0`` overrides the
    default all-zeros starting point (needed when zero lies outside the
    smooth part's domain, e.g. for log-det objectives).
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hess_vec: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dim: int
    mu: float
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError(f"mu must be finite and nonnegative, got {self.mu}")
        if self.x0 is not None and np.asarray(self.x0).shape != (self.dim,):
            raise ValueError("x0 has wrong dimension")

    def objective(self, x):
        """Full composite objective value at ``x``."""
        return self.value(x) + l1_penalty(x, self.mu)

    def start_point(self):
        if self.x0 is not None:
            return np.array(self.x0, dtype=float)
        return np.zeros(self.dim)


class QuadraticModel:
    """Frozen second-order model of the composite objective at one iterate.

    The model value is
    ``f_ref + g_ref@(x - x_ref) + 0.5*(x - x_ref)@H@(x - x_ref) + mu*||x||_1``
    and its linear underestimate drops the quadratic term.  ``hessian`` is an
    abstract symmetric positive definite linear map ``v -> H v``; it is never
    materialized here.  ``f_ref`` is cached so the model never re-calls the
    smooth oracle, and ``q_ref`` is the model value at ``x_ref``.  Every
    Hessian product is counted on ``self.tally``.
    The OBM solver hands ``(z, H(z - x_ref), d, H d)`` to its next projected
    search along ``d`` in ``search_products``, which that search clears.
    """

    def __init__(self, x_ref, g_ref, f_ref, hessian, mu, tally=None):
        self.x_ref = np.asarray(x_ref, dtype=float)
        self.g_ref = np.asarray(g_ref, dtype=float)
        if self.x_ref.shape != self.g_ref.shape:
            raise ValueError("x_ref and g_ref dimensions differ")
        self.f_ref = float(f_ref)
        self.hessian = hessian
        if not (np.isfinite(mu) and mu >= 0):
            raise ValueError(f"mu must be finite and nonnegative, got {mu}")
        self.mu = float(mu)
        self.tally = Telemetry() if tally is None else tally
        self.q_ref = self.f_ref + l1_penalty(self.x_ref, self.mu)
        self.search_products = None

    @property
    def dim(self):
        return self.x_ref.shape[0]

    def _check_dim(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != self.x_ref.shape:
            raise ValueError(f"expected dimension {self.dim}, got shape {x.shape}")
        return x

    def apply_hessian(self, v):
        """Apply the Hessian operator; counts one Hessian-vector product."""
        self.tally.hess_vec_products += 1
        return self.hessian(v)

    def smooth_eval(self, x, hdx=None):
        """Value and gradient of the smooth (quadratic) part at ``x``.

        Both follow from ``hdx = H dx`` with ``dx = x - x_ref``: the gradient
        is ``g_ref + hdx`` and the value needs ``dx @ hdx``.  A caller that
        already knows ``hdx`` passes it and pays no Hessian-vector product;
        otherwise one product is applied.  Nothing is kept on the model.
        """
        x = self._check_dim(x)
        dx = x - self.x_ref
        if hdx is None:
            hdx = self.apply_hessian(dx)
        val = self.f_ref + float(self.g_ref @ dx) + 0.5 * float(dx @ hdx)
        return val, self.g_ref + hdx

    def linear_value(self, x):
        """Piecewise linear underestimate: drops the quadratic term."""
        x = self._check_dim(x)
        return (self.f_ref + float(self.g_ref @ (x - self.x_ref))
                + l1_penalty(x, self.mu))


@dataclass
class SolverConfig:
    """Configuration shared by the composite solvers.

    ``zeta`` may equal ``theta`` (the classical experimental setting), but
    the sufficient-decrease theory behind unit-step acceptance assumes
    ``zeta`` strictly between ``theta`` and 1/2.
    """

    theta: float = 0.1
    zeta: float = 0.25
    tau: float = 0.5
    tol_inf: float = 1e-5
    max_outer: int = 3000
    inner_solver: str = "fista"
    inexactness_mode: str = "strengthened"
    lbfgs_memory: int = 50
    max_inner: int = 1000
    eta_rule: str = "inverse_k"
    eta_constant: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.theta < 0.5:
            raise ValueError(f"theta must lie in (0, 1/2), got {self.theta}")
        if not self.theta <= self.zeta < 0.5:
            raise ValueError(f"zeta must lie in [theta, 1/2), got {self.zeta}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if not 0.0 < self.tol_inf < np.inf:
            raise ValueError(f"tol_inf must be finite and positive, got {self.tol_inf}")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration limits must be positive")
        if self.inner_solver not in INNER_SOLVERS:
            raise ValueError(f"unknown inner solver {self.inner_solver!r}")
        if self.inexactness_mode not in INEXACTNESS_MODES:
            raise ValueError(f"unknown inexactness mode {self.inexactness_mode!r}")
        if self.eta_rule not in ETA_RULES:
            raise ValueError(f"unknown eta rule {self.eta_rule!r}")
        if self.lbfgs_memory < 1:
            raise ValueError("lbfgs_memory must be positive")
        if not 0.0 < self.eta_constant < 1.0:
            raise ValueError("eta_constant must lie in (0, 1)")


@dataclass
class TraceRow:
    """One accepted outer iteration: objective, residual, step, inner work."""

    k: int
    objective: float
    residual_inf: float
    alpha: float
    inner_iterations: int
    eta: float


@dataclass
class ConvergenceReport:
    """Per-run counters, one field per :class:`Telemetry` field, and the
    accepted-iterate trace.  A field with a plain default is JSON-only (see
    :func:`~sqamin.io.read_report`); the L-BFGS ones stay 0 without a store.
    """

    solver: str
    status: str
    outer_iterations: int
    inner_iterations: int
    fg_evaluations: int
    hess_vec_products: int
    wall_time_seconds: float
    final_residual_inf: float
    trace: list = field(default_factory=list)
    lbfgs_skipped_updates: int = 0
    lbfgs_fallback_solves: int = 0
