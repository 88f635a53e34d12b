"""Independent oracles shared across the test modules.

Everything here recomputes expected values by a route different from the
library code under test: dense materialization, finite differences, grid
search, face enumeration, or plain long-running fixed-point iteration.
"""

import itertools
from dataclasses import dataclass

import numpy as np


def central_difference_gradient(f, x, h=1e-6):
    """Central finite differences of a scalar function, coordinate by
    coordinate."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def directional_second_difference(grad, x, v, h=1e-6):
    """Central finite difference of a gradient along direction v."""
    return (grad(x + h * v) - grad(x - h * v)) / (2.0 * h)


def model_value(model, x):
    """Full model value (smooth part plus l1 term); one Hessian product."""
    sval, _ = model.smooth_eval(x)
    return sval + model.mu * float(np.abs(x).sum())


def face_active_set(face):
    """Indices pinned to zero on an orthant face, given as its sign vector."""
    return np.flatnonzero(face == 0)


def face_conforms(face, z):
    """True iff ``z`` lies in the face, given as its sign vector:
    sign-consistent, zero on actives."""
    z = np.asarray(z)
    return bool(np.all(z * face >= 0) and np.all(z[face == 0] == 0))


def objective_values(report):
    """The objective of every trace row of a convergence report."""
    return np.array([row.objective for row in report.trace])


def materialize_operator(apply_fn, n):
    """Dense matrix of a linear operator by applying it to basis vectors."""
    cols = [apply_fn(e) for e in np.eye(n)]
    return np.column_stack(cols)


def dense_model_value(model, x):
    """Model value recomputed with explicit dense matrix arithmetic."""
    n = model.dim
    H = materialize_operator(model.hessian, n)
    dx = np.asarray(x, dtype=float) - model.x_ref
    return (
        model.f_ref
        + model.g_ref @ dx
        + 0.5 * dx @ H @ dx
        + model.mu * np.abs(x).sum()
    )


def scalar_prox_grid(v, t, lo=None, hi=None, step=1e-4):
    """Grid-search argmin of 0.5*(x - v)**2 + t*|x|."""
    if lo is None:
        lo = -abs(v) - 1.0
    if hi is None:
        hi = abs(v) + 1.0
    grid = np.arange(lo, hi + step, step)
    vals = 0.5 * (grid - v) ** 2 + t * np.abs(grid)
    return grid[np.argmin(vals)]


def quadratic_l1_minimizer(H, c, mu):
    """Global minimizer of 0.5*z@H@z + c@z + mu*||z||_1 by face enumeration.

    Enumerates all 3**n sign patterns, solves the equality-constrained
    stationary system on each face, keeps sign-feasible candidates, and
    returns the one with the lowest objective.  Exact (up to the linear
    solves) for small n.
    """
    n = H.shape[0]
    best = None
    best_val = np.inf

    def objective(z):
        return 0.5 * z @ H @ z + c @ z + mu * np.abs(z).sum()

    for pattern in itertools.product((-1, 0, 1), repeat=n):
        omega = np.array(pattern, dtype=float)
        free = omega != 0
        z = np.zeros(n)
        if np.any(free):
            rhs = -(c[free] + mu * omega[free])
            try:
                z[free] = np.linalg.solve(H[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(z[free] * omega[free] < 0):
                continue
        val = objective(z)
        if val < best_val - 1e-15:
            best_val = val
            best = z
    return best, best_val


def model_exact_minimizer(model):
    """Exact minimizer of a small dense quadratic model via face enumeration."""
    n = model.dim
    H = materialize_operator(model.hessian, n)
    # shift to z = x - x_ref is avoided: minimize directly over x with
    # 0.5 x@H@x + (g_ref - H x_ref)@x + mu*||x||_1 (constant terms dropped)
    c = model.g_ref - H @ model.x_ref
    z, _ = quadratic_l1_minimizer(H, c, model.mu)
    return z


def coordinate_descent_l1_quadratic(H, c, mu, z0, sweeps=2000, tol=1e-14):
    """Cyclic coordinate descent on 0.5*z@H@z + c@z + mu*||z||_1.

    Each coordinate update is the exact scalar soft-threshold solution.
    Independent of the solvers under test.
    """
    z = np.array(z0, dtype=float)
    n = z.size
    for _ in range(sweeps):
        shift = 0.0
        for i in range(n):
            grad_i = H[i] @ z + c[i]
            rest = grad_i - H[i, i] * z[i]
            new = -rest / H[i, i]
            new = np.sign(new) * max(abs(new) - mu / H[i, i], 0.0)
            shift = max(shift, abs(new - z[i]))
            z[i] = new
        if shift <= tol:
            break
    return z


def long_run_ista(value_grad, x0, tau_step, mu, iters=200000, tol=1e-12):
    """Plain proximal-gradient fixed-point iteration run to high accuracy."""
    x = np.array(x0, dtype=float)
    for _ in range(iters):
        g = value_grad(x)
        x_new = np.sign(x - tau_step * g) * np.maximum(
            np.abs(x - tau_step * g) - tau_step * mu, 0.0
        )
        if np.max(np.abs(x_new - x)) <= tol:
            return x_new
        x = x_new
    return x


@dataclass(frozen=True)
class AnalysisConstants:
    """Spectral constants of a small dense instance, for property audits.

    ``gamma`` is the guaranteed linear-model decrease coefficient
    ``0.5*lambda_min*((1 - eta)/(1/tau + 2*lambda_max))**2`` relating the
    accepted step's linear decrease to the squared optimality residual.
    """

    lambda_min: float
    lambda_max: float
    lipschitz: float
    gamma: float

    @staticmethod
    def gamma_coefficient(lambda_min, lambda_max, eta, tau):
        return 0.5 * lambda_min * ((1.0 - eta) / (1.0 / tau + 2.0 * lambda_max)) ** 2

    @classmethod
    def from_spectrum(cls, eigenvalues, eta, tau, lipschitz=None):
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        lo = float(eigenvalues.min())
        hi = float(eigenvalues.max())
        if lipschitz is None:
            lipschitz = hi
        return cls(
            lambda_min=lo,
            lambda_max=hi,
            lipschitz=float(lipschitz),
            gamma=cls.gamma_coefficient(lo, hi, eta, tau),
        )


def lbfgs_pairs(store):
    """An L-BFGS store's ``(s, y)`` rows, oldest first, as views of its
    ring buffers."""
    order = np.argsort(store._age[:len(store)])
    return [(store._S[i], store._Y[i]) for i in order]


def lbfgs_inverse_vec(store, v):
    """Apply the inverse of an L-BFGS store's Hessian approximation to ``v``.

    The standard two-loop recursion with base ``gamma_scale * I``, an
    independent route to the matrix the store applies in compact form.
    """
    pairs = lbfgs_pairs(store)
    q = np.array(v, dtype=float)
    alphas = []
    rhos = []
    for s, y in reversed(pairs):
        rho = 1.0 / float(s @ y)
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
        rhos.append(rho)
    r = store.gamma_scale * q
    for (s, y), a, rho in zip(pairs, reversed(alphas), reversed(rhos)):
        b = rho * float(y @ r)
        r += (a - b) * s
    return r


# The nested-``where`` forms of the orthant and residual kernels, kept as
# references: the library's single-pass forms must match them byte for byte
# on finite input.


def nested_min_norm_subgradient(u, z, mu):
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


def nested_orthant_face_signs(z, v):
    return np.where(z != 0, np.sign(z), np.sign(-v)).astype(np.int8)


def nested_orthant_project(w, omega):
    return np.where(
        omega > 0,
        np.maximum(w, 0.0),
        np.where(omega < 0, np.minimum(w, 0.0), 0.0),
    )


def clip_residual(x, g, tau, mu):
    return g - np.clip(g - x / tau, -mu, mu)


def edge_case_vector(rng, n, mu):
    """Seeded normal draws over three scales, about half of them replaced
    by edge values: both zeros, exactly +-mu and its neighbours, subnormals,
    +-1."""
    pool = np.array([0.0, -0.0, mu, -mu, np.nextafter(mu, 0.0),
                     np.nextafter(-mu, 0.0), np.nextafter(mu, np.inf),
                     np.nextafter(-mu, -np.inf), 5e-324, -5e-324, -1e-310,
                     2.2e-308, 1.0, -1.0])
    x = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3], size=n)
    pick = rng.uniform(size=n) < 0.5
    x[pick] = rng.choice(pool, size=int(pick.sum()))
    return x
