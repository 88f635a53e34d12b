"""Independent oracles shared across the test modules.

Everything here recomputes expected values by a route different from the
library code under test: dense materialization, finite differences, grid
search, face enumeration, or plain long-running fixed-point iteration.
"""

import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.special import expit, xlogy

from sqamin import (
    LogisticDataset,
    covariance_problem,
    logistic_problem,
    sample_covariance,
    synthetic_quadratic,
    synthetic_quadratic_matrices,
)


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


def never_stop(*_):
    """A stop test for ``fista_composite`` or ``obm_solve`` that never ends
    the run, so that only its iteration cap or a stall does."""
    return False


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

    The standard two-loop recursion with base ``I / sigma``, an
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
    r = (1.0 / store.sigma) * q
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


# Duality gaps: each bounds phi(x) - phi* from above with no reference
# solve.  The gradient ``g`` at ``x`` is scaled into the l1 dual ball by
# ``min(1, mu / max|g|)``, and the gap is phi(x) minus the dual objective
# there, both recomputed from the instance data with plain numpy.


def _dual_scale(g, mu):
    peak = float(np.max(np.abs(g)))
    return 1.0 if peak <= mu else mu / peak


def logistic_duality_gap(data, mu, x):
    """Mean logistic loss plus ``mu ||x||_1``: the dual point is
    ``a = scale * sigmoid(-m)``, margins ``m = y * (Z @ x)``, and the dual
    objective ``-mean(a log a + (1 - a) log(1 - a))``."""
    Z, y = data.features.toarray(), data.labels
    x = np.asarray(x, dtype=float)
    m = y * (Z @ x)
    sigma = expit(-m)
    a = _dual_scale(Z.T @ (y * sigma) / m.size, mu) * sigma
    dual = -float(np.mean(xlogy(a, a) + xlogy(1.0 - a, 1.0 - a)))
    primal = float(np.mean(np.logaddexp(0.0, -m))) + mu * float(np.abs(x).sum())
    return primal - dual


def covariance_duality_gap(prob, mu, x):
    """``tr(S P) - log det P + mu ||x||_1`` over the flattened ``x``, ``P``
    its symmetric part: with ``R = P^{-1} - S`` the dual objective is
    ``log det(S + scale R) + p``."""
    S, p = prob.sample_cov, prob.p
    x = np.asarray(x, dtype=float)
    P = 0.5 * (x.reshape(p, p) + x.reshape(p, p).T)
    W = np.linalg.inv(P)
    R = 0.5 * (W + W.T) - S
    dual = np.linalg.slogdet(S + _dual_scale(R, mu) * R)[1] + p
    primal = float(np.sum(S * P)) - np.linalg.slogdet(P)[1]
    return primal + mu * float(np.abs(x).sum()) - dual


def quadratic_duality_gap(A, b, mu, x):
    """``0.5 x A x - b x + mu ||x||_1``: with ``v = scale g + b`` the dual
    objective is ``-0.5 v A^{-1} v``."""
    x = np.asarray(x, dtype=float)
    g = A @ x - b
    v = _dual_scale(g, mu) * g + b
    dual = -0.5 * float(v @ np.linalg.solve(A, v))
    primal = 0.5 * float(x @ A @ x) - float(b @ x) + mu * float(np.abs(x).sum())
    return primal - dual


# Desk-size copies of the four benchmark workloads, built here from the
# sqamin constructors so that no test depends on perfbench.  The counter
# ledger (tests/ledger.py) solves seeds (11, 0)-(11, 2) of each.

DESK_SEEDS = ((11, 0), (11, 1), (11, 2))
_DESK_QUADRATIC = (50, 1e4)  # dimension and condition


def _planted_labels(rng, Z, noise=0.5):
    """+/-1 labels from a noisy linear model over a quarter of the features,
    the clean score scaled to unit standard deviation."""
    w = np.zeros(Z.shape[1])
    support = rng.choice(Z.shape[1], size=max(1, Z.shape[1] // 4), replace=False)
    w[support] = rng.normal(size=support.size)
    score = np.asarray(Z @ w).ravel()
    score /= score.std()
    score += noise * rng.normal(size=Z.shape[0])
    return np.where(score >= 0, 1.0, -1.0)


def desk_logistic_sparse(seed):
    """1000x200 CSR at 1% density; its operand is the CSC copy."""
    rng = np.random.default_rng(seed)
    Z = scipy.sparse.random(1000, 200, density=0.01, format="csr",
                            random_state=rng, data_rvs=rng.standard_normal)
    return LogisticDataset(Z, _planted_labels(rng, Z))


def desk_logistic_hard(seed, rho=0.9):
    """Dense 200x30 AR(1) design stored as CSR; its Hessian is a Gram."""
    rng = np.random.default_rng(seed)
    E = rng.normal(size=(200, 30))
    Z = np.empty_like(E)
    Z[:, 0] = E[:, 0]
    for j in range(1, Z.shape[1]):
        Z[:, j] = rho * Z[:, j - 1] + np.sqrt(1.0 - rho ** 2) * E[:, j]
    labels = _planted_labels(rng, Z)
    return LogisticDataset(scipy.sparse.csr_matrix(Z), labels)


def desk_covariance(seed, p=15, off_diagonal=0.4):
    """Sample covariance of 20p samples of a tridiagonal precision."""
    rng = np.random.default_rng(seed)
    precision = (np.eye(p) + off_diagonal * np.eye(p, k=1)
                 + off_diagonal * np.eye(p, k=-1))
    L = np.linalg.cholesky(precision)
    samples = scipy.linalg.solve_triangular(
        L.T, rng.normal(size=(p, 20 * p)), lower=False).T
    return sample_covariance(samples)


# workload: the problem of a seed
DESK_WORKLOADS = {
    "logistic_sparse": lambda seed: logistic_problem(desk_logistic_sparse(seed),
                                                     1e-3),
    "logistic_hard": lambda seed: logistic_problem(desk_logistic_hard(seed),
                                                   1e-3),
    "covariance": lambda seed: covariance_problem(desk_covariance(seed), 0.1),
    "quadratic": lambda seed: synthetic_quadratic(*_DESK_QUADRATIC, seed,
                                                  mu=1.0),
}

# workload: the duality gap at x of the problem of a seed, whose l1 weight
# is mu
DESK_DUALITY_GAPS = {
    "logistic_sparse": lambda seed, mu, x: logistic_duality_gap(
        desk_logistic_sparse(seed), mu, x),
    "logistic_hard": lambda seed, mu, x: logistic_duality_gap(
        desk_logistic_hard(seed), mu, x),
    "covariance": lambda seed, mu, x: covariance_duality_gap(
        desk_covariance(seed), mu, x),
    "quadratic": lambda seed, mu, x: quadratic_duality_gap(
        *synthetic_quadratic_matrices(*_DESK_QUADRATIC, seed), mu, x),
}


def with_one_blas_thread(code):
    """The JSON that ``code`` prints, run by a new interpreter with
    ``OPENBLAS_NUM_THREADS=1`` and warnings as errors, with this
    checkout's ``src`` and ``tests`` first on its path: BLAS can round
    differently with another thread count, and that count is fixed when
    the library loads."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join(filter(None, [os.path.join(here, os.pardir, "src"),
                                         here, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)
