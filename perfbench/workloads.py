"""The four seeded benchmark workloads.

Each workload has two steps that the benchmark times separately:

* ``setup(seed, workdir)`` generates the instance from the seed, writes the
  input file (when the workload reads one), and solves the instance once at a
  tighter tolerance to get the reference objective used by the correctness
  gate.  Users never pay this cost.
* ``load(setup_result)`` turns the input into a ``CompositeProblem`` through
  the library's public I/O functions, as the CLI does on every invocation.

The library modules are looked up as module attributes at call time
(``sqio.parse_svmlight``, not ``from sqamin.io import parse_svmlight``), so
the traced run can wrap them from outside.
"""

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

import sqamin.io as sqio
import sqamin.objectives as sqobj
from sqamin import SolverConfig, fista_baseline_solve, residual, sqa_solve

# Solver path -> (inner solver, Hessian source); ``None`` is the plain
# FISTA baseline on the objective itself.
PATHS = {
    "fista": None,
    "sqa_fista": ("fista", "exact"),
    "sqa_obm_cg": ("obm_cg", "exact"),
    "sqa_obm_qn": ("obm_qn", "lbfgs"),
}

# The reference solve runs at ``tol_inf * REFERENCE_TOL_FACTOR`` on one of
# the workload's ``reference_paths``; every benchmarked solve must then land
# within ``OBJECTIVE_RTOL * max(1, |reference|)`` of its objective.
REFERENCE_TOL_FACTOR = 1e-2
OBJECTIVE_RTOL = 1e-5


def solve(problem, path, tol_inf):
    """Run one solver path; returns ``(x, report)``."""
    if PATHS[path] is None:
        return fista_baseline_solve(problem, SolverConfig(tol_inf=tol_inf))
    inner, hessian_source = PATHS[path]
    config = SolverConfig(tol_inf=tol_inf, inner_solver=inner)
    return sqa_solve(problem, config, hessian_source=hessian_source)


def residual_inf(problem, x):
    """Max-norm of the optimality residual at ``x``, recomputed from the
    problem's gradient rather than read from the solver's report."""
    F = residual(x, problem.gradient(x), SolverConfig().tau, problem.mu)
    return float(np.max(np.abs(F)))


@dataclass
class Setup:
    """What set-up leaves for the load step and the correctness gate."""

    tol_inf: float
    reference_objective: float
    input_path: str = None
    input_bytes: int = 0
    payload: dict = field(default_factory=dict)


def _planted_labels(rng, Z, noise=0.5):
    """+/-1 labels from a noisy linear model over a quarter of the features.

    The clean score is scaled to unit standard deviation before the noise is
    added, so every instance has the same signal-to-noise ratio.  Without
    this, the random support and weights make the score scale, and with it
    the solvers' work, vary several-fold from seed to seed on correlated
    designs.
    """
    n_features = Z.shape[1]
    w = np.zeros(n_features)
    support = rng.choice(n_features, size=max(1, n_features // 4), replace=False)
    w[support] = rng.normal(size=support.size)
    score = np.asarray(Z @ w).ravel()
    score /= score.std()
    score += noise * rng.normal(size=Z.shape[0])
    return np.where(score >= 0, 1.0, -1.0)


class Workload:
    """A seeded family of instances; one run draws ``instances`` of them.

    ``small`` switches to the reduced sizes used by the self-checks.
    """

    name = ""
    why = ""
    tol_inf = 1e-5
    # Cheapest path first; the next one is tried when it does not converge
    # at the tighter tolerance (sqa_obm_qn can stall there).
    reference_paths = ("sqa_obm_qn", "sqa_obm_cg")
    instances = 1

    def __init__(self, small=False):
        self.small = small
        if small:
            self.instances = 2

    def reference(self, problem):
        """Objective at a tighter tolerance, from the first reference path
        that converges there."""
        statuses = []
        for path in self.reference_paths:
            x, report = solve(problem, path, self.tol_inf * REFERENCE_TOL_FACTOR)
            if report.status == "converged":
                return problem.objective(x)
            statuses.append(f"{path}: {report.status}")
        raise RuntimeError(f"{self.name}: no reference solve converged "
                           f"({', '.join(statuses)})")

    def input_name(self, seed, workdir):
        tag = "-".join(str(part) for part in seed)
        return os.path.join(workdir, f"{self.name}-{tag}-pid{os.getpid()}")


class LogisticSparse(Workload):
    name = "logistic_sparse"
    why = ("10000x1000 CSR at 1% density read from an SVMLight file; "
           "parsing and validation outweigh the Newton solves")
    mu = 1e-3
    instances = 10
    reference_paths = ("sqa_obm_cg", "sqa_obm_qn")

    def shape(self):
        return (1000, 200) if self.small else (10000, 1000)

    def setup(self, seed, workdir):
        n_samples, n_features = self.shape()
        rng = np.random.default_rng(seed)
        Z = scipy.sparse.random(n_samples, n_features, density=0.01,
                                format="csr", random_state=rng,
                                data_rvs=rng.standard_normal)
        data = sqobj.LogisticDataset(Z, _planted_labels(rng, Z))
        path = self.input_name(seed, workdir) + ".svm"
        sqio.write_svmlight(data, path)
        ref = self.reference(sqobj.logistic_problem(data, self.mu))
        return Setup(self.tol_inf, ref, path, os.path.getsize(path),
                     {"n_features": n_features})

    def load(self, s):
        data = sqio.parse_svmlight(s.input_path,
                                   n_features=s.payload["n_features"])
        return sqobj.logistic_problem(data, self.mu)


class LogisticHard(Workload):
    name = "logistic_hard"
    why = ("dense 600x100 AR(1) rho=0.9 design held in memory as CSR; the "
           "HVP oracle dominates and there is no parse step")
    mu = 1e-3
    rho = 0.9
    instances = 12

    def shape(self):
        return (200, 30) if self.small else (600, 100)

    def setup(self, seed, workdir):
        n_samples, n_features = self.shape()
        rng = np.random.default_rng(seed)
        E = rng.normal(size=(n_samples, n_features))
        Z = np.empty_like(E)
        Z[:, 0] = E[:, 0]
        innovation = np.sqrt(1.0 - self.rho ** 2)
        for j in range(1, n_features):
            Z[:, j] = self.rho * Z[:, j - 1] + innovation * E[:, j]
        labels = _planted_labels(rng, Z)
        features = scipy.sparse.csr_matrix(Z)
        data = sqobj.LogisticDataset(features, labels)
        ref = self.reference(sqobj.logistic_problem(data, self.mu))
        nbytes = (features.data.nbytes + features.indices.nbytes
                  + features.indptr.nbytes + labels.nbytes)
        return Setup(self.tol_inf, ref, None, nbytes,
                     {"features": features, "labels": labels})

    def load(self, s):
        data = sqio.LogisticDataset(s.payload["features"], s.payload["labels"])
        return sqobj.logistic_problem(data, self.mu)


class Covariance(Workload):
    name = "covariance"
    why = ("p=60 log-det problem from 1200 samples in a text file; a dense "
           "Cholesky oracle and an n=p^2 L-BFGS store")
    mu = 0.1
    off_diagonal = 0.4
    samples_per_dim = 20
    instances = 32
    reference_paths = ("sqa_obm_cg", "sqa_obm_qn")

    def dim(self):
        return 15 if self.small else 60

    def setup(self, seed, workdir):
        p = self.dim()
        rng = np.random.default_rng(seed)
        precision = (np.eye(p) + self.off_diagonal * np.eye(p, k=1)
                     + self.off_diagonal * np.eye(p, k=-1))
        L = np.linalg.cholesky(precision)
        # x = L^{-T} z has covariance (L L^T)^{-1}, the inverse precision.
        samples = scipy.linalg.solve_triangular(
            L.T, rng.normal(size=(p, self.samples_per_dim * p)), lower=False).T
        path = self.input_name(seed, workdir) + ".txt"
        np.savetxt(path, samples, fmt="%.17g")
        problem = sqobj.covariance_problem(sqio.sample_covariance(samples),
                                           self.mu)
        ref = self.reference(problem)
        return Setup(self.tol_inf, ref, path, os.path.getsize(path))

    def load(self, s):
        samples = sqio.load_dense_matrix(s.input_path)
        return sqobj.covariance_problem(sqio.sample_covariance(samples), self.mu)


class Quadratic(Workload):
    name = "quadratic"
    why = ("n=500 quadratic, condition 1e4, mu=1; a cheap dense matvec "
           "oracle, so inner-solver and prox self time show")
    mu = 1.0
    condition = 1e4
    instances = 16
    reference_paths = ("sqa_fista", "sqa_obm_cg")

    def dim(self):
        return 50 if self.small else 500

    def setup(self, seed, workdir):
        problem = sqobj.synthetic_quadratic(self.dim(), self.condition, seed,
                                            mu=self.mu)
        ref = self.reference(problem)
        return Setup(self.tol_inf, ref, payload={"seed": seed})

    def load(self, s):
        return sqobj.synthetic_quadratic(self.dim(), self.condition,
                                         s.payload["seed"], mu=self.mu)


WORKLOADS = {w.name: w for w in (LogisticSparse, LogisticHard, Covariance,
                                 Quadratic)}
