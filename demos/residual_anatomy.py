"""The semi-smooth residual: optimality measure and inner stopping test.

Demonstrates the pieces the solvers are built from:
  * the proximal (soft-threshold) step and its closed form,
  * the residual map F whose zeros are exactly the minimizers, and the
    identity ||x_prox - x|| = tau * ||F(x)||,
  * the inexactness report that gates acceptance of an inner solution.
"""

import numpy as np

from sqamin import (
    QuadraticModel,
    inexactness_check,
    ista_point,
    residual,
    soft_threshold,
)


def main():
    rng = np.random.default_rng(0)

    print("soft-thresholding shrinks each component toward zero:")
    v = np.array([1.0, -0.2, 0.0, 2.5])
    print(f"  soft_threshold({v}, 0.5) = {soft_threshold(v, 0.5)}")
    print()

    tau, mu = 0.5, 1.0
    x = rng.normal(size=5)
    g = rng.normal(size=5)
    F = residual(x, g, tau, mu)
    step = ista_point(x, g, tau, mu) - x
    print("the proximal displacement measures optimality:")
    print(f"  tau * ||F(x)||          = {tau * np.linalg.norm(F):.12f}")
    print(f"  ||prox_step(x) - x||    = {np.linalg.norm(step):.12f}")
    print()

    # a small model and the acceptance test for an approximate minimizer
    A = rng.normal(size=(5, 5))
    H = A @ A.T + np.eye(5)
    model = QuadraticModel(x, g, 1.0, lambda z: H @ z, mu)
    for label, candidate in (
        ("the reference point itself", x),
        ("one proximal step", ista_point(x, g, tau, mu)),
        ("fifty proximal steps", _prox_iterate(model, x, 50)),
    ):
        rep = inexactness_check(model, candidate, eta=0.1, tau=tau,
                                mode="strengthened", zeta=0.25)
        print(f"candidate: {label}")
        print(f"  residual {rep.residual_norm:.4e} vs bound "
              f"{rep.residual_bound:.4e}; model change "
              f"{rep.decrease_lhs:.4e} vs required {rep.decrease_rhs:.4e}"
              f" -> {'accept' if rep.ok else 'reject'}")


def _prox_iterate(model, start, iterations):
    z = start.copy()
    step = 0.05
    for _ in range(iterations):
        grad = model.smooth_eval(z)[1]
        z = soft_threshold(z - step * grad, step * model.mu)
    return z


if __name__ == "__main__":
    main()
