"""Shared helpers for the test suite: independent oracles and generators."""

import math

import numpy as np
from scipy.spatial.distance import cdist

from figp import LINEAR, FunctionalInput, kernel_matrix, matern_psi, \
    sample_function
from figp.kernels import PREMAPS

# basis for random smooth inputs on the unit square
POLY_BASIS = ("1", "x1", "x2", "x1*x2", "x1^2", "x2^2")


def random_poly_inputs(grid, n, rng):
    """n random Gaussian combinations of six monomials on a 2-d grid."""
    cols = np.column_stack([sample_function(e, grid).values for e in POLY_BASIS])
    return [FunctionalInput(grid, cols @ rng.standard_normal(cols.shape[1]))
            for _ in range(n)]


def kernel_entry(g1, g2, spec):
    """K(g1, g2) through the library's kernel_matrix on one-element lists."""
    return float(kernel_matrix([g1], [g2], spec)[0, 0])


def pairwise_kernel_oracle(g1, g2, spec):
    """K(g1, g2) for one pair, straight from the kernel definitions.

    Linear: the double quadrature sum of w_i M(g1)(x_i) w_j M(g2)(x_j)
    Psi(x_i, x_j), M the spec's premap.  Nonlinear: the Matern profile
    of gamma times the quadrature L2 norm of g1 - g2, computed from the
    difference rather than from inner products as kernel_matrix does.
    """
    grid = g1.grid
    if spec.family == LINEAR:
        premap = PREMAPS[spec.premap or "identity"]
        theta = np.asarray(spec.base.lengthscales)
        psi = matern_psi(cdist(grid.nodes * theta, grid.nodes * theta),
                         spec.base)
        a = grid.weights * premap(g1.values)
        b = grid.weights * premap(g2.values)
        return float(a @ psi @ b)
    d = g1.values - g2.values
    dist = math.sqrt(float(grid.weights @ (d * d)))
    return float(matern_psi(spec.gamma * dist, spec.base))


def brute_loocv(model):
    """Leave-one-out MSE by refitting each fold's linear system directly.

    The mean and hyperparameters stay frozen at their full-data values; each
    reduced system is solved with numpy plus one iterative-refinement step,
    its residual accumulated in np.longdouble, so the comparison against the
    closed form is not dominated by round-off (a float64 residual leaves an
    error near cond * eps, which reaches the 1e-8 tolerance at cond ~1e9).
    """
    K = model.factorization.gram
    y = np.asarray(model.y, dtype=float)
    mu = model.mu_hat
    n = K.shape[0]
    total = 0.0
    for i in range(n):
        idx = np.array([j for j in range(n) if j != i])
        A = K[np.ix_(idx, idx)]
        b = y[idx] - mu
        x = np.linalg.solve(A, b)
        r = b.astype(np.longdouble) - A.astype(np.longdouble) @ x
        x = x + np.linalg.solve(A, r.astype(float))
        pred = mu + K[idx, i] @ x
        total += (y[i] - pred) ** 2
    return total / n
