"""Shared helpers for the test suite: independent oracles and generators."""

import json
import math
import os

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.spatial.distance import cdist

import figp.kernels
from figp import LINEAR, FunctionalInput, kernel_matrix, matern_psi, \
    sample_function
from figp.gp import _FAILED, SCAN_STEP, SCAN_XATOL
from figp.kernels import PREMAPS

# basis for random smooth inputs on the unit square
POLY_BASIS = ("1", "x1", "x2", "x1*x2", "x1^2", "x2^2")


def random_poly_inputs(grid, n, rng):
    """n random Gaussian combinations of six monomials on a 2-d grid."""
    cols = np.column_stack([sample_function(e, grid).values for e in POLY_BASIS])
    return [FunctionalInput(grid, cols @ rng.standard_normal(cols.shape[1]))
            for _ in range(n)]


def count_psi_triangles(monkeypatch):
    """From here on, record the number of inputs of every triangle of
    Psi that figp profiles (`figp.kernels._PsiTriangle`); returns the
    list the counts go to."""
    real = figp.kernels._PsiTriangle
    builds = []

    class Counted(real):
        def __init__(self, inputs, *args):
            builds.append(len(inputs))
            super().__init__(inputs, *args)

    monkeypatch.setattr(figp.kernels, "_PsiTriangle", Counted)
    return builds


def scan_grid(lo, hi):
    """The log grid `figp.gp._profile_scan` searches on [lo, hi]."""
    return np.linspace(lo, hi, int(round((hi - lo) / SCAN_STEP)) + 1)


def full_profile_scan(objective, lo, hi):
    """Reference for `figp.gp._profile_scan`: the same search, with every
    point of its grid evaluated in order; returns the number of grid
    points."""
    grid = scan_grid(lo, hi)
    values = [objective(np.array([t])) for t in grid]
    i = int(np.argmin(values))
    if not values[i] < _FAILED:
        return grid.size
    if i in (0, grid.size - 1):
        inward = SCAN_XATOL if i == 0 else -SCAN_XATOL
        if not objective(np.array([grid[i] + inward])) < values[i]:
            return grid.size
    minimize_scalar(
        lambda t: objective(np.array([t])), method="bounded",
        bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
        options={"xatol": SCAN_XATOL})
    return grid.size


def kernel_entry(g1, g2, spec):
    """K(g1, g2) through the library's kernel_matrix on one-element lists."""
    return float(kernel_matrix([g1], [g2], spec)[0][0, 0])


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


def _output_cells(path):
    """The values of one `reproduce` output file in reading order, as
    (location, value, printed, column): `value` is a float for a number
    and the text otherwise, `printed` tells a CSV number printed to six
    significant digits from a JSON one printed in full, and `column`
    names the CSV data column (None elsewhere)."""
    if path.endswith(".json"):
        with open(path) as fh:
            data = json.load(fh)
        cells = []

        def walk(where, node):
            if isinstance(node, dict):
                for key in sorted(node):
                    walk(f"{where}.{key}", node[key])
            elif isinstance(node, list):
                for i, item in enumerate(node):
                    walk(f"{where}[{i}]", item)
            elif isinstance(node, float):
                cells.append((where, node, False, None))
            else:  # strings, integers, booleans and null compare exactly
                cells.append((where, repr(node), False, None))

        walk("", data)
        return cells
    cells = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = None
    for row, line in enumerate(lines, 1):
        if line.startswith("#"):  # key=value notes
            for token in line[1:].split():
                key, _, text = token.partition("=")
                cells.append(_csv_cell(f"line {row} {key}", text, None))
        elif header is None:
            header = line.split(",")
            cells.append((f"line {row}", line, False, None))
        else:
            for name, text in zip(header, line.split(",")):
                cells.append(_csv_cell(f"line {row} {name}", text, name))
    return cells


def _csv_cell(where, text, column):
    try:
        return where, float(text), True, column
    except ValueError:
        return where, text, False, None


def reproduce_moves(reference_dir, out_dir, rtol, column_scale=False):
    """Compare the `reproduce` outputs in `out_dir` with those recorded
    in `reference_dir`, file by file.

    A number may move by rtol * scale, and a CSV number by one more unit
    of its sixth significant digit, which a smaller move can flip in
    print.  The scale is the recorded value's magnitude or, with
    `column_scale`, the largest magnitude in its CSV column (for sample
    paths, whose values cross zero).  Text, integers and the set of
    files and values must match exactly.  Returns (largest moves,
    failures): for each file the largest |new - recorded| / scale, and
    one message per value beyond its bound.
    """
    names = sorted(os.listdir(reference_dir))
    failures = []
    if sorted(os.listdir(out_dir)) != names:
        failures.append(f"files {sorted(os.listdir(out_dir))} != {names}")
        return {}, failures
    largest = {}
    for name in names:
        ref = _output_cells(os.path.join(reference_dir, name))
        new = _output_cells(os.path.join(out_dir, name))
        if [c[0] for c in new] != [c[0] for c in ref]:
            failures.append(f"{name}: the values are not laid out as recorded")
            continue
        column_max = {}
        for _, b, _, column in ref:
            if column is not None:
                column_max[column] = max(column_max.get(column, 0.0), abs(b))
        largest[name] = 0.0
        for (where, b, printed, column), (_, a, _, _) in zip(ref, new):
            if isinstance(b, str) or isinstance(a, str):
                if a != b:
                    failures.append(f"{name} {where}: {a!r} != {b!r}")
                continue
            scale = column_max[column] if column_scale and column else abs(b)
            move = abs(a - b)
            unit = 10.0 ** (math.floor(math.log10(abs(b))) - 5) \
                if printed and b != 0 else 0.0
            if move > 0:
                largest[name] = max(largest[name],
                                    move / scale if scale else math.inf)
            if move > rtol * scale + unit:
                failures.append(f"{name} {where}: {a!r} moved from {b!r} "
                                f"by more than {rtol:g} of {scale:g}")
    return largest, failures
