"""Reproduction harness for the reference tables and figure datasets.

Each target writes deterministic CSV files (and a JSON report with full
precision) into an output directory.  All randomness flows from the
single seed argument.  The sample-path and error-decay experiments are
also what the CLI's `sample-paths` and `mspe-decay` commands run.
"""

from __future__ import annotations

import functools
import math
import os
from typing import List, Optional, Tuple

import numpy as np

from .designs import (
    DecayCurve,
    empirical_mspe,
    eigenfunction_design,
    knot_design,
    lattice_knots,
)
from .domain import (Domain, FunctionalInput, QuadratureGrid, build_grid,
                     sample_function)
from .errors import FigpError
from .gp import (fit, loocv_error, predict_many, select_family,
                 selection_entry)
from .kernels import LINEAR, NONLINEAR, PREMAPS, KernelSpec, MaternParams
from .sampling import nystrom_eig, sample_paths_gram, sine_frequency_family
from .storage import (fmt6, save_decay_curve, save_path_family, write_csv,
                      write_json)

# The eight training inputs of the scalar benchmark, on the unit square.
TRAINING_EXPRESSIONS = (
    "x1+x2",
    "x1^2",
    "x2^2",
    "1+x1",
    "1+x2",
    "1+x1*x2",
    "sin(x1)",
    "cos(x1+x2)",
)

# Scalar functionals of the input: the integral of its premap.
FUNCTIONALS = {"f1": "identity", "f2": "square", "f3": "sin"}


def evaluate_functional(name: str, g: FunctionalInput) -> float:
    m = PREMAPS[FUNCTIONALS[name]]
    return float(np.dot(g.grid.weights, m(g.values)))


def _unit_square_grid(grid_res: Optional[int]):
    return build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), grid_res)


def _training_set(grid) -> List[FunctionalInput]:
    return [sample_function(e, grid) for e in TRAINING_EXPRESSIONS]


def reproduce_table1(out_dir: str, seed: int = 42,
                     grid_res: Optional[int] = None):
    """Quadrature values of the three functionals on the training inputs."""
    grid = _unit_square_grid(grid_res)
    header = ["input", *FUNCTIONALS]
    rows = [[g.label] + [evaluate_functional(f, g) for f in FUNCTIONALS]
            for g in _training_set(grid)]
    path = os.path.join(out_dir, "table1.csv")
    write_csv(path, header, ([r[0]] + [fmt6(v) for v in r[1:]] for r in rows))
    report = {"rows": [dict(zip(header, r)) for r in rows]}
    write_json(os.path.join(out_dir, "table1.json"), report)
    return [path, os.path.join(out_dir, "table1.json")], report


def draw_test_inputs(grid, a1: float, a2: float, b: float, k: float):
    """The three held-out input families at one parameter draw."""
    x1 = grid.nodes[:, 0]
    x2 = grid.nodes[:, 1]
    return [
        FunctionalInput(grid, 1.0 + np.sin(a1 * x1 + a2 * x2),
                        label=f"1+sin({a1:.17g}*x1+{a2:.17g}*x2)"),
        FunctionalInput(grid, b + x1 ** 2 + x2 ** 3,
                        label=f"{b:.17g}+x1^2+x2^3"),
        FunctionalInput(grid, np.exp(-k * x1 * x2),
                        label=f"exp(-{k:.17g}*x1*x2)"),
    ]


N_DRAWS = 100  # held-out parameter draws of Table 2


def reproduce_table2(out_dir: str, seed: int = 42,
                     grid_res: Optional[int] = None):
    """Kernel comparison: leave-one-out errors and held-out MAPE.

    For each scalar functional, both kernel families are fitted on the
    eight training inputs, each family to the three functionals in one
    `fit` call; accuracy is scored on `N_DRAWS` seeded
    parameter draws of the three test families, identical across
    kernels.  The report entries and the selection are those of
    `select_kernel`.
    """
    grid = _unit_square_grid(grid_res)
    inputs = _training_set(grid)

    rng = np.random.default_rng(seed)
    all_tests = []
    for a1, a2, b, k in rng.uniform(size=(N_DRAWS, 4)):
        all_tests.extend(draw_test_inputs(grid, a1, a2, b, k))

    # the functionals share their inputs, so each family fits all three
    # in one call, which factorizes each Gram they share once
    outputs = np.array([[evaluate_functional(f, g) for f in FUNCTIONALS]
                        for g in inputs])
    truths = [np.array([evaluate_functional(f, g) for g in all_tests])
              for f in FUNCTIONALS]
    report = {fname: {} for fname in FUNCTIONALS}
    for family in (LINEAR, NONLINEAR):
        models = fit(inputs, outputs, family)
        for fname, truth, model in zip(FUNCTIONALS, truths, models):
            preds, _ = predict_many(model, all_tests)
            ape = np.abs((truth - preds) / truth).reshape(N_DRAWS, 3) * 100.0
            entry = selection_entry(model, loocv_error(model))
            entry.update({
                # balanced design, so the two nestings agree; both are
                # reported for transparency
                "mape_by_draw_then_family": float(ape.mean(axis=1).mean()),
                "mape_by_family_then_draw": float(ape.mean(axis=0).mean()),
                "mape": float(ape.mean()),
            })
            report[fname][family] = entry
    rows = []
    for fname, entry in report.items():
        selected = select_family({f: entry[f]["loocv"]
                                  for f in (LINEAR, NONLINEAR)})
        entry["selected"] = selected
        rows += [[fname, f, fmt6(entry[f]["loocv"]), fmt6(entry[f]["mape"]),
                  "yes" if f == selected else "no"]
                 for f in (LINEAR, NONLINEAR)]

    csv_path = os.path.join(out_dir, "table2.csv")
    write_csv(csv_path, ["function", "kernel", "loocv", "mape_percent",
                         "selected"], rows)
    json_path = os.path.join(out_dir, "table2.json")
    write_json(json_path, {"seed": seed, "n_draws": N_DRAWS,
                           "functions": report})
    return [csv_path, json_path], report


# Kernel family and sweep table of each sample-path figure.  Each row of
# a figure fixes all parameters but one; the swept values bracket the
# fixed one.
FIGURES = {
    "figure2": (LINEAR, {
        "nu": ((0.5, 1.5, 2.5), {"theta": 1.0, "sigma2": 1.0}),
        "theta": ((0.1, 1.0, 10.0), {"nu": 2.5, "sigma2": 1.0}),
        "sigma2": ((0.1, 1.0, 10.0), {"nu": 2.5, "theta": 1.0}),
    }),
    "figure3": (NONLINEAR, {
        "nu": ((0.5, 1.5, 2.5), {"gamma": 0.01, "sigma2": 1.0}),
        "gamma": ((0.001, 0.01, 0.1), {"nu": 2.5, "sigma2": 1.0}),
        "sigma2": ((0.1, 1.0, 10.0), {"nu": 2.5, "gamma": 0.01}),
    }),
}
FIGURE_DEFAULTS = {"nu": 2.5, "theta": 1.0, "sigma2": 1.0, "gamma": 0.01}
PATHS_PER_PANEL = 5
ALPHA_COUNT = 101
SINE_BOUNDS = (0.0, 2.0 * math.pi)


def path_kernel(family: str, nu: float, sigma2: float, theta: float,
                gamma: float) -> KernelSpec:
    """The sample-path kernel: lengthscale `theta` for the linear
    family, distance scale `gamma` for the nonlinear one."""
    if family == LINEAR:
        return KernelSpec(LINEAR, MaternParams(nu, sigma2, (theta,)))
    return KernelSpec(NONLINEAR, MaternParams(nu, sigma2), gamma=gamma)


def sine_family(grid_res: Optional[int] = None,
                alpha_count: int = ALPHA_COUNT,
                bounds: Tuple[float, float] = SINE_BOUNDS):
    """The sample-path inputs: (alphas, inputs) for the sine-frequency
    family on the interval `bounds` at `alpha_count` frequencies in [0, 1]."""
    if alpha_count < 1:
        raise FigpError(f"alpha_count must be at least 1, got {alpha_count}")
    grid = build_grid(Domain((bounds,)), grid_res)
    alphas = np.linspace(0.0, 1.0, alpha_count)
    return alphas, sine_frequency_family(grid, alphas)


def _figure_paths(name: str, out_dir: str, seed: int = 42,
                  grid_res: Optional[int] = None):
    """Sample-path sweeps of one of FIGURES over the sine family."""
    family, sweeps = FIGURES[name]
    alphas, inputs = sine_family(grid_res)
    files = []
    summary = {}
    for param, (values, fixed) in sweeps.items():
        for value in values:
            setting = {**FIGURE_DEFAULTS, **fixed, param: value}
            pf = sample_paths_gram(inputs, path_kernel(family, **setting),
                                   PATHS_PER_PANEL, seed, index_values=alphas)
            fname = f"{name}_{param}-{value:g}.csv"
            path = os.path.join(out_dir, fname)
            save_path_family(path, pf)
            files.append(path)
            summary[fname] = {k: setting[k] for k in sorted(setting)}
    report = {"seed": seed, "n_paths": PATHS_PER_PANEL,
              "alpha_count": ALPHA_COUNT, "panels": summary}
    json_path = os.path.join(out_dir, f"{name}.json")
    write_json(json_path, report)
    return files + [json_path], report


# Configuration of the error-decay experiment: a short-lengthscale
# smoothness-3/2 kernel on the unit interval, scored exactly at kernel
# translates placed away from the design lattice.
MSPE_SIZES = (8, 16, 32, 64)
MSPE_NU = 1.5
MSPE_THETA = 8.0
MSPE_TEST_POINTS = (0.137, 0.361, 0.589, 0.823)
MSPE_GRID_RES = 256


def mspe_grid(grid_res: Optional[int] = None) -> QuadratureGrid:
    """The error-decay experiment's grid on the unit interval."""
    return build_grid(Domain(((0.0, 1.0),)),
                      MSPE_GRID_RES if grid_res is None else grid_res)


def mspe_decay_curve(design: str, grid: QuadratureGrid, seed: int = 42,
                     nu: float = MSPE_NU, theta: float = MSPE_THETA,
                     sizes=MSPE_SIZES, method: str = "exact",
                     replicates: int = 200) -> DecayCurve:
    """MSPE decay of the "knot" or "eigen" design on a `mspe_grid`.

    The kernel is linear with unit variance; the test inputs are kernel
    translates centered at `MSPE_TEST_POINTS`.  The theoretical rate is
    -2 nu / d for knots and -4 nu / d for eigenfunctions.
    """
    domain = grid.domain
    params = MaternParams(nu, 1.0, (theta,))
    tests = knot_design(np.array(MSPE_TEST_POINTS)[:, None], params, grid)
    if design == "knot":
        def builder(n):
            return knot_design(lattice_knots(domain, n), params, grid)
        rate = -2.0 * nu / domain.dim
    else:
        def builder(n):
            return eigenfunction_design(nystrom_eig(params, grid), n)
        rate = -4.0 * nu / domain.dim
    return empirical_mspe(builder, sizes, tests, KernelSpec(LINEAR, params),
                          replicates=replicates, seed=seed, method=method,
                          theoretical_rate=rate)


def reproduce_mspe_decay(out_dir: str, seed: int = 42,
                         grid_res: Optional[int] = None):
    """Exact MSPE decay for the knot and eigenfunction designs."""
    grid = mspe_grid(grid_res)
    files = []
    report = {"sizes": list(MSPE_SIZES), "nu": MSPE_NU, "theta": MSPE_THETA}
    for name in ("knot", "eigen"):
        curve = mspe_decay_curve(name, grid, seed=seed)
        path = os.path.join(out_dir, f"mspe_decay_{name}.csv")
        save_decay_curve(path, curve)
        files.append(path)
        report[name] = {"slope": curve.slope,
                        "mspe": [float(v) for v in curve.mspe]}
    json_path = os.path.join(out_dir, "mspe_decay.json")
    write_json(json_path, report)
    return files + [json_path], report


_RUNNERS = {
    "table1": reproduce_table1,
    "table2": reproduce_table2,
    "figure2": functools.partial(_figure_paths, "figure2"),
    "figure3": functools.partial(_figure_paths, "figure3"),
    "mspe_decay": reproduce_mspe_decay,
}
TARGETS = tuple(_RUNNERS)


def run_reproduce(target: str, out_dir: str, seed: int = 42,
                  grid_res: Optional[int] = None) -> Tuple[List[str], dict]:
    """Run one reproduction target, returning (written files, report)."""
    if target not in _RUNNERS:
        raise FigpError(
            f"unknown reproduce target {target!r}; choose from {TARGETS}"
        )
    return _RUNNERS[target](out_dir, seed=seed, grid_res=grid_res)
