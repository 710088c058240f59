"""Input-function designs and empirical prediction-error decay.

Two canonical designs are studied: the leading eigenfunctions of the
base kernel, and translates of the base kernel centered at a lattice
of knots.  For a process drawn from the prior, the mean squared
prediction error of the zero-mean posterior mean at a test input is
exactly the posterior variance, so rates can be measured without Monte
Carlo; a simulation route is kept as a cross-check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .domain import (Domain, FunctionalInput, QuadratureGrid, _freeze,
                     _shared_grid, _tensor_points)
from .errors import FigpError
from .gp import build_model, predict_many
from .kernels import (
    LINEAR,
    KernelSpec,
    MaternParams,
    _node_distances,
    base_kernel_matrix,
    gram,
)
from .sampling import EigenSystem, nystrom_eig


def lattice_knots(domain: Domain, n: int) -> np.ndarray:
    """Quasi-uniform lattice of n knots including the boundary, as an
    (n, d) array.

    n must be a d-th power m^d and the lattice is the m-per-axis product
    grid of equispaced points, the boundary included.
    """
    if n < 2:
        raise FigpError("a lattice needs at least two knots")
    d = domain.dim
    m = round(n ** (1.0 / d))
    if m ** d != n:
        raise FigpError(f"lattice size {n} is not an integer m to the "
                        f"power {d}; use m**{d} knots")
    return _tensor_points([np.linspace(a, b, m) for a, b in domain.bounds])


def eigenfunction_design(eigensystem: EigenSystem, n: int) -> List[FunctionalInput]:
    """The first n eigenfunctions of the base kernel as inputs."""
    if not 1 <= n <= eigensystem.truncation:
        raise FigpError(
            f"requested {n} eigenfunctions but only "
            f"{eigensystem.truncation} are available"
        )
    grid = eigensystem.grid
    return [
        FunctionalInput(grid, eigensystem.eigenfunctions[:, j],
                        label=f"eigenfunction_{j + 1}")
        for j in range(n)
    ]


def knot_design(knots: np.ndarray, params: MaternParams,
                grid: QuadratureGrid) -> List[FunctionalInput]:
    """Kernel translates g_j = Psi(. , x_j) sampled on the grid, one per
    row x_j of the (n, d) array `knots` (n >= 1, d the grid's
    dimension)."""
    pts = np.asarray(knots, dtype=float)
    d = grid.domain.dim
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] != d:
        raise FigpError(f"knots must be an (n, {d}) array with n >= 1, "
                        f"got shape {pts.shape}")
    if not grid.domain.contains(pts).all():
        raise FigpError("knots fall outside the grid's domain")
    if pts.shape[0] > 1:
        pd = _node_distances(pts, pts)
        np.fill_diagonal(pd, np.inf)
        if pd.min() == 0.0:
            warnings.warn(
                "coincident knots produce identical inputs; the Gram will "
                "need a nugget", stacklevel=2,
            )
    values = base_kernel_matrix(grid.nodes, pts, params)
    return [
        FunctionalInput(grid, values[:, j],
                        label=f"knot({', '.join(f'{c:g}' for c in pts[j])})")
        for j in range(pts.shape[0])
    ]


@dataclass(frozen=True)
class DecayCurve:
    """Prediction-error decay over a schedule of design sizes."""

    sizes: np.ndarray
    mspe: np.ndarray
    se: np.ndarray
    slope: float
    slope_se: float
    replicates: int
    method: str
    theoretical_rate: Optional[float] = None

    def __post_init__(self):
        _freeze(self, "sizes", dtype=int)
        _freeze(self, "mspe", "se")
        if np.any(np.diff(self.sizes) <= 0):
            raise FigpError("design sizes must be strictly increasing")
        if np.any(self.mspe < 0):
            raise FigpError("MSPE values must be non-negative")


def _loglog_slope(sizes, values):
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.clip(np.asarray(values, dtype=float), 1e-300, None))
    slope, intercept = np.polyfit(x, y, 1)
    if x.size > 2:
        resid = y - (slope * x + intercept)
        sxx = float(np.sum((x - x.mean()) ** 2))
        se = float(np.sqrt(np.sum(resid ** 2) / (x.size - 2) / sxx))
    else:
        se = float("nan")
    return float(slope), se


def _series_mspe(design, tests, eig: EigenSystem) -> np.ndarray:
    """Posterior variance at each test input via the eigen-expansion.

    Valid for the plain linear kernel over `eig`'s base kernel.  In
    feature space the variance is a projection residual, so no nugget
    enters and values far below machine-epsilon-times-signal stay
    meaningful.
    """
    C_design = eig.features(design)
    C_test = eig.features(tests)
    Q, _ = np.linalg.qr(C_design)
    full = np.einsum("ij,ij->j", C_test, C_test)
    captured = np.einsum("ij,ij->j", Q.T @ C_test, Q.T @ C_test)
    return np.clip(full - captured, 0.0, None)


def _gram_mspe(design, tests, spec: KernelSpec) -> np.ndarray:
    """Posterior variance at each test input, as `predict_many` computes
    it for a zero-mean model on the design (outputs are irrelevant)."""
    model = build_model(spec, design, np.zeros(len(design)), mu=0.0)
    return predict_many(model, tests)[1]


def exact_mspe(design: Sequence[FunctionalInput],
               tests: Sequence[FunctionalInput],
               spec: KernelSpec) -> np.ndarray:
    """Exact zero-mean MSPE at each test input for prior-drawn truths.

    The plain linear kernel takes the series route over
    `nystrom_eig(spec.base, grid)`.  All inputs must share one grid
    (GridMismatchError otherwise), and neither `design` nor `tests` may
    be empty.
    """
    design = list(design)
    tests = list(tests)
    grid = _shared_grid("exact_mspe", design=design, tests=tests)
    if spec.family == LINEAR and spec.premap in (None, "identity"):
        return _series_mspe(design, tests, nystrom_eig(spec.base, grid))
    return _gram_mspe(design, tests, spec)


def empirical_mspe(design_builder: Callable[[int], List[FunctionalInput]],
                   sizes: Sequence[int],
                   test_functions: Sequence[FunctionalInput],
                   spec: KernelSpec,
                   replicates: int = 200,
                   seed: int = 0,
                   method: str = "exact",
                   theoretical_rate: Optional[float] = None) -> DecayCurve:
    """Measure MSPE against design size and fit its log-log slope.

    The kernel hyperparameters are taken as fixed and known; nothing is
    refit per size.  `method` "exact" evaluates the posterior variance
    directly by `exact_mspe`; "mc" draws prior realizations jointly at
    design and test inputs and scores the zero-mean posterior mean
    against them.
    """
    sizes = [int(n) for n in sizes]
    if len(sizes) < 2 or any(n < 2 for n in sizes):
        raise FigpError("need at least two sizes, each of at least 2")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise FigpError(f"design sizes must be strictly increasing, "
                        f"got {sizes}")
    tests = list(test_functions)
    if not tests:
        raise FigpError("need at least one test function")
    if method not in ("exact", "mc"):
        raise FigpError(f"unknown method {method!r}")
    if method == "mc" and replicates < 2:
        raise FigpError(f"method 'mc' needs replicates >= 2, got {replicates}")

    mspe_vals, se_vals = [], []
    rng = np.random.default_rng(seed)
    for n in sizes:
        try:
            design = design_builder(n)
        except FigpError as exc:
            raise FigpError(f"design construction failed at size {n}: {exc}")
        if method == "exact":
            per_test = exact_mspe(design, tests, spec)
            mspe_vals.append(float(per_test.mean()))
            se_vals.append(0.0)
        else:
            joint = list(design) + tests
            try:
                fact = gram(joint, spec)
            except FigpError as exc:
                raise FigpError(f"Gram factorization failed at size {n}: {exc}")
            Z = rng.standard_normal((replicates, len(joint)))
            Y_t = Z @ fact.chol[n:].T
            # the paths are Z L^T, so with L's blocks L_dd and L_td the
            # design paths are Z_d L_dd^T and the joint Gram's blocks are
            # K_dd = L_dd L_dd^T, K_dt = L_dd L_td^T: the posterior mean
            # Y_d K_dd^-1 K_dt is Z_d L_td^T, with no solve
            preds = Z[:, :n] @ fact.chol[n:, :n].T
            per_rep = np.mean((preds - Y_t) ** 2, axis=1)
            mspe_vals.append(float(per_rep.mean()))
            se_vals.append(float(per_rep.std(ddof=1) / np.sqrt(replicates)))

    slope, slope_se = _loglog_slope(sizes, mspe_vals)
    return DecayCurve(sizes, mspe_vals, se_vals, slope, slope_se,
                      replicates if method == "mc" else 0, method,
                      theoretical_rate)
