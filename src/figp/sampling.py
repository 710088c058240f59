"""Prior sample paths and the quadrature eigendecomposition.

Two sampling routes are provided.  The Gram route factorizes the joint
covariance of the requested inputs and is exact for any kernel.  The
truncated series route applies to the linear kernel only: it expands
the process over the base kernel's eigenpairs, which are obtained by
solving the symmetric eigenproblem of W^{1/2} Psi W^{1/2} on the
quadrature nodes and rescaling the vectors by W^{-1/2} so they are
orthonormal in the weighted inner product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .domain import FunctionalInput, QuadratureGrid, _freeze, _shared_grid
from .errors import FigpError
from .kernels import KernelSpec, MaternParams, base_kernel_matrix, gram


@dataclass(frozen=True)
class EigenSystem:
    """Top-m eigenpairs of the base kernel under the quadrature measure.

    `eigenfunctions` has one column per eigenfunction, evaluated at the
    grid nodes; columns are orthonormal under the grid weights to about
    1e-6.  `tail_mass` is the summed spectrum beyond the truncation and
    bounds the covariance bias of truncated sampling.  At least one
    eigenpair is retained.
    """

    grid: QuadratureGrid
    eigenvalues: np.ndarray  # (m,), descending, positive
    eigenfunctions: np.ndarray  # (n_q, m)
    tail_mass: float

    def __post_init__(self):
        _freeze(self, "eigenvalues", "eigenfunctions")
        ev = self.eigenvalues
        if ev.ndim != 1 or \
                self.eigenfunctions.shape != (self.grid.n_points, ev.size):
            raise FigpError("eigensystem shapes are inconsistent")
        if np.any(np.diff(ev) > 0) or np.any(ev <= 0):
            raise FigpError("eigenvalues must be positive and descending")
        if ev.size == 0:
            raise FigpError("eigensystem has no retained terms")

    @property
    def truncation(self) -> int:
        return self.eigenvalues.size

    def features(self, inputs: Sequence[FunctionalInput]) -> np.ndarray:
        """Eigen features Lambda^{1/2} Phi^T W V, one column per input:
        sqrt(lambda_j) <phi_j, g> over the retained j, where V holds the
        input values.  Every input must live on this eigensystem's grid
        (GridMismatchError otherwise), and there must be at least one."""
        _shared_grid("eigen features", eigensystem=[self], inputs=inputs)
        V = np.column_stack([g.values for g in inputs])
        proj = (self.grid.weights[:, None] * self.eigenfunctions).T
        return np.sqrt(self.eigenvalues)[:, None] * (proj @ V)


def nystrom_eig(params: MaternParams, grid: QuadratureGrid,
                m: Optional[int] = None) -> EigenSystem:
    """Quadrature eigendecomposition of the base kernel, truncated to m.

    Eigenvalues at or below numerical zero (relative 1e-14 of the
    largest) are dropped, so the returned truncation can be smaller
    than requested when the trailing spectrum has underflowed.  With
    m=None every numerically positive eigenpair is kept.  A repeat call
    for equal params, an equal grid and the same m returns the last
    eigensystem again (it is read-only).
    """
    m = grid.n_points if m is None else m
    if not 1 <= m <= grid.n_points:
        raise FigpError(f"truncation m={m} must lie in [1, {grid.n_points}]")
    return _eigensystem(params, grid, m)


# One slot: no caller alternates between two kernels or grids, and an
# entry holds n_q x m floats (20 MB at 1,600 nodes).
@lru_cache(maxsize=1)
def _eigensystem(params: MaternParams, grid: QuadratureGrid,
                 m: int) -> EigenSystem:
    psi = base_kernel_matrix(grid.nodes, grid.nodes, params)
    sw = np.sqrt(grid.weights)
    B = sw[:, None] * psi * sw[None, :]
    B = 0.5 * (B + B.T)
    evals, evecs = np.linalg.eigh(B)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    floor = 1e-14 * max(evals[0], 0.0)
    keep = min(m, int(np.sum(evals > floor)))
    if keep < 1:
        raise FigpError("base kernel matrix is numerically rank zero")
    total = float(np.sum(np.clip(evals, 0.0, None)))
    tail = total - float(np.sum(evals[:keep]))
    phi = evecs[:, :keep] / sw[:, None]
    return EigenSystem(grid, evals[:keep], phi, max(tail, 0.0))


@dataclass(frozen=True)
class PathFamily:
    """Sampled process values over an indexed family of inputs."""

    index_values: np.ndarray  # (n_inputs,)
    inputs: Tuple[FunctionalInput, ...]
    draws: np.ndarray  # (n_paths, n_inputs)
    seed: int
    params: dict  # parameter set recorded for the CSV header

    def __post_init__(self):
        _freeze(self, "index_values", "draws")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if not self.draws.shape[1] == self.index_values.size == \
                len(self.inputs):
            raise FigpError("path family shapes are inconsistent")
        if not np.all(np.isfinite(self.draws)):
            raise FigpError("path draws contain non-finite values")

    @property
    def n_paths(self) -> int:
        return self.draws.shape[0]


def _resolve_index(inputs, index_values):
    return np.arange(len(inputs)) if index_values is None else index_values


def sample_paths_gram(inputs: Sequence[FunctionalInput], spec: KernelSpec,
                      n_paths: int, seed: int,
                      index_values=None) -> PathFamily:
    """Draw joint sample paths through the Gram factorization.

    Draw matrix rows are Z L^T with Z standard normal from
    numpy's default generator seeded with `seed`; the draw covariance
    targets the kernel matrix of the inputs (plus the nugget diagonal).
    """
    inputs = list(inputs)
    if n_paths < 1:
        raise FigpError("n_paths must be positive")
    fact = gram(inputs, spec)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n_paths, len(inputs)))
    draws = Z @ fact.chol.T
    params = _spec_params(spec, seed)
    return PathFamily(_resolve_index(inputs, index_values), inputs, draws,
                      int(seed), params)


def sample_paths_kl(eigensystem: EigenSystem,
                    inputs: Sequence[FunctionalInput], n_paths: int,
                    seed: int, index_values=None) -> PathFamily:
    """Draw sample paths from the truncated eigen-expansion.

    Each draw is sum_j sqrt(lambda_j) <phi_j, g> Z_j over the retained
    eigenpairs; valid for the linear kernel, whose covariance the
    expansion reproduces up to the recorded tail mass.
    """
    inputs = list(inputs)
    if n_paths < 1:
        raise FigpError("n_paths must be positive")
    C = eigensystem.features(inputs)  # (m, n_inputs)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n_paths, eigensystem.truncation))
    draws = Z @ C
    params = {"truncation": eigensystem.truncation,
              "tail_mass": eigensystem.tail_mass, "seed": int(seed)}
    return PathFamily(_resolve_index(inputs, index_values), inputs, draws,
                      int(seed), params)


def _spec_params(spec: KernelSpec, seed) -> dict:
    params = {"family": spec.family, "nu": spec.base.nu,
              "sigma2": spec.base.sigma2, "seed": int(seed)}
    if spec.family == "linear":
        params["theta"] = ",".join(f"{t:g}" for t in spec.base.lengthscales)
    else:
        params["gamma"] = spec.gamma
    return params


def sine_frequency_family(grid: QuadratureGrid, alphas) -> List[FunctionalInput]:
    """The sin(alpha x) family on a 1-d grid, one input per frequency,
    labeled with the shortest digits of alpha that rebuild it."""
    if grid.domain.dim != 1:
        raise FigpError("the sine frequency family is one-dimensional")
    alphas = np.asarray(alphas, dtype=float)
    x = grid.nodes[:, 0]
    return [
        FunctionalInput(grid, np.sin(a * x), label="sin(%s*x1)"
                        % np.format_float_positional(a, trim="-"))
        for a in alphas
    ]
