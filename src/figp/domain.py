"""Input domain, quadrature grids, and grid-sampled functional inputs.

Every integral the model needs (kernel double integrals, L2 inner
products and norms) reduces to a weighted sum over a shared
tensor-product quadrature grid, so functions are represented by their
values at the grid nodes.  Inputs on different grids are rejected
rather than resampled.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional, Tuple

import numpy as np

from .errors import ExpressionError, FigpError, GridMismatchError
from .expressions import evaluate_expression

GAUSS_LEGENDRE = "gauss-legendre"
UNIFORM_MIDPOINT = "midpoint"
_RULES = (GAUSS_LEGENDRE, UNIFORM_MIDPOINT)

# Defaults chosen so that doubling the resolution moves the smooth
# integrals used in the test problems by far less than 1e-10.
DEFAULT_RESOLUTION = {1: 64, 2: 20}


def _freeze(record, *names, dtype=float) -> None:
    """Set each named field of the frozen dataclass `record` to a
    read-only, C-contiguous copy of its value in `dtype`: the caller's
    arrays stay writeable, and writing to them leaves the record as is."""
    for name in names:
        a = np.array(getattr(record, name), dtype=dtype, order="C")
        a.setflags(write=False)
        object.__setattr__(record, name, a)


@dataclass(frozen=True)
class Domain:
    """A closed hyperrectangle in R^d given by per-dimension intervals."""

    bounds: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        bounds = tuple((float(a), float(b)) for a, b in self.bounds)
        if len(bounds) < 1:
            raise FigpError("domain must have at least one dimension")
        for i, (a, b) in enumerate(bounds):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise FigpError(f"dimension {i + 1} has non-finite bounds")
            if not a < b:
                raise FigpError(
                    f"dimension {i + 1} needs a < b, got [{a}, {b}]"
                )
        object.__setattr__(self, "bounds", bounds)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def volume(self) -> float:
        return float(np.prod([b - a for a, b in self.bounds]))

    def contains(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ok = np.ones(points.shape[0], dtype=bool)
        for i, (a, b) in enumerate(self.bounds):
            ok &= (points[:, i] >= a - 1e-12) & (points[:, i] <= b + 1e-12)
        return ok


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Tensor-product quadrature nodes and weights over a Domain.

    Two grids compare equal when they share the domain, rule and
    resolution; node construction is deterministic so that metadata
    pins the arrays.
    """

    domain: Domain
    nodes: np.ndarray  # (n_points, d)
    weights: np.ndarray  # (n_points,)
    rule: str
    resolution: int

    def __post_init__(self):
        _freeze(self, "nodes", "weights")
        if self.nodes.shape != (self.weights.size, self.domain.dim):
            raise FigpError("node/weight shapes are inconsistent")
        if np.any(self.weights <= 0):
            raise FigpError("quadrature weights must be strictly positive")
        vol = self.domain.volume
        if abs(self.weights.sum() - vol) > 1e-12 * max(1.0, vol):
            raise FigpError("quadrature weights do not sum to the volume")
        if not self.domain.contains(self.nodes).all():
            raise FigpError("quadrature nodes fall outside the domain")

    @property
    def n_points(self) -> int:
        return self.weights.size

    def __eq__(self, other):
        if not isinstance(other, QuadratureGrid):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.rule == other.rule
            and self.resolution == other.resolution
        )

    def __hash__(self):
        return hash((self.domain.bounds, self.rule, self.resolution))


@lru_cache(maxsize=8)
def _reference_rule(resolution: int) -> Tuple[np.ndarray, np.ndarray]:
    """numpy's Gauss-Legendre nodes and weights on [-1, 1], read-only.
    Building the rule costs more than the rest of a grid, so grids of
    one resolution share it (the last 8 resolutions are kept)."""
    rule = np.polynomial.legendre.leggauss(resolution)
    for a in rule:
        a.setflags(write=False)
    return rule


def _check_resolution(resolution, dim: int) -> int:
    """`resolution` as an int of at least 2 (20.0 is 20) whose grid of
    resolution^dim nodes numpy can index; FigpError naming it if not."""
    if not (isinstance(resolution, numbers.Real)
            and not isinstance(resolution, bool)
            and math.isfinite(resolution)
            and resolution == int(resolution) >= 2):
        raise FigpError(f"resolution must be an integer of at least 2 points "
                        f"per dimension, got {resolution!r}")
    if int(resolution) ** dim > np.iinfo(np.intp).max:
        raise FigpError(f"resolution must give at most {np.iinfo(np.intp).max}"
                        f" grid nodes, got {resolution!r}^{dim}")
    return int(resolution)


def build_grid(domain: Domain, resolution: Optional[int] = None,
               rule: str = GAUSS_LEGENDRE) -> QuadratureGrid:
    """Build a tensor-product quadrature grid with `resolution` points
    per dimension.

    Gauss-Legendre nodes are mapped affinely onto each interval and give
    spectral accuracy for smooth integrands; the midpoint rule is kept
    as a plain alternative.
    """
    if resolution is None:
        resolution = DEFAULT_RESOLUTION.get(domain.dim, 16)
    resolution = _check_resolution(resolution, domain.dim)
    if rule not in _RULES:
        raise FigpError(f"unknown quadrature rule {rule!r}; use one of {_RULES}")

    axes, wts = [], []
    for a, b in domain.bounds:
        if rule == GAUSS_LEGENDRE:
            x, w = _reference_rule(resolution)
            axes.append(0.5 * (b - a) * x + 0.5 * (a + b))
            wts.append(0.5 * (b - a) * w)
        else:
            h = (b - a) / resolution
            axes.append(a + h * (np.arange(resolution) + 0.5))
            wts.append(np.full(resolution, h))

    weights = reduce(np.multiply.outer, wts).ravel()
    return QuadratureGrid(domain, _tensor_points(axes), weights, rule,
                          resolution)


def _tensor_points(axes) -> np.ndarray:
    """The product lattice of the 1-d `axes` as an (n, d) array of
    points, the last axis varying fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


@dataclass(frozen=True, eq=False)
class FunctionalInput:
    """A function g on the domain, represented by its grid values."""

    grid: QuadratureGrid
    values: np.ndarray
    label: Optional[str] = None

    def __post_init__(self):
        _freeze(self, "values")
        if self.values.shape != (self.grid.n_points,):
            raise FigpError(
                f"expected {self.grid.n_points} values, got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise FigpError(
                f"functional input {self.label or ''!r} has non-finite values"
            )

    # Pointwise vector-space operations, all staying on the same grid.
    def __add__(self, other):
        _check_same_grid(self, other)
        return FunctionalInput(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return FunctionalInput(self.grid, self.values - other.values)

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return FunctionalInput(self.grid, float(c) * self.values)

    __rmul__ = __mul__

    def __neg__(self):
        return FunctionalInput(self.grid, -self.values)


def _check_same_grid(g1, g2):
    """Raise GridMismatchError unless g1 and g2 (functional inputs, or
    anything else carrying a `grid`, such as an EigenSystem) share one
    grid."""
    if g1.grid != g2.grid:
        raise GridMismatchError(
            "functional inputs live on different grids; resampling is not "
            "performed automatically"
        )


def _shared_grid(stage: str, **named):
    """The one grid of the `named` input lists of `stage`, which must
    all be non-empty (FigpError naming the first empty one) and share it
    (GridMismatchError).  Inputs that hold the first input's grid object
    pass unexamined."""
    for name, given in named.items():
        if len(given) == 0:
            raise FigpError(f"{stage} needs at least one input in "
                            f"`{name}`, which is empty")
    first, *rest = [g for given in named.values() for g in given]
    # one input per distinct grid object, compared by value once
    others = {id(g.grid): g for g in rest if g.grid is not first.grid}
    for g in others.values():
        _check_same_grid(first, g)
    return first.grid


def sample_function(expr: str, grid: QuadratureGrid) -> FunctionalInput:
    """Materialize the expression text `expr` as a FunctionalInput
    labeled `expr`, the text that rebuilds it.  Evaluation must be
    finite at every node."""
    values = evaluate_expression(expr, grid.nodes)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ExpressionError(
            f"expression {expr!r} is non-finite at node {bad} "
            f"{tuple(grid.nodes[bad])}"
        )
    return FunctionalInput(grid, values, label=expr)


def l2_inner(g1: FunctionalInput, g2: FunctionalInput) -> float:
    """Quadrature approximation of the L2 inner product over the domain."""
    _check_same_grid(g1, g2)
    return float(np.dot(g1.grid.weights, g1.values * g2.values))
