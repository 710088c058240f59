"""Matern base kernel and the two functional covariance kernels.

The linear functional kernel integrates g1(x) g2(x') against a Matern
base kernel Psi on the domain, which makes it bilinear in its arguments
and positive semi-definite (strictly positive definite on linearly
independent inputs).  On the grid it is A^T Psi B for the weighted
values A and B, and profiling and multiplying Psi is most of a linear
fit's time.  Each axis reflection of the grid's symmetric lattice keeps
|theta * (s - t)|, so Psi commutes with all 2^d of them and is exactly
block-diagonal in their orthonormal parity basis (Cantoni & Butler 1976):
A^T Psi B = sum_e A_e^T S_e B_e on one orthant's nodes (`_Fold`), which
profiles n_q^2 / 2^(d+1) entries of Psi, not n_q^2 / 2, at about eight
passes over memory each: the scaled distance, the Matern form in Horner
form, and one Hadamard product that mixes the S_e (`_parities`).  The
node distances those entries are profiled from depend on the grid alone,
so each grid's fold builds them once (`_fold`) for every Psi on it.  The
nonlinear functional kernel applies the Matern radial profile to the
scaled L2 distance between inputs and is strictly positive definite on
distinct inputs.
"""

from __future__ import annotations

import functools
import math
import mmap
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .domain import FunctionalInput, _freeze, _shared_grid
from .errors import FigpError, GramFactorizationError

LINEAR = "linear"
NONLINEAR = "nonlinear"

# Named pointwise pre-maps for the linear kernel (serialization-friendly).
PREMAPS: Dict[str, Callable] = {
    "identity": lambda v: v,
    "square": lambda v: v * v,
    "sin": np.sin,
    "exp": np.exp,
    "abs": np.abs,
}

# Automatic nugget policy: start at 1e-8 * sigma2, escalate by 10x on
# Cholesky failure, give up past 1e-4 * sigma2.
NUGGET_START = 1e-8
NUGGET_CEIL = 1e-4

# Pivot test: a Cholesky factor L of the n x n matrix K counts as failed
# when min(diag L)^2 <= PIVOT_TOL * n * eps * max(diag K).  Round-off can
# leave a small positive last pivot on an exactly rank-deficient Gram, so
# LAPACK succeeding says nothing about rank.  Over the test suite the
# ratio min(diag L)^2 / (n * eps * max(diag K)) was below 1 on the
# rank-deficient Grams and 2e4 or more on every other one.
PIVOT_TOL = 100.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MaternParams:
    """Hyperparameters of the Matern family.

    `lengthscales` holds the d positive diagonal entries of the scale
    matrix applied to coordinate differences.  When the params describe
    the radial profile of the nonlinear kernel the lengthscales are
    unused (the L2 distance is scaled by gamma instead).
    """

    nu: float
    sigma2: float
    lengthscales: Tuple[float, ...] = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        if np.isscalar(self.lengthscales):
            ls = (float(self.lengthscales),)
        else:
            ls = tuple(float(t) for t in self.lengthscales)
        object.__setattr__(self, "lengthscales", ls)
        for name, v in (("nu", self.nu), ("sigma2", self.sigma2),
                        *(("lengthscales", t) for t in ls)):
            if not 0 < v < math.inf:
                raise FigpError(f"{name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class KernelSpec:
    """Tagged choice of functional kernel.

    family "linear": `base` is the Matern kernel on the domain and
    `premap` optionally names a pointwise transform applied to both
    inputs first.  family "nonlinear": `base` is the radial profile and
    `gamma` scales the L2 distance.  `nugget` of None selects the
    automatic escalation policy; an explicit value is used as-is.
    """

    family: str
    base: MaternParams
    gamma: Optional[float] = None
    premap: Optional[str] = None
    nugget: Optional[float] = None

    def __post_init__(self):
        if self.family not in (LINEAR, NONLINEAR):
            raise FigpError(f"unknown kernel family {self.family!r}")
        if self.family == NONLINEAR:
            if self.gamma is None or not 0 < self.gamma < math.inf:
                raise FigpError(f"gamma must be finite and > 0, got {self.gamma}")
            if self.premap is not None:
                raise FigpError("premap applies to the linear kernel only")
        else:
            if self.gamma is not None:
                raise FigpError("gamma applies to the nonlinear kernel only")
            if self.premap is not None and self.premap not in PREMAPS:
                raise FigpError(
                    f"unknown premap {self.premap!r}; known: {sorted(PREMAPS)}"
                )
        if self.nugget is not None and not 0 <= self.nugget < math.inf:
            raise FigpError(f"nugget must be finite and >= 0, got {self.nugget}")

    def with_sigma2(self, sigma2: float) -> "KernelSpec":
        return replace(self, base=replace(self.base, sigma2=sigma2))


def matern_psi(r, params: MaternParams):
    """Matern radial profile at distance r >= 0.

    Closed forms are used for nu in {1/2, 3/2, 5/2}; any other nu goes
    through the modified Bessel function of the second kind.  Returns
    sigma2 at r = 0.  Accepts scalars or arrays; a scalar gives a float.

    The closed forms are evaluated in Horner form on zn = -2 sqrt(nu) r,
    in place in one or two buffers, so the values are bitwise those of
    ((zn * (1/3) - 1)*zn + 1) * exp(zn) * s2 with temporaries (and its
    siblings), within a few ulps of s2 * (1 + z + z*z/3) * exp(-z).
    `r` itself is never written.
    """
    r = np.asarray(r, dtype=float)
    # fmin skips NaN, so a NaN distance is let through as np.any(r < 0) did
    if np.fmin.reduce(r, axis=None, initial=np.inf) < 0:
        raise FigpError("distances must be non-negative")
    zn = np.atleast_1d(r * (-2.0 * math.sqrt(params.nu)))  # a fresh buffer
    out = _matern_profile(zn, params)
    if r.ndim == 0:
        return float(out[0])
    return out


def _matern_profile(zn: np.ndarray, params: MaternParams) -> np.ndarray:
    """The Matern profile at the negated scaled distances
    zn = -2 sqrt(nu) r <= 0, which the caller owns: the closed forms
    overwrite zn.  A unit sigma2 is not multiplied in."""
    nu, s2 = params.nu, params.sigma2
    if abs(nu - 0.5) < 1e-12:
        out = np.exp(zn, out=zn)
    elif abs(nu - 1.5) < 1e-12:
        out = np.subtract(1.0, zn)
        out *= np.exp(zn, out=zn)
    elif abs(nu - 2.5) < 1e-12:
        out = np.multiply(zn, 1.0 / 3.0)  # zn / 3 took ~20 % longer
        out -= 1.0
        out *= zn
        out += 1.0
        out *= np.exp(zn, out=zn)
    else:
        # imported here, so only nu outside {1/2, 3/2, 5/2} loads SciPy
        from scipy.special import gamma as gamma_fn, kv

        zero = zn == 0
        zz = np.where(zero, 1.0, -zn)
        with np.errstate(invalid="ignore", over="ignore"):
            out = s2 * (2.0 ** (1.0 - nu) / gamma_fn(nu)) * zz ** nu * kv(nu, zz)
        out = np.where(zero, s2, out)
        # kv underflows to 0 for large z, which is the correct limit
        return np.where(np.isfinite(out), out, 0.0)
    if s2 != 1.0:
        out *= s2
    return out


# Elements per row block of folded Psi over all its 2^d parities (128 KiB
# per temporary).  Of 8 K to 64 K, 16 K gave the fastest d = 2 round of 12
# search Grams and 3 model triangles at n_q = 1600 on one BLAS thread of a
# 2-vCPU VM: medians of 41-44 ms, against 43-47 at 32 K, 46-52 at 8 K and
# 50-52 at 64 K; at n_q = 400, 8 K was faster (5.7 against 6.6 ms).
PSI_BLOCK = 16384


def _squared_differences(a: np.ndarray, b: np.ndarray):
    """Yield (a_k - b_k)^2 for every pair of rows of `a` and of each
    stack of rows in `b`, one dimension k at a time, each in a fresh
    array of shape b.shape[:-2] + (len(a), b.shape[-2])."""
    for k in range(a.shape[-1]):
        # contiguous copies: on strided columns the outer difference
        # took 1.8 times as long (81 x 400 block)
        sq = (np.ascontiguousarray(a[:, k])[:, None]
              - np.ascontiguousarray(b[..., k])[..., None, :])
        sq *= sq
        yield sq


def _node_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of `a` and of `b`: the
    squared differences summed in dimension order, then the root.  That
    is cdist's order of operations, so the values are bitwise
    cdist(a, b)'s."""
    terms = _squared_differences(a, b)
    d = next(terms)
    for sq in terms:
        d += sq
    return np.sqrt(d, out=d)


def _check_lengthscales(params: MaternParams, dim: int) -> None:
    if len(params.lengthscales) != dim:
        raise FigpError("point dimension does not match lengthscales")


def base_kernel_matrix(points_a, points_b, params: MaternParams) -> np.ndarray:
    """Matern base kernel evaluated on all pairs of rows, by the same
    operations as matern_psi(cdist(a * theta, b * theta), params)."""
    a = np.atleast_2d(np.asarray(points_a, dtype=float))
    b = np.atleast_2d(np.asarray(points_b, dtype=float))
    _check_lengthscales(params, a.shape[1])
    _check_lengthscales(params, b.shape[1])
    theta = np.asarray(params.lengthscales, dtype=float)
    zn = _node_distances(a * theta, b * theta)  # norms: never negative
    zn *= -2.0 * math.sqrt(params.nu)
    return _matern_profile(zn, params)


@functools.lru_cache(maxsize=None)
def _sylvester(order: int) -> np.ndarray:
    """The Sylvester-Hadamard matrix H[e, s] = (-1)^popcount(e & s) of
    `order` = 2^d, read-only."""
    H = np.array([[(-1.0) ** bin(e & s).count("1") for s in range(order)]
                  for e in range(order)])
    H.setflags(write=False)
    return H


def _parities(X: np.ndarray) -> np.ndarray:
    """X's 2^d layers mixed by sign, layer e into
    sum_s (-1)^popcount(e & s) X[s]: one product with the Sylvester-Hadamard
    matrix, the Walsh-Hadamard transform over the reflection group."""
    return (_sylvester(len(X)) @ X.reshape(len(X), -1)).reshape(X.shape)


class _Fold:
    """`grid`'s lattice folded by its axis reflections R_s onto the orthant
    nodes o, multi-indices below h = ceil(res / 2) in lexicographic order:
    `idx` and `points` hold R_s o, one row per s (axis 0 the leading bit).
    One per grid (`_fold`), so it also keeps the grid's `geometry`."""

    def __init__(self, grid):
        res, d = grid.resolution, grid.nodes.shape[1]
        multi = np.indices(((res + 1) // 2,) * d).reshape(d, 1, -1)
        self.idx = np.ravel_multi_index(tuple(np.where(np.indices(
            (2,) * d).reshape(d, -1, 1), res - 1 - multi, multi)), (res,) * d)
        self.points = grid.nodes[self.idx]
        # o's weight, which QuadratureGrid checks is every R_s o's, times
        # 2^-c for c coordinates at an odd resolution's centre and 2^-d/2,
        # which makes the sign mixing orthonormal
        c = np.sum(2 * multi[:, 0] == res - 1, axis=0)
        self._scale = (grid.weights[self.idx[0]] * 0.5 ** (c + d / 2))[:, None]
        for shared in (self.idx, self.points, self._scale):
            shared.setflags(write=False)
        # the triangles' row blocks (i0, i1), of about PSI_BLOCK elements
        # over all parities each
        layers, n = self.idx.shape
        ends = [0]
        while ends[-1] < n:
            ends.append(min(n, ends[-1] + max(
                1, PSI_BLOCK // (layers * (n - ends[-1])))))
        self.rows = list(zip(ends, ends[1:]))
        self._geometry = {}

    def __call__(self, V: np.ndarray) -> np.ndarray:
        """The parity components (2^d, h^d, m) of the weighted values V w:
        A_e[o] = 2^-(c + d/2) w_o sum_s (-1)^popcount(e & s) V[R_s o]."""
        A = _parities(V[self.idx])
        A *= self._scale
        return A

    def geometry(self, anisotropic: bool):
        """The geometry of the parity blocks' upper triangles as read-only
        row blocks (i0, g) (`_packed`, `_row_geometry`), of either kind
        built on first use and kept for as long as the fold lives."""
        if anisotropic not in self._geometry:
            self._geometry[anisotropic] = _packed(
                self, self.points.shape[2] if anisotropic else 1,
                ((i0, self._row_geometry(i0, i1, anisotropic))
                 for i0, i1 in self.rows), mapped=True)
        return self._geometry[anisotropic]

    def _row_geometry(self, i0: int, i1: int, anisotropic: bool) -> np.ndarray:
        """The geometry of rows i0..i1-1 of the parity blocks' upper
        triangles: the distances from o[i0:i1] to R_s o[i0:] for each s,
        or with `anisotropic` their squared differences, dimension first."""
        o, p = self.points[0, i0:i1], self.points[:, i0:]
        if anisotropic:
            return np.stack(list(_squared_differences(o, p)))
        return _node_distances(o, p)


# One slot: a fit, its model's loads and each reproduce target fold one
# grid, and of the 1-d grids of 64 and 256 nodes that figure2, figure3 and
# mspe_decay alternate, only figure2's is folded (one build a process with
# one slot or two).  The slot keeps its grid's geometry for the life of the
# process: n_q^2 / 2^(d+1) floats of distances (338,784, 2.7 MB, at 1,600
# nodes in 2-d), as much as one model's blocks of Psi, and d times that
# once an anisotropic fit has asked for squared differences.
@functools.lru_cache(maxsize=1)
def _fold(grid) -> _Fold:
    return _Fold(grid)


def _packed(fold: _Fold, depth: int, blocks, mapped: bool = False):
    """The `blocks` (i0, x), `depth` deep each, that cover `fold.rows` of
    its upper triangles, row i from column i on: read-only views of one
    buffer they are copied to as they come (separate arrays raised
    fit_fine's peak RSS).  A `mapped` buffer, one kept for the life of
    the process, gets its own anonymous memory map: in the heap, the
    Grams' temporaries fragmented around it, and over 400 fit_fine
    passes peak RSS rose 4.0 MB, against 2.6 MB when mapped."""
    layers, n = fold.idx.shape
    size = layers * depth * sum((i1 - i0) * (n - i0) for i0, i1 in fold.rows)
    store = (np.frombuffer(mmap.mmap(-1, 8 * size)) if mapped
             else np.empty(size))
    packed, end = [], 0
    for i0, x in blocks:
        view = store[end:end + x.size].reshape(x.shape)
        view[...] = x
        view.setflags(write=False)
        packed.append((i0, view))
        end += x.size
    return packed


# Weights on the leading r x r corner of a row block of the triangle: 1/2
# on the diagonal, 0 below.  A block of r rows has at least r columns and
# at most PSI_BLOCK elements, so r <= sqrt(PSI_BLOCK).
_HALF_UPPER = np.triu(np.ones((math.isqrt(PSI_BLOCK),) * 2), 1)
np.fill_diagonal(_HALF_UPPER, 0.5)
_HALF_UPPER.setflags(write=False)


def _profile_block(g: np.ndarray, params: MaternParams) -> np.ndarray:
    """Rows of the parity blocks S_e = sum_s (-1)^popcount(e & s) M_s,
    M_s[i, j] = Psi(o_i, R_s o_j), from their geometry `g`, halved on the
    diagonal and zeroed below, so S_e = U_e + U_e^T.  Equal lengthscales
    scale the distances, bitwise the same from either geometry."""
    theta = params.lengthscales
    scale = -2.0 * math.sqrt(params.nu)
    if len(set(theta)) > 1:
        zn = np.sqrt(sum(t * t * sq for t, sq in zip(theta, g)))
        zn *= scale
    else:
        zn = (np.sqrt(sum(g)) if g.ndim == 4 else g) * (theta[0] * scale)
    S = _parities(_matern_profile(zn, params))
    r = S.shape[1]
    S[:, :, :r] *= _HALF_UPPER[:r, :r]
    return S


def _times(blocks, X: np.ndarray) -> np.ndarray:
    """U_e X_e for every parity e, the U_e given as their row blocks
    (i0, P_I) stacked by parity: the block products P_I X[:, i0:]."""
    UX = np.empty_like(X)
    for i0, P in blocks:
        UX[:, i0:i0 + P.shape[1]] = P @ X[:, i0:]
    return UX


def _half_product(A: np.ndarray, UB: np.ndarray) -> np.ndarray:
    """H = sum_e A_e^T (U_e B_e) for folded A and B, so that
    A^T Psi B = H + (B^T U A)^T in the nodes' own values."""
    return A.reshape(-1, A.shape[2]).T @ UB.reshape(-1, UB.shape[2])


class _PsiTriangle:
    """The linear kernel of training inputs through Psi folded by the
    grid's reflections (`_Fold`): the upper triangles U_e of its parity
    blocks, profiled from the grid's shared geometry into one read-only
    buffer of about n_q^2 / 2^(d+1) floats, the folded weighted
    premapped values A and U A.

    The Gram is H + H^T, H = `_half_product`(A, U A).  Against the folded
    values B of other inputs the cross matrix is H(A, U B) + H(B, U A)^T,
    bitwise the Gram at B = A, and the prior variances are
    2 colsum(B * U B) over parities and nodes."""

    def __init__(self, inputs: List[FunctionalInput], spec: KernelSpec,
                 grid):
        _check_lengthscales(spec.base, grid.nodes.shape[1])
        self._fold, self._premap = _fold(grid), spec.premap
        self.A = self._fold(_values_matrix(inputs, self._premap))
        geometry = self._fold.geometry(len(set(spec.base.lengthscales)) > 1)
        self.blocks = _packed(self._fold, 1, (
            (i0, _profile_block(g, spec.base)) for i0, g in geometry))
        self.UA = _times(self.blocks, self.A)
        for kept in (self.A, self.UA):
            kept.setflags(write=False)

    def cross_and_diag(self, inputs_b: List[FunctionalInput]):
        B = self._fold(_values_matrix(inputs_b, self._premap))
        UB = _times(self.blocks, B)
        return (_half_product(self.A, UB) + _half_product(B, self.UA).T,
                2.0 * np.einsum("eij,eij->j", B, UB))


def _values_matrix(inputs: List[FunctionalInput],
                   premap: Optional[str]) -> np.ndarray:
    """The inputs' values on the grid as columns, mapped pointwise by the
    named `premap` (None and "identity" leave them as they are)."""
    V = np.column_stack([g.values for g in inputs])
    if premap in (None, "identity"):
        return V
    if premap not in PREMAPS:
        raise FigpError(f"unknown premap {premap!r}; known: {sorted(PREMAPS)}")
    V = PREMAPS[premap](V)
    if not np.isfinite(V).all():
        raise FigpError(f"premap {premap!r} produced non-finite values")
    return V


def kernel_matrix(inputs_a: List[FunctionalInput],
                  inputs_b: List[FunctionalInput],
                  spec: KernelSpec) -> Tuple[np.ndarray, np.ndarray]:
    """The cross-kernel matrix K[i, j] = K(a_i, b_j) and the prior
    variances K(b, b) of `inputs_b`, both without any nugget.

    Both lists must be non-empty and share one grid (FigpError and
    GridMismatchError otherwise).  The linear kernel goes through Psi
    folded by the grid's reflections (`_PsiTriangle`), the one product
    that `gram` and prediction use too, so a model Gram's upper triangle
    is bitwise the cross matrix prediction takes at the training inputs.
    The nonlinear kernel applies the Matern profile to the scaled L2
    distances between inputs; its variances are sigma2, exactly, because
    matern_psi(0) is sigma2.
    """
    grid = _shared_grid("kernel_matrix", inputs_a=inputs_a,
                        inputs_b=inputs_b)
    if spec.family == LINEAR:
        return _PsiTriangle(inputs_a, spec, grid).cross_and_diag(inputs_b)
    dist = _l2_distances(inputs_a, inputs_b, grid.weights)
    return (matern_psi(spec.gamma * dist, spec.base),
            np.full(len(inputs_b), spec.base.sigma2))


def _l2_distances(inputs_a: List[FunctionalInput],
                  inputs_b: List[FunctionalInput],
                  weights: np.ndarray) -> np.ndarray:
    """Pairwise L2 distances between the inputs under the quadrature
    `weights`, via the weighted Gram of their values."""
    VA = _values_matrix(inputs_a, None)
    VB = _values_matrix(inputs_b, None)
    w = weights[:, None]
    na = np.einsum("ij,ij->j", VA, w * VA)
    nb = np.einsum("ij,ij->j", VB, w * VB)
    d2 = na[:, None] + nb[None, :] - 2.0 * (VA.T @ (w * VB))
    return np.sqrt(np.clip(d2, 0.0, None))


def _whiten(chol: np.ndarray, b) -> np.ndarray:
    """L^-1 b for the lower Cholesky factor L = `chol`, by forward
    substitution: all that a quadratic form or an inner product with
    K^-1 = L^-T L^-1 needs (GPML Alg. 2.1).

    numpy has no triangular solver, but LU with partial pivoting of an
    upper triangular matrix with a positive diagonal pivots nowhere and
    eliminates only zeros, so `np.linalg.solve` on one is exact LU plus
    back substitution.  L with its rows and columns reversed is upper
    triangular, which turns forward into back substitution.
    """
    b = np.asarray(b, dtype=float)
    return np.linalg.solve(chol[::-1, ::-1], b[::-1])[::-1]


def _chol_solve(chol: np.ndarray, b) -> np.ndarray:
    """x with L L^T x = b for the lower Cholesky factor L = `chol`:
    `_whiten`, then back substitution with the upper triangular L^T."""
    return np.linalg.solve(chol.T, _whiten(chol, b))


@dataclass(frozen=True)
class GramFactorization:
    """Cholesky factorization of the training Gram plus nugget.

    `chol` is the lower factor L from `np.linalg.cholesky`; `whiten`
    is L^-1 b (`_whiten`) and `solve_refined` K^-1 b.  `gram`
    and `chol` are read-only copies of the arrays given.  `triangle` is the
    `_PsiTriangle` a linear Gram was built from, held as given, which
    prediction multiplies by.  It is None for the nonlinear kernel and
    for a `_GramOperator`'s Gram, which a fit's search scores and never
    predicts from.  `escalated` records whether the automatic nugget
    policy went past its first level (`_factorize`); `gram` warns on it.
    """

    gram: np.ndarray  # K_n + nugget * I, exactly symmetric
    chol: np.ndarray  # lower triangular
    log_det: float
    nugget: float  # the nugget actually applied
    triangle: Optional[_PsiTriangle] = None
    escalated: bool = False

    def __post_init__(self):
        _freeze(self, "gram", "chol")

    def whiten(self, b: np.ndarray) -> np.ndarray:
        return _whiten(self.chol, b)

    def solve_refined(self, b: np.ndarray) -> np.ndarray:
        """Solve with one round of mixed-precision iterative refinement.

        Cuts the forward error on ill-conditioned Grams (short
        lengthscales push the condition number past 1e8, where a single
        Cholesky solve keeps only half the digits).  The residual
        b - K x is accumulated in `np.longdouble` and the correction is
        solved with the float64 Cholesky factor; a float64 residual
        could not bring the error below about cond(K) * eps.  Where
        `np.longdouble` is no wider than float64 the refinement gains
        nothing over a working-precision step.
        """
        b = np.asarray(b, dtype=float)
        x = _chol_solve(self.chol, b)
        r = b.astype(np.longdouble) - self.gram.astype(np.longdouble) @ x
        return x + _chol_solve(self.chol, r.astype(float))


def _try_cholesky(K: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factor of the finite matrix K, or None when
    Cholesky finds K not positive definite or the pivot test (see
    PIVOT_TOL) rejects the factor.  A NaN pivot fails the test: numpy's
    Cholesky can return a NaN factor without raising."""
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return None
    pivot = L.diagonal().min()
    if not pivot * pivot > PIVOT_TOL * K.shape[0] * _EPS * K.diagonal().max():
        return None
    return L


class _GramOperator:
    """The Gram of one list of inputs on their `grid` as a function of
    the kernel's parameters, with what those do not change computed
    once: for the linear kernel the folded weighted premapped values B,
    and the geometry of the parity blocks' upper triangles on the orthant
    nodes, which the grid's fold holds (`_Fold.geometry`), profiled and
    multiplied as `_PsiTriangle` does, so bitwise `gram`'s at the same
    spec; for the nonlinear kernel the n x n L2 distances, the one place
    that kernel's Gram of a list of inputs is formed.  `factorize` keeps
    each distinct spec's factorization or failure message for as long
    as the operator lives, and never warns; a failure is raised as a
    fresh GramFactorizationError, since a kept one would hold, through
    its traceback, the frame that holds the operator."""

    def __init__(self, inputs: List[FunctionalInput], grid, family: str,
                 premap: Optional[str] = None, anisotropic: bool = False):
        self._memo = {}
        if family == NONLINEAR:
            self._dist = _l2_distances(inputs, inputs, grid.weights)
            # an input is at distance 0 from itself, where the norms'
            # round-off leaves up to 3e-8
            np.fill_diagonal(self._dist, 0.0)
            return
        fold, self._dim = _fold(grid), grid.nodes.shape[1]
        self._B = fold(_values_matrix(inputs, premap))
        self._geometry = fold.geometry(anisotropic)

    def factorize(self, spec: KernelSpec) -> GramFactorization:
        if spec not in self._memo:
            try:
                self._memo[spec] = self._factorized(spec)
            except GramFactorizationError as exc:
                self._memo[spec] = str(exc)
        fact = self._memo[spec]
        if isinstance(fact, str):
            raise GramFactorizationError(fact)
        return fact

    def _factorized(self, spec: KernelSpec) -> GramFactorization:
        """`_factorize` of the Gram at `spec` (the operator's family and
        premap), made while U B lives: freed first, its heap chunk took
        the memo's small arrays and fit_fine's peak RSS rose by 8.6 MB."""
        with np.errstate(invalid="ignore"):  # a NaN fails in _factorize
            if spec.family == NONLINEAR:
                K = matern_psi(spec.gamma * self._dist, spec.base)
            else:
                _check_lengthscales(spec.base, self._dim)
                H = _half_product(self._B, _times(
                    ((i0, _profile_block(g, spec.base))
                     for i0, g in self._geometry), self._B))
                K = H + H.T
            return _factorize(K, spec)


def gram(inputs: List[FunctionalInput], spec: KernelSpec) -> GramFactorization:
    """Assemble the model Gram matrix and factorize it (`_factorize`);
    the one place that warns, once, when the automatic nugget escalated.

    The linear one is H + H^T, H = `_half_product`(A, U A) from Psi's
    parity blocks (`_PsiTriangle`), which the factorization keeps for
    prediction; the nonlinear one is `_GramOperator`'s.  A search's
    operator sums the same product and never warns.
    """
    grid = _shared_grid("gram", inputs=inputs)
    if spec.family == LINEAR:
        with np.errstate(invalid="ignore"):  # a NaN fails in _factorize
            triangle = _PsiTriangle(inputs, spec, grid)
            H = _half_product(triangle.A, triangle.UA)
        fact = _factorize(H + H.T, spec, triangle)
    else:
        fact = _GramOperator(inputs, grid, NONLINEAR).factorize(spec)
    if fact.escalated:
        warnings.warn(f"nugget escalated to {fact.nugget:.3e} to factorize "
                      "the Gram", stacklevel=2)
    return fact


def _factorize(K: np.ndarray, spec: KernelSpec,
               triangle: Optional[_PsiTriangle] = None) -> GramFactorization:
    """Factorize the assembled Gram K plus a nugget: the one owner of
    the nugget policy.  It does not warn; it records on the result
    whether the policy escalated, and `gram` reports that.

    The matrix is made exactly symmetric by mirroring the upper
    triangle.  A factorization counts as failed when Cholesky raises or
    when the pivot test rejects it (the smallest pivot is negligible
    against the diagonal, see PIVOT_TOL).  An explicit `spec.nugget`
    gets one attempt.  With `spec.nugget` unset, the
    automatic policy starts at 1e-8 * sigma2 and escalates tenfold until
    a factorization passes or the 1e-4 * sigma2 ceiling is passed.  On
    failure the inputs are reported as degenerate either way.  A Gram
    with non-finite entries (the kernel overflowed, e.g. at a huge
    sigma2) is reported as such before any factorization is tried.
    """
    if not np.isfinite(K).all():
        raise GramFactorizationError(
            "Gram assembly produced non-finite entries (the kernel "
            "overflowed); no factorization was attempted"
        )
    K = np.triu(K) + np.triu(K, 1).T
    eye = np.eye(K.shape[0])
    nuggets = [spec.nugget]
    if spec.nugget is None:  # the automatic policy
        s2 = spec.base.sigma2
        nuggets = [NUGGET_START * s2]
        while nuggets[-1] < NUGGET_CEIL * s2 * (1 - 1e-12):
            nuggets.append(nuggets[-1] * 10.0)
    for level, nug in enumerate(nuggets):
        Kn = K + nug * eye
        L = _try_cholesky(Kn)
        if L is not None:
            log_det = float(2.0 * np.sum(np.log(np.diag(L))))
            return GramFactorization(Kn, L, log_det, float(nug), triangle,
                                     escalated=level > 0)
    raise GramFactorizationError(
        "Cholesky failed or left a negligible pivot at every nugget level; "
        "the inputs are degenerate (duplicated, or linearly dependent under "
        "the linear kernel)"
    )
