"""Matern base kernel and the two functional covariance kernels.

The linear functional kernel integrates g1(x) g2(x') against a Matern
base kernel on the domain, which makes it bilinear in its arguments and
positive semi-definite (strictly positive definite on linearly
independent inputs).  The nonlinear functional kernel applies the
Matern radial profile to the scaled L2 distance between inputs and is
strictly positive definite on distinct inputs.
"""

from __future__ import annotations

import math
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

    The closed forms are evaluated in place in two or three buffers, in
    the same operation order as s2 * (1 + z + z*z/3) * exp(-z) with
    temporaries, so the values are bitwise those of that expression.
    `r` itself is never written.
    """
    r = np.asarray(r, dtype=float)
    # fmin skips NaN, so a NaN distance is let through as np.any(r < 0) did
    if np.fmin.reduce(r, axis=None, initial=np.inf) < 0:
        raise FigpError("distances must be non-negative")
    z = np.atleast_1d(r * (2.0 * math.sqrt(params.nu)))  # a fresh buffer
    out = _matern_profile(z, params)
    if r.ndim == 0:
        return float(out[0])
    return out


def _matern_profile(z: np.ndarray, params: MaternParams) -> np.ndarray:
    """The Matern profile at the scaled distances z = 2 sqrt(nu) r >= 0,
    which the caller owns: the closed forms overwrite z."""
    nu, s2 = params.nu, params.sigma2
    if abs(nu - 0.5) < 1e-12:
        out = np.exp(np.negative(z, out=z), out=z)
        out *= s2
    elif abs(nu - 1.5) < 1e-12:
        out = np.add(z, 1.0)
        out *= s2
        out *= np.exp(np.negative(z, out=z), out=z)
    elif abs(nu - 2.5) < 1e-12:
        t = np.multiply(z, z)
        t /= 3.0
        out = np.add(z, 1.0)
        out += t
        out *= s2
        out *= np.exp(np.negative(z, out=z), out=z)
    else:
        # imported here, so only nu outside {1/2, 3/2, 5/2} loads SciPy
        from scipy.special import gamma as gamma_fn, kv

        zero = z == 0
        zz = np.where(zero, 1.0, z)
        with np.errstate(invalid="ignore", over="ignore"):
            out = s2 * (2.0 ** (1.0 - nu) / gamma_fn(nu)) * zz ** nu * kv(nu, zz)
        out = np.where(zero, s2, out)
        # kv underflows to 0 for large z, which is the correct limit
        out = np.where(np.isfinite(out), out, 0.0)
    return out


# Elements per row block of Psi's upper triangle: 32,768 doubles are
# 256 KiB per temporary.  Of 8 K, 16 K, 32 K and 64 K elements, 16-32 K was
# fastest at n_q = 400 and 1600 and 64 K took twice as long at n_q = 400.
PSI_BLOCK = 32768


def _squared_differences(a: np.ndarray, b: np.ndarray):
    """Yield (a_k - b_k)^2 for every pair of rows of `a` and `b`, one
    dimension k at a time, each in a fresh array."""
    for x, y in zip(a.T, b.T):
        # contiguous copies: on strided columns the outer difference
        # took 1.8 times as long (81 x 400 block)
        sq = np.subtract.outer(np.ascontiguousarray(x),
                               np.ascontiguousarray(y))
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
    z = _node_distances(a * theta, b * theta)  # norms: never negative
    z *= 2.0 * math.sqrt(params.nu)
    return _matern_profile(z, params)


def _packed(n_q: int, depth: int, fill):
    """The blocks (i0, fill(i0, i1)) of about PSI_BLOCK elements that
    cover the rows of an n_q x n_q upper triangle, row i from column i
    on, `depth` layers deep: read-only views of one buffer they are
    copied to as they come (separate arrays raised fit_fine's peak RSS
    from 93.5 to 96.1 MB)."""
    ends = [0]
    while ends[-1] < n_q:
        ends.append(min(n_q, ends[-1] + max(1, PSI_BLOCK // (n_q - ends[-1]))))
    blocks = list(zip(ends, ends[1:]))
    store = np.empty(depth * sum((i1 - i0) * (n_q - i0) for i0, i1 in blocks))
    packed, end = [], 0
    for i0, i1 in blocks:
        x = fill(i0, i1)
        view = store[end:end + x.size].reshape(x.shape)
        view[...] = x
        view.setflags(write=False)
        packed.append((i0, view))
        end += x.size
    return packed


def _block_geometry(nodes: np.ndarray, i0: int, i1: int,
                    anisotropic: bool) -> np.ndarray:
    """The geometry of the row block I = i0..i1-1 of Psi's upper
    triangle: the distances from nodes[I] to nodes[i0:], or with
    `anisotropic` their squared differences per dimension, stacked."""
    if anisotropic:
        return np.stack(list(_squared_differences(nodes[i0:i1], nodes[i0:])))
    return _node_distances(nodes[i0:i1], nodes[i0:])


# Weights on the leading r x r corner of a row block of the triangle: 1/2
# on the diagonal, 0 below.  A block of r rows has at least r columns and
# at most PSI_BLOCK elements, so r <= sqrt(PSI_BLOCK).
_HALF_UPPER = np.triu(np.ones((math.isqrt(PSI_BLOCK),) * 2), 1)
np.fill_diagonal(_HALF_UPPER, 0.5)
_HALF_UPPER.setflags(write=False)


def _profile_block(g: np.ndarray, params: MaternParams) -> np.ndarray:
    """The row block P_I = Psi[I, i0:] from its geometry `g`, with the
    diagonal halved and the lower part zeroed, so Psi = U + U^T for the
    stacked blocks U.  Equal lengthscales scale the distances, bitwise
    the same from either geometry."""
    theta = params.lengthscales
    scale = 2.0 * math.sqrt(params.nu)
    if len(set(theta)) > 1:
        z = np.sqrt(sum(t * t * sq for t, sq in zip(theta, g)))
        z *= scale
    else:
        z = (np.sqrt(sum(g)) if g.ndim == 3 else g) * (theta[0] * scale)
    P = _matern_profile(z, params)
    r = P.shape[0]
    P[:, :r] *= _HALF_UPPER[:r, :r]
    return P


def _times(blocks, X: np.ndarray) -> np.ndarray:
    """U X for Psi's upper triangle U given as its profiled row blocks
    (i0, P_I): the block products P_I X[i0:], stacked."""
    UX = np.empty_like(X)
    for i0, P in blocks:
        UX[i0:i0 + P.shape[0]] = P @ X[i0:]
    return UX


def _gram_from(A: np.ndarray, UA: np.ndarray) -> np.ndarray:
    """The linear Gram A^T Psi A = G + G^T, G = A^T (U A)."""
    G = A.T @ UA
    return G + G.T


class _PsiTriangle:
    """The linear kernel of training inputs through Psi's profiled upper
    triangle U on the grid nodes: U's row blocks in one read-only buffer
    of about n_q^2 / 2 floats, the weighted premapped values A and U A.

    The Gram is G + G^T, G = A^T (U A).  Against the weighted premapped
    values B of other inputs the cross matrix is A^T (U B) + (B^T (U A))^T,
    bitwise the Gram at B = A, and the prior variances 2 colsum(B * U B).
    """

    def __init__(self, inputs: List[FunctionalInput], spec: KernelSpec,
                 grid):
        nodes = grid.nodes
        _check_lengthscales(spec.base, nodes.shape[1])
        anisotropic = len(set(spec.base.lengthscales)) > 1
        self._weights, self._premap = grid.weights[:, None], spec.premap
        self.A = self.weighted(inputs)
        self.blocks = _packed(nodes.shape[0], 1, lambda i0, i1: _profile_block(
            _block_geometry(nodes, i0, i1, anisotropic), spec.base))
        self.UA = _times(self.blocks, self.A)
        for kept in (self.A, self.UA):
            kept.setflags(write=False)

    def weighted(self, inputs: List[FunctionalInput]) -> np.ndarray:
        return _values_matrix(inputs, self._premap) * self._weights

    def cross_and_diag(self, inputs_b: List[FunctionalInput]):
        B = self.weighted(inputs_b)
        UB = _times(self.blocks, B)
        return (self.A.T @ UB + (B.T @ self.UA).T,
                2.0 * np.einsum("ij,ij->j", B, UB))


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
    GridMismatchError otherwise).  The linear kernel goes through Psi's
    upper triangle on the grid nodes (`_PsiTriangle`), the one product
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
    once: for the linear kernel the weighted premapped values B and, in
    one buffer, the geometry of Psi's upper triangle on the nodes (the
    distances, or squared differences per dimension when anisotropic),
    summed by `_PsiTriangle`'s product, so bitwise `gram`'s at the same
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
        self._B = _values_matrix(inputs, premap) * grid.weights[:, None]
        nodes = grid.nodes
        n_q, self._dim = nodes.shape
        self._geometry = _packed(
            n_q, self._dim if anisotropic else 1,
            lambda i0, i1: _block_geometry(nodes, i0, i1, anisotropic))

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
                UB = _times(((i0, _profile_block(g, spec.base))
                             for i0, g in self._geometry), self._B)
                K = _gram_from(self._B, UB)
            return _factorize(K, spec)


def gram(inputs: List[FunctionalInput], spec: KernelSpec) -> GramFactorization:
    """Assemble the model Gram matrix and factorize it (`_factorize`);
    the one place that warns, once, when the automatic nugget escalated.

    The linear one is G + G^T with G = (W A)^T (U W A), from Psi's
    profiled upper triangle U (`_PsiTriangle`), which the factorization
    keeps for prediction; the nonlinear one is `_GramOperator`'s.  A
    search's operator sums the same product and never warns.
    """
    grid = _shared_grid("gram", inputs=inputs)
    if spec.family == LINEAR:
        with np.errstate(invalid="ignore"):  # a NaN fails in _factorize
            triangle = _PsiTriangle(inputs, spec, grid)
            K = _gram_from(triangle.A, triangle.UA)
        fact = _factorize(K, spec, triangle)
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
