"""Fitting, prediction, cross-validation and kernel selection.

The surrogate is a Gaussian process over functional inputs with a
constant mean.  Both the mean and the variance are profiled out of the
likelihood, so optimization only searches the correlation parameters:
the lengthscale(s) of the linear kernel or the distance-decay rate of
the nonlinear kernel, always on the log scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .domain import FunctionalInput, _freeze, _shared_grid
from .errors import FigpError, FitError, GramFactorizationError
from .kernels import (
    LINEAR,
    NONLINEAR,
    GramFactorization,
    KernelSpec,
    MaternParams,
    _GramOperator,
    gram,
    kernel_matrix,
)

LOG_THETA_BOUNDS = (-3.0, 3.0)
LOG_GAMMA_BOUNDS = (-5.0, 2.0)
# One-parameter fits scan the profile on a log grid of this spacing (25
# points for log theta, 29 for log gamma), coarse to fine with a stride
# of SCAN_COARSE grid points (at most 13 or 15 evaluated when the
# profile is unimodal), then refine once in the two grid cells around
# the best point to this absolute log tolerance, which is also how far
# inside a box edge the edge probe looks.
SCAN_STEP = 0.25
SCAN_COARSE = 3
SCAN_XATOL = 1e-5
MAX_ITERS = 200  # L-BFGS-B iterations per start (anisotropic fits)

# Objective value of a failed likelihood evaluation (the Gram could not
# be factorized); a search whose best value is this large has failed.
_FAILED = 1e10

# Relative slack allowed when clamping a slightly negative posterior
# variance to zero; anything more negative signals a broken factorization.
VARIANCE_CLAMP_REL = 1e-8


@dataclass(frozen=True)
class FitConfig:
    """Settings for the likelihood optimization.

    `anisotropic` frees one lengthscale per dimension for the linear
    kernel; the default ties them to a single value, which is much
    better behaved on small designs.  `multistarts` and `seed` apply to
    anisotropic fits only: a fit with one free parameter (isotropic
    linear, or nonlinear) is a deterministic profile scan.
    """

    multistarts: int = 8
    seed: int = 0
    anisotropic: bool = False
    nu: float = 2.5

    def __post_init__(self):
        if self.multistarts < 1:
            raise FigpError("multistarts must be at least 1")


@dataclass(frozen=True)
class GPModel:
    """A fitted surrogate; immutable once constructed."""

    spec: KernelSpec  # carries the fitted sigma2
    inputs: Tuple[FunctionalInput, ...]
    y: np.ndarray
    mu_hat: float
    factorization: GramFactorization
    alpha: np.ndarray  # (K_n + nugget I)^{-1} (y - mu_hat 1)
    log_likelihood: float = float("nan")

    def __post_init__(self):
        _freeze(self, "y", "alpha")
        object.__setattr__(self, "inputs", tuple(self.inputs))

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def sigma2_hat(self) -> float:
        return self.spec.base.sigma2


def _gls(fact: GramFactorization, y: np.ndarray) -> Tuple[float, float]:
    """The GLS mean mu = 1^T K^-1 y / 1^T K^-1 1 of y under the factorized
    Gram K = L L^T and the residual sum of squares |L^-1 (y - mu 1)|^2,
    from w1 = L^-1 1 and wy = L^-1 y.  The residual wy - mu w1 is squared
    once formed: |wy|^2 - (w1.wy)^2 / |w1|^2 would cancel digits."""
    w1 = fact.whiten(np.ones(y.size))
    wy = fact.whiten(y)
    mu = float(w1 @ wy) / float(w1 @ w1)
    r = wy - mu * w1
    return mu, float(np.sum(r * r))


def _profile(fact: GramFactorization, y: np.ndarray):
    """Profiled mean and variance given a factorized correlation matrix.

    Treats `fact` as the unit-variance Gram R; returns (mu, s2, loglik)
    where loglik is the profiled log marginal likelihood, from `_gls`:
    two forward substitutions with R's factor, no back substitution.
    """
    n = y.size
    mu, rss = _gls(fact, y)
    # floor keeps the degenerate constant-y case finite
    s2 = max(rss / n, 1e-12 * max(1.0, float(np.mean(y * y))))
    ll = -0.5 * n * math.log(s2) - 0.5 * fact.log_det \
        - 0.5 * n * (1.0 + math.log(2.0 * math.pi))
    return mu, s2, ll


def _check_outputs(stage: str, y, n: int, columns: bool = False) -> np.ndarray:
    """`y` as a float array of one output per input: shape (n,), or with
    `columns` also (n, m), m >= 1 outputs on the same inputs.  The one
    owner of the output checks; FigpError names `stage` and the cause
    (a wrong shape or length, or a non-finite output)."""
    y = np.asarray(y, dtype=float)
    if y.ndim not in ((1, 2) if columns else (1,)) or 0 in y.shape[1:]:
        shapes = "(n,) or (n, m)" if columns else "(n,)"
        raise FigpError(f"{stage}: outputs of shape {y.shape}; give shape "
                        f"{shapes} for n = {n} inputs")
    if y.shape[0] != n:
        raise FigpError(f"{stage}: {y.shape[0]} outputs for {n} inputs; "
                        "give one output per input")
    if not np.isfinite(y).all():
        raise FigpError(f"{stage}: outputs must be finite")
    return y


class _Likelihood:
    """The profiled likelihood on one set of inputs as a function of the
    kernel's correlation parameters and of the outputs: `_profile` of the
    outputs under a `_GramOperator`'s factorization of the unit-variance
    spec, kept for as long as the likelihood lives, so columns that
    evaluate one spec share its factorization and each column's fit is
    bitwise its fit alone; `fit` drops it before the models build."""

    def __init__(self, inputs: Sequence[FunctionalInput], family: str,
                 premap: Optional[str] = None, anisotropic: bool = False):
        self._operator = _GramOperator(
            inputs, _shared_grid("likelihood", inputs=inputs), family,
            premap, anisotropic)

    def __call__(self, spec: KernelSpec, y: np.ndarray):
        """(mu, sigma2, loglik, factorization) of the outputs `y`, one
        per input, under the unit-variance `spec`, whose family and
        premap are the operator's."""
        fact = self._operator.factorize(spec)
        return (*_profile(fact, y), fact)


def log_marginal_likelihood(spec: KernelSpec, inputs: Sequence[FunctionalInput],
                            y) -> float:
    """Profiled log marginal likelihood of the outputs `y`, one per
    input, under `spec`.

    The constant mean and the variance are profiled out, so the value
    depends only on the correlation parameters of `spec`: `_profile` of
    `y` under one `gram` of the unit-variance spec, bitwise the Gram a
    fit's search scores.  `y` is checked as `fit` checks it: FigpError
    on a length that does not match or a non-finite output.
    """
    inputs = list(inputs)
    y = _check_outputs("log_marginal_likelihood", y, len(inputs))
    if y.size < 2:
        raise FigpError("likelihood needs at least two observations")
    return _profile(gram(inputs, spec.with_sigma2(1.0)), y)[2]


def build_model(spec: KernelSpec, inputs: Sequence[FunctionalInput], y,
                mu: Optional[float] = None) -> GPModel:
    """Assemble a GPModel from a fully specified kernel.

    With `mu` given (e.g. 0 for a centered process) it is used as-is,
    otherwise the generalized-least-squares mean is plugged in.  The
    spec's sigma2 is taken at face value; no fitting happens here.
    """
    inputs = list(inputs)
    y = _check_outputs("build_model", y, len(inputs))
    fact = gram(inputs, spec)
    if mu is None:
        mu = _gls(fact, y)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = fact.solve_refined(y - mu)
    if not np.isfinite(alpha).all():
        raise FigpError(f"build_model: the weights K^-1 (y - mu) are not "
                        f"finite for mu = {float(mu):.6g}")
    return GPModel(spec, inputs, y, float(mu), fact, alpha)


def _make_spec(family: str, params_log: np.ndarray, config: FitConfig,
               dim: int, sigma2: float, premap, nugget) -> KernelSpec:
    if family == LINEAR:
        theta = np.exp(params_log)
        if theta.size == 1:
            theta = np.repeat(theta, dim)
        return KernelSpec(LINEAR, MaternParams(config.nu, sigma2, tuple(theta)),
                          premap=premap, nugget=nugget)
    return KernelSpec(NONLINEAR, MaternParams(config.nu, sigma2),
                      gamma=float(np.exp(params_log[0])), nugget=nugget)


def _profile_scan(objective, lo: float, hi: float) -> int:
    """Search one log parameter on [lo, hi] for the minimum of
    `objective(x, order)`, which keeps its own best evaluation and, of
    equal values, the one of larger `order`, else the earlier; returns
    the number of grid points evaluated.

    The grid has spacing SCAN_STEP.  The scan evaluates every
    SCAN_COARSE-th grid point and the last one, then the grid points
    inside each coarse cell that borders a coarse local minimum (a coarse
    point lower than the one before it and no higher than the one after
    it) or lies between two failed coarse points, then runs one bounded
    Brent refinement over the two grid cells around the best grid point.
    So when every coarse point fails it evaluates the whole grid.
    Deterministic, and no grid point is evaluated twice.

    Grid point j is evaluated with order -j and every other point with
    order -(grid size), so of equal values the objective keeps what a
    scan of the whole grid in ascending order keeps: the lowest grid
    point, or else the earliest point off the grid.  Whenever the scan
    evaluates the best point of the whole grid, its Brent refinement
    and kept evaluation are that scan's.  It misses that point only when
    it lies inside a coarse cell with no coarse local minimum at either
    end (a dip narrower than one coarse step, beside a longer slope),
    which a unimodal profile on the grid never has.

    Bounded Brent never evaluates an endpoint, so when the best grid
    point is an end of the box one probe SCAN_XATOL inside it decides:
    if the probe is no better, the profile falls toward the edge and no
    refinement runs.
    """
    grid = np.linspace(lo, hi, int(round((hi - lo) / SCAN_STEP)) + 1)
    last = grid.size - 1
    values = np.full(grid.size, np.inf)  # inf where not evaluated

    def evaluate(indices):
        for j in indices:
            values[j] = objective(np.array([grid[j]]), -j)

    coarse = [*range(0, last, SCAN_COARSE), last]
    evaluate(coarse)
    c = values[coarse]
    fails = ~(c < _FAILED)
    ends = np.concatenate([[np.inf], c, [np.inf]])  # c with inf beyond
    lows = ~fails & (c < ends[:-2]) & (c <= ends[2:])  # local minima
    fine = [j for k in range(len(coarse) - 1)
            if lows[k] or lows[k + 1] or fails[k] and fails[k + 1]
            for j in range(coarse[k] + 1, coarse[k + 1])]
    evaluate(fine)
    points = len(coarse) + len(fine)
    i = int(np.argmin(values))
    if not values[i] < _FAILED:
        return points
    off_grid = -grid.size
    if i in (0, last):
        inward = SCAN_XATOL if i == 0 else -SCAN_XATOL
        if not objective(np.array([grid[i] + inward]), off_grid) < values[i]:
            return points
    _bounded_brent(lambda t: objective(np.array([t]), off_grid),
                   grid[max(i - 1, 0)], grid[min(i + 1, last)], SCAN_XATOL)
    return points


def _bounded_brent(f, a, b, xatol, maxfun=500):
    """Minimize the scalar function `f` on [a, b] to the absolute
    tolerance `xatol` by Brent's method: golden-section steps, parabolic
    where the parabola is acceptable (Brent 1973, *Algorithms for
    Minimization without Derivatives*, ch. 5).  Returns (x, f(x)) of the
    best point; at most `maxfun` evaluations, never at a or b.

    A port of SciPy's `_minimize_scalar_bounded` (BSD-3 licensed), the
    method behind `minimize_scalar(method="bounded")`, without its
    options and result object: it evaluates the same points, bitwise.
    It keeps SciPy's `np.sign`/`np.maximum` steps, which carry a NaN on;
    with finite bounds no step is NaN, and a NaN value of `f` only fails
    the comparisons, as in SciPy."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        parabolic = False
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            parabolic = abs(p) < abs(0.5 * q * r) and \
                q * (a - xf) < p < q * (b - xf)
            if parabolic:
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * (np.sign(xm - xf) + (xm - xf == 0))
        if not parabolic:  # golden section of the larger side
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


def _stratified_starts(n: int, lo: np.ndarray, hi: np.ndarray,
                       seed: int) -> np.ndarray:
    """n points in the box [lo, hi], one in each of n strata along every
    dimension: a random permutation of the strata per dimension plus a
    uniform jitter inside each stratum (a Latin hypercube sample)."""
    rng = np.random.default_rng(seed)
    strata = np.column_stack([rng.permutation(n) for _ in range(lo.size)])
    return lo + (strata + rng.random(strata.shape)) / n * (hi - lo)


def fit(inputs: Sequence[FunctionalInput], y, family: str,
        config: Optional[FitConfig] = None, premap: Optional[str] = None,
        nugget: Optional[float] = None):
    """Fit a surrogate of the given kernel family by maximum likelihood.

    `y` holds one output per input, shape (n,), and the fit returns one
    GPModel.  With shape (n, m), m outputs on the same inputs, it
    returns a tuple of m models, each bitwise the model the fit of that
    column alone returns; the columns share one `_Likelihood`, so a Gram
    two columns evaluate at the same parameters is factorized once.  A
    column whose fit fails raises its `FitError`, naming the column.

    With one free parameter (isotropic linear, or nonlinear) the
    profiled likelihood is scanned coarse to fine on a log grid and
    refined once around the best grid point (`_profile_scan`), whatever
    `config.multistarts` and `config.seed` say; when every evaluation
    fails, the `FitError` names the number of grid points evaluated.
    An anisotropic linear fit runs L-BFGS-B from the center of the log
    box plus `config.multistarts - 1` stratified starts drawn with
    `config.seed`, and keeps the best likelihood.  Deterministic for a
    fixed config.

    The objective scores the Gram of a `_Likelihood` built once per
    call, under no warning filter: its operator never warns, and an
    escalated nugget warns once, from the model build.  Each column keeps
    the profiled (mu, sigma2, loglik) of the best evaluation of its own
    search with its exact parameters (of equal likelihoods, the lowest
    grid point of a one-parameter scan, else the earlier evaluation), and
    its fit is that kept winner: the operator is dropped, then each model
    is built once, by `build_model` through `gram`, and carries the
    winner's profile, not a refit one.  An anisotropic fit may return a
    finite-difference point of L-BFGS-B when that evaluation had the
    highest likelihood.

    An explicit `nugget` is a fraction of the fitted variance: the model
    is sigma2_hat (R + nugget I), the covariance the search scored, so
    `log_likelihood` is the model's own log-density.  `premap` applies
    to the linear family; given with the nonlinear one it raises
    FigpError.
    """
    if family == NONLINEAR and premap is not None:
        raise FigpError(f"fit: premap {premap!r} applies to the linear "
                        "kernel only; fit the nonlinear family without one")
    inputs = list(inputs)
    y = _check_outputs("fit", y, len(inputs), columns=True)
    results = _fit_columns(inputs, y, family, config, premap, nugget)
    for result in results:
        if not isinstance(result, GPModel):
            raise result
    return results[0] if y.ndim == 1 else tuple(results)


def _fit_columns(inputs: Sequence[FunctionalInput], y: np.ndarray,
                 family: str, config: Optional[FitConfig],
                 premap: Optional[str], nugget: Optional[float]) -> list:
    """`fit` of the checked outputs `y`, returning per column the GPModel
    or the error its fit raised: for 1-D `y` the `FitError` or
    `GramFactorizationError` as raised, for 2-D `y` a `FitError` naming
    the column."""
    if config is None:
        config = FitConfig()
    if len(inputs) < 2:
        raise FigpError("fitting needs at least two training points")
    dim = inputs[0].grid.domain.dim
    if family == LINEAR:
        n_free = dim if config.anisotropic else 1
        box = [LOG_THETA_BOUNDS] * n_free
    elif family == NONLINEAR:
        n_free = 1
        box = [LOG_GAMMA_BOUNDS]
    else:
        raise FigpError(f"unknown kernel family {family!r}")
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])

    columns = [y] if y.ndim == 1 else np.ascontiguousarray(y.T)
    likelihood = _Likelihood(inputs, family, premap, n_free > 1)

    def search(y_col):
        # the best evaluation so far: its exact parameters, (mu, s2, ll)
        # and rank; of equal ll the larger `order` is kept, else the
        # earlier
        kept = {"x": None, "profile": None, "rank": (-np.inf, 0)}

        def objective(p, order=0):
            spec = _make_spec(family, np.asarray(p), config, dim, 1.0,
                              premap, nugget)
            try:
                profile = likelihood(spec, y_col)[:3]
            except (GramFactorizationError, FloatingPointError):
                return _FAILED
            if (profile[2], order) > kept["rank"]:
                kept.update(x=np.array(p, dtype=float), profile=profile,
                            rank=(profile[2], order))
            return -profile[2]

        if n_free == 1:
            points = _profile_scan(objective, lo[0], hi[0])
            failure = f"the profile scan failed at all {points} points"
        else:
            from scipy.optimize import minimize

            starts = [0.5 * (lo + hi)]
            if config.multistarts > 1:
                starts.extend(_stratified_starts(config.multistarts - 1,
                                                 lo, hi, config.seed))
            for p0 in starts:
                minimize(objective, np.asarray(p0), method="L-BFGS-B",
                         bounds=box, options={"maxiter": MAX_ITERS})
            failure = f"all {len(starts)} L-BFGS-B starts failed"
        return kept["x"], kept["profile"], failure

    searches = [search(y_col) for y_col in columns]
    del likelihood  # frees the geometry and memo before the model's triangle
    results = []
    for j, (y_col, (x, profile, failure)) in enumerate(zip(columns,
                                                           searches)):
        column = None if y.ndim == 1 else j
        if x is None:
            results.append(FitError(f"{failure} for the {family} kernel",
                                    column))
            continue
        mu, s2, ll = profile
        spec = _make_spec(family, x, config, dim, s2, premap,
                          None if nugget is None else nugget * s2)
        try:
            model = build_model(spec, inputs, y_col, mu=mu)
        except GramFactorizationError as exc:
            results.append(exc if column is None else
                           FitError(str(exc), column))
            continue
        results.append(replace(model, log_likelihood=ll))
    return results


def predict(model: GPModel, g: FunctionalInput) -> Tuple[float, float]:
    """Posterior predictive mean and variance at one new input.

    A one-input `predict_many`; batch inputs through `predict_many`,
    which builds the kernel quantities once per call, not per input.
    """
    means, variances = predict_many(model, [g])
    return float(means[0]), float(variances[0])


def predict_many(model: GPModel, inputs: Sequence[FunctionalInput]):
    """Posterior predictive means and variances at a batch of inputs.

    `inputs` must be non-empty (FigpError) and share the training grid
    (GridMismatchError otherwise).  The kernel quantities are formed
    once for the whole batch, for a linear model built by `build_model`
    from the triangle of Psi its Gram kept.  The variances' quadratic
    terms k^T K^-1 k are the column sums of V^2, V = L^-1 K_cross: one
    forward substitution for the batch.
    A slightly negative variance is clamped to zero; one more negative
    than VARIANCE_CLAMP_REL * max(sigma2, K(g, g)) raises FigpError.
    """
    inputs = list(inputs)
    _shared_grid("predict_many", inputs=inputs, training=list(model.inputs))
    triangle = model.factorization.triangle
    K_cross, kgg = (triangle.cross_and_diag(inputs) if triangle else
                    kernel_matrix(list(model.inputs), inputs, model.spec))
    means = model.mu_hat + K_cross.T @ model.alpha
    V = model.factorization.whiten(K_cross)
    quad = np.einsum("ij,ij->j", V, V)
    raw = kgg - quad
    tol = VARIANCE_CLAMP_REL * np.maximum(model.sigma2_hat, np.abs(kgg))
    broken = ~(raw > -tol)  # a NaN variance counts as broken too
    if broken.any():
        raise FigpError(
            f"posterior variance {raw[broken][0]:.3e} is negative beyond "
            "round-off; the factorization looks broken"
        )
    return means, np.where(raw >= 0, raw, 0.0)


def loocv_error(model: GPModel) -> float:
    """Closed-form leave-one-out mean squared error.

    Uses the identity that the fold-i residual equals
    [K^{-1}(y - mu 1)]_i / (K^{-1})_{ii} with the mean and all
    hyperparameters frozen across folds; no refitting happens.
    """
    if model.n < 2:
        raise FigpError("LOOCV needs at least two training points")
    Kinv = model.factorization.solve_refined(np.eye(model.n))
    resid = model.alpha / np.diag(Kinv)
    return float(np.mean(resid ** 2))


def selection_entry(model: GPModel, loocv: float) -> dict:
    """One family's kernel-selection report row: LOOCV error, likelihood,
    profiled mean and variance, and lengthscales (linear) or gamma."""
    entry = {"loocv": loocv, "log_likelihood": model.log_likelihood,
             "mu_hat": model.mu_hat, "sigma2_hat": model.sigma2_hat}
    if model.spec.family == LINEAR:
        entry["lengthscales"] = list(model.spec.base.lengthscales)
    else:
        entry["gamma"] = model.spec.gamma
    return entry


def select_family(loocv_by_family: dict) -> str:
    """The family with the smallest LOOCV error; a tie goes to the
    linear kernel, the simpler model."""
    return min(loocv_by_family,
               key=lambda f: (loocv_by_family[f], f != LINEAR))


def select_kernel(inputs: Sequence[FunctionalInput], y,
                  config: Optional[FitConfig] = None,
                  premap: Optional[str] = None,
                  nugget: Optional[float] = None):
    """Fit the linear, then the nonlinear family and pick the one with
    the smallest leave-one-out error.

    Returns (best_model, report) where the report lists one
    `selection_entry` per family, tagged with its family and whether it
    was selected; `select_family` breaks ties.  With `y` of shape
    (n, m) it returns a tuple of m such pairs, each bitwise the pair the
    call on that column alone returns; each family fits all columns
    through one `_Likelihood`, as `fit` does.

    The outputs are checked before any fit, and bad ones raise
    FigpError naming them.  A family whose fit raises `FitError` or
    `GramFactorizationError` is skipped with a warning; when every
    family fails for a column, the `FitError` names that column (for
    2-D `y`).  `premap` applies to the linear family; the nonlinear
    family is fitted without it.
    """
    inputs = list(inputs)
    y = _check_outputs("select_kernel", y, len(inputs), columns=True)
    m = 1 if y.ndim == 1 else y.shape[1]
    models = [{} for _ in range(m)]
    reports = [[] for _ in range(m)]
    for family in (LINEAR, NONLINEAR):
        results = _fit_columns(inputs, y, family, config, premap, nugget)
        for j, model in enumerate(results):
            if not isinstance(model, GPModel):
                warnings.warn(f"{family} kernel fit failed: {model}",
                              stacklevel=2)
                continue
            models[j][family] = model
            reports[j].append({"family": family,
                               **selection_entry(model, loocv_error(model))})
    selections = []
    for j, report in enumerate(reports):
        if not report:
            raise FitError("every candidate kernel family failed to fit",
                           None if y.ndim == 1 else j)
        best = select_family({e["family"]: e["loocv"] for e in report})
        for e in report:
            e["selected"] = e["family"] == best
        selections.append((models[j][best], report))
    return selections[0] if y.ndim == 1 else tuple(selections)
