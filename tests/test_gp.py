import gc
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import figp.gp
import figp.kernels
from figp import (Domain, FigpError, FitConfig, FitError, FunctionalInput,
                  GramFactorizationError, GridMismatchError, KernelSpec,
                  LINEAR, MaternParams, NONLINEAR, build_grid, build_model,
                  fit, gram, kernel_matrix, log_marginal_likelihood,
                  loocv_error, matern_psi, predict, predict_many,
                  sample_function, select_kernel)
from figp.gp import (_FAILED, LOG_GAMMA_BOUNDS, LOG_THETA_BOUNDS,
                     SCAN_XATOL, GPModel, _Likelihood, _bounded_brent,
                     _profile, _profile_scan, select_family)
from figp.kernels import GramFactorization, _GramOperator
from figp.reproduce import TRAINING_EXPRESSIONS, evaluate_functional
from figp.storage import load_model, save_model

from figp_testlib import brute_loocv, count_psi_triangles, \
    full_profile_scan, random_poly_inputs, scan_grid


def _direct_profile(K, y):
    """Profiled mean / variance / likelihood computed with plain numpy."""
    n = y.size
    Ki = np.linalg.inv(K)
    one = np.ones(n)
    mu = (one @ Ki @ y) / (one @ Ki @ one)
    r = y - mu
    s2 = (r @ Ki @ r) / n
    ll = (-0.5 * n * math.log(s2) - 0.5 * np.linalg.slogdet(K)[1]
          - 0.5 * n * (1.0 + math.log(2.0 * math.pi)))
    return mu, s2, ll


def test_profiled_likelihood_matches_direct(square_grid):
    x1 = sample_function("x1", square_grid)
    x2 = sample_function("x2", square_grid)
    spec = KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=1.0,
                      nugget=1e-8)
    y = np.array([0.3, -1.1])
    K = kernel_matrix([x1, x2], [x1, x2], spec)[0] + 1e-8 * np.eye(2)
    _, _, want = _direct_profile(K, y)
    got = log_marginal_likelihood(spec, [x1, x2], y)
    assert math.isclose(got, want, rel_tol=1e-10)
    # the process variance is profiled out, so sigma2 must not matter
    scaled = log_marginal_likelihood(spec.with_sigma2(4.0), [x1, x2], y)
    assert math.isclose(got, scaled, rel_tol=1e-12)


@pytest.mark.parametrize("family", [LINEAR, NONLINEAR])
@pytest.mark.parametrize("name", ["f1", "f2", "f3"])
def test_whitened_profile_matches_the_dense_one(name, family, bench_models,
                                                bench_inputs, bench_outputs):
    # the unit-variance Gram at each bench fit's parameters (condition
    # numbers 2.8e3 to 7.7e8), the bench outputs and a near-constant y
    # whose residuals are 1e-6 of its mean: the whitened residual agrees
    # with the dense inverse to 1e-6 (1.9e-8 seen), where the cancelling
    # |wy|^2 - (w1.wy)^2 / |w1|^2 is off by up to 2.4e-5 on the linear Grams
    fact = gram(bench_inputs, bench_models[(name, family)].spec.with_sigma2(1))
    noise = np.random.default_rng(3).standard_normal(len(bench_inputs))
    for y in (bench_outputs[name], 1e3 + 1e-3 * noise):
        mu, s2, _ = _profile(fact, y)
        want_mu, want_s2, _ = _direct_profile(fact.gram, y)
        assert s2 > 1e-12 * np.mean(y * y)  # above the variance floor
        assert math.isclose(mu, want_mu, rel_tol=1e-6)
        assert math.isclose(s2, want_s2, rel_tol=1e-6)


def test_likelihood_needs_two_points(square_grid):
    spec = KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=1.0)
    with pytest.raises(FigpError):
        log_marginal_likelihood(spec, [sample_function("x1", square_grid)],
                                np.array([1.0]))


def test_likelihood_names_an_output_count_that_does_not_match(square_grid):
    spec = KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=1.0)
    inputs = [sample_function(e, square_grid) for e in ("x1", "x2", "x1*x2")]
    with pytest.raises(FigpError, match="log_marginal_likelihood: 2 outputs "
                                        "for 3 inputs"):
        log_marginal_likelihood(spec, inputs, [1.0, 2.0])


def test_build_model_profiled_mean(square_grid):
    rng = np.random.default_rng(31)
    ins = random_poly_inputs(square_grid, 6, rng)
    y = rng.standard_normal(6)
    spec = KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=0.6,
                      nugget=1e-8)
    model = build_model(spec, ins, y)
    K = kernel_matrix(ins, ins, spec)[0] + 1e-8 * np.eye(6)
    mu, _, _ = _direct_profile(K, y)
    assert math.isclose(model.mu_hat, mu, rel_tol=1e-9)
    # explicit mean is taken as-is
    centered = build_model(spec, ins, y, mu=0.0)
    assert centered.mu_hat == 0.0


def test_build_model_validation(square_grid):
    spec = KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=0.6)
    rng = np.random.default_rng(33)
    ins = random_poly_inputs(square_grid, 3, rng)
    with pytest.raises(FigpError):
        build_model(spec, ins, np.array([1.0, 2.0]))
    with pytest.raises(FigpError):
        build_model(spec, ins, np.array([1.0, np.nan, 3.0]))


def test_fit_config_validation():
    with pytest.raises(FigpError):
        FitConfig(multistarts=0)


def test_fit_deterministic(bench_inputs, bench_outputs):
    cfg = FitConfig(seed=7, multistarts=2)
    a = fit(bench_inputs, bench_outputs["f3"], NONLINEAR, cfg)
    b = fit(bench_inputs, bench_outputs["f3"], NONLINEAR, cfg)
    assert a.spec.gamma == b.spec.gamma
    assert a.spec.base.sigma2 == b.spec.base.sigma2
    assert a.mu_hat == b.mu_hat
    assert loocv_error(a) == loocv_error(b)


def _unit_spec(family, log_param, dim=2):
    """The unit-variance spec `fit` evaluates at one log parameter."""
    if family == LINEAR:
        return KernelSpec(LINEAR, MaternParams(2.5, 1.0,
                                               (math.exp(log_param),) * dim))
    return KernelSpec(NONLINEAR, MaternParams(2.5, 1.0),
                      gamma=math.exp(log_param))


@pytest.mark.parametrize("family", [LINEAR, NONLINEAR])
@pytest.mark.parametrize("name", ["f1", "f2", "f3"])
def test_profile_scan_reaches_the_profile_maximum(name, family, bench_models,
                                                  bench_inputs, bench_outputs,
                                                  monkeypatch):
    y = bench_outputs[name]
    lo, hi = LOG_THETA_BOUNDS if family == LINEAR else LOG_GAMMA_BOUNDS
    profile = []
    for t in np.linspace(lo, hi, 241):
        try:
            profile.append(log_marginal_likelihood(_unit_spec(family, t),
                                                   bench_inputs, y))
        except GramFactorizationError:
            pass
    ll = bench_models[(name, family)].log_likelihood
    assert ll >= max(profile) - 1e-9 * abs(ll)

    # the scan stays cheap and ignores the seed and the start count
    # (bench_models fits with seed 42 and 4 starts, the default is 0 and 8)
    calls = {"evals": 0, "builds": 0}

    def counting(real, key):
        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(figp.gp._Likelihood, "__call__",
                        counting(figp.gp._Likelihood.__call__, "evals"))
    monkeypatch.setattr(figp.gp, "gram", counting(figp.gp.gram, "builds"))
    other = fit(bench_inputs, y, family)
    # the most a nonlinear fit here takes: 15 grid points, one bounded
    # Brent refinement, then the model build
    assert calls["evals"] + calls["builds"] <= 26
    assert calls["builds"] == 1
    if family == LINEAR:
        # every linear fit here peaks on a box edge: 9 coarse grid points,
        # the 2 fine ones next to each coarse local minimum (f1 has one,
        # f2 and f3 one at each edge) and one probe inside the edge, then
        # the model build
        assert calls["evals"] == {"f1": 12, "f2": 14, "f3": 14}[name]
    assert other.log_likelihood == ll
    assert other.spec == bench_models[(name, family)].spec


def _recorded(f):
    """`f` and the list of points it is evaluated at."""
    calls = []

    def recording(p, order=0):
        calls.append(float(p[0]))
        return f(calls[-1])
    return recording, calls


def test_profile_scan_stops_at_an_edge_the_profile_falls_toward():
    falling, calls = _recorded(lambda t: -t)
    points = _profile_scan(falling, -3.0, 3.0)
    assert max(calls) == 3.0
    # 9 coarse grid points and the 2 fine ones below the edge, no grid
    # point twice, then the probe
    assert points == 11
    assert len(calls) == points + 1
    assert len(set(calls)) == len(calls)


def test_profile_scan_refines_a_minimum_inside_the_edge_cell():
    def f(t):
        return (t - 2.9) ** 2

    objective, calls = _recorded(f)
    _profile_scan(objective, -3.0, 3.0)
    assert abs(min(calls, key=f) - 2.9) <= SCAN_XATOL


def test_profile_scan_evaluates_the_whole_grid_when_every_coarse_point_fails():
    grid = scan_grid(*LOG_THETA_BOUNDS)

    def f(t):  # finite only at a grid point between two coarse ones
        return 0.0 if t == grid[13] else _FAILED

    objective, calls = _recorded(f)
    points = _profile_scan(objective, *LOG_THETA_BOUNDS)
    assert points == grid.size
    assert sorted(calls[:points]) == list(grid)
    assert min(calls, key=f) == grid[13]


def test_profile_scan_evaluates_between_two_failed_coarse_points():
    # a feasible region between two failing coarse points is searched
    # although another coarse point succeeds
    grid = scan_grid(*LOG_THETA_BOUNDS)
    feasible = {grid[0]: 0.0, grid[13]: -1.0}

    def f(t):
        return feasible.get(t, _FAILED)

    objective, calls = _recorded(f)
    _profile_scan(objective, *LOG_THETA_BOUNDS)
    assert grid[13] in calls
    assert min(calls, key=f) == grid[13]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(box=st.sampled_from([(LOG_THETA_BOUNDS, 13), (LOG_GAMMA_BOUNDS, 15)]),
       data=st.data())
def test_profile_scan_picks_the_argmin_of_a_unimodal_grid_profile(box, data):
    (lo, hi), most = box
    grid = scan_grid(lo, hi)
    m = data.draw(st.integers(0, grid.size - 1), label="argmin")
    steps = np.array(data.draw(st.lists(
        st.floats(1e-6, 1e3), min_size=grid.size - 1,
        max_size=grid.size - 1), label="steps"))
    # strictly falling to grid[m], strictly rising after it
    values = np.concatenate([np.cumsum(steps[:m][::-1])[::-1], [0.0],
                             np.cumsum(steps[m:])])
    objective, calls = _recorded(lambda t: float(np.interp(t, grid, values)))
    points = _profile_scan(objective, lo, hi)
    assert points <= most
    assert set(calls[:points]) <= set(grid)
    assert len(set(calls[:points])) == points  # no grid point twice
    assert grid[m] in calls[:points]
    # the edge probe or the refinement runs in the cells around grid[m]
    assert len(calls) > points
    assert all(grid[max(m - 1, 0)] < t < grid[min(m + 1, grid.size - 1)]
               for t in calls[points:])


def test_profile_scan_can_miss_a_dip_narrower_than_one_coarse_step():
    # A stated limitation of the coarse-to-fine scan: a dip at one grid
    # point between two coarse points that both rise away from the only
    # coarse local minimum is never evaluated, while a scan of the whole
    # grid finds it.
    grid = scan_grid(*LOG_THETA_BOUNDS)

    def f(t):
        return -100.0 if t == grid[14] else t

    objective, calls = _recorded(f)
    _profile_scan(objective, *LOG_THETA_BOUNDS)
    assert grid[14] not in calls
    assert min(calls, key=f) == grid[0]
    reference, full_calls = _recorded(f)
    full_profile_scan(reference, *LOG_THETA_BOUNDS)
    assert min(full_calls, key=f) == grid[14]


def _band(lo, hi, value, f):
    return lambda t: value if lo < t < hi else f(t)


@pytest.mark.parametrize("f, a, b", [
    (lambda t: (t - 0.37) ** 2, -0.25, 0.5),  # smooth, inside
    (lambda t: math.cosh(3.0 * t) - t, -3.0, 3.0),  # smooth, asymmetric
    (lambda t: abs(t - 1.1), 0.75, 1.25),  # a kink
    (lambda t: math.sin(20.0 * t) + t, -1.0, 1.0),  # many local minima
    (lambda t: 1.0, -0.5, 0.0),  # flat
    (lambda t: -t, -3.0, -2.5),  # falls toward the upper edge
    (lambda t: t * t, 0.25, 0.75),  # rises from the lower edge
    (_band(0.1, math.inf, _FAILED, lambda t: (t - 0.05) ** 2), -0.5, 0.5),
    (_band(-math.inf, 0.2, _FAILED, lambda t: -t), -0.5, 0.5),
    (_band(-0.1, 0.0, math.nan, lambda t: (t + 0.02) ** 2), -0.5, 0.5),
    (_band(-math.inf, 0.0, math.nan, lambda t: t * t), -0.5, 0.5),  # NaN first
    (_band(-math.inf, math.inf, math.nan, abs), -0.5, 0.5),  # NaN throughout
    (_band(0.0, 0.1, math.inf, lambda t: (t - 0.05) ** 2), -0.5, 0.5),
])
@pytest.mark.parametrize("xatol, maxfun", [(SCAN_XATOL, 500), (1e-9, 500),
                                           (SCAN_XATOL, 6)])
def test_bounded_brent_evaluates_the_points_scipy_evaluates(f, a, b, xatol,
                                                            maxfun):
    # the port against SciPy's bounded Brent, evaluated point for point
    # and bitwise: the same iterates, the same result
    from scipy.optimize import minimize_scalar

    ours, ours_calls = _recorded(f)
    theirs, theirs_calls = _recorded(f)
    x, fx = _bounded_brent(lambda t: ours(np.array([t])), np.float64(a),
                           np.float64(b), xatol, maxfun)
    res = minimize_scalar(lambda t: theirs(np.array([t])), method="bounded",
                          bounds=(np.float64(a), np.float64(b)),
                          options={"xatol": xatol, "maxiter": maxfun})
    assert [t.hex() for t in ours_calls] == [t.hex() for t in theirs_calls]
    assert len(ours_calls) == res.nfev <= maxfun
    assert (float(x).hex(), float(fx).hex()) == \
        (float(res.x).hex(), float(res.fun).hex())
    assert all(a < t < b for t in ours_calls)


def _fits_by_both_scans(inputs, y, family, monkeypatch):
    """`fit` through `_profile_scan`, then through the full-grid scan."""
    fitted = fit(inputs, y, family)
    with monkeypatch.context() as m:
        m.setattr(figp.gp, "_profile_scan", full_profile_scan)
        return fitted, fit(inputs, y, family)


def _same_fit(a, b):
    return a.spec == b.spec and \
        (a.mu_hat, a.sigma2_hat, a.log_likelihood) == \
        (b.mu_hat, b.sigma2_hat, b.log_likelihood)


@pytest.mark.parametrize("family", [LINEAR, NONLINEAR])
@pytest.mark.parametrize("name", ["f1", "f2", "f3"])
def test_profile_scan_fits_table2_as_the_full_grid_scan(name, family,
                                                         bench_models,
                                                         bench_inputs,
                                                         bench_outputs,
                                                         monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(figp.gp, "_profile_scan", full_profile_scan)
        reference = fit(bench_inputs, bench_outputs[name], family)
    assert _same_fit(bench_models[(name, family)], reference)


@pytest.mark.parametrize("family", [LINEAR, NONLINEAR])
def test_profile_scan_fits_the_resolution_40_data_as_the_full_grid_scan(
        family, monkeypatch):
    grid = build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 40)
    inputs = [sample_function(e, grid) for e in TRAINING_EXPRESSIONS]
    y = [float(grid.weights @ g.values) for g in inputs]
    assert _same_fit(*_fits_by_both_scans(inputs, y, family, monkeypatch))


def test_profile_scan_fits_random_data_as_the_full_grid_scan(monkeypatch):
    grid = build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 12)
    x1, x2 = grid.nodes.T
    # 16 cosine products, so up to 16 random inputs are independent
    basis = np.column_stack([np.cos(np.pi * (j * x1 + 0.5 * k * x2))
                             for j in range(4) for k in range(4)])
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 16))
        inputs = [FunctionalInput(grid, basis @ rng.standard_normal(16))
                  for _ in range(n)]
        a, b = rng.standard_normal(2)
        y = [float(grid.weights @ (a * g.values + b * g.values ** 2))
             for g in inputs]
        for family in (LINEAR, NONLINEAR):
            assert _same_fit(*_fits_by_both_scans(inputs, y, family,
                                                  monkeypatch)), \
                (seed, family)


@pytest.mark.parametrize("family", [LINEAR, NONLINEAR])
def test_fit_keeps_the_lowest_grid_point_of_a_flat_profile(family,
                                                           bench_inputs,
                                                           bench_outputs,
                                                           monkeypatch):
    # Of equal likelihoods the fit keeps what the full scan in ascending
    # order keeps, although the coarse-to-fine scan reaches the lower
    # grid points of the plateau later: the likelihood rises to log
    # parameter 0.4 and is flat above it, so the lowest grid point on the
    # plateau is 0.5 and the Brent points above 0.4 tie with it.
    real = figp.gp._Likelihood.__call__
    top = math.exp(0.4)

    def plateau(self, spec, y):
        param = spec.base.lengthscales[0] if family == LINEAR else spec.gamma
        mu, s2, _, fact = real(self, spec, y)
        return mu, s2, min(param, top), fact

    monkeypatch.setattr(figp.gp._Likelihood, "__call__", plateau)
    fitted, reference = _fits_by_both_scans(bench_inputs, bench_outputs["f1"],
                                            family, monkeypatch)
    assert _same_fit(fitted, reference)
    assert fitted.log_likelihood == top
    param = fitted.spec.base.lengthscales[0] if family == LINEAR \
        else fitted.spec.gamma
    assert math.log(param) == pytest.approx(0.5, abs=1e-12)


def test_anisotropic_fit_keeps_the_earliest_of_equal_likelihoods(
        bench_inputs, bench_outputs, monkeypatch):
    # L-BFGS-B's first evaluation is the center of the log box; the
    # stratified starts (and the finite-difference points) tie with it
    real = figp.gp._Likelihood.__call__

    def flat(self, spec, y):
        mu, s2, _, fact = real(self, spec, y)
        return mu, s2, 0.0, fact

    monkeypatch.setattr(figp.gp._Likelihood, "__call__", flat)
    fitted = fit(bench_inputs, bench_outputs["f1"], LINEAR,
                 FitConfig(anisotropic=True, multistarts=4))
    center = math.exp(0.5 * sum(LOG_THETA_BOUNDS))
    assert fitted.spec.base.lengthscales == (center, center)


@pytest.mark.parametrize("name,family,anisotropic", [
    ("f1", LINEAR, False), ("f3", NONLINEAR, False),
    ("f1", LINEAR, True), ("f2", LINEAR, True)])
def test_fit_profile_is_bitwise_the_refit_profile(name, family, anisotropic,
                                                  bench_inputs,
                                                  bench_outputs):
    y = bench_outputs[name]
    model = fit(bench_inputs, y, family,
                FitConfig(anisotropic=anisotropic, multistarts=2))
    likelihood = _Likelihood(bench_inputs, family, None, anisotropic)
    mu, s2, ll, _ = likelihood(model.spec.with_sigma2(1.0), y)
    assert (model.mu_hat, model.sigma2_hat, model.log_likelihood) == \
        (mu, s2, ll)


# (domain, resolution, expressions) of inputs on a lattice other than the
# table2 square: a line, whose fold mixes 2 parities, and a box at an odd
# resolution, whose fold mixes 8 and halves the weights of centre nodes
_LINE = (((0.0, 2.0),), 16, ("1", "x1", "x1^2", "sin(3*x1)", "exp(-x1)"))
_ODD_BOX = (((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0)), 5,
            ("x1+x2", "x3^2", "1+x1*x3", "sin(x2)", "cos(x1)", "x1*x2*x3"))


@pytest.mark.parametrize("spec,anisotropic,lattice", [
    (KernelSpec(LINEAR, MaternParams(2.5, 1.0, (0.6, 0.6))), False, None),
    (KernelSpec(LINEAR, MaternParams(2.5, 1.0, (0.3, 1.7))), True, None),
    (KernelSpec(LINEAR, MaternParams(1.5, 1.0, (2.0, 2.0)), premap="square"),
     False, None),
    (KernelSpec(LINEAR, MaternParams(0.5, 1.0, (0.05, 0.05)), nugget=1e-6),
     False, None),
    (KernelSpec(LINEAR, MaternParams(2.5, 1.0, (0.8,))), False, _LINE),
    (KernelSpec(LINEAR, MaternParams(2.5, 1.0, (0.7, 0.7, 0.7))), False,
     _ODD_BOX),
    (KernelSpec(LINEAR, MaternParams(1.5, 1.0, (0.5, 1.2, 2.0))), True,
     _ODD_BOX),
], ids=["isotropic", "anisotropic", "square", "nugget", "line", "odd-box",
        "odd-box-anisotropic"])
def test_search_gram_is_the_model_gram_up_to_round_off(spec, anisotropic,
                                                       lattice, bench_inputs,
                                                       bench_outputs):
    # both sum the Gram by one product on Psi's upper triangle
    inputs, y = bench_inputs, bench_outputs["f2"]
    if lattice is not None:
        domain, resolution, exprs = lattice
        grid = build_grid(Domain(domain), resolution)
        inputs = [sample_function(e, grid) for e in exprs]
        y = np.array([grid.weights @ g.values for g in inputs])
    likelihood = _Likelihood(inputs, LINEAR, spec.premap, anisotropic)
    got = likelihood(spec, y)[3]
    want = gram(inputs, spec)
    assert got.gram.tobytes() == want.gram.tobytes()
    assert got.chol.tobytes() == want.chol.tobytes()
    assert (got.log_det, got.nugget) == (want.log_det, want.nugget)
    assert got.triangle is None


@pytest.mark.parametrize("nugget", [None, 1e-3])
def test_nonlinear_search_gram_is_bitwise_the_model_gram(nugget, bench_inputs,
                                                         bench_outputs):
    spec = KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=0.7,
                      nugget=nugget)
    got = _Likelihood(bench_inputs, NONLINEAR)(spec, bench_outputs["f3"])[3]
    want = gram(bench_inputs, spec)
    assert got.gram.tobytes() == want.gram.tobytes()
    assert got.chol.tobytes() == want.chol.tobytes()
    assert (got.log_det, got.nugget) == (want.log_det, want.nugget)


@pytest.mark.parametrize("nu", [0.5, 2.5, 50.0])
def test_nonlinear_search_gram_diagonal_is_exactly_sigma2(nu, bench_inputs,
                                                          bench_outputs):
    # an input's L2 distance to itself is 0, not the up to 3e-8 that the
    # norms' round-off leaves, so the diagonal before any nugget is sigma2
    spec = KernelSpec(NONLINEAR, MaternParams(nu, 1.3), gamma=0.5, nugget=0.0)
    fact = _Likelihood(bench_inputs, NONLINEAR)(spec, bench_outputs["f2"])[3]
    assert np.array_equal(fact.gram.diagonal(), np.full(8, 1.3))


def test_a_nu_50_nonlinear_fit_on_the_table2_inputs_succeeds():
    # a round-off self-distance made the nu = 50 profile 0 on the
    # diagonal, and every point of the scan failed
    grid = build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 8)
    inputs = [sample_function(e, grid) for e in TRAINING_EXPRESSIONS]
    y = np.array([evaluate_functional("f2", g) for g in inputs])
    model = fit(inputs, y, NONLINEAR, config=FitConfig(nu=50.0))
    assert math.isclose(model.spec.gamma, 0.4916, rel_tol=1e-3)
    assert math.isclose(loocv_error(model), 0.01775, rel_tol=1e-3)


def test_isotropic_linear_fit_builds_psi_once(bench_inputs, bench_outputs,
                                              monkeypatch):
    # the search profiles hoisted node distances block by block and only
    # the model build keeps a triangle of Psi, which the model predicts
    # from; no full Psi is formed
    real = figp.kernels.base_kernel_matrix
    calls = {"n": 0}

    def counted(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(figp.kernels, "base_kernel_matrix", counted)
    builds = count_psi_triangles(monkeypatch)
    model = fit(bench_inputs, bench_outputs["f1"], LINEAR)
    assert calls["n"] == 0
    assert builds == [len(bench_inputs)]
    assert model.factorization.triangle is not None


def test_one_geometry_per_grid(tmp_path, monkeypatch):
    # the folded node distances depend on the grid alone: a search, the
    # model build, a model load and a batch prediction share one build
    real = figp.kernels._Fold._row_geometry
    builds = []

    def counted(fold, i0, i1, anisotropic):
        if i0 == 0:
            builds.append(anisotropic)
        return real(fold, i0, i1, anisotropic)

    monkeypatch.setattr(figp.kernels._Fold, "_row_geometry", counted)
    figp.kernels._fold.cache_clear()
    grid = build_grid(Domain(((0.0, 1.0), (0.0, 2.0))), 9)
    inputs = [sample_function(e, grid) for e in TRAINING_EXPRESSIONS]
    y = np.array([evaluate_functional("f1", g) for g in inputs])
    model, report = select_kernel(inputs, y, FitConfig(multistarts=1))
    assert model.spec.family == LINEAR
    assert [e["family"] for e in report] == [LINEAR, NONLINEAR]
    save_model(str(tmp_path / "model.json"), model)
    loaded = load_model(str(tmp_path / "model.json"))
    predict_many(loaded, inputs[:3])
    assert builds == [False]
    fit(inputs, y, LINEAR, FitConfig(multistarts=1, anisotropic=True))
    assert builds == [False, True]
    figp.kernels._fold.cache_clear()


def test_fit_frees_its_likelihood_before_the_model_build(bench_inputs,
                                                       bench_outputs,
                                                       monkeypatch):
    # the likelihood's memo holds a factorization of every spec the search
    # tried, which the model build has no use for
    real = figp.gp.build_model
    live = []

    def checking(*args, **kwargs):
        gc.collect()
        live.append(sum(isinstance(o, _Likelihood) for o in gc.get_objects()))
        return real(*args, **kwargs)

    monkeypatch.setattr(figp.gp, "build_model", checking)
    fit(bench_inputs, bench_outputs["f1"], LINEAR)
    assert live == [0]


def test_a_failed_evaluation_leaves_no_cycle_holding_the_likelihood(
        bench_inputs, bench_outputs, monkeypatch):
    # a memoized exception would hold, through its traceback, the frame
    # that holds the operator; with the cyclic GC off, that cycle would
    # keep the likelihood and its node geometry alive into the model build
    real_factorize = figp.kernels._factorize
    real_build = figp.gp.build_model
    calls, live = [], []

    def failing_first(K, spec, *args):
        calls.append(spec)
        if len(calls) == 1:
            raise GramFactorizationError("forced failure")
        return real_factorize(K, spec, *args)

    def checking(*args, **kwargs):
        live.append(sum(isinstance(o, (_Likelihood, _GramOperator))
                        for o in gc.get_objects()))
        return real_build(*args, **kwargs)

    monkeypatch.setattr(figp.kernels, "_factorize", failing_first)
    monkeypatch.setattr(figp.gp, "build_model", checking)
    gc.collect()
    gc.disable()
    try:
        fit(bench_inputs[:4], bench_outputs["f1"][:4], LINEAR)
    finally:
        gc.enable()
    assert len(calls) > 1
    assert live == [0]


@pytest.mark.parametrize("nugget", [1e-6, 1e-3, None])
@pytest.mark.parametrize("family", [LINEAR, NONLINEAR])
def test_fit_log_likelihood_is_the_models_own_log_density(
        family, nugget, bench_inputs, bench_outputs):
    # an explicit nugget is a fraction of the fitted variance, so the
    # model is sigma2_hat (R + nugget I), the covariance the search scored;
    # f1's linear Gram (condition number 7.7e8) leaves its automatic-nugget
    # fit 1.03e-9 relative off through round-off alone, so f2 is used
    model = fit(bench_inputs, bench_outputs["f2"], family, nugget=nugget)
    fact = model.factorization
    r = model.y - model.mu_hat
    density = -0.5 * (r @ model.alpha + fact.log_det
                      + model.n * math.log(2.0 * math.pi))
    assert math.isclose(model.log_likelihood, density, rel_tol=1e-9)
    if nugget is not None:
        assert fact.nugget == nugget * model.sigma2_hat


def test_anisotropic_fit_uses_seeded_starts(bench_inputs, bench_outputs):
    cfg = FitConfig(anisotropic=True, multistarts=2)
    y = bench_outputs["f1"]
    a = fit(bench_inputs, y, LINEAR, cfg)
    b = fit(bench_inputs, y, LINEAR, cfg)
    theta = np.array(a.spec.base.lengthscales)
    assert theta.size == 2
    assert np.all(theta >= math.exp(LOG_THETA_BOUNDS[0]))
    assert np.all(theta <= math.exp(LOG_THETA_BOUNDS[1]))
    assert a.spec == b.spec and a.log_likelihood == b.log_likelihood
    # the first start is the box centre, so the fit can only improve on it
    centre = log_marginal_likelihood(_unit_spec(LINEAR, 0.0), bench_inputs, y)
    assert a.log_likelihood >= centre


def _fresh_interpreter(code: str) -> str:
    """stdout of `code` run in a fresh interpreter, so no other test's
    imports count, with figp importable from this checkout."""
    src = os.path.dirname(os.path.dirname(figp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout


_SCIPY_MODULES = ("print(sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'scipy'))")


def test_import_loads_no_scipy():
    # SciPy is imported where it is used: inside anisotropic fits and the
    # general-nu Matern branch, so `import figp` pays for none of it
    out = _fresh_interpreter("import sys, figp; " + _SCIPY_MODULES)
    assert out.strip() == "[]"


def test_loaded_linear_model_predicts_samples_and_decomposes_without_scipy():
    code = """
import os, sys, tempfile
import figp
from figp import (Domain, KernelSpec, MaternParams, build_grid, build_model,
                  loocv_error, nystrom_eig, predict_many, sample_function,
                  sample_paths_gram)
from figp.storage import load_model, save_model
grid = build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 12)
inputs = [sample_function(e, grid) for e in ("x1", "x2", "x1*x2", "1+x1^2")]
spec = KernelSpec("linear", MaternParams(2.5, 0.7, (1.3, 1.3)))
path = os.path.join(tempfile.mkdtemp(), "model.json")
save_model(path, build_model(spec, inputs, [0.5, 0.4, 0.3, 1.2]))
model = load_model(path)
mean, var = predict_many(model, [sample_function("x1+x2", grid)])
assert var[0] >= 0 and loocv_error(model) >= 0
assert sample_paths_gram(model.inputs, model.spec, 3, 0).draws.shape == (3, 4)
assert nystrom_eig(model.spec.base, grid, 5).truncation == 5
"""
    out = _fresh_interpreter(code + _SCIPY_MODULES)
    assert out.strip() == "[]"


_FIT_SETUP = """
import contextlib, io, os, sys, tempfile
import figp.cli
from figp import (Domain, FitConfig, build_grid, fit, sample_function,
                  select_kernel)
from figp.storage import save_training_data
grid = build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 12)
inputs = [sample_function(e, grid)
          for e in ("1", "x1", "x2", "x1*x2", "1+x1^2", "sin(x1)")]
y = [float(grid.weights @ (g.values * g.values)) for g in inputs]
"""

_CLI_SELECT_KERNEL = """
path = os.path.join(tempfile.mkdtemp(), "train.json")
save_training_data(path, grid, inputs, y)
with contextlib.redirect_stdout(io.StringIO()):
    assert figp.cli.main(["select-kernel", "--train", path, "--json"]) == 0
"""


@pytest.mark.parametrize("call", [
    "fit(inputs, y, 'linear')",
    "fit(inputs, y, 'linear', premap='square')",
    "fit(inputs, y, 'nonlinear')",
    "select_kernel(inputs, y)",
    _CLI_SELECT_KERNEL,
], ids=["linear", "linear-premap", "nonlinear", "select_kernel",
        "cli-select-kernel"])
def test_one_parameter_fits_load_no_scipy(call):
    # a one-parameter fit refines with gp._bounded_brent, not SciPy's
    out = _fresh_interpreter(_FIT_SETUP + call + "\n" + _SCIPY_MODULES)
    assert out.strip() == "[]"


def test_anisotropic_fit_is_the_fit_that_loads_scipy_optimize():
    code = _FIT_SETUP + """
model = fit(inputs, y, 'linear', FitConfig(anisotropic=True, multistarts=2))
assert len(model.spec.base.lengthscales) == 2 and model.log_likelihood > -1e9
print('scipy.optimize' in sys.modules)
"""
    assert _fresh_interpreter(code).strip() == "True"


def test_fit_affine_equivariance(bench_inputs, bench_outputs, square_grid):
    cfg = FitConfig(seed=42, multistarts=4)
    y = bench_outputs["f2"]
    m1 = fit(bench_inputs, y, NONLINEAR, cfg)
    m2 = fit(bench_inputs, 2.5 * y + 7.0, NONLINEAR, cfg)
    assert math.isclose(m1.spec.gamma, m2.spec.gamma, rel_tol=1e-4)
    assert math.isclose(m2.sigma2_hat, 2.5 ** 2 * m1.sigma2_hat, rel_tol=1e-4)
    g = sample_function("1-0.8*sin(x2)", square_grid)
    p1, v1 = predict(m1, g)
    p2, v2 = predict(m2, g)
    assert math.isclose(p2, 2.5 * p1 + 7.0, rel_tol=1e-6)
    assert math.isclose(v2, 2.5 ** 2 * v1, rel_tol=1e-4)


def test_fit_interpolates_training_data(bench_models, bench_inputs,
                                        bench_outputs):
    model = bench_models[("f1", LINEAR)]
    y = bench_outputs["f1"]
    for g, yi in zip(bench_inputs, y):
        mean, var = predict(model, g)
        assert abs(mean - yi) <= 1e-3 * max(1.0, abs(yi))
        assert 0.0 <= var <= 10.0 * model.factorization.nugget


def test_predict_many_matches_predict(bench_models, square_grid):
    model = bench_models[("f3", NONLINEAR)]
    rng = np.random.default_rng(37)
    tests = random_poly_inputs(square_grid, 5, rng)
    means, variances = predict_many(model, tests)
    for i, g in enumerate(tests):
        m, v = predict(model, g)
        assert math.isclose(means[i], m, rel_tol=1e-12, abs_tol=1e-300)
        assert math.isclose(variances[i], v, rel_tol=1e-12, abs_tol=1e-15)


def test_predict_many_psi_builds_do_not_grow_with_batch(bench_models,
                                                        square_grid,
                                                        monkeypatch):
    model = bench_models[("f1", LINEAR)]
    builds = count_psi_triangles(monkeypatch)
    rng = np.random.default_rng(53)
    for size in (1, 50):
        predict_many(model, random_poly_inputs(square_grid, size, rng))
    assert builds == []  # the model's kept triangle serves every batch


def test_linear_gram_keeps_its_psi_read_only(square_grid):
    rng = np.random.default_rng(59)
    ins = random_poly_inputs(square_grid, 4, rng)
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.0, (0.9, 1.4)))
    triangle = gram(ins, spec).triangle
    # Psi from the scaled squared differences, as the triangle forms it
    nodes = square_grid.nodes
    r = np.sqrt(sum(t * t * np.subtract.outer(x, x) ** 2
                    for t, x in zip(spec.base.lengthscales, nodes.T)))
    psi = matern_psi(r, spec.base)
    # M_s[i, j] = Psi(o_i, R_s o_j) over the orthant nodes o, the first
    # 10 x 10 of the 20 x 20 lattice, where R_s reflects axis k when
    # s_k = 1; the parity blocks S_e mix them by the Sylvester matrix,
    # S_e = sum_s (-1)^popcount(e & s) M_s, with each diagonal halved and
    # the lower part zeroed
    lattice = np.arange(400).reshape(20, 20)
    orthant = lattice[:10, :10].ravel()
    M = np.stack([psi[np.ix_(orthant, lattice[::1 - 2 * s1, ::1 - 2 * s2]
                             [:10, :10].ravel())]
                  for s1 in (0, 1) for s2 in (0, 1)])
    sylvester = np.array([[(-1.0) ** bin(e & s).count("1") for s in range(4)]
                          for e in range(4)])
    S = np.einsum("es,sij->eij", sylvester, M)
    want = np.stack([np.triu(s, 1) + np.diag(0.5 * np.diag(s)) for s in S])
    got = np.zeros_like(want)
    for i0, P in triangle.blocks:
        got[:, i0:i0 + P.shape[1], i0:] = P
        assert not P.flags.writeable
    # a negative entry zeroed below the diagonal is -0.0
    assert not np.tril(got, -1).any()
    # the mix's summation order is round-off: each S_e sums four M_s
    np.testing.assert_allclose(np.triu(got), want, rtol=0,
                               atol=4 * np.finfo(float).eps * np.abs(M).max())
    assert not (triangle.A.flags.writeable or triangle.UA.flags.writeable)
    nonlinear = KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=0.5)
    assert gram(ins, nonlinear).triangle is None


def test_predict_many_rejects_empty_inputs(bench_models):
    with pytest.raises(FigpError, match="`inputs`, which is empty"):
        predict_many(bench_models[("f1", LINEAR)], [])


@pytest.mark.parametrize("family", [LINEAR, NONLINEAR])
def test_fit_and_predict_many_reject_mixed_grids(square_grid, bench_models,
                                                 family):
    coarse = build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 10)
    ins = [sample_function(e, square_grid) for e in ("1", "x1", "x2")]
    odd = sample_function("x1*x2", coarse)
    with pytest.raises(GridMismatchError):
        fit(ins + [odd], [0.1, 0.5, -0.2, 0.3], family)
    with pytest.raises(GridMismatchError):
        predict_many(bench_models[("f1", family)], ins[:1] + [odd])


def test_posterior_mean_additive_in_y(square_grid):
    rng = np.random.default_rng(41)
    ins = random_poly_inputs(square_grid, 6, rng)
    y1 = rng.standard_normal(6)
    y2 = rng.standard_normal(6)
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0, 1.0)),
                      nugget=1e-8)
    g = random_poly_inputs(square_grid, 1, rng)[0]
    p1 = predict(build_model(spec, ins, y1, mu=0.0), g)[0]
    p2 = predict(build_model(spec, ins, y2, mu=0.0), g)[0]
    p12 = predict(build_model(spec, ins, y1 + y2, mu=0.0), g)[0]
    # the Gram is conditioned around 1e8, which bounds the attainable agreement
    assert math.isclose(p12, p1 + p2, rel_tol=1e-8, abs_tol=1e-8)


def test_loocv_two_point_hand_case(square_grid):
    # closed form: with K = [[1, rho], [rho, 1]], mu = 0, y = (1, -1)
    # each fold predicts -rho * y_i, so the LOO MSE is (1 + rho)^2
    rho = 0.6
    K = np.array([[1.0, rho], [rho, 1.0]])
    fact = GramFactorization(K, np.linalg.cholesky(K),
                             float(np.log(np.linalg.det(K))), 0.0)
    y = np.array([1.0, -1.0])
    dummy = [sample_function("x1", square_grid),
             sample_function("x2", square_grid)]
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0, 1.0)))
    model = GPModel(spec, dummy, y, 0.0, fact, fact.solve_refined(y))
    assert math.isclose(loocv_error(model), (1.0 + rho) ** 2, rel_tol=1e-12)


def test_loocv_matches_brute_refits(bench_models):
    for model in bench_models.values():
        closed = loocv_error(model)
        brute = brute_loocv(model)
        assert abs(closed - brute) <= 1e-8 * max(abs(brute), 1e-300)


def test_variance_monotone_under_augmentation(square_grid):
    spec = KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=0.5,
                      nugget=1e-10)
    for s in range(5):
        rng = np.random.default_rng(100 + s)
        ins = random_poly_inputs(square_grid, 5, rng)
        g = random_poly_inputs(square_grid, 1, rng)[0]
        y = rng.standard_normal(5)
        small = build_model(spec, ins[:4], y[:4], mu=0.0)
        big = build_model(spec, ins, y, mu=0.0)
        assert predict(big, g)[1] <= predict(small, g)[1] + 1e-8


def test_variance_clamp_rejects_inconsistent_factorization(square_grid):
    rng = np.random.default_rng(43)
    ins = random_poly_inputs(square_grid, 4, rng)
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0, 1.0)),
                      nugget=1e-8)
    good = build_model(spec, ins, rng.standard_normal(4), mu=0.0)
    f = good.factorization
    # a factorization of 0.25 K makes the posterior variance wildly negative
    bad = GramFactorization(0.25 * f.gram, 0.5 * f.chol, f.log_det, f.nugget)
    broken = GPModel(spec, ins, good.y, 0.0, bad, bad.solve_refined(good.y))
    with pytest.raises(FigpError):
        predict(broken, ins[0])


@pytest.mark.parametrize("family", [LINEAR, NONLINEAR])
def test_hot_paths_make_one_forward_substitution_per_solve(
        family, bench_models, bench_inputs, bench_outputs, monkeypatch):
    # a likelihood evaluation whitens 1 and y, a prediction batch its
    # cross matrix; none of them back-substitutes
    y = bench_outputs["f1"]
    likelihood = _Likelihood(bench_inputs, family)
    spec = _unit_spec(family, 0.0)
    likelihood(spec, y)  # factorizes, so the next call is a memo hit
    calls = []
    real = np.linalg.solve

    def counted(a, b):
        calls.append(b.shape)
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    likelihood(spec, y)
    assert len(calls) == 2
    calls.clear()
    predict_many(bench_models[("f1", family)], bench_inputs[:3])
    assert calls == [(len(bench_inputs), 3)]


def test_fit_rejects_a_premap_for_the_nonlinear_family(bench_inputs,
                                                       bench_outputs):
    with pytest.raises(FigpError, match="fit: premap 'square' applies to "
                                        "the linear kernel only"):
        fit(bench_inputs, bench_outputs["f1"], NONLINEAR, premap="square")


def test_select_kernel_report(bench_inputs, bench_outputs):
    cfg = FitConfig(seed=42, multistarts=2)
    best, report = select_kernel(bench_inputs, bench_outputs["f2"], config=cfg)
    assert len(report) == 2
    assert sum(e["selected"] for e in report) == 1
    chosen = [e for e in report if e["selected"]][0]
    assert chosen["family"] == best.spec.family
    assert chosen["loocv"] == min(e["loocv"] for e in report)
    for e in report:
        for key in ("family", "loocv", "log_likelihood", "mu_hat",
                    "sigma2_hat"):
            assert key in e
    assert best.spec.family == NONLINEAR


def test_select_kernel_scale_invariant(bench_inputs, bench_outputs):
    cfg = FitConfig(seed=42, multistarts=2)
    b1, _ = select_kernel(bench_inputs, bench_outputs["f2"], config=cfg)
    b2, _ = select_kernel(bench_inputs, 5.0 * bench_outputs["f2"], config=cfg)
    assert b1.spec.family == b2.spec.family


def test_select_kernel_skips_failing_family(square_grid):
    # linearly dependent inputs break the linear kernel at zero nugget but
    # leave the distance-based kernel usable
    x1 = sample_function("x1", square_grid)
    two = sample_function("2*x1", square_grid)
    cfg = FitConfig(seed=0, multistarts=2)
    with pytest.warns(UserWarning, match="linear kernel fit failed") as record:
        best, report = select_kernel([x1, two], np.array([1.0, 2.0]),
                                     config=cfg, nugget=0.0)
    assert best.spec.family == NONLINEAR
    assert len(report) == 1
    # the failing stage is named: the one-parameter fit is a scan, not starts
    assert any("the profile scan failed at all 25 points for the linear "
               "kernel" in str(w.message) for w in record)


def test_select_family_tie_goes_to_linear():
    assert select_family({LINEAR: 0.5, NONLINEAR: 0.5}) == LINEAR
    assert select_family({NONLINEAR: 0.5, LINEAR: 0.5}) == LINEAR
    assert select_family({NONLINEAR: 0.25, LINEAR: 0.5}) == NONLINEAR


def _same_model(a, b):
    """Bitwise equal fits: spec, profile and the model's solve."""
    return _same_fit(a, b) and a.alpha.tobytes() == b.alpha.tobytes()


def _columns(outputs):
    """f1, f2 and f3 as the columns of one (n, 3) output array."""
    return np.column_stack([outputs[name] for name in ("f1", "f2", "f3")])


@pytest.mark.parametrize("family,kwargs", [
    (LINEAR, {}),
    (NONLINEAR, {}),
    (LINEAR, {"config": FitConfig(anisotropic=True, multistarts=2)}),
    (LINEAR, {"premap": "square"}),
    (NONLINEAR, {"nugget": 1e-3}),
], ids=["linear", "nonlinear", "anisotropic", "premap", "nugget"])
def test_columns_fit_bitwise_as_their_one_column_fits(family, kwargs,
                                                      bench_inputs,
                                                      bench_outputs):
    Y = _columns(bench_outputs)
    models = fit(bench_inputs, Y, family, **kwargs)
    assert isinstance(models, tuple) and len(models) == 3
    for j, model in enumerate(models):
        alone = fit(bench_inputs, Y[:, j], family, **kwargs)
        assert _same_model(model, alone), j
        assert model.y.tobytes() == alone.y.tobytes()


def test_columns_fit_random_data_bitwise_as_their_one_column_fits():
    grid = build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 12)
    x1, x2 = grid.nodes.T
    basis = np.column_stack([np.cos(np.pi * (j * x1 + 0.5 * k * x2))
                             for j in range(4) for k in range(4)])
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 16))
        inputs = [FunctionalInput(grid, basis @ rng.standard_normal(16))
                  for _ in range(n)]
        a, b = rng.standard_normal((2, 3))
        Y = np.array([grid.weights @ (a[:, None] * g.values
                                      + b[:, None] * g.values ** 2).T
                      for g in inputs])
        for family in (LINEAR, NONLINEAR):
            models = fit(inputs, Y, family)
            for j in range(3):
                assert _same_model(models[j], fit(inputs, Y[:, j], family)), \
                    (seed, family, j)


def test_columns_fit_factorizes_each_distinct_gram_once(bench_inputs,
                                                        bench_outputs,
                                                        monkeypatch):
    real = figp.kernels._GramOperator._factorized
    specs = []

    def recording(self, spec):
        specs.append(spec)
        return real(self, spec)

    monkeypatch.setattr(figp.kernels._GramOperator, "_factorized", recording)
    Y = _columns(bench_outputs)
    for j in range(3):
        fit(bench_inputs, Y[:, j], LINEAR)
    alone = list(specs)
    specs.clear()
    fit(bench_inputs, Y, LINEAR)
    # 12, 14 and 14 evaluations alone, on 15 distinct grid points
    assert len(alone) == 40
    assert sorted(specs, key=repr) == sorted(set(alone), key=repr)
    assert len(specs) == 15


@pytest.mark.parametrize("columns", [1, 3])
def test_fit_shares_one_memo_across_columns_and_frees_it(columns,
                                                        bench_inputs,
                                                        bench_outputs,
                                                        monkeypatch):
    real_call = figp.gp._Likelihood.__call__
    real_build = figp.gp.build_model
    memos, live = [], []

    def recording(self, spec, y):
        memos.append(self._operator._memo)
        return real_call(self, spec, y)

    def checking(*args, **kwargs):
        gc.collect()
        live.append(sum(isinstance(o, _Likelihood) for o in gc.get_objects()))
        return real_build(*args, **kwargs)

    monkeypatch.setattr(figp.gp._Likelihood, "__call__", recording)
    monkeypatch.setattr(figp.gp, "build_model", checking)
    y = _columns(bench_outputs)[:, :columns]
    fit(bench_inputs, y[:, 0] if columns == 1 else y, NONLINEAR)
    assert len({id(memo) for memo in memos}) == 1
    assert isinstance(memos[0], dict) and memos[0]
    assert live == [0] * columns


def test_a_warning_inside_the_search_reaches_the_caller_of_fit(
        bench_inputs, bench_outputs, monkeypatch):
    # the search runs under no warning filter of its own
    real = figp.gp._Likelihood.__call__
    calls = []

    def warning_once(self, spec, y):
        if not calls:
            warnings.warn("inside the search", UserWarning)
        calls.append(spec)
        return real(self, spec, y)

    monkeypatch.setattr(figp.gp._Likelihood, "__call__", warning_once)
    with pytest.warns(UserWarning, match="inside the search") as record:
        fit(bench_inputs, bench_outputs["f3"], NONLINEAR)
    assert len(calls) > 1
    assert sum("inside the search" in str(w.message) for w in record) == 1


def test_fit_warns_of_an_escalated_nugget_once_from_the_model_build(
        bench_inputs, bench_outputs, monkeypatch):
    # the first nugget level of every factorization fails, so every one
    # escalates; only `gram`, which builds the model, says so
    real_factorize = figp.kernels._factorize
    real_cholesky = figp.kernels._try_cholesky
    counts = {"factorizations": 0, "failed": 0}

    def counted(K, spec, triangle=None):
        counts["factorizations"] += 1
        return real_factorize(K, spec, triangle)

    def first_level_fails(K):
        if counts["failed"] < counts["factorizations"]:
            counts["failed"] += 1
            return None
        return real_cholesky(K)

    monkeypatch.setattr(figp.kernels, "_factorize", counted)
    monkeypatch.setattr(figp.kernels, "_try_cholesky", first_level_fails)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        model = fit(bench_inputs, bench_outputs["f3"], NONLINEAR)
    escalated = [w for w in record if "nugget escalated" in str(w.message)]
    assert len(escalated) == 1
    assert escalated[0].filename == figp.gp.__file__  # from build_model
    assert counts["factorizations"] > 10
    assert counts["failed"] == counts["factorizations"]
    assert model.factorization.nugget == \
        pytest.approx(1e-7 * model.sigma2_hat, rel=1e-9)
    assert model.factorization.escalated


@pytest.mark.parametrize("family", [LINEAR, NONLINEAR])
def test_log_marginal_likelihood_is_one_gram_call(family, bench_inputs,
                                                  bench_outputs, monkeypatch):
    calls = {"gram": 0, "likelihoods": 0}
    real_gram = figp.gp.gram
    real_init = figp.gp._Likelihood.__init__

    def counted_gram(*args):
        calls["gram"] += 1
        return real_gram(*args)

    def counted_init(self, *args):
        calls["likelihoods"] += 1
        real_init(self, *args)

    monkeypatch.setattr(figp.gp, "gram", counted_gram)
    monkeypatch.setattr(figp.gp._Likelihood, "__init__", counted_init)
    spec = _unit_spec(family, 0.3)
    y = bench_outputs["f2"]
    ll = log_marginal_likelihood(spec.with_sigma2(2.0), bench_inputs, y)
    assert calls == {"gram": 1, "likelihoods": 0}
    assert ll == _profile(real_gram(bench_inputs, spec), y)[2]


def _fail_for_output(target, monkeypatch):
    """From here on, every likelihood evaluation of outputs equal to
    `target` fails, as a Gram that cannot be factorized does."""
    real = figp.gp._Likelihood.__call__

    def failing(self, spec, y):
        if np.array_equal(y, target):
            raise GramFactorizationError("forced failure")
        return real(self, spec, y)

    monkeypatch.setattr(figp.gp._Likelihood, "__call__", failing)


def test_columns_fit_and_selection_name_the_column_that_fails(bench_inputs,
                                                             bench_outputs,
                                                             monkeypatch):
    Y = _columns(bench_outputs)
    _fail_for_output(Y[:, 1], monkeypatch)
    with pytest.raises(FitError, match="output column 1: the profile scan "
                                       "failed") as info:
        fit(bench_inputs, Y, NONLINEAR)
    assert info.value.column == 1
    with pytest.warns(UserWarning, match="kernel fit failed: output column 1"):
        with pytest.raises(FitError, match="output column 1: every "
                                           "candidate") as info:
            select_kernel(bench_inputs, Y)
    assert info.value.column == 1
    with pytest.raises(FitError) as info:
        fit(bench_inputs, Y[:, 1], NONLINEAR)
    assert info.value.column is None


def test_select_kernel_pairs_are_the_one_column_pairs(bench_inputs,
                                                      bench_outputs):
    Y = _columns(bench_outputs)
    pairs = select_kernel(bench_inputs, Y)
    assert len(pairs) == 3
    for j, (model, report) in enumerate(pairs):
        alone, want = select_kernel(bench_inputs, Y[:, j])
        assert _same_model(model, alone) and report == want


@pytest.mark.parametrize("call", [
    lambda ins, y: fit(ins, y, LINEAR),
    lambda ins, y: select_kernel(ins, y),
    lambda ins, y: build_model(_unit_spec(NONLINEAR, 0.0), ins, y),
    lambda ins, y: log_marginal_likelihood(_unit_spec(NONLINEAR, 0.0), ins, y),
], ids=["fit", "select_kernel", "build_model", "log_marginal_likelihood"])
def test_every_entry_point_checks_its_outputs_alike(call, bench_inputs):
    ins = bench_inputs[:4]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no fit runs before the check
        with pytest.raises(FigpError, match="outputs must be finite"):
            call(ins, [1.0, 2.0, np.nan, 3.0])
        with pytest.raises(FigpError, match="3 outputs for 4 inputs"):
            call(ins, [1.0, 2.0, 3.0])
        with pytest.raises(FigpError, match=r"outputs of shape \(4, 0\)"):
            call(ins, np.zeros((4, 0)))
        with pytest.raises(FigpError, match="outputs of shape"):
            call(ins, 1.0)


@pytest.mark.parametrize("call", [build_model, log_marginal_likelihood],
                         ids=["build_model", "log_marginal_likelihood"])
def test_one_model_entry_points_reject_output_columns(call, bench_inputs):
    with pytest.raises(FigpError, match=r"outputs of shape \(8, 2\)"):
        call(_unit_spec(NONLINEAR, 0.0), bench_inputs, np.ones((8, 2)))


def test_select_kernel_fits_the_nonlinear_family_without_the_premap(
        bench_inputs):
    y = np.array([float(g.grid.weights @ g.values ** 2)
                  for g in bench_inputs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no family is skipped
        best, report = select_kernel(bench_inputs, y, premap="square")
    assert [e["family"] for e in report] == [LINEAR, NONLINEAR]
    assert best.spec.family == LINEAR and best.spec.premap == "square"
    assert _same_model(best, fit(bench_inputs, y, LINEAR, premap="square"))
    nonlinear = fit(bench_inputs, y, NONLINEAR)
    assert nonlinear.spec.premap is None
    assert report[1]["log_likelihood"] == nonlinear.log_likelihood


def test_an_unknown_premap_raises_before_fitting(bench_inputs, bench_outputs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FigpError, match="unknown premap 'bogus'"):
            fit(bench_inputs, bench_outputs["f1"], LINEAR, premap="bogus")
        with pytest.raises(FigpError, match="unknown premap 'bogus'"):
            select_kernel(bench_inputs, bench_outputs["f1"], premap="bogus")
