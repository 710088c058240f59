import math
import types
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import figp.designs
import figp.kernels
import figp.reproduce
import figp.sampling
from figp import (Domain, FigpError, GridMismatchError, KernelSpec, LINEAR,
                  MaternParams, NONLINEAR, build_grid, build_model,
                  empirical_mspe, exact_mspe, eigenfunction_design,
                  gram, kernel_matrix, knot_design,
                  lattice_knots, matern_psi, nystrom_eig, predict,
                  sample_function)
from figp.designs import DecayCurve
from figp.kernels import base_kernel_matrix
from figp.reproduce import mspe_decay_curve, run_reproduce

from figp_testlib import count_psi_triangles

UNIT = Domain(((0.0, 1.0),))
PARAMS = MaternParams(1.5, 1.0, (8.0,))
SPEC = KernelSpec(LINEAR, PARAMS)


@pytest.fixture(scope="module")
def unit_grid():
    return build_grid(UNIT, 64)


@pytest.fixture(scope="module")
def test_inputs(unit_grid):
    pts = np.array([[0.137], [0.361], [0.589], [0.823]])
    return knot_design(pts, PARAMS, unit_grid)


def test_lattice_1d():
    knots = lattice_knots(UNIT, 5)
    assert knots.shape == (5, 1)
    np.testing.assert_allclose(knots[:, 0], np.linspace(0.0, 1.0, 5))


def test_lattice_2d():
    dom = Domain(((0.0, 1.0), (0.0, 1.0)))
    knots = lattice_knots(dom, 16)
    assert knots.shape == (16, 2)
    axis = np.linspace(0.0, 1.0, 4)
    np.testing.assert_array_equal(knots,
                                  [[a, b] for a in axis for b in axis])


def test_lattice_validation():
    with pytest.raises(FigpError):
        lattice_knots(UNIT, 1)
    with pytest.raises(FigpError, match="power") as exc:
        lattice_knots(Domain(((0.0, 1.0), (0.0, 1.0))), 15)
    assert "-th" not in str(exc.value)


@pytest.mark.parametrize("dim,knots,want", [
    (2, [[0.5]], "(n, 2) array with n >= 1, got shape (1, 1)"),
    (1, [0.2, 0.4], "(n, 1) array with n >= 1, got shape (2,)"),
    (1, np.empty((0, 1)), "(n, 1) array with n >= 1, got shape (0, 1)")],
    ids=["one-column-on-the-square", "flat-on-the-interval", "no-knots"])
def test_knot_design_refuses_a_knot_array_of_the_wrong_shape(dim, knots,
                                                              want):
    domain = Domain(((0.0, 1.0),) * dim)
    params = MaternParams(1.5, 1.0, (8.0,) * dim)
    with pytest.raises(FigpError) as exc:
        knot_design(np.asarray(knots), params, build_grid(domain, 8))
    assert want in str(exc.value)


def test_knot_design_values_and_labels(unit_grid):
    knots = lattice_knots(UNIT, 3)
    design = knot_design(knots, PARAMS, unit_grid)
    assert [g.label for g in design] == ["knot(0)", "knot(0.5)", "knot(1)"]
    want = base_kernel_matrix(unit_grid.nodes, knots, PARAMS)
    for j, g in enumerate(design):
        np.testing.assert_allclose(g.values, want[:, j], rtol=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
def test_knot_design_is_bitwise_the_cdist_profile(dim):
    domain = Domain(((0.0, 1.0),) * dim)
    grid = build_grid(domain, 64 if dim == 1 else 20)
    params = MaternParams(1.5, 0.8, (8.0, 3.0)[:dim])
    knots = lattice_knots(domain, 9)
    theta = np.array(params.lengthscales)
    want = matern_psi(cdist(grid.nodes * theta, knots * theta), params)
    design = knot_design(knots, params, grid)
    assert np.array_equal(np.column_stack([g.values for g in design]), want)


def test_knot_design_rejects_outside_domain(unit_grid):
    with pytest.raises(FigpError):
        knot_design(np.array([[1.5]]), PARAMS, unit_grid)


def test_knot_design_warns_on_coincident_knots(unit_grid):
    with pytest.warns(UserWarning, match="coincident"):
        knot_design(np.array([[0.3], [0.3]]), PARAMS, unit_grid)


def test_eigenfunction_design_diagonalizes_linear_kernel(unit_grid):
    eig = nystrom_eig(PARAMS, unit_grid, m=16)
    design = eigenfunction_design(eig, 6)
    assert design[0].label == "eigenfunction_1"
    K = kernel_matrix(design, design, SPEC)[0]
    np.testing.assert_allclose(K, np.diag(eig.eigenvalues[:6]),
                               atol=1e-10 * eig.eigenvalues[0])


def test_eigenfunction_design_bounds(unit_grid):
    eig = nystrom_eig(PARAMS, unit_grid, m=8)
    with pytest.raises(FigpError):
        eigenfunction_design(eig, eig.truncation + 1)
    with pytest.raises(FigpError):
        eigenfunction_design(eig, 0)


def test_exact_mspe_matches_posterior_variance(unit_grid, test_inputs):
    # the series route must agree with a zero-nugget posterior variance
    design = knot_design(lattice_knots(UNIT, 8), PARAMS, unit_grid)
    vals = exact_mspe(design, test_inputs, SPEC)
    spec0 = KernelSpec(LINEAR, PARAMS, nugget=0.0)
    model = build_model(spec0, design, np.zeros(len(design)), mu=0.0)
    for i, t in enumerate(test_inputs):
        assert math.isclose(vals[i], predict(model, t)[1],
                            rel_tol=1e-6, abs_tol=1e-12)


def test_exact_mspe_monotone_under_nesting(unit_grid, test_inputs):
    eig = nystrom_eig(PARAMS, unit_grid, m=16)
    small = exact_mspe(eigenfunction_design(eig, 4), test_inputs, SPEC)
    large = exact_mspe(eigenfunction_design(eig, 8), test_inputs, SPEC)
    assert np.all(large <= small + 1e-8)
    # appending one knot to a knot design can only help either
    base = knot_design(lattice_knots(UNIT, 8), PARAMS, unit_grid)
    extra = knot_design(np.array([[0.45]]), PARAMS, unit_grid)
    assert np.all(exact_mspe(base + extra, test_inputs, SPEC)
                  <= exact_mspe(base, test_inputs, SPEC) + 1e-6)


def test_exact_mspe_nonlinear_route(unit_grid, test_inputs):
    spec = KernelSpec(NONLINEAR, MaternParams(1.5, 1.0), gamma=1.0)
    eig = nystrom_eig(PARAMS, unit_grid, m=16)
    small = exact_mspe(eigenfunction_design(eig, 4), test_inputs, spec)
    large = exact_mspe(eigenfunction_design(eig, 8), test_inputs, spec)
    assert np.all(small > 0) and np.all(large > 0)
    assert np.all(large <= small + 1e-6)


def test_exact_mspe_rejects_tests_on_another_grid(unit_grid):
    design = knot_design(lattice_knots(UNIT, 8), PARAMS, unit_grid)
    wide = build_grid(Domain(((0.0, 2.0),)), 64)
    tests = [sample_function("x1", wide)]
    with pytest.raises(GridMismatchError):
        exact_mspe(design, tests, SPEC)


@pytest.mark.parametrize("empty", ["design", "tests"])
def test_exact_mspe_rejects_empty_input_lists(unit_grid, empty):
    x1 = [sample_function("x1", unit_grid)]
    design, tests = ([], x1) if empty == "design" else (x1, [])
    with pytest.raises(FigpError, match=f"`{empty}`, which is empty"):
        exact_mspe(design, tests, SPEC)


def test_nystrom_eig_returns_its_last_eigensystem_for_an_equal_key(
        unit_grid, test_inputs):
    assert isinstance(figp.sampling.nystrom_eig, types.FunctionType)
    eig = nystrom_eig(PARAMS, unit_grid, m=16)
    assert nystrom_eig(MaternParams(1.5, 1.0, (8.0,)),
                       build_grid(UNIT, 64), 16) is eig
    assert nystrom_eig(MaternParams(2.5, 1.0, (8.0,)), unit_grid,
                       16) is not eig
    design = knot_design(lattice_knots(UNIT, 8), PARAMS, unit_grid)
    after_other = exact_mspe(design, test_inputs, SPEC)
    figp.sampling._eigensystem.cache_clear()
    np.testing.assert_array_equal(after_other,
                                  exact_mspe(design, test_inputs, SPEC))


@pytest.fixture
def eig_calls(monkeypatch):
    """Count eigensystem requests through the name each caller uses."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return nystrom_eig(*args, **kwargs)
    monkeypatch.setattr(figp.designs, "nystrom_eig", counted)
    monkeypatch.setattr(figp.reproduce, "nystrom_eig", counted)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """Count eigendecompositions, from an empty eigensystem cache."""
    figp.sampling._eigensystem.cache_clear()
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_mspe_decay_target_builds_one_eigensystem_for_both_curves(
        tmp_path, unit_grid, test_inputs, eigh_calls):
    run_reproduce("mspe_decay", str(tmp_path), seed=42)
    assert len(eigh_calls) == 1
    run_reproduce("mspe_decay", str(tmp_path), seed=42)
    assert len(eigh_calls) == 1
    empirical_mspe(_knot_builder(unit_grid), (8, 16, 32, 64), test_inputs,
                   SPEC)
    assert len(eigh_calls) == 2


def test_mc_knot_curve_builds_no_eigensystem(unit_grid, eig_calls):
    curve = mspe_decay_curve("knot", unit_grid, sizes=(4, 8),
                             method="mc", replicates=20)
    assert curve.method == "mc"
    assert eig_calls == []


def _knot_builder(unit_grid):
    def build(n):
        return knot_design(lattice_knots(UNIT, n), PARAMS, unit_grid)
    return build


def test_empirical_mspe_exact_curve(unit_grid, test_inputs):
    curve = empirical_mspe(_knot_builder(unit_grid), (4, 8, 16), test_inputs,
                           SPEC, theoretical_rate=-3.0)
    assert curve.method == "exact"
    assert curve.replicates == 0
    np.testing.assert_array_equal(curve.se, 0.0)
    assert np.all(np.diff(curve.mspe) < 0)
    assert curve.slope < 0
    assert np.isfinite(curve.slope_se)
    assert curve.theoretical_rate == -3.0


def test_empirical_mspe_mc_agrees_with_exact(unit_grid, test_inputs):
    exact = empirical_mspe(_knot_builder(unit_grid), (4, 8, 16), test_inputs,
                           SPEC, method="exact")
    mc = empirical_mspe(_knot_builder(unit_grid), (4, 8, 16), test_inputs,
                        SPEC, method="mc", replicates=400, seed=11)
    assert np.all(mc.se > 0)
    assert np.all(np.abs(exact.mspe - mc.mspe) <= 3.0 * mc.se)


def test_mc_posterior_mean_is_the_solve_routes(unit_grid, test_inputs):
    # The MC route predicts with the joint factor's block product; the
    # posterior mean by a solve against the design Gram is the reference.
    # The design Grams reach condition 1.9e7 at 32 knots, so the bound is
    # 1e-9 relative (cond * eps = 4e-9); 3.8e-12 was seen.
    sizes, replicates, seed = (4, 8, 16, 32), 200, 5
    build = _knot_builder(unit_grid)
    curve = empirical_mspe(build, sizes, test_inputs, SPEC, method="mc",
                           replicates=replicates, seed=seed)
    rng = np.random.default_rng(seed)
    for n, mspe, se in zip(sizes, curve.mspe, curve.se):
        fact = gram(build(n) + test_inputs, SPEC)
        K = fact.gram
        paths = rng.standard_normal((replicates, K.shape[0])) @ fact.chol.T
        preds = paths[:, :n] @ np.linalg.solve(K[:n, :n], K[:n, n:])
        per_rep = np.mean((preds - paths[:, n:]) ** 2, axis=1)
        assert math.isclose(mspe, per_rep.mean(), rel_tol=1e-9)
        assert math.isclose(se, per_rep.std(ddof=1) / math.sqrt(replicates),
                            rel_tol=1e-9)


def test_mc_curve_reuses_the_joint_psi(unit_grid, test_inputs, monkeypatch):
    builds = count_psi_triangles(monkeypatch)
    curve = empirical_mspe(_knot_builder(unit_grid), (4, 8), test_inputs,
                           SPEC, method="mc", replicates=50, seed=3)
    # the joint Gram's triangle of Psi, once per size
    assert builds == [4 + len(test_inputs), 8 + len(test_inputs)]
    # values of the route that built Psi three times per size
    np.testing.assert_allclose(curve.mspe, [0.003919827304606594,
                                            7.597254156326606e-05],
                               rtol=1e-9)
    np.testing.assert_allclose(curve.se, [0.0004843553765299148,
                                          8.764798425363306e-06], rtol=1e-9)


def test_empirical_mspe_two_sizes_slope_se_nan(unit_grid, test_inputs):
    curve = empirical_mspe(_knot_builder(unit_grid), (4, 8), test_inputs, SPEC)
    assert np.isnan(curve.slope_se)
    assert np.isfinite(curve.slope)


def test_empirical_mspe_validation(unit_grid, test_inputs):
    build = _knot_builder(unit_grid)
    with pytest.raises(FigpError):
        empirical_mspe(build, (4,), test_inputs, SPEC)
    with pytest.raises(FigpError):
        empirical_mspe(build, (1, 4), test_inputs, SPEC)
    with pytest.raises(FigpError):
        empirical_mspe(build, (4, 8), [], SPEC)
    with pytest.raises(FigpError):
        empirical_mspe(build, (4, 8), test_inputs, SPEC, method="bootstrap")


@pytest.mark.parametrize("sizes", [(8, 8), (64, 8), (4, 16, 8)])
def test_empirical_mspe_checks_the_size_order_before_building(
        test_inputs, sizes):
    built = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FigpError, match=r"^design sizes must be strictly "
                                            r"increasing, got \["):
            empirical_mspe(built.append, sizes, test_inputs, SPEC)
    assert built == []


@pytest.mark.parametrize("replicates", [0, 1])
def test_mc_mspe_needs_two_replicates(unit_grid, test_inputs, replicates):
    with pytest.raises(FigpError, match=f"method 'mc' needs replicates "
                                        f">= 2, got {replicates}"):
        empirical_mspe(_knot_builder(unit_grid), (4, 8), test_inputs, SPEC,
                       method="mc", replicates=replicates)


def test_decay_curve_validation():
    with pytest.raises(FigpError):
        DecayCurve(np.array([4, 4]), np.array([1.0, 0.5]),
                   np.zeros(2), -1.0, 0.0, 0, "exact")
    with pytest.raises(FigpError):
        DecayCurve(np.array([4, 8]), np.array([1.0, -0.5]),
                   np.zeros(2), -1.0, 0.0, 0, "exact")
