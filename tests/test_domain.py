import math

import numpy as np
import pytest

import figp.domain
from figp import (NONLINEAR, DecayCurve, Domain, EigenSystem, ExpressionError,
                  FieldDataset, FigpError, FunctionalInput, GPModel,
                  GramFactorization, GridMismatchError, KernelSpec,
                  MaternParams, PathFamily, PCAEmulator, QuadratureGrid,
                  build_grid, build_model, fit, l2_inner, sample_function)
from figp.domain import GAUSS_LEGENDRE, UNIFORM_MIDPOINT

from figp_testlib import random_poly_inputs


def test_domain_validation():
    with pytest.raises(FigpError):
        Domain(())
    with pytest.raises(FigpError):
        Domain(((1.0, 1.0),))
    with pytest.raises(FigpError):
        Domain(((0.0, 1.0), (2.0, 1.0)))
    assert Domain(((0.0, 1.0), (0.0, 2.0))).dim == 2


def test_grid_shapes_and_weights(square_grid):
    assert square_grid.nodes.shape == (400, 2)
    assert square_grid.weights.shape == (400,)
    assert np.all(square_grid.weights > 0)
    # weights integrate the constant 1 to the domain volume
    assert math.isclose(square_grid.weights.sum(), 1.0, rel_tol=1e-12)


@pytest.mark.parametrize("broken,error", [
    ("one node", "not the lexicographic lattice of 4 points"),
    ("one axis", "nodes are not symmetric about the domain's centre on "
                 "axis 2"),
    ("weights", "weights are not symmetric about the domain's centre on "
                "axis 2"),
])
def test_a_grid_off_the_symmetric_lattice_is_refused(broken, error):
    # the linear kernel folds every grid by its axis reflections
    grid = build_grid(Domain(((0.0, 1.0), (0.0, 2.0))), 4, UNIFORM_MIDPOINT)
    nodes, weights = grid.nodes.copy(), grid.weights.copy()
    if broken == "one node":
        nodes[5, 0] += 1e-9
    elif broken == "one axis":
        nodes[::4, 1] += 1e-9  # the lattice holds, its symmetry does not
    else:
        weights.reshape(4, 4)[:, :2] *= [1.1, 0.9]
    with pytest.raises(FigpError, match=error):
        QuadratureGrid(grid.domain, nodes, weights, grid.rule, 4)


@pytest.mark.parametrize("off", ["nodes", "weights"])
def test_a_grid_whose_arrays_are_not_its_rules_is_refused(off):
    # grids compare equal, and grid-keyed caches hit, on their metadata
    # alone, so the metadata must pin the arrays
    unit = Domain(((0.0, 1.0),))
    legendre = build_grid(unit, 4)
    mid = build_grid(unit, 4, UNIFORM_MIDPOINT)
    nodes = (mid if off == "nodes" else legendre).nodes
    weights = (mid if off == "weights" else legendre).weights
    with pytest.raises(FigpError, match="quadrature nodes or weights are not "
                       "the gauss-legendre rule's at resolution 4; build the "
                       "grid with build_grid"):
        QuadratureGrid(unit, nodes, weights, GAUSS_LEGENDRE, 4)
    assert QuadratureGrid(unit, legendre.nodes, legendre.weights,
                          GAUSS_LEGENDRE, 4) == legendre


def test_grid_resolution_floor():
    with pytest.raises(FigpError):
        build_grid(Domain(((0.0, 1.0),)), 1)


def test_grid_takes_an_integral_float_resolution_and_none():
    unit = Domain(((0.0, 1.0),))
    grid = build_grid(unit, 20.0)
    assert grid.resolution == 20 and type(grid.resolution) is int
    assert grid == build_grid(unit, np.int64(20))
    assert build_grid(unit, None).resolution == 64


@pytest.mark.parametrize("resolution,dim", [(1e20, 1), (1e308, 1),
                                            (1e20, 2)])
def test_a_resolution_whose_nodes_numpy_cannot_index_is_refused_unbuilt(
        monkeypatch, resolution, dim):
    def unbuilt(n):
        raise AssertionError(f"a rule of {n} nodes was built")
    monkeypatch.setattr(figp.domain, "_reference_rule", unbuilt)
    with pytest.raises(FigpError) as e:
        build_grid(Domain(((0.0, 1.0),) * dim), resolution)
    assert str(e.value) == (
        f"resolution must give at most {np.iinfo(np.intp).max} grid nodes, "
        f"got {resolution!r}^{dim}")


def test_grids_of_one_resolution_share_one_reference_rule(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        calls.append(n)
        return leggauss(n)
    figp.domain._reference_rule.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    a = build_grid(Domain(((0.0, 1.0),)), 37)
    b = build_grid(Domain(((-2.0, 3.0), (0.0, 1.0))), 37.0)
    assert calls == [37]
    np.testing.assert_array_equal(np.unique(b.nodes[:, 1]), a.nodes[:, 0])
    build_grid(Domain(((0.0, 1.0),)), 38)
    assert calls == [37, 38]
    figp.domain._reference_rule.cache_clear()


def test_the_shared_reference_rule_is_read_only_and_numpys():
    for n in (2, 64, 256):
        shared = figp.domain._reference_rule(n)
        for got, want in zip(shared, np.polynomial.legendre.leggauss(n)):
            assert not got.flags.writeable
            assert got.tobytes() == want.tobytes()
    grid = build_grid(Domain(((0.0, 2.0),)), 64)
    x, w = np.polynomial.legendre.leggauss(64)
    assert grid.nodes[:, 0].tobytes() == (1.0 * x + 1.0).tobytes()
    assert grid.weights.tobytes() == (1.0 * w).tobytes()


def test_grid_equality(square_grid):
    again = build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 20)
    assert again == square_grid
    assert build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 21) != square_grid


def test_gauss_legendre_exact_for_high_degree(square_grid):
    # res 20 per axis integrates polynomials up to degree 39 exactly
    g = sample_function("x1^19", square_grid)
    assert math.isclose(l2_inner(g, g), 1.0 / 39.0, rel_tol=1e-12)


def test_midpoint_rule_behaves_like_midpoint():
    grid = build_grid(Domain(((0.0, 1.0),)), 64, rule=UNIFORM_MIDPOINT)
    assert grid.rule == UNIFORM_MIDPOINT
    np.testing.assert_allclose(grid.weights, 1.0 / 64.0)
    assert math.isclose(grid.nodes[0, 0], 0.5 / 64.0, rel_tol=1e-12)
    one = sample_function("1", grid)
    lin = sample_function("x1", grid)
    sq = sample_function("x1^2", grid)
    # exact for linears, O(h^2) but not exact for quadratics
    assert math.isclose(l2_inner(lin, one), 0.5, rel_tol=1e-12)
    err = abs(l2_inner(sq, one) - 1.0 / 3.0)
    assert 1e-9 < err < 1e-4


def test_l2_oracles(square_grid):
    x1 = sample_function("x1", square_grid)
    x2 = sample_function("x2", square_grid)
    assert math.isclose(l2_inner(x1, x1), 1.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(l2_inner(x1, x2), 0.25, rel_tol=1e-12)


def test_l2_oracle_interval(interval_grid):
    s = sample_function("sin(x1)", interval_grid)
    assert math.isclose(l2_inner(s, s), math.pi, rel_tol=1e-12)


def test_integrals_stable_under_resolution_doubling():
    from figp.reproduce import (FUNCTIONALS, TRAINING_EXPRESSIONS,
                                evaluate_functional)
    dom = Domain(((0.0, 1.0), (0.0, 1.0)))
    g20, g40 = build_grid(dom, 20), build_grid(dom, 40)
    for expr in TRAINING_EXPRESSIONS:
        a, b = sample_function(expr, g20), sample_function(expr, g40)
        for name in FUNCTIONALS:
            assert abs(evaluate_functional(name, a)
                       - evaluate_functional(name, b)) < 1e-10


def test_functional_input_arithmetic(square_grid):
    rng = np.random.default_rng(7)
    a, b = random_poly_inputs(square_grid, 2, rng)
    np.testing.assert_allclose((a + b).values, a.values + b.values)
    np.testing.assert_allclose((a - b).values, a.values - b.values)
    np.testing.assert_allclose((2.5 * a).values, 2.5 * a.values)
    np.testing.assert_allclose((-a).values, -a.values)


def test_mixed_grid_arithmetic_rejected(square_grid):
    other = build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 21)
    a = sample_function("x1", square_grid)
    b = sample_function("x1", other)
    with pytest.raises(GridMismatchError):
        a + b
    with pytest.raises(GridMismatchError):
        l2_inner(a, b)


def test_sample_function_labels(square_grid):
    g = sample_function("1+x1*x2", square_grid)
    assert g.label == "1+x1*x2"


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_sample_function_rejects_non_finite(square_grid):
    with pytest.raises(ExpressionError):
        sample_function("sqrt(x1-2)", square_grid)


def _record_cases():
    """Per record: the constructor (or `fit`, `build_model`), its other
    arguments, and the caller's writeable arrays, all by keyword."""
    grid = build_grid(Domain(((0.0, 1.0),)), 8)
    inputs = [sample_function(e, grid) for e in ("1", "x1", "x1^2")]
    spec = KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=1.0)
    model = build_model(spec, inputs, [1.0, 2.0, 0.5])
    K = np.array([[2.0, 0.5], [0.5, 1.0]])
    return {
        "QuadratureGrid": (QuadratureGrid, dict(
            domain=grid.domain, rule=grid.rule, resolution=grid.resolution),
            dict(nodes=grid.nodes.copy(), weights=grid.weights.copy())),
        "FunctionalInput": (FunctionalInput, dict(grid=grid),
                            dict(values=np.linspace(0.0, 1.0, 8))),
        "GPModel": (GPModel, dict(
            spec=spec, inputs=inputs, mu_hat=0.0,
            factorization=model.factorization),
            dict(y=np.array([1.0, 2.0, 0.5]), alpha=np.ones(3))),
        "GramFactorization": (GramFactorization, dict(log_det=0.5, nugget=0.0),
                              dict(gram=K, chol=np.linalg.cholesky(K))),
        "DecayCurve": (DecayCurve, dict(slope=-2.0, slope_se=0.1,
                                        replicates=0, method="exact"),
                       dict(sizes=np.array([2, 4]), mspe=np.array([0.5, 0.1]),
                            se=np.zeros(2))),
        "EigenSystem": (EigenSystem, dict(grid=grid, tail_mass=0.0),
                        dict(eigenvalues=np.array([2.0, 1.0]),
                             eigenfunctions=np.ones((8, 2)))),
        "PathFamily": (PathFamily, dict(inputs=inputs, seed=0, params={}),
                       dict(index_values=np.arange(3.0),
                            draws=np.ones((2, 3)))),
        "FieldDataset": (FieldDataset, dict(inputs=inputs, field_shape=(2,)),
                         dict(fields=np.ones((3, 2)))),
        "PCAEmulator": (PCAEmulator, dict(score_models=(model,),
                                          field_shape=(2,)),
                        dict(mean_field=np.ones(2),
                             components=np.array([[0.6, 0.8]]),
                             explained_variance_ratio=np.ones(1))),
        "fit": (fit, dict(inputs=inputs, family=NONLINEAR),
                dict(y=np.array([1.0, 2.0, 0.5]))),
        "build_model": (build_model, dict(spec=spec, inputs=inputs),
                        dict(y=np.array([1.0, 2.0, 0.5]))),
    }


@pytest.mark.parametrize("name", sorted(_record_cases()))
def test_records_hold_read_only_copies_of_the_callers_arrays(name):
    make, fixed, given = _record_cases()[name]
    record = make(**fixed, **given)
    kept = {field: getattr(record, field).copy() for field in given}
    for field, array in given.items():
        assert array.flags.writeable, field
        assert not getattr(record, field).flags.writeable, field
        assert getattr(record, field).flags.c_contiguous, field
        array += 1
        assert np.array_equal(getattr(record, field), kept[field]), field
