import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import figp.domain
import figp.kernels
from figp import (Domain, FigpError, FunctionalInput, GramFactorizationError,
                  GridMismatchError, KernelSpec, LINEAR, MaternParams,
                  NONLINEAR, build_grid, gram, kernel_matrix, l2_inner,
                  matern_psi, sample_function)
from figp.domain import GAUSS_LEGENDRE, UNIFORM_MIDPOINT, _shared_grid
from figp.kernels import (PIVOT_TOL, PSI_BLOCK, _chol_solve, _node_distances,
                          _parities, _try_cholesky, base_kernel_matrix)

from figp_testlib import (kernel_entry, pairwise_kernel_oracle,
                          random_poly_inputs)


# values frozen from a high-precision evaluation of the closed forms
MATERN_ORACLES = [
    (0.5, 1.0, 1.0, 0.24311673443421421),
    (1.5, 1.0, 1.0, 0.29782076792963152),
    (2.5, 1.0, 1.0, 0.3172833639540438),
    (2.5, 0.35, 2.0, 1.663085639863483),
    (1.7, 0.8, 1.0, 0.42610752274918579),  # general-nu Bessel branch
]


@pytest.mark.parametrize("nu,r,sigma2,want", MATERN_ORACLES)
def test_matern_psi_oracles(nu, r, sigma2, want):
    got = float(matern_psi(r, MaternParams(nu, sigma2)))
    assert math.isclose(got, want, rel_tol=1e-12)


def test_matern_psi_at_zero_and_vectorized():
    p = MaternParams(2.5, 3.0)
    assert math.isclose(float(matern_psi(0.0, p)), 3.0, rel_tol=1e-14)
    r = np.linspace(0.0, 2.0, 9).reshape(3, 3)
    assert matern_psi(r, p).shape == (3, 3)


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
def test_matern_psi_closed_forms_bitwise(nu):
    # the one-line Horner forms on zn = -z, evaluated with temporaries
    def closed(r, s2):
        zn = r * (-2.0 * math.sqrt(nu))
        if nu == 0.5:
            return np.exp(zn) * s2
        if nu == 1.5:
            return (1.0 - zn) * np.exp(zn) * s2
        return ((zn * (1.0 / 3.0) - 1.0) * zn + 1.0) * np.exp(zn) * s2

    # and the textbook forms they rearrange
    def textbook(r, s2):
        z = 2.0 * math.sqrt(nu) * r
        if nu == 0.5:
            return s2 * np.exp(-z)
        if nu == 1.5:
            return s2 * (1.0 + z) * np.exp(-z)
        return s2 * (1.0 + z + z * z / 3.0) * np.exp(-z)

    rng = np.random.default_rng(5)
    r = rng.uniform(0.0, 30.0, size=(37, 41))
    r[0, :3] = 0.0
    before = r.copy()
    dense = np.linspace(0.0, 30.0, 3001)
    for s2 in (0.37, 1.0):
        got = matern_psi(r, MaternParams(nu, s2))
        assert got.tobytes() == closed(r, s2).tobytes()
        # a few ulps of the textbook form over the whole range
        want = textbook(dense, s2)
        assert np.all(np.abs(matern_psi(dense, MaternParams(nu, s2)) - want)
                      <= 8 * np.spacing(want))
    assert r.tobytes() == before.tobytes()  # the caller's array is not written
    scalar = matern_psi(0.8, MaternParams(nu, 0.37))
    assert type(scalar) is float and scalar == float(closed(0.8, 0.37))
    r[1, 1] = np.nan
    r[2, 2] = -1.0
    with pytest.raises(FigpError, match="non-negative"):
        matern_psi(r, MaternParams(nu, 0.37))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_parities_mix_the_layers_by_sign(d):
    # layer e of the mix is sum_s (-1)^popcount(e & s) X[s], to round-off
    rng = np.random.default_rng(d)
    X = rng.standard_normal((2 ** d, 7, 5))
    want = np.stack([sum((-1.0) ** bin(e & s).count("1") * X[s]
                         for s in range(2 ** d)) for e in range(2 ** d)])
    got = _parities(X)
    assert got.shape == X.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=2 ** d * np.finfo(
        float).eps * np.abs(X).max())


def test_matern_closed_forms_meet_bessel_branch():
    # the half-integer shortcuts must agree with the general formula
    for nu in (0.5, 1.5, 2.5):
        a = float(matern_psi(0.7, MaternParams(nu, 1.0)))
        b = float(matern_psi(0.7, MaternParams(nu + 1e-9, 1.0)))
        assert math.isclose(a, b, rel_tol=1e-6)


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 1.7])
def test_matern_psi_monotone_decreasing(nu):
    r = np.linspace(0.0, 6.0, 1000)
    vals = matern_psi(r, MaternParams(nu, 1.0))
    assert np.all(np.diff(vals) < 0)


def _blocked_cases(square_grid):
    """(name, a, b) pairs for base_kernel_matrix: a row count that is
    not a multiple of the rows per block of Psi's triangle, a grid-nodes
    x knots cross pair as `knot_design` forms it, both ways round, and a
    one-row side."""
    rng = np.random.default_rng(61)
    pts = rng.uniform(0.0, 1.0, size=(1000, 2))
    knots = rng.uniform(0.0, 1.0, size=(5, 2))
    assert pts.shape[0] % (PSI_BLOCK // pts.shape[0]) != 0
    nodes = square_grid.nodes
    return [("ragged", pts, pts), ("nodes x knots", nodes, knots),
            ("knots x nodes", knots, nodes), ("one row", pts[:1], pts),
            ("one column", pts, pts[:1])]


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 1.2])
def test_base_kernel_matrix_blocks_are_bitwise_the_full_profile(square_grid,
                                                               nu):
    theta = np.array([0.8, 2.5])
    params = MaternParams(nu, 0.37, tuple(theta))
    for name, a, b in _blocked_cases(square_grid):
        got = base_kernel_matrix(a, b, params)
        want = matern_psi(cdist(a * theta, b * theta), params)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


UNIT_SQUARE = Domain(((0.0, 1.0), (0.0, 1.0)))
GRID_CASES = [pytest.param(res, theta, id=f"grid{res}-{name}")
              for res in (20, 40)
              for name, theta in (("isotropic", (1.3, 1.3)),
                                  ("anisotropic", (0.7, 2.1)))]


@pytest.mark.parametrize("res,theta", GRID_CASES)
def test_node_distances_are_bitwise_cdist(res, theta):
    nodes = build_grid(UNIT_SQUARE, res).nodes * np.array(theta)
    knots = np.random.default_rng(67).uniform(0.0, 1.0, size=(9, 2))
    for a, b in ((nodes, nodes), (nodes, knots), (knots, nodes)):
        assert np.array_equal(_node_distances(a, b), cdist(a, b))


@pytest.mark.parametrize("res,theta", GRID_CASES)
def test_mirrored_psi_is_bitwise_the_cdist_profile(res, theta):
    nodes = build_grid(UNIT_SQUARE, res).nodes
    params = MaternParams(2.5, 0.37, theta)
    want = matern_psi(cdist(nodes * theta, nodes * theta), params)
    # freed NaNs: Psi gets their memory or fresh zeroed pages, so an entry
    # the blocks missed cannot pass on a stale copy of its value
    np.full(want.shape, np.nan)
    got = base_kernel_matrix(nodes, nodes, params)
    assert np.array_equal(got, want)
    assert np.array_equal(got, got.T)


def test_try_cholesky_rejects_exactly_rank_deficient_grams(square_grid):
    # the Gram of (x1, x2) bordered by the row and column of 2 x1, which
    # doubling makes exactly: rank 1 of 2 and rank 2 of 3
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0, 1.0)))
    inputs = [sample_function(e, square_grid) for e in ("x1", "x2")]
    G = kernel_matrix(inputs, inputs, spec)[0]
    G = np.triu(G) + np.triu(G, 1).T
    eps = np.finfo(float).eps
    for K in (G[:1, :1], G):
        K = np.block([[K, 2.0 * K[:, :1]], [2.0 * K[:1], 4.0 * K[:1, :1]]])
        try:
            L = np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            pass
        else:  # round-off left a positive last pivot: the rule rejects it
            pivot = L.diagonal().min()
            ratio = pivot * pivot / (K.shape[0] * eps * K.diagonal().max())
            assert ratio <= PIVOT_TOL
        assert _try_cholesky(K) is None


def test_base_kernel_matrix_keeps_the_shape_of_an_empty_side(square_grid):
    params = MaternParams(2.5, 1.0, (1.0, 1.0))
    nodes, empty = square_grid.nodes, np.empty((0, 2))
    n = nodes.shape[0]
    assert base_kernel_matrix(nodes, empty, params).shape == (n, 0)
    assert base_kernel_matrix(empty, nodes, params).shape == (0, n)


def test_shared_grid_finds_a_mismatch_hidden_among_one_grid(square_grid):
    inputs = [sample_function("x1", square_grid)] * 20
    inputs[13] = sample_function("x1", build_grid(square_grid.domain, 21))
    with pytest.raises(GridMismatchError):
        _shared_grid("test", inputs=inputs)
    with pytest.raises(GridMismatchError):
        _shared_grid("test", inputs=inputs[:10], others=inputs[10:])


def test_shared_grid_compares_each_distinct_grid_object_once(square_grid,
                                                              monkeypatch):
    twins = [build_grid(square_grid.domain, 20) for _ in range(2)]
    assert all(t == square_grid and t is not square_grid for t in twins)
    grids = [square_grid] * 12 + twins * 4  # 3 objects, the twins alternating
    inputs = [sample_function("x1", grid) for grid in grids]
    compared = []
    real = figp.domain._check_same_grid

    def counted(g1, g2):
        compared.append(g2.grid)
        return real(g1, g2)

    monkeypatch.setattr(figp.domain, "_check_same_grid", counted)
    assert _shared_grid("test", a=inputs[:5], b=inputs[5:]) is square_grid
    assert len(compared) == 2
    assert {id(g) for g in compared} == {id(t) for t in twins}


def test_matern_params_validation():
    with pytest.raises(FigpError):
        MaternParams(0.0, 1.0)
    with pytest.raises(FigpError):
        MaternParams(2.5, -1.0)
    with pytest.raises(FigpError):
        MaternParams(2.5, 1.0, (1.0, -2.0))


def test_kernel_spec_validation():
    p = MaternParams(2.5, 1.0, (1.0, 1.0))
    with pytest.raises(FigpError):
        KernelSpec("cubic", p)
    with pytest.raises(FigpError):
        KernelSpec(NONLINEAR, MaternParams(2.5, 1.0))  # gamma missing
    with pytest.raises(FigpError):
        KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=1.0, premap="square")
    with pytest.raises(FigpError):
        KernelSpec(LINEAR, p, gamma=1.0)
    with pytest.raises(FigpError):
        KernelSpec(LINEAR, p, premap="cube")


# each record field, built with a given value
WITH_FIELD = {
    "nu": lambda v: MaternParams(v, 1.0),
    "sigma2": lambda v: MaternParams(2.5, v),
    "lengthscales": lambda v: MaternParams(2.5, 1.0, (1.0, v)),
    "gamma": lambda v: KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=v),
    "nugget": lambda v: KernelSpec(LINEAR, MaternParams(2.5, 1.0), nugget=v),
}


@pytest.mark.parametrize("field", sorted(WITH_FIELD))
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_kernel_records_reject_non_finite_values(field, value):
    with pytest.raises(FigpError, match=f"{field} must be finite"):
        WITH_FIELD[field](value)


def test_try_cholesky_rejects_a_nan_factor():
    # numpy's Cholesky can return a NaN factor of a NaN matrix unraised
    K = np.full((3, 3), math.nan)
    try:
        assert np.isnan(np.linalg.cholesky(K)).any()
    except np.linalg.LinAlgError:
        pass
    assert _try_cholesky(K) is None


def test_linear_kernel_refined_grid_oracle():
    # the quadrature value must be stable when the grid is refined 20 -> 40
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0, 1.0)))
    dom = Domain(((0.0, 1.0), (0.0, 1.0)))
    g20, g40 = build_grid(dom, 20), build_grid(dom, 40)
    for e1, e2 in [("1", "1"), ("x1", "sin(3*x1)+x2")]:
        coarse = kernel_entry(sample_function(e1, g20),
                              sample_function(e2, g20), spec)
        fine = kernel_entry(sample_function(e1, g40),
                            sample_function(e2, g40), spec)
        assert math.isclose(coarse, fine, rel_tol=1e-6)


def test_linear_kernel_bilinear(square_grid):
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.5, (0.7, 1.3)))
    rng = np.random.default_rng(21)
    for _ in range(10):
        g1, g2, g3 = random_poly_inputs(square_grid, 3, rng)
        a, b = rng.uniform(-2.0, 2.0, 2)
        lhs = kernel_entry(a * g1 + b * g2, g3, spec)
        rhs = (a * kernel_entry(g1, g3, spec)
               + b * kernel_entry(g2, g3, spec))
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


def test_kernels_symmetric(square_grid):
    rng = np.random.default_rng(3)
    g1, g2 = random_poly_inputs(square_grid, 2, rng)
    for spec in (KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0, 1.0))),
                 KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=0.8)):
        assert math.isclose(kernel_entry(g1, g2, spec),
                            kernel_entry(g2, g1, spec), rel_tol=1e-12)


def test_nonlinear_kernel_translation_invariant(square_grid):
    spec = KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=0.6)
    rng = np.random.default_rng(9)
    g1, g2, shift = random_poly_inputs(square_grid, 3, rng)
    a = kernel_entry(g1, g2, spec)
    b = kernel_entry(g1 + shift, g2 + shift, spec)
    assert math.isclose(a, b, rel_tol=1e-12)


def test_nonlinear_kernel_radial(square_grid):
    # pairs at equal L2 distance get equal kernel values
    spec = KernelSpec(NONLINEAR, MaternParams(1.5, 2.0), gamma=1.1)
    x1 = sample_function("x1", square_grid)
    x2 = sample_function("x2", square_grid)
    base = sample_function("1+x1*x2", square_grid)
    v = 0.35 * x1
    w = math.sqrt(l2_inner(v, v) / l2_inner(x2, x2)) * x2
    assert math.isclose(kernel_entry(base, base + v, spec),
                        kernel_entry(base, base + w, spec),
                        rel_tol=1e-12)


@pytest.mark.parametrize("spec", [
    KernelSpec(LINEAR, MaternParams(2.5, 1.3, (0.9, 1.4))),
    KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0, 1.0)), premap="square"),
    KernelSpec(NONLINEAR, MaternParams(2.5, 0.7), gamma=0.5),
])
def test_kernel_matrix_matches_pairwise_values(square_grid, spec):
    rng = np.random.default_rng(11)
    ga = random_poly_inputs(square_grid, 4, rng)
    gb = random_poly_inputs(square_grid, 3, rng)
    K = kernel_matrix(ga, gb, spec)[0]
    assert K.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert math.isclose(K[i, j],
                                pairwise_kernel_oracle(ga[i], gb[j], spec),
                                rel_tol=1e-12, abs_tol=1e-12)


def test_linear_premap_equals_mapped_inputs(square_grid):
    p = MaternParams(2.5, 1.0, (1.0, 1.0))
    rng = np.random.default_rng(13)
    g1, g2 = random_poly_inputs(square_grid, 2, rng)
    direct = kernel_entry(g1, g2, KernelSpec(LINEAR, p, premap="square"))
    mapped = kernel_entry(FunctionalInput(square_grid, g1.values ** 2),
                          FunctionalInput(square_grid, g2.values ** 2),
                          KernelSpec(LINEAR, p))
    assert math.isclose(direct, mapped, rel_tol=1e-12)


@pytest.mark.parametrize("spec", [
    KernelSpec(LINEAR, MaternParams(2.5, 1.3, (0.9, 1.4))),
    KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0, 1.0)), premap="square"),
    KernelSpec(NONLINEAR, MaternParams(2.5, 0.7), gamma=0.5),
])
def test_kernel_diag_matches_kernel_matrix_diagonal(square_grid, spec):
    rng = np.random.default_rng(12)
    ins = random_poly_inputs(square_grid, 6, rng)
    diag = kernel_matrix(ins[:1], ins, spec)[1]
    np.testing.assert_allclose(diag, np.diag(kernel_matrix(ins, ins, spec)[0]),
                               rtol=1e-12)


@pytest.mark.parametrize("premap", [None, "square"])
def test_linear_gram_triangle_is_bitwise_the_prediction_cross_matrix(
        square_grid, premap):
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.3, (0.9, 1.4)),
                      premap=premap, nugget=0.0)
    ins = random_poly_inputs(square_grid, 5, np.random.default_rng(14))
    fact = gram(ins, spec)
    for cross in (fact.triangle.cross_and_diag(ins)[0],
                  kernel_matrix(ins, ins, spec)[0]):
        assert np.triu(fact.gram).tobytes() == np.triu(cross).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("res", [2, 5, 8])
@pytest.mark.parametrize("rule", [GAUSS_LEGENDRE, UNIFORM_MIDPOINT])
@pytest.mark.parametrize("theta", [(0.8, 0.8, 0.8), (0.4, 1.3, 2.2)],
                         ids=["isotropic", "anisotropic"])
def test_folded_linear_kernel_is_the_dense_quadrature(dim, res, rule, theta):
    # W^T Psi W with Psi the whole base-kernel matrix on the nodes
    domain = Domain(((0.0, 1.0), (-1.0, 2.0), (0.5, 0.75))[:dim])
    grid = build_grid(domain, res, rule)
    rng = np.random.default_rng(res * 10 + dim)
    n = min(4, grid.n_points)
    W = rng.uniform(0.5, 1.5, size=(grid.n_points, 2 * n))
    ins = [FunctionalInput(grid, w) for w in W.T]
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.3, theta[:dim]), nugget=0.0)
    W *= grid.weights[:, None]
    want = W.T @ base_kernel_matrix(grid.nodes, grid.nodes, spec.base) @ W
    scale = np.abs(want).max()
    figp.kernels._fold.cache_clear()
    K, variances = kernel_matrix(ins[:n], ins[n:], spec)
    assert np.abs(K - want[:n, n:]).max() <= 1e-13 * scale
    assert np.abs(variances - np.diag(want)[n:]).max() <= 1e-13 * scale
    assert np.abs(gram(ins[:n], spec).gram - want[:n, :n]).max() <= \
        1e-13 * scale
    # a second build on an equal grid reads the geometry the first built
    again = [FunctionalInput(build_grid(domain, res, rule), g.values)
             for g in ins]
    K2, variances2 = kernel_matrix(again[:n], again[n:], spec)
    assert np.abs(K2 - want[:n, n:]).max() <= 1e-13 * scale
    assert K2.tobytes() == K.tobytes()
    assert variances2.tobytes() == variances.tobytes()


@pytest.mark.parametrize("call", [kernel_matrix])
@pytest.mark.parametrize("empty", ["inputs_a", "inputs_b"])
@pytest.mark.parametrize("spec", [
    KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0, 1.0))),
    KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=1.0),
])
def test_kernel_matrix_rejects_empty_input_lists(square_grid, call, empty,
                                                 spec):
    x = [sample_function("x1", square_grid)]
    a, b = ([], x) if empty == "inputs_a" else (x, [])
    with pytest.raises(FigpError, match=f"`{empty}`, which is empty"):
        call(a, b, spec)


@pytest.mark.parametrize("spec", [
    KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0, 1.0)), nugget=0.0),
    KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=1.0, nugget=0.0),
])
def test_kernels_strictly_pd_without_nugget(square_grid, spec):
    rng = np.random.default_rng(17)
    for _ in range(10):
        ins = random_poly_inputs(square_grid, 5, rng)
        K = kernel_matrix(ins, ins, spec)[0]
        assert np.linalg.eigvalsh(0.5 * (K + K.T)).min() > 0.0


def test_gram_factorization_reconstructs(square_grid):
    spec = KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=0.7)
    rng = np.random.default_rng(19)
    ins = random_poly_inputs(square_grid, 6, rng)
    fact = gram(ins, spec)
    K = kernel_matrix(ins, ins, spec)[0] + fact.nugget * np.eye(6)
    np.testing.assert_allclose(fact.gram, K, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(fact.chol @ fact.chol.T, fact.gram,
                               rtol=1e-10, atol=1e-12)
    sign, logdet = np.linalg.slogdet(fact.gram)
    assert sign > 0 and math.isclose(fact.log_det, logdet, rel_tol=1e-10,
                                     abs_tol=1e-10)
    b = rng.standard_normal(6)
    np.testing.assert_allclose(fact.solve_refined(b),
                               np.linalg.solve(fact.gram, b),
                               rtol=1e-8, atol=1e-10)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64")
def test_solve_refined_does_not_degrade(square_grid):
    # solve_refined promises a smaller forward error than one Cholesky
    # solve; the reference is refined to convergence with longdouble
    # residuals.  Over 60 seeds the error ratio had a median of 6e-4 to
    # 8e-4 and a maximum of 9.6e-3 (this seed, cond(K) = 4.7e8).
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0, 1.0)))
    rng = np.random.default_rng(23)
    ins = random_poly_inputs(square_grid, 8, rng)
    fact = gram(ins, spec)
    b = rng.standard_normal(8)
    K = fact.gram.astype(np.longdouble)
    x = _chol_solve(fact.chol, b).astype(np.longdouble)
    for _ in range(30):
        x += _chol_solve(fact.chol, (b - K @ x).astype(float))

    def error(y):
        return float(np.linalg.norm(y - x) / np.linalg.norm(x))

    unrefined = error(_chol_solve(fact.chol, b))
    assert error(fact.solve_refined(b)) <= 0.1 * unrefined


def test_gram_duplicate_inputs_survive_with_jitter(square_grid):
    x1 = sample_function("x1", square_grid)
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0, 1.0)))
    fact = gram([x1, x1], spec)
    assert fact.nugget > 0


def test_gram_degenerate_zero_nugget_raises(square_grid):
    x1 = sample_function("x1", square_grid)
    two = sample_function("2*x1", square_grid)
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0, 1.0)), nugget=0.0)
    with pytest.raises(GramFactorizationError):
        gram([x1, two], spec)


def test_gram_non_finite_reports_overflow(square_grid):
    # independent inputs, but sigma2 = 1e308 overflows the Gram to inf
    x1 = sample_function("x1", square_grid)
    x2 = sample_function("x2", square_grid)
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1e308, (1.0, 1.0)),
                      nugget=0.0)
    with np.errstate(over="ignore"), pytest.raises(
            GramFactorizationError,
            match="Gram assembly produced non-finite entries"):
        gram([x1, x2], spec)


def test_try_cholesky_pivot_rule_rejects_tiny_schur_complement():
    # Schur complement exactly 4 eps: every LAPACK factors this matrix
    # with last pivot 2 sqrt(eps), which the pivot test must reject
    eps = np.finfo(float).eps
    K = np.array([[1.0, 1.0], [1.0, 1.0 + 4.0 * eps]])
    assert np.linalg.cholesky(K)[1, 1] > 0.0
    assert figp.kernels._try_cholesky(K) is None


def test_gram_large_scale_rank_one_escalates_nugget(square_grid):
    x1 = sample_function("x1", square_grid)
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0, 1.0)))
    with pytest.warns(UserWarning, match="escalated"):
        fact = gram([1e4 * x1, 2e4 * x1], spec)
    assert fact.nugget > figp.kernels.NUGGET_START * spec.base.sigma2


def test_gram_nugget_escalation_warns(square_grid, monkeypatch):
    # force the first two jitter levels to fail so the escalation path runs
    real = figp.kernels._try_cholesky
    calls = {"n": 0}

    def flaky(K):
        calls["n"] += 1
        if calls["n"] <= 2:
            return None
        return real(K)

    monkeypatch.setattr(figp.kernels, "_try_cholesky", flaky)
    rng = np.random.default_rng(29)
    ins = random_poly_inputs(square_grid, 4, rng)
    spec = KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=1.0)
    with pytest.warns(UserWarning, match="escalated"):
        fact = gram(ins, spec)
    assert fact.nugget == pytest.approx(1e-6, rel=1e-9)


@pytest.mark.parametrize("nugget", [None, 1e-3])
@pytest.mark.parametrize("failures", [0, 2])
def test_factorize_records_an_escalation_past_the_first_level(
        nugget, failures, monkeypatch):
    # the first `failures` Cholesky attempts fail; an explicit nugget
    # gets one attempt, so it either succeeds unescalated or raises
    real = figp.kernels._try_cholesky
    calls = {"n": 0}

    def flaky(K):
        calls["n"] += 1
        return None if calls["n"] <= failures else real(K)

    monkeypatch.setattr(figp.kernels, "_try_cholesky", flaky)
    spec = KernelSpec(NONLINEAR, MaternParams(2.5, 2.0), gamma=1.0,
                      nugget=nugget)
    K = np.array([[2.0, 0.5], [0.5, 2.0]])
    if nugget is not None and failures:
        with pytest.raises(GramFactorizationError):
            figp.kernels._factorize(K, spec)
        return
    fact = figp.kernels._factorize(K, spec)
    assert fact.escalated == (failures > 0)
    want = 1e-3 if nugget else 2.0 * figp.kernels.NUGGET_START * 10 ** failures
    assert fact.nugget == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("family", [LINEAR, NONLINEAR])
@pytest.mark.parametrize("escalated", [False, True])
def test_gram_warns_exactly_when_the_factorization_escalated(
        family, escalated, square_grid, monkeypatch):
    # the recorded flag, not the nugget's size, decides: the flag is
    # flipped on a first-level factorization
    real = figp.kernels._factorize

    def flagged(K, spec, triangle=None):
        fact = real(K, spec, triangle)
        assert not fact.escalated
        return dataclasses.replace(fact, escalated=escalated)

    monkeypatch.setattr(figp.kernels, "_factorize", flagged)
    ins = random_poly_inputs(square_grid, 4, np.random.default_rng(29))
    spec = (KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0, 1.0)))
            if family == LINEAR else
            KernelSpec(NONLINEAR, MaternParams(2.5, 1.0), gamma=1.0))
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        fact = gram(ins, spec)
    assert fact.escalated == escalated
    assert fact.nugget == figp.kernels.NUGGET_START * spec.base.sigma2
    assert [str(w.message) for w in record] == (
        [f"nugget escalated to {fact.nugget:.3e} to factorize the Gram"]
        if escalated else [])
