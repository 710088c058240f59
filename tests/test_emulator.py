import math
import warnings

import numpy as np
import pytest

import figp.gp
from figp import (FieldDataset, FigpError, FitConfig, GramFactorizationError,
                  GridMismatchError, LINEAR, build_grid, l2_inner, field_mape,
                  fit, fit_emulator, pca_reduce, predict, predict_field,
                  sample_function, select_kernel)

from figp_testlib import random_poly_inputs


def _orthogonal_scores(n, shares, rng):
    """Zero-mean score columns whose variance shares are exactly `shares`."""
    X = rng.standard_normal((n, len(shares)))
    X -= X.mean(axis=0)
    Q, _ = np.linalg.qr(X)
    s = np.sqrt(np.asarray(shares, dtype=float))
    return Q * s


def _synthetic_dataset(square_grid, shares, n=8, p=30, seed=0):
    rng = np.random.default_rng(seed)
    inputs = random_poly_inputs(square_grid, n, rng)
    V, _ = np.linalg.qr(rng.standard_normal((p, len(shares))))
    scores = _orthogonal_scores(n, shares, rng)
    fields = 5.0 + scores @ V.T
    return FieldDataset(inputs, fields, (p,)), scores, V.T


def test_field_dataset_validation(square_grid):
    rng = np.random.default_rng(1)
    ins = random_poly_inputs(square_grid, 3, rng)
    with pytest.raises(FigpError):
        FieldDataset(ins, np.zeros((2, 4)), (4,))
    with pytest.raises(FigpError):
        FieldDataset(ins, np.zeros((3, 4)), (5,))
    bad = np.zeros((3, 4))
    bad[1, 2] = np.inf
    with pytest.raises(FigpError):
        FieldDataset(ins, bad, (4,))
    ds = FieldDataset(ins, np.arange(12.0).reshape(3, 4), (2, 2))
    assert ds.n == 3 and ds.p == 4 and ds.field_shape == (2, 2)


def test_field_dataset_finds_a_mismatch_hidden_among_one_grid(square_grid):
    inputs = [sample_function("x1", square_grid)] * 20
    inputs[13] = sample_function("x1", build_grid(square_grid.domain, 21))
    with pytest.raises(GridMismatchError):
        FieldDataset(inputs, np.ones((20, 4)), (4,))
    with pytest.raises(FigpError, match="^field dataset needs at least one "
                                        "input in `inputs`, which is empty$"):
        FieldDataset((), np.ones((0, 4)), (4,))


def test_pca_threshold_validation(square_grid):
    ds, _, _ = _synthetic_dataset(square_grid, (0.9, 0.1))
    with pytest.raises(FigpError):
        pca_reduce(ds, 0.0)
    with pytest.raises(FigpError):
        pca_reduce(ds, 1.2)


def test_pca_needs_two_fields(square_grid):
    rng = np.random.default_rng(2)
    ins = random_poly_inputs(square_grid, 1, rng)
    with pytest.raises(FigpError):
        pca_reduce(FieldDataset(ins, np.ones((1, 4)), (4,)))


def test_pca_identical_fields_rejected(square_grid):
    rng = np.random.default_rng(3)
    ins = random_poly_inputs(square_grid, 4, rng)
    ds = FieldDataset(ins, np.full((4, 6), 2.5), (6,))
    with pytest.raises(FigpError, match="rank 0"):
        pca_reduce(ds)


def test_pca_rank_one(square_grid):
    rng = np.random.default_rng(4)
    ins = random_poly_inputs(square_grid, 5, rng)
    c = rng.standard_normal(5)
    v = rng.standard_normal(7)
    ds = FieldDataset(ins, 1.0 + np.outer(c, v), (7,))
    components, scores, mean_field, ratios = pca_reduce(ds, 1.0)
    assert components.shape[0] == 1
    np.testing.assert_allclose(ratios, [1.0], rtol=1e-12)
    recon = mean_field + scores @ components
    np.testing.assert_allclose(recon, ds.fields, atol=1e-10)


@pytest.mark.parametrize("threshold,k", [(0.9, 1), (0.95, 2), (0.999, 3),
                                         (1.0, 4)])
def test_pca_component_count_tracks_threshold(square_grid, threshold, k):
    shares = (0.9, 0.09, 0.009, 0.001)
    ds, _, _ = _synthetic_dataset(square_grid, shares)
    components, scores, _, ratios = pca_reduce(ds, threshold)
    assert components.shape[0] == k
    np.testing.assert_allclose(ratios, shares[:k], rtol=1e-10)
    # components are orthonormal and scores reproduce the centered fields
    np.testing.assert_allclose(components @ components.T, np.eye(k),
                               atol=1e-12)


def test_pca_full_rank_lossless(square_grid):
    ds, _, _ = _synthetic_dataset(square_grid, (0.7, 0.2, 0.1))
    components, scores, mean_field, _ = pca_reduce(ds, 1.0)
    recon = mean_field + scores @ components
    assert np.max(np.abs(recon - ds.fields)) < 1e-8


def test_fit_emulator_rank_one_linear_functional(square_grid):
    # fields driven by a single linear functional of the input are
    # reproduced almost exactly by a linear-kernel score surrogate
    rng = np.random.default_rng(5)
    inputs = random_poly_inputs(square_grid, 8, rng)
    one = sample_function("1", square_grid)
    v = rng.standard_normal(25)
    v /= np.linalg.norm(v)
    a = np.array([l2_inner(g, one) for g in inputs])
    ds = FieldDataset(inputs, 4.0 + np.outer(a, v), (25,))
    em = fit_emulator(ds, family=LINEAR, config=FitConfig(seed=0, multistarts=2))
    assert em.k == 1
    test = sample_function("1+0.5*x1-0.3*x2", square_grid)
    truth = 4.0 + l2_inner(test, one) * v
    mean, var = predict_field(em, test)
    assert field_mape(mean, truth) < 0.5
    assert np.all(var >= 0)


def test_fit_emulator_unknown_family(square_grid):
    ds, _, _ = _synthetic_dataset(square_grid, (0.8, 0.2))
    with pytest.raises(FigpError, match="unknown family"):
        fit_emulator(ds, family="cubic")


def test_fit_emulator_models_see_their_scores(square_grid):
    ds, _, _ = _synthetic_dataset(square_grid, (0.8, 0.15, 0.05))
    cfg = FitConfig(seed=0, multistarts=2)
    em = fit_emulator(ds, threshold=1.0, family=LINEAR, config=cfg)
    _, scores, _, _ = pca_reduce(ds, 1.0)
    assert em.k == 3
    for l, model in enumerate(em.score_models):
        np.testing.assert_allclose(model.y, scores[:, l], rtol=1e-12)


def test_predict_field_structure_and_cov_factors(square_grid):
    ds, _, _ = _synthetic_dataset(square_grid, (0.8, 0.2))
    cfg = FitConfig(seed=0, multistarts=2)
    em = fit_emulator(ds, threshold=1.0, family=LINEAR, config=cfg)
    rng = np.random.default_rng(6)
    g = random_poly_inputs(square_grid, 1, rng)[0]
    mean, var = predict_field(em, g)
    # the variance field is the diagonal of the full covariance F^T F,
    # whose factors F have rows sqrt(var_l) u_l
    score_var = np.array([predict(m, g)[1] for m in em.score_models])
    factors = np.sqrt(score_var)[:, None] * em.components
    np.testing.assert_allclose(np.einsum("lp,lp->p", factors, factors), var,
                               rtol=1e-12, atol=1e-300)
    # the predictive mean moves away from the training mean only within
    # the span of the retained components
    resid = (mean - em.mean_field)
    resid = resid - em.components.T @ (em.components @ resid)
    assert np.max(np.abs(resid)) < 1e-10


def test_field_mape_values_and_exclusions():
    truth = np.array([1.0, 2.0, 4.0])
    pred = np.array([1.1, 1.8, 4.0])
    want = (10.0 + 10.0 + 0.0) / 3.0
    assert math.isclose(field_mape(pred, truth), want, rel_tol=1e-12)
    # the near-zero truth entry is excluded, so its 5e12-fold miss is not
    assert field_mape(np.array([1.0, 5.0, 2.0]),
                      np.array([1.0, 1e-12, 2.0])) == 0.0
    with pytest.raises(FigpError):
        field_mape(np.zeros(3), np.zeros(3))
    with pytest.raises(FigpError):
        field_mape(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("family", [None, LINEAR])
def test_fit_emulator_score_models_are_the_one_score_fits(square_grid, family):
    ds, _, _ = _synthetic_dataset(square_grid, (0.8, 0.15, 0.05))
    em = fit_emulator(ds, threshold=1.0, family=family)
    _, scores, _, _ = pca_reduce(ds, 1.0)
    for l, model in enumerate(em.score_models):
        alone = (select_kernel(ds.inputs, scores[:, l])[0] if family is None
                 else fit(ds.inputs, scores[:, l], family))
        assert model.spec == alone.spec
        assert (model.mu_hat, model.log_likelihood) == \
            (alone.mu_hat, alone.log_likelihood)
        assert model.alpha.tobytes() == alone.alpha.tobytes()


@pytest.mark.parametrize("family", [None, LINEAR])
def test_fit_emulator_names_the_component_whose_fit_fails(square_grid, family,
                                                          monkeypatch):
    ds, _, _ = _synthetic_dataset(square_grid, (0.8, 0.15, 0.05))
    target = pca_reduce(ds, 1.0)[1][:, 1]
    real = figp.gp._Likelihood.__call__

    def failing(self, spec, y):  # every evaluation of score 2 fails
        if np.array_equal(y, target):
            raise GramFactorizationError("forced failure")
        return real(self, spec, y)

    monkeypatch.setattr(figp.gp._Likelihood, "__call__", failing)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # select_kernel's per-family warnings
        with pytest.raises(FigpError, match="fit failed for component 2: ") \
                as info:
            fit_emulator(ds, threshold=1.0, family=family)
    assert "column" not in str(info.value)  # one failure, one number
