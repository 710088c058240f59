import math

import numpy as np
import pytest

from figp import (Domain, FigpError, FunctionalInput, GridMismatchError,
                  KernelSpec, LINEAR, MaternParams, build_grid, gram,
                  nystrom_eig, sample_function, sample_paths_gram,
                  sample_paths_kl, sine_frequency_family)
from figp.reproduce import sine_family
from figp.sampling import EigenSystem


@pytest.fixture(scope="module")
def eigensystem(interval_grid):
    return nystrom_eig(MaternParams(2.5, 1.0, (1.0,)), interval_grid, m=20)


def test_eigenvalues_positive_descending(eigensystem):
    lam = eigensystem.eigenvalues
    assert np.all(lam > 0)
    assert np.all(np.diff(lam) <= 0)
    assert eigensystem.tail_mass >= 0


def test_eigenfunctions_orthonormal(eigensystem, interval_grid):
    w = interval_grid.weights
    E = eigensystem.eigenfunctions
    G = E.T @ (w[:, None] * E)
    np.testing.assert_allclose(G, np.eye(E.shape[1]), atol=1e-10)


def test_trace_identity(interval_grid):
    # retained mass plus tail must equal int K(x, x) dx = sigma2 * |domain|
    eig = nystrom_eig(MaternParams(2.5, 1.7, (1.3,)), interval_grid, m=10)
    total = float(np.sum(eig.eigenvalues)) + eig.tail_mass
    assert math.isclose(total, 1.7 * 2.0 * math.pi, rel_tol=1e-10)


def test_spectral_reconstruction(interval_grid):
    from figp.kernels import base_kernel_matrix
    p = MaternParams(2.5, 1.0, (1.0,))
    eig = nystrom_eig(p, interval_grid, m=64)
    E, lam = eig.eigenfunctions, eig.eigenvalues
    approx = (E * lam) @ E.T
    psi = base_kernel_matrix(interval_grid.nodes, interval_grid.nodes, p)
    assert np.max(np.abs(approx - psi)) < 1e-10


def test_eigen_decay_slope(interval_grid):
    # mid-range log-log decay for the 1-d nu=5/2 base kernel
    eig = nystrom_eig(MaternParams(2.5, 1.0, (0.8,)), interval_grid, m=60)
    j = np.arange(5, 31)
    slope = np.polyfit(np.log(j), np.log(eig.eigenvalues[4:30]), 1)[0]
    assert -5.7 <= slope <= -4.3


def test_features_pick_out_modes(eigensystem, interval_grid):
    g = FunctionalInput(interval_grid, eigensystem.eigenfunctions[:, 2])
    c = eigensystem.features([g])
    want = np.zeros((eigensystem.eigenvalues.size, 1))
    want[2, 0] = math.sqrt(eigensystem.eigenvalues[2])
    np.testing.assert_allclose(c, want, atol=1e-10)


def test_features_reject_input_on_another_grid(eigensystem):
    other = build_grid(Domain(((0.0, 1.0),)), 16)
    with pytest.raises(GridMismatchError):
        eigensystem.features([sample_function("x1", other)])


def test_features_find_a_mismatch_hidden_among_one_grid(eigensystem,
                                                        interval_grid):
    inputs = [sample_function("x1", interval_grid)] * 20
    inputs[13] = sample_function("x1", build_grid(interval_grid.domain, 65))
    with pytest.raises(GridMismatchError):
        eigensystem.features(inputs)


def test_kl_paths_reject_empty_inputs(eigensystem):
    message = ("^eigen features needs at least one input in `inputs`, "
               "which is empty$")
    with pytest.raises(FigpError, match=message):
        sample_paths_kl(eigensystem, [], 4, 0)
    with pytest.raises(FigpError, match=message):
        eigensystem.features([])


def test_eigensystem_rejects_empty_spectrum(interval_grid):
    with pytest.raises(FigpError, match="no retained terms"):
        EigenSystem(interval_grid, np.empty(0),
                    np.empty((interval_grid.n_points, 0)), 0.0)


def test_sine_family_labels_and_values(interval_grid):
    fam = sine_frequency_family(interval_grid, [0.2, 1.0])
    assert [g.label for g in fam] == ["sin(0.2*x1)", "sin(1*x1)"]
    np.testing.assert_allclose(fam[0].values,
                               np.sin(0.2 * interval_grid.nodes[:, 0]))


def test_sine_family_rejects_2d(square_grid):
    with pytest.raises(FigpError):
        sine_frequency_family(square_grid, [1.0])


@pytest.mark.parametrize("count", [0, -3])
def test_reproduce_sine_family_refuses_fewer_than_one_alpha(count):
    with pytest.raises(FigpError, match=f"alpha_count must be at least 1, "
                                        f"got {count}"):
        sine_family(16, count)


def test_gram_paths_deterministic(interval_grid):
    fam = sine_frequency_family(interval_grid, np.linspace(0.2, 1.0, 4))
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0,)))
    a = sample_paths_gram(fam, spec, 16, seed=5)
    b = sample_paths_gram(fam, spec, 16, seed=5)
    c = sample_paths_gram(fam, spec, 16, seed=6)
    np.testing.assert_array_equal(a.draws, b.draws)
    assert not np.array_equal(a.draws, c.draws)
    assert a.draws.shape == (16, 4)
    assert a.seed == 5
    np.testing.assert_allclose(a.index_values, np.arange(4))


def test_gram_paths_match_target_covariance(interval_grid):
    fam = sine_frequency_family(interval_grid, np.linspace(0.2, 1.0, 5))
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0,)))
    K = gram(fam, spec).gram
    pf = sample_paths_gram(fam, spec, 20000, seed=42)
    n = 20000
    cov = pf.draws.T @ pf.draws / n
    se = np.sqrt((np.outer(np.diag(K), np.diag(K)) + K ** 2) / n)
    assert np.max(np.abs(cov - K) - 3.0 * se) < 0.0
    mean_se = np.sqrt(np.diag(K) / n)
    assert np.all(np.abs(pf.draws.mean(axis=0)) < 3.0 * mean_se)


def test_kl_truncation_annihilates_orthogonal_mode(interval_grid):
    full = nystrom_eig(MaternParams(2.5, 1.0, (1.0,)), interval_grid, m=20)
    kept = EigenSystem(interval_grid, full.eigenvalues[:5],
                       full.eigenfunctions[:, :5],
                       full.tail_mass + float(np.sum(full.eigenvalues[5:])))
    phi6 = FunctionalInput(interval_grid, full.eigenfunctions[:, 5])
    pf = sample_paths_kl(kept, [phi6], 200, seed=3)
    # phi6 is orthogonal to every retained mode, so the draws vanish
    assert np.max(np.abs(pf.draws)) < 1e-12


def test_kl_first_mode_distribution(interval_grid):
    full = nystrom_eig(MaternParams(2.5, 1.0, (1.0,)), interval_grid, m=20)
    phi1 = FunctionalInput(interval_grid, full.eigenfunctions[:, 0])
    pf = sample_paths_kl(full, [phi1], 10000, seed=4)
    z = pf.draws[:, 0] / math.sqrt(full.eigenvalues[0])
    assert abs(z.mean()) < 0.05
    assert abs(z.var(ddof=1) - 1.0) < 0.1


def test_kl_paths_deterministic(interval_grid):
    full = nystrom_eig(MaternParams(2.5, 1.0, (1.0,)), interval_grid, m=10)
    fam = sine_frequency_family(interval_grid, [0.3, 0.7])
    a = sample_paths_kl(full, fam, 8, seed=9)
    b = sample_paths_kl(full, fam, 8, seed=9)
    np.testing.assert_array_equal(a.draws, b.draws)


def test_roughness_increases_with_rate(interval_grid):
    # a larger distance rate decorrelates nearby frequencies, so draws over
    # the frequency index get rougher relative to their overall size
    alphas = np.linspace(0.2, 2.0, 101)
    fam = sine_frequency_family(interval_grid, alphas)
    rough = []
    for theta in (0.5, 1.0, 2.0):
        spec = KernelSpec(LINEAR, MaternParams(2.5, 1.0, (theta,)))
        pf = sample_paths_gram(fam, spec, 500, seed=123, index_values=alphas)
        tv = np.sum(np.abs(np.diff(pf.draws, axis=1)), axis=1)
        size = np.linalg.norm(pf.draws, axis=1)
        rough.append(float(np.mean(tv / size)))
    assert rough[1] > 1.01 * rough[0]
    assert rough[2] > 1.005 * rough[1]
