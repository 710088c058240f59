import numpy as np
import pytest

from figp import Domain, FitConfig, LINEAR, NONLINEAR, build_grid, fit
from figp import sample_function
from figp.reproduce import (FUNCTIONALS, TRAINING_EXPRESSIONS,
                            evaluate_functional)


@pytest.fixture(scope="session")
def square_grid():
    return build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 20)


@pytest.fixture(scope="session")
def interval_grid():
    return build_grid(Domain(((0.0, 2.0 * np.pi),)), 64)


@pytest.fixture(scope="session")
def bench_inputs(square_grid):
    return [sample_function(e, square_grid) for e in TRAINING_EXPRESSIONS]


@pytest.fixture(scope="session")
def bench_outputs(bench_inputs):
    return {name: np.array([evaluate_functional(name, g) for g in bench_inputs])
            for name in FUNCTIONALS}


@pytest.fixture(scope="session")
def bench_models(bench_inputs, bench_outputs):
    """One fitted model per (functional, family).  Every fit here has one
    free parameter, so it is a profile scan that ignores the config's
    seed and multistarts."""
    cfg = FitConfig(seed=42, multistarts=4)
    models = {}
    for name in FUNCTIONALS:
        for fam in (LINEAR, NONLINEAR):
            models[(name, fam)] = fit(bench_inputs, bench_outputs[name],
                                      fam, cfg)
    return models
