"""Gaussian-process emulation with function-valued inputs.

The surrogate treats each input as a function on a compact rectangular
domain, represented by its values on a shared quadrature grid.  Two
covariance kernels are provided: a bilinear one built from a double
integral against a Matern base kernel, and a radial one in the L2
distance between inputs.  Fitting is by profiled maximum likelihood,
model choice by closed-form leave-one-out error.
"""

from .domain import (
    Domain,
    FunctionalInput,
    QuadratureGrid,
    build_grid,
    l2_inner,
    sample_function,
)
from .errors import (
    ExpressionError,
    FigpError,
    FitError,
    GramFactorizationError,
    GridMismatchError,
)
from .expressions import evaluate_expression
from .gp import (
    FitConfig,
    GPModel,
    build_model,
    fit,
    log_marginal_likelihood,
    loocv_error,
    predict,
    predict_many,
    select_kernel,
)
from .kernels import (
    LINEAR,
    NONLINEAR,
    GramFactorization,
    KernelSpec,
    MaternParams,
    base_kernel_matrix,
    gram,
    kernel_matrix,
    matern_psi,
)
from .sampling import (
    EigenSystem,
    PathFamily,
    nystrom_eig,
    sample_paths_gram,
    sample_paths_kl,
    sine_frequency_family,
)
from .designs import (
    DecayCurve,
    eigenfunction_design,
    empirical_mspe,
    exact_mspe,
    knot_design,
    lattice_knots,
)
from .emulator import (
    FieldDataset,
    PCAEmulator,
    field_mape,
    fit_emulator,
    pca_reduce,
    predict_field,
)

__version__ = "0.1.0"

__all__ = [
    "Domain", "FunctionalInput", "QuadratureGrid", "build_grid",
    "l2_inner", "sample_function",
    "FigpError", "ExpressionError", "FitError", "GramFactorizationError",
    "GridMismatchError",
    "evaluate_expression",
    "FitConfig", "GPModel", "build_model", "fit", "log_marginal_likelihood",
    "loocv_error", "predict", "predict_many", "select_kernel",
    "LINEAR", "NONLINEAR", "GramFactorization", "KernelSpec", "MaternParams",
    "base_kernel_matrix", "gram", "kernel_matrix",
    "matern_psi",
    "EigenSystem", "PathFamily", "nystrom_eig", "sample_paths_gram",
    "sample_paths_kl", "sine_frequency_family",
    "DecayCurve", "eigenfunction_design", "empirical_mspe",
    "exact_mspe", "knot_design", "lattice_knots",
    "FieldDataset", "PCAEmulator", "field_mape", "fit_emulator",
    "pca_reduce", "predict_field",
]
