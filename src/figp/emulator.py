"""Multi-output emulation through principal-component scores.

High-dimensional output fields are reduced by PCA; each retained score
gets its own independent scalar surrogate over the functional inputs,
and field predictions reassemble the per-score predictive means and
variances through the component vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .domain import FunctionalInput, _freeze, _shared_grid
from .errors import FigpError, FitError
from .gp import FitConfig, GPModel, fit, predict, select_kernel
from .kernels import LINEAR, NONLINEAR

MAPE_EPS_REL = 1e-8  # entries with |truth| below this times max|truth| are excluded


@dataclass(frozen=True)
class FieldDataset:
    """Training inputs paired with flattened output fields."""

    inputs: Tuple[FunctionalInput, ...]
    fields: np.ndarray  # (n, p)
    field_shape: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "fields", np.atleast_2d(self.fields))
        _freeze(self, "fields")
        object.__setattr__(self, "field_shape",
                           tuple(int(s) for s in self.field_shape))
        if self.fields.shape[0] != len(self.inputs):
            raise FigpError("field rows must match the number of inputs")
        if int(np.prod(self.field_shape)) != self.fields.shape[1]:
            raise FigpError("field_shape does not match the flattened length")
        if not np.all(np.isfinite(self.fields)):
            raise FigpError("fields contain non-finite values")
        _shared_grid("field dataset", inputs=self.inputs)

    @property
    def n(self) -> int:
        return self.fields.shape[0]

    @property
    def p(self) -> int:
        return self.fields.shape[1]


def pca_reduce(dataset: FieldDataset, threshold: float = 0.999):
    """Principal components of the centered fields.

    Retains the smallest k whose cumulative variance share reaches
    `threshold`.  Returns (components, scores, mean_field, ratios) with
    components as rows (k x p) and scores as columns of shape (n, k).
    """
    if not 0.0 < threshold <= 1.0:
        raise FigpError("threshold must lie in (0, 1]")
    if dataset.n < 2:
        raise FigpError("PCA needs at least two fields")
    mean_field = dataset.fields.mean(axis=0)
    centered = dataset.fields - mean_field
    U, S, Vt = np.linalg.svd(centered, full_matrices=False)
    total = float(np.sum(S ** 2))
    if total <= 1e-24 * max(1.0, float(np.max(np.abs(dataset.fields))) ** 2):
        raise FigpError(
            "all fields are identical (rank 0); emulate the constant field "
            "directly instead of fitting per-score surrogates"
        )
    rank = int(np.sum(S > S[0] * 1e-12))
    ratios_all = (S[:rank] ** 2) / total
    cum = np.cumsum(ratios_all)
    k = int(np.searchsorted(cum, threshold - 1e-12) + 1)
    k = min(k, rank)
    components = Vt[:k]
    scores = centered @ components.T
    return components, scores, mean_field, ratios_all[:k]


@dataclass(frozen=True)
class PCAEmulator:
    """Per-score surrogates over a truncated principal basis."""

    mean_field: np.ndarray  # (p,)
    components: np.ndarray  # (k, p), orthonormal rows
    score_models: Tuple[GPModel, ...]
    explained_variance_ratio: np.ndarray  # (k,)
    field_shape: Tuple[int, ...]

    def __post_init__(self):
        _freeze(self, "mean_field", "components", "explained_variance_ratio")
        object.__setattr__(self, "score_models", tuple(self.score_models))
        object.__setattr__(self, "field_shape",
                           tuple(int(s) for s in self.field_shape))
        k = self.components.shape[0]
        if k < 1 or len(self.score_models) != k or \
                self.explained_variance_ratio.size != k:
            raise FigpError("emulator component counts are inconsistent")
        p = int(np.prod(self.field_shape))
        if self.mean_field.shape != (p,) or self.components.shape[1:] != (p,):
            raise FigpError(
                f"emulator field_shape {list(self.field_shape)} holds {p} "
                f"values, but mean_field holds {self.mean_field.size} and "
                f"each component {self.components.shape[-1]}")
        G = self.components @ self.components.T
        if np.max(np.abs(G - np.eye(k))) > 1e-10:
            raise FigpError("components are not orthonormal")

    @property
    def k(self) -> int:
        return self.components.shape[0]


def fit_emulator(dataset: FieldDataset, threshold: float = 0.999,
                 family: Optional[str] = None,
                 config: Optional[FitConfig] = None) -> PCAEmulator:
    """Reduce the fields and fit one surrogate per retained score.

    `family` None selects between linear and nonlinear per score by
    leave-one-out error; a family name fits that family to every score.
    All k scores go through one `select_kernel` or `fit` call, so the
    score fits share each family's Gram factorizations.  A failed score
    fit raises FigpError naming its component (1-based).
    """
    if family not in (None, LINEAR, NONLINEAR):
        raise FigpError(f"unknown family {family!r}")
    components, scores, mean_field, ratios = pca_reduce(dataset, threshold)
    try:
        if family is None:
            models = [model for model, _ in
                      select_kernel(dataset.inputs, scores, config=config)]
        else:
            models = fit(dataset.inputs, scores, family, config=config)
    except FitError as exc:
        raise FigpError(f"fit failed for component {exc.column + 1}: "
                        f"{exc.reason}") from exc
    return PCAEmulator(mean_field, components, tuple(models), ratios,
                       dataset.field_shape)


def predict_field(emulator: PCAEmulator, g: FunctionalInput):
    """Predictive mean and variance fields at a new input.

    The mean adds each score's posterior mean times its component to
    the training mean field.  The variance combines the per-score
    posterior variances through the squared components, which ignores
    cross-pixel covariance; `predict_many` clamps each score variance at
    zero, so the combination needs no clamp of its own.
    """
    means = np.empty(emulator.k)
    variances = np.empty(emulator.k)
    for l, model in enumerate(emulator.score_models):
        means[l], variances[l] = predict(model, g)
    mean_field = emulator.mean_field + means @ emulator.components
    return mean_field, variances @ (emulator.components ** 2)


def field_mape(predicted, truth):
    """Mean absolute percentage error over field entries.

    Entries whose |truth| falls below 1e-8 of the largest |truth| are
    excluded from the mean.
    """
    predicted = np.asarray(predicted, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if predicted.shape != truth.shape:
        raise FigpError("predicted and truth lengths differ")
    scale = float(np.max(np.abs(truth)))
    if scale == 0.0:
        raise FigpError("truth field is identically zero; MAPE is undefined")
    mask = np.abs(truth) >= MAPE_EPS_REL * scale
    if not np.any(mask):
        raise FigpError("every truth entry fell below the MAPE epsilon")
    return float(np.mean(np.abs((truth[mask] - predicted[mask]) / truth[mask]))
                 * 100.0)
