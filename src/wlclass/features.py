"""Standardization and the two trial-level dimensionality reductions.

A fitted Standardizer pools every (trial, time) pair per sensor on the
training split. Reduction one turns each standardized trial M into the
upper triangle of the Gram matrix M'M (28 values for 7 sensors); reduction
two flattens each trial to a 3780-vector and projects it onto principal
components. Both consume standardized data only and return plain
trials x features float64 arrays.
"""

from dataclasses import dataclass

import numpy as np

from .dataset_io import GPU_SENSORS
from .errors import DegenerateInputError, ShapeMismatchError, UsageError


@dataclass(frozen=True)
class Standardizer:
    """Per-sensor affine map fitted on training data only.

    Sensors that were constant at fit time (zero spread) are flagged and
    mapped to exactly 0 on output.
    """

    means: np.ndarray
    stds: np.ndarray
    constant: np.ndarray  # bool per sensor


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # k x d, orthonormal rows
    explained_variance: np.ndarray  # length k, non-increasing
    k: int
    rank_deficient: bool = False


def _inverse_scale(std: Standardizer) -> np.ndarray:
    """1 / std per sensor, 0 for constant sensors."""
    return np.where(std.constant, 0.0, 1.0 / np.where(std.constant, 1.0, std.stds))


def _check_finite(features: np.ndarray) -> np.ndarray:
    if not np.isfinite(features).all():
        raise DegenerateInputError("feature matrix contains non-finite entries")
    return features


def fit_standardizer(x_train: np.ndarray) -> Standardizer:
    """Fit per-sensor means and population stds pooled over trials and time.

    Raises:
        DegenerateInputError: fewer than 2 pooled samples.
    """
    x = np.asarray(x_train, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeMismatchError(f"expected trials x samples x sensors, got {x.shape}")
    pooled = x.reshape(-1, x.shape[2])
    if pooled.shape[0] < 2:
        raise DegenerateInputError(f"need at least 2 pooled samples, got {pooled.shape[0]}")
    means = pooled.mean(axis=0)
    stds = pooled.std(axis=0)  # population convention, divide by N
    constant = stds == 0.0
    return Standardizer(means=means, stds=stds, constant=constant)


def apply_standardizer(std: Standardizer, tensor: np.ndarray) -> np.ndarray:
    """Map (x - mean) / std per sensor; constant sensors go to 0."""
    x = np.asarray(tensor, dtype=np.float64)
    if x.ndim < 1 or x.shape[-1] != len(std.means):
        raise ShapeMismatchError(
            f"trailing dimension must be {len(std.means)}, got {x.shape}"
        )
    return (x - std.means) * _inverse_scale(std)


def _upper_gram(m: np.ndarray, center_per_trial: bool, scale_unbiased: bool, upper) -> np.ndarray:
    if center_per_trial:
        m = m - m.mean(axis=0)
    gram = m.T @ m
    if scale_unbiased:
        n = m.shape[0]
        if n < 2:
            raise DegenerateInputError("unbiased scaling needs at least 2 samples")
        gram = gram / (n - 1)
    return gram[upper]


def covariance_features(
    trial: np.ndarray, center_per_trial: bool = False, scale_unbiased: bool = False
) -> np.ndarray:
    """Upper triangle of the sensor Gram matrix M'M, row-major: entry
    (i, j), i <= j, in the order of np.triu_indices.

    By default the product is taken exactly as written, without removing
    the trial's own channel means; center_per_trial switches to the
    textbook covariance and scale_unbiased divides by n - 1.
    """
    m = np.asarray(trial, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatchError(f"trial must be samples x sensors, got {m.shape}")
    if not np.isfinite(m).all():
        raise DegenerateInputError("trial contains non-finite entries")
    return _upper_gram(m, center_per_trial, scale_unbiased, np.triu_indices(m.shape[1]))


def covariance_feature_names(sensor_names=GPU_SENSORS) -> tuple:
    iu, ju = np.triu_indices(len(sensor_names))
    return tuple(f"cov({sensor_names[i]},{sensor_names[j]})" for i, j in zip(iu, ju))


def covariance_feature_matrix(
    tensor: np.ndarray,
    standardizer: Standardizer,
    center_per_trial: bool = False,
    scale_unbiased: bool = False,
) -> np.ndarray:
    """Standardize a trial tensor and stack per-trial Gram features.

    Trials are standardized one at a time, so no standardized copy of the
    whole tensor is ever held. For the GPU sensors, column j is
    covariance_feature_names()[j].

    Raises:
        DegenerateInputError: a feature is not finite.
    """
    x = np.asarray(tensor, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != len(standardizer.means):
        raise ShapeMismatchError(
            f"expected trials x samples x {len(standardizer.means)} sensors, got {x.shape}"
        )
    upper = np.triu_indices(x.shape[2])
    means, inv = standardizer.means, _inverse_scale(standardizer)
    out = np.empty((x.shape[0], len(upper[0])))
    for row, trial in enumerate(x):
        out[row] = _upper_gram((trial - means) * inv, center_per_trial, scale_unbiased, upper)
    return _check_finite(out)


def flatten_tensor(tensor: np.ndarray) -> np.ndarray:
    """Row-major flatten per trial: element (s, j) lands at index n_sensors*s + j."""
    x = np.asarray(tensor)
    if x.ndim != 3:
        raise ShapeMismatchError(f"expected trials x samples x sensors, got {x.shape}")
    return np.ascontiguousarray(x).reshape(x.shape[0], -1)


def fit_pca(matrix: np.ndarray, k: int) -> PcaModel:
    """Top-k principal directions of a centered matrix via thin SVD.

    explained_variance holds the corresponding sample-covariance
    eigenvalues s^2 / (n - 1). Fewer than k numerically nonzero singular
    values leaves trailing zero variances and sets rank_deficient instead
    of failing. Component signs are fixed so each row's
    largest-magnitude entry is positive.

    Raises:
        UsageError: k < 1.
        DegenerateInputError: fewer rows than k.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatchError(f"expected a trials x features matrix, got {x.shape}")
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    n, d = x.shape
    if n < k:
        raise DegenerateInputError(f"need at least k={k} rows, got {n}")
    if k > d:
        raise DegenerateInputError(f"k={k} exceeds feature count {d}")
    mean = x.mean(axis=0)
    centered = x - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    tol = max(n, d) * np.finfo(np.float64).eps * (s[0] if len(s) else 0.0)
    rank = int((s > tol).sum())
    s_k = s[:k].copy()
    s_k[s_k <= tol] = 0.0
    components = vt[:k].copy()
    # deterministic orientation: largest-magnitude entry of each row positive
    pivot = np.argmax(np.abs(components), axis=1)
    signs = np.sign(components[np.arange(k), pivot])
    signs[signs == 0] = 1.0
    components *= signs[:, None]
    variance = (s_k**2) / (n - 1) if n > 1 else np.zeros(k)
    return PcaModel(
        mean=mean,
        components=components,
        explained_variance=variance,
        k=k,
        rank_deficient=rank < k,
    )


def project_pca(model: PcaModel, matrix: np.ndarray) -> np.ndarray:
    """Project rows onto the fitted components: (X - mean) components'.

    Raises:
        DegenerateInputError: a projection is not finite.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.components.shape[1]:
        raise ShapeMismatchError(
            f"expected n x {model.components.shape[1]} input, got {x.shape}"
        )
    return _check_finite((x - model.mean) @ model.components.T)


def pca_feature_matrix(
    tensor: np.ndarray, standardizer: Standardizer, model: PcaModel
) -> np.ndarray:
    """Standardize a trial tensor, flatten, and project onto components."""
    return project_pca(model, flatten_tensor(apply_standardizer(standardizer, tensor)))
