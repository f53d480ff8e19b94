"""Standardization and the two trial-level dimensionality reductions.

A fitted Standardizer pools every (trial, time) pair per sensor on the
training split. Reduction one, the covariance baseline, turns each
standardized trial M into the upper triangle of its sensor Gram matrix
M'M (28 values for 7 sensors); reduction two flattens each trial to a
3780-vector and projects it onto principal components. Both consume
standardized data only and return plain trials x features float64 arrays.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from ._checks import integer
from .dataset_io import GPU_SENSORS
from .errors import DegenerateInputError, ShapeMismatchError


@dataclass(frozen=True)
class Standardizer:
    """Per-sensor affine map fitted on training data only.

    Sensors that were constant at fit time (zero spread) are flagged and
    mapped to exactly 0 on output.
    """

    means: np.ndarray
    stds: np.ndarray
    constant: np.ndarray  # bool per sensor

    def _tiled(self, length: int) -> tuple:
        """(means, 1 / std or 0 for constant sensors), each tiled to one flat
        length x sensors window, 60 KB at 540 x 7: built on first use, rebuilt
        when another length arrives, read-only, never a field or in a file."""
        tiles = self.__dict__.get("_tiles", (None,))
        if tiles[0] != length:
            inv = np.where(self.constant, 0.0, 1.0 / np.where(self.constant, 1.0, self.stds))
            tiles = (length, *(np.tile(v, length) for v in (self.means, inv)))
            tiles[1].flags.writeable = tiles[2].flags.writeable = False
            self.__dict__["_tiles"] = tiles
        return tiles[1:]


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # k x d, orthonormal rows
    explained_variance: np.ndarray  # length k, non-increasing

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def rank_deficient(self) -> bool:
        """Fewer than k nonzero variances: the trailing components span no data."""
        return bool(self.explained_variance[-1] == 0.0)


#: Decorates a function whose non-finite or overflowing input may give
#: non-finite output, which _check_finite refuses, so no numpy warning comes
#: ahead of that verdict. As a decorator it costs about half of a with block
#: (0.57 against 1.1 us a call, numpy 2.4), which counts on a served window.
_quiet = np.errstate(invalid="ignore", over="ignore")


def _check_finite(features: np.ndarray) -> np.ndarray:
    if not np.isfinite(features).all():
        raise DegenerateInputError("feature matrix contains non-finite entries")
    return features


@_quiet
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
    # the bits of pooled.std(axis=0) (divide by N) without its second mean
    deviation = x.reshape(len(x), -1) - np.tile(means, x.shape[1])
    deviation *= deviation
    stds = np.sqrt(deviation.reshape(pooled.shape).sum(axis=0) / len(pooled))
    constant = stds == 0.0
    return Standardizer(means=means, stds=stds, constant=constant)


@_quiet
def apply_standardizer(std: Standardizer, tensor: np.ndarray) -> np.ndarray:
    """Map (x - mean) / std per sensor, constant sensors to 0: each samples x
    sensors window in one flat loop against the means and inverse scales
    tiled to one window (60 KB at 540 x 7), cached on first use per length."""
    x = np.asarray(tensor, dtype=np.float64)
    if x.ndim < 1 or x.shape[-1] != len(std.means):
        raise ShapeMismatchError(f"trailing dimension must be {len(std.means)}, got {x.shape}")
    means, inv = std._tiled(x.shape[-2] if x.ndim > 1 else 1)
    z = x.reshape(x.shape[:-2] + means.shape) - means
    z *= inv  # in place: one temporary per call, not two
    return z.reshape(x.shape)


@cache
def _triangle(n: int) -> tuple:
    """np.triu_indices(n), built once per sensor count; read-only, since every
    caller shares it."""
    rows, cols = np.triu_indices(n)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def covariance_feature_names(sensor_names=GPU_SENSORS) -> tuple:
    iu, ju = _triangle(len(sensor_names))
    return tuple(f"cov({sensor_names[i]},{sensor_names[j]})" for i, j in zip(iu, ju))


def covariance_feature_matrix(tensor: np.ndarray, standardizer: Standardizer) -> np.ndarray:
    """Standardize a trial tensor and stack per-trial Gram features: row t
    is the upper triangle of Z'Z, Z trial t standardized, in np.triu_indices
    order (means 0, stds 1 and no constant sensor give the raw trials' rows).

    Trials are standardized one at a time, each in one flat loop against
    the means and inverse scales tiled to one trial (Standardizer._tiled,
    60 KB at 540 x 7, cached on the first call per trial length), so no
    standardized copy of the whole tensor is ever held. For the GPU
    sensors, column j is covariance_feature_names()[j]. The triangle's
    indices are built once per sensor count and shared by every call:
    building them cost about a third of the transform of one served window.

    Raises:
        DegenerateInputError: a feature is not finite.
    """
    x = np.asarray(tensor, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != len(standardizer.means):
        raise ShapeMismatchError(
            f"expected trials x samples x {len(standardizer.means)} sensors, got {x.shape}"
        )
    upper = _triangle(x.shape[2])
    means, inv = standardizer._tiled(x.shape[1])
    out = np.empty((x.shape[0], len(upper[0])))
    with np.errstate(invalid="ignore", over="ignore"):  # _check_finite gives the verdict
        for row, trial in enumerate(x):
            z = ((trial.ravel() - means) * inv).reshape(trial.shape)
            out[row] = (z.T @ z)[upper]
    return _check_finite(out)


def flatten_tensor(tensor: np.ndarray) -> np.ndarray:
    """Row-major flatten per trial: element (s, j) lands at index n_sensors*s + j."""
    x = np.asarray(tensor)
    if x.ndim != 3:
        raise ShapeMismatchError(f"expected trials x samples x sensors, got {x.shape}")
    return np.ascontiguousarray(x).reshape(x.shape[0], -1)


#: Components are orthonormalized this many rows at a time, so the first k
#: rows come out the same whatever k is asked for.
_PCA_BLOCK = 16


def _orthonormal_rows(centered: np.ndarray, vectors: np.ndarray, k: int, rank: int) -> np.ndarray:
    """The first k rows spanning vectors' @ centered, orthonormalized in blocks.

    Each block of _PCA_BLOCK rows is projected off the rows before it and
    re-orthonormalized by QR. A block that reaches past rank (zero
    variance, where a row of vectors' @ centered may vanish) is completed
    by one QR together with every earlier row instead, which stays
    orthonormal however degenerate the block is.
    """
    rows = np.empty((0, centered.shape[1]))
    for start in range(0, k, _PCA_BLOCK):
        block = vectors[:, start:start + _PCA_BLOCK].T @ centered
        if start + len(block) <= rank:
            block -= (block @ rows.T) @ rows
            basis = np.linalg.qr(block.T)[0]
        else:
            basis = np.linalg.qr(np.hstack([rows.T, block.T]))[0][:, start:]
        rows = np.vstack([rows, basis.T])
    return rows[:k]


def fit_pca(matrix: np.ndarray, k: int) -> PcaModel:
    """Top-k principal directions of a centered n x d matrix C from its Gram matrix.

    eigh factors the smaller Gram side: C'C (d x d) when n >= d, whose
    eigenvectors are the components, or CC' (n x n) when n < d, whose
    eigenvectors u give the components as C'u, orthonormalized block by
    block. explained_variance holds the sample-covariance eigenvalues
    s^2 / (n - 1); eigenvalues at or below max(n, d) * eps times the
    largest are zeroed. Fewer than k nonzero ones leave trailing zero
    variances and set rank_deficient instead of failing; the components
    stay orthonormal in that tail. Component signs are fixed so each
    row's largest-magnitude entry is positive. The result for k is
    exactly the first k components and variances of the result for any
    larger k, so one fit at the largest k serves every smaller k.

    Raises:
        UsageError: k is not an integer >= 1.
        DegenerateInputError: fewer rows than k, k above the feature count,
            or a Gram entry that is not finite (NaN or inf input, or overflow).
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatchError(f"expected a trials x features matrix, got {x.shape}")
    k = integer(k, "k", 1)
    n, d = x.shape
    if n < k:
        raise DegenerateInputError(f"need at least k={k} rows, got {n}")
    if k > d:
        raise DegenerateInputError(f"k={k} exceeds feature count {d}")
    wide = n < d
    with np.errstate(invalid="ignore", over="ignore"):  # _check_finite gives the verdict
        mean = x.mean(axis=0)
        centered = x - mean
        gram = centered @ centered.T if wide else centered.T @ centered
    eigenvalues, vectors = np.linalg.eigh(_check_finite(gram))
    eigenvalues, vectors = eigenvalues[::-1], vectors[:, ::-1]
    tol = max(n, d) * np.finfo(np.float64).eps * max(eigenvalues[0], 0.0)
    rank = int((eigenvalues > tol).sum())
    if wide:
        components = _orthonormal_rows(centered, vectors, k, rank)
    else:
        components = vectors[:, :k].T.copy()
    # deterministic orientation: largest-magnitude entry of each row positive
    pivot = np.argmax(np.abs(components), axis=1)
    signs = np.sign(components[np.arange(k), pivot])
    signs[signs == 0] = 1.0
    components *= signs[:, None]
    top = np.where(np.arange(k) < rank, eigenvalues[:k], 0.0)
    variance = top / (n - 1) if n > 1 else np.zeros(k)
    return PcaModel(mean=mean, components=components, explained_variance=variance)


@_quiet
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
