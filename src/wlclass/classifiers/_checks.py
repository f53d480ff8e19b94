"""The input contract every trainer and predictor shares."""

import numbers

import numpy as np

from ..errors import DegenerateInputError, EmptyInputError, LabelOutOfRangeError, ShapeMismatchError


def is_integer(value) -> bool:
    """value is an integer of any integer type but bool, an Integral too."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def integer_labels(y) -> np.ndarray:
    """y as int64 labels.

    Raises:
        LabelOutOfRangeError: the cast changes a value (0.5, NaN); 1.0 is kept.
    """
    raw = np.asarray(y)
    with np.errstate(invalid="ignore"):
        y = raw.astype(np.int64, copy=False)
    if y is not raw and not np.array_equal(y, raw):
        raise LabelOutOfRangeError(f"labels must be integers, got {raw[y != raw][0]}")
    return y


def labelled_rows(X, y, n_classes=None) -> tuple:
    """(X as float64, y as int64, n_classes) of a training set; n_classes
    defaults to the largest label plus one.

    Raises, in this order:
        ShapeMismatchError: X is not rows x features, or y not one label per row.
        EmptyInputError: no rows.
        DegenerateInputError: a feature is not finite.
        LabelOutOfRangeError: a label is not an integer or lies outside
            [0, n_classes).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise ShapeMismatchError(f"X {X.shape} does not align with labels {y.shape}")
    if len(y) == 0:
        raise EmptyInputError("cannot train on zero rows")
    if not np.isfinite(X).all():
        raise DegenerateInputError("training features contain non-finite entries")
    y = integer_labels(y)
    if n_classes is None:
        n_classes = int(y.max()) + 1
    if y.min() < 0 or y.max() >= n_classes:
        raise LabelOutOfRangeError(
            f"labels span [{y.min()}, {y.max()}], outside [0, {n_classes})")
    return X, y, n_classes


def query_rows(X, width: int) -> np.ndarray:
    """X as float64 rows of `width` features; zero rows are a valid query.

    Raises:
        ShapeMismatchError: X is not rows x `width` features.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != width:
        raise ShapeMismatchError(f"expected n x {width} features, got {X.shape}")
    return X
