"""The checks every layer shares: one rule for numeric parameters, and the
input contract of every trainer and predictor.

A count, seed, rate or bound goes through `integer` or `real`: a number
of the right kind, never a bool, finite and in range. Each returns the
plain Python int or float for its holder to store, because model and
bundle meta are JSON. The error is a UsageError unless the caller names
another: the model loader's ModelFormatError, a fold count's BadKError.
"""

import math
import numbers

import numpy as np

from .errors import (DegenerateInputError, EmptyInputError, LabelOutOfRangeError,
                     ShapeMismatchError, UsageError)


def integer(value, name: str, low: int, error=UsageError) -> int:
    """value as a plain int; raises error unless it is an Integral, not a bool, >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def real(value, name: str, low=-math.inf, above=False, error=UsageError) -> float:
    """value as a plain float; raises error unless it is a Real that a finite
    float holds, not a bool, >= low (> low when above is set)."""
    is_real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if is_real else math.nan
    except OverflowError:  # an int beyond every float
        number = math.inf
    if not math.isfinite(number) or number < low or above and number == low:
        bound = "" if low == -math.inf else f" {'>' if above else '>='} {low}"
        raise error(f"{name} must be a finite number{bound}, got {value!r}")
    return number


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
