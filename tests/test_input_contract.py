"""One input contract for every classifier: each trainer rejects a bad
training set, and each predictor a bad query, with the same typed error."""

import numpy as np
import pytest

from wlclass.classifiers import (
    GbtParams,
    KernelSpec,
    forest_votes,
    train_forest,
    train_gbt,
    train_svm_multiclass,
    train_tree,
    tree_predict,
)
from wlclass._checks import labelled_rows
from wlclass.errors import (
    DegenerateInputError,
    EmptyInputError,
    LabelOutOfRangeError,
    ShapeMismatchError,
)

LINEAR = KernelSpec("linear")
N_CLASSES = 3

TRAINERS = {
    "tree": lambda X, y: train_tree(X, y, n_classes=N_CLASSES),
    "forest": lambda X, y: train_forest(X, y, n_trees=2, seed=0, n_classes=N_CLASSES),
    "gbt": lambda X, y: train_gbt(X, y, GbtParams(rounds=1), n_classes=N_CLASSES),
    "svm": lambda X, y: train_svm_multiclass(X, y, C=1.0, kernel=LINEAR, n_classes=N_CLASSES),
}


def training_set():
    rng = np.random.default_rng(0)
    return rng.normal(size=(12, 4)), np.arange(12) % N_CLASSES


def with_label(label):
    X, y = training_set()
    y = y.astype(type(label))
    y[5] = label
    return X, y


def with_nan():
    X, y = training_set()
    X[7, 2] = np.nan
    return X, y


CASES = {
    "1-D X": (lambda: (training_set()[0][:, 0], training_set()[1]), ShapeMismatchError),
    "short y": (lambda: (training_set()[0], training_set()[1][:-1]), ShapeMismatchError),
    "zero rows": (lambda: (np.zeros((0, 4)), np.zeros(0, dtype=np.int64)), EmptyInputError),
    "NaN feature": (with_nan, DegenerateInputError),
    "label -1": (lambda: with_label(-1), LabelOutOfRangeError),
    "label n_classes": (lambda: with_label(N_CLASSES), LabelOutOfRangeError),
    "label 0.5": (lambda: with_label(0.5), LabelOutOfRangeError),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("family", TRAINERS)
def test_every_trainer_raises_the_same_error(family, case):
    make, expected = CASES[case]
    with pytest.raises(expected) as caught:
        TRAINERS[family](*make())
    assert caught.type is expected


def test_checks_run_in_order_and_keep_float64_input_uncopied():
    X, y = training_set()
    X[0, 0] = np.inf
    y[0] = -1
    with pytest.raises(DegenerateInputError):  # finite before label range
        labelled_rows(X, y)
    with pytest.raises(EmptyInputError):  # empty before finite
        labelled_rows(np.full((0, 2), np.nan), [])
    X, y = training_set()
    rows, labels, n_classes = labelled_rows(X, y)
    assert rows is X and n_classes == N_CLASSES
    assert labels.dtype == np.int64


def test_labels_must_be_integral():
    X, y = training_set()
    np.testing.assert_array_equal(labelled_rows(X, y.astype(np.float64))[1], y)
    for labels in ([0.0, 0.9, 1.7, 2.2] * 3, np.where(y == 1, np.nan, y)):
        with pytest.raises(LabelOutOfRangeError, match="integers"):
            labelled_rows(X, labels)


def predictors():
    X, y = training_set()
    forest = train_forest(X, y, n_trees=2, seed=0)
    gbt = train_gbt(X, y, GbtParams(rounds=1))
    svm = train_svm_multiclass(X, y, C=1.0, kernel=LINEAR)
    return {
        "tree_predict": lambda Q: tree_predict(train_tree(X, y), Q),
        "forest_votes": lambda Q: forest_votes(forest, Q),
        "GbtModel.predict_scores": gbt.predict_scores,
        "SvmEnsemble.decision_matrix": svm.decision_matrix,
    }


@pytest.mark.parametrize("query", [np.zeros(4), np.zeros((5, 3)), np.zeros((5, 6))],
                         ids=["1-D", "narrow", "wide"])
def test_every_predictor_rejects_a_bad_query(query):
    for name, predict in predictors().items():
        with pytest.raises(ShapeMismatchError):
            predict(query)
        assert len(predict(np.zeros((0, 4)))) == 0, name
