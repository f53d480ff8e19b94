"""Serving one window at a time gives what the batch gives.

A served request reduces one window and labels it with a model read
back from its file. The reductions and models keep per-window constants
(tiled standardization, tree step tables, support-vector norms) computed
on first use; these tests check that they change no feature, no label
and no byte of what is saved again afterwards.
"""

import numpy as np
import pytest

from wlclass.classifiers import load_model, predict, save_model
from wlclass.model_selection import (
    ReductionSpec,
    fit_reduction,
    read_reduction_bundle,
    train_family,
    write_reduction_bundle,
)
from wlclass.synth import default_4_class_spec, generate_corpus
from wlclass.windowing import WindowPolicy, build_challenge_dataset

FAMILIES = {
    "rf": ("rf", {"n_trees": 5}),
    "gbt": ("gbt", {"rounds": 3, "max_depth": 3}),
    "svm-rbf": ("svm", {}),
    "svm-linear": ("svm", {"kernel": "linear", "C": 0.5}),
}


@pytest.fixture(scope="module")
def dataset():
    spec = default_4_class_spec(jobs_per_class=10, seed=8, length_range=(80, 90))
    return build_challenge_dataset(generate_corpus(spec), WindowPolicy("middle", length=60),
                                   split_ratio=0.7, split_seed=0)


@pytest.fixture(scope="module", params=["cov", "pca-8"])
def served(request, dataset, tmp_path_factory):
    """A reduction and one model per family, each read back from its file,
    with the bytes of those files."""
    d = tmp_path_factory.mktemp(request.param)
    reduction, features = fit_reduction(ReductionSpec.parse(request.param), dataset.x_train)
    write_reduction_bundle(d / "reduction.npz", reduction)
    models = {}
    for name, (family, params) in FAMILIES.items():
        model = train_family(family, features, dataset.y_train, params, seed=2, n_classes=4)
        save_model(model, d / f"{name}.wlc1", provenance={"family": family})
        models[name] = load_model(d / f"{name}.wlc1")[0]
    saved = {path.name: path.read_bytes() for path in d.iterdir()}
    return read_reduction_bundle(d / "reduction.npz"), models, saved


def test_one_window_reduces_to_its_batch_row(served, dataset):
    """Standardization is the same bits window by window; so is the whole
    covariance transform. A PCA projection of one row runs through a
    matrix-vector product and of many through a matrix product, which may
    round the last bit differently."""
    reduction, *_ = served
    x = dataset.x_test
    batch = reduction.transform(x)
    rows = np.vstack([reduction.transform(x[j:j + 1]) for j in range(len(x))])
    if reduction.spec.kind == "cov":
        assert rows.tobytes() == batch.tobytes()
    else:
        np.testing.assert_allclose(rows, batch, rtol=0, atol=1e-12)


def test_one_window_at_a_time_gets_the_batch_label(served, dataset):
    reduction, models, _ = served
    x = dataset.x_test
    for name, model in models.items():
        batch = predict(model, reduction.transform(x))
        single = [int(predict(model, reduction.transform(x[j:j + 1]))[0]) for j in range(len(x))]
        assert single == batch.tolist(), name


def test_serving_leaves_every_file_byte_identical(served, dataset, tmp_path):
    reduction, models, saved = served
    windows = np.resize(np.arange(len(dataset.x_test)), 50)
    for j in windows:
        features = reduction.transform(dataset.x_test[j:j + 1])
        for model in models.values():
            predict(model, features)
    write_reduction_bundle(tmp_path / "reduction.npz", reduction)
    for name, model in models.items():
        save_model(model, tmp_path / f"{name}.wlc1", provenance={"family": FAMILIES[name][0]})
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == saved
