import logging
from types import SimpleNamespace

import numpy as np
import pytest

import wlclass.model_selection
from wlclass.classifiers import default_gamma, predict, serialize_model
from wlclass.errors import (
    BadKError,
    DegenerateInputError,
    EmptyInputError,
    LabelOutOfRangeError,
    MissingArchiveError,
    ShapeMismatchError,
    UsageError,
)
from wlclass.model_selection import (
    DATASET_COLUMNS,
    REFERENCE_ACCURACY,
    FittedReduction,
    GridSpec,
    ReductionSpec,
    evaluate,
    evaluate_pipeline,
    fit_reduction,
    format_report,
    format_table,
    grid_search,
    kfold_indices,
    read_reduction_bundle,
    reproduce_table,
    train_family,
    write_reduction_bundle,
)


def make_windows(n_per_class, n_classes, length, sensors, seed, noise=0.3):
    """Class-separated window tensor: distinct per-class sensor means."""
    rng = np.random.default_rng(seed)
    blocks, labels = [], []
    for c in range(n_classes):
        mean = rng.normal(size=sensors) * 3.0
        block = mean + noise * rng.normal(size=(n_per_class, length, sensors))
        blocks.append(block)
        labels.extend([c] * n_per_class)
    return np.concatenate(blocks), np.array(labels, dtype=np.int64)


def fold_histogram(folds, labels, k):
    """Per-class validation counts per fold, recomputed by brute force."""
    n_classes = labels.max() + 1
    counts = np.zeros((k, n_classes), dtype=int)
    for fold, (_, val) in enumerate(folds):
        for idx in val:
            counts[fold, labels[idx]] += 1
    return counts


class TestKfold:
    def test_validation_sets_partition_everything(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 5, size=103)
        folds = kfold_indices(103, 10, labels, seed=7)
        seen = np.concatenate([val for _, val in folds])
        assert sorted(seen.tolist()) == list(range(103))
        for train, val in folds:
            assert set(train) | set(val) == set(range(103))
            assert not set(train) & set(val)

    def test_per_class_counts_balanced_within_one(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 4, size=97)
        k = 7
        counts = fold_histogram(kfold_indices(97, k, labels, seed=0), labels, k)
        for c in range(4):
            per_fold = counts[:, c]
            assert per_fold.max() - per_fold.min() <= 1
            assert per_fold.sum() == (labels == c).sum()

    def test_deterministic_per_seed(self):
        labels = np.arange(40) % 3
        a = kfold_indices(40, 5, labels, seed=9)
        b = kfold_indices(40, 5, labels, seed=9)
        c = kfold_indices(40, 5, labels, seed=10)
        for (ta, va), (tb, vb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(va, vb)
        assert any(not np.array_equal(va, vc) for (_, va), (_, vc) in zip(a, c))

    def test_bad_k_rejected(self):
        labels = np.zeros(10, dtype=int)
        with pytest.raises(BadKError):
            kfold_indices(10, 1, labels, seed=0)
        with pytest.raises(BadKError):
            kfold_indices(10, 11, labels, seed=0)
        with pytest.raises(UsageError, match="seed"):
            kfold_indices(10, 2, np.arange(10) % 2, seed=-1)

    @pytest.mark.parametrize("k", [2.5, np.float64(2.0), True, "2", np.int64(2)])
    def test_k_must_be_an_integer(self, k):
        """A fractional, bool or text k is a BadKError, not a raw TypeError
        from range(k); a NumPy integer deals the folds as a plain int."""
        labels = np.arange(10) % 2
        if isinstance(k, np.integer):
            folds = kfold_indices(10, k, labels, seed=0)
            assert len(folds) == 2
            np.testing.assert_array_equal(np.sort(np.concatenate([v for _, v in folds])),
                                          np.arange(10))
        else:
            with pytest.raises(BadKError, match="integer"):
                kfold_indices(10, k, labels, seed=0)

    def test_small_class_warns_but_still_partitions(self):
        labels = np.array([0] * 20 + [1] * 2)
        with pytest.warns(RuntimeWarning):
            folds = kfold_indices(22, 5, labels, seed=1)
        seen = np.concatenate([val for _, val in folds])
        assert sorted(seen.tolist()) == list(range(22))

    def test_minimal_two_folds(self):
        labels = np.array([0, 0, 1, 1])
        folds = kfold_indices(4, 2, labels, seed=0)
        assert len(folds) == 2
        counts = fold_histogram(folds, labels, 2)
        assert (counts == 1).all()

    def test_label_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            kfold_indices(10, 2, np.zeros(9, dtype=int), seed=0)


class TestGridSpec:
    def test_cell_enumeration_order(self):
        spec = GridSpec(
            model_family="rf",
            hyperparameter_grid={"n_trees": [1, 2], "min_leaf": [7]},
            reduction_grid=(ReductionSpec("cov"), ReductionSpec("pca", k=4)),
            folds=2,
        )
        cells = spec.cells()
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert [c.reduction.kind for c in cells] == ["cov", "cov", "pca", "pca"]
        assert [c.params for c in cells] == [
            {"n_trees": 1, "min_leaf": 7},
            {"n_trees": 2, "min_leaf": 7},
            {"n_trees": 1, "min_leaf": 7},
            {"n_trees": 2, "min_leaf": 7},
        ]

    def test_default_fold_counts_per_family(self):
        grid = {"n_trees": [5]}
        reductions = (ReductionSpec("cov"),)
        assert GridSpec("rf", grid, reductions).folds == 10
        assert GridSpec("svm", {"C": [1.0]}, reductions).folds == 10
        assert GridSpec("gbt", {"gamma": [0.0]}, reductions).folds == 5

    def test_validation(self):
        reductions = (ReductionSpec("cov"),)
        with pytest.raises(UsageError):
            GridSpec("knn", {}, reductions)
        with pytest.raises(UsageError):
            GridSpec("rf", {}, ())
        with pytest.raises(UsageError):
            GridSpec("rf", {"n_trees": []}, reductions)
        with pytest.raises(BadKError):
            GridSpec("rf", {"n_trees": [5]}, reductions, folds=1)
        with pytest.raises(UsageError, match="seed"):
            GridSpec("rf", {"n_trees": [5]}, reductions, seed=-1)

    @pytest.mark.parametrize("folds", [2.5, np.float64(3.0), True, "3", np.int64(3)])
    def test_folds_must_be_an_integer(self, folds):
        reductions = (ReductionSpec("cov"),)
        if isinstance(folds, np.integer):
            spec = GridSpec("rf", {"n_trees": [5]}, reductions, folds=folds)
            assert type(spec.folds) is int and spec.folds == 3
        else:
            with pytest.raises(BadKError, match="integer"):
                GridSpec("rf", {"n_trees": [5]}, reductions, folds=folds)

    def test_unknown_parameter_names_are_usage_errors(self, monkeypatch):
        monkeypatch.setattr(wlclass.model_selection, "fit_reduction", None)  # nothing is fit
        reductions = (ReductionSpec("cov"),)
        with pytest.raises(UsageError, match="n_treez"):
            GridSpec("rf", {"n_treez": [2]}, reductions, folds=2)
        with pytest.raises(UsageError, match="lambda"):
            GridSpec("svm", {"C": [1.0], "lambda": [1.0]}, reductions, folds=2)
        x, y = make_windows(4, 2, length=6, sensors=3, seed=0)
        with pytest.raises(UsageError, match="n_treez"):
            train_family("rf", x[:, 0], y, {"n_treez": 2}, 0, 2)
        with pytest.raises(UsageError, match="xgb"):
            train_family("xgb", x[:, 0], y, {}, 0, 2)

    def test_unknown_svm_kernel_is_usage_error(self):
        x, y = make_windows(4, 2, length=6, sensors=3, seed=0)
        with pytest.raises(UsageError, match="poly"):
            train_family("svm", x[:, 0], y, {"kernel": "poly"}, 0, 2)

    def test_svm_gamma_reaches_the_kernel_as_given(self):
        x, y = make_windows(4, 2, length=6, sensors=3, seed=0)
        with pytest.raises(UsageError, match="linear kernel takes no gamma"):
            train_family("svm", x[:, 0], y, {"kernel": "linear", "gamma": 0.5}, 0, 2)
        assert train_family("svm", x[:, 0], y, {"kernel": "linear"}, 0, 2).kernel.gamma is None
        rbf = train_family("svm", x[:, 0], y, {}, 0, 2).kernel
        assert (rbf.name, rbf.gamma) == ("rbf", default_gamma(x[:, 0]))
        assert train_family("svm", x[:, 0], y, {"gamma": 0.25}, 0, 2).kernel.gamma == 0.25

    def test_svm_default_gamma_comes_after_the_input_checks(self):
        """The rbf default is picked from checked features, so bad ones raise the
        trainer's typed error, not a gamma UsageError or a raw IndexError."""
        X, y = np.ones((6, 3)), np.arange(6) % 2
        X[0, 0] = np.nan
        for features, labels, expected in [(X, y, DegenerateInputError),
                                           (X[:0], y[:0], EmptyInputError),
                                           (X[:, 0], y, ShapeMismatchError)]:
            with pytest.raises(expected):
                train_family("svm", features, labels, {}, 0, 2)

    def test_rf_depth_and_leaf_limits_are_usage_errors(self):
        x, y = make_windows(4, 2, length=6, sensors=3, seed=0)
        for params in ({"max_depth": -1}, {"min_leaf": 0}, {"min_leaf": -3}):
            with pytest.raises(UsageError, match=next(iter(params))):
                train_family("rf", x[:, 0], y, {"n_trees": 2, **params}, 0, 2)

    def test_gbt_max_depth_none_is_usage_error(self):
        x, y = make_windows(6, 2, length=6, sensors=3, seed=0)
        with pytest.raises(UsageError, match="max_depth"):
            train_family("gbt", x[:, 0], y, {"max_depth": None}, 0, 2)
        with pytest.raises(UsageError, match="rounds"):
            train_family("gbt", x[:, 0], y, {"rounds": None}, 0, 2)
        spec = GridSpec("gbt", {"rounds": [1], "max_depth": [None]},
                        (ReductionSpec("cov"),), folds=2)
        with pytest.raises(UsageError, match=r"cell 0 .*max_depth"):
            grid_search(x, y, spec)

    def test_reduction_spec_validation(self):
        with pytest.raises(UsageError):
            ReductionSpec("umap")
        with pytest.raises(UsageError):
            ReductionSpec("pca")
        with pytest.raises(UsageError):
            ReductionSpec("cov", k=3)
        with pytest.raises(UsageError):
            ReductionSpec("pca", k=0)
        assert ReductionSpec("pca", k=4).describe() == "pca-4"
        assert ReductionSpec("cov").describe() == "cov"
        for token in ("cov", "pca-4", " pca-12 "):
            assert ReductionSpec.parse(token).describe() == token.strip()
        for token in ("pca", "pca-0", "pca--1", "pca-+3", "pca-x", "cov,pca-4", "cov,centered", ""):
            with pytest.raises(UsageError):
                ReductionSpec.parse(token)

    @pytest.mark.parametrize("k", [2.5, np.float64(3.0), True, "3", np.int64(3)])
    def test_reduction_k_must_be_an_integer(self, k, tmp_path):
        """k is stored as a plain int, so the spec's bundle reads back; a
        fractional, bool or text k is refused before anything is fit."""
        if not isinstance(k, np.integer):
            with pytest.raises(UsageError, match="k must be an integer"):
                ReductionSpec("pca", k)
            return
        spec = ReductionSpec("pca", k)
        assert type(spec.k) is int and spec.describe() == "pca-3"
        x, _ = make_windows(6, 2, length=8, sensors=4, seed=1)
        write_reduction_bundle(tmp_path / "r.npz", fit_reduction(spec, x)[0])
        assert read_reduction_bundle(tmp_path / "r.npz").spec == spec

    def test_reduction_token_digits_are_ascii(self):
        """describe() writes ASCII digits, so parse reads only those: the
        Arabic-Indic three would otherwise come back as pca-3."""
        for token in ("pca-\u0663", "pca-1\u0663", "pca-\uff13"):
            with pytest.raises(UsageError, match="bad reduction token"):
                ReductionSpec.parse(token)


class TestGridSearch:
    @pytest.fixture
    def easy_problem(self):
        return make_windows(12, 3, length=8, sensors=4, seed=5)

    def test_fractional_labels_are_refused(self, easy_problem):
        x, y = easy_problem
        spec = GridSpec("rf", {"n_trees": [1]}, (ReductionSpec("cov"),), folds=2)
        with pytest.raises(LabelOutOfRangeError, match="integers"):
            grid_search(x, y + 0.5, spec)
        with pytest.raises(LabelOutOfRangeError, match="integers"):
            kfold_indices(4, 2, [0.5, 0.5, 1.5, 1.7], 0)

    def test_more_trees_not_worse_and_best_is_argmax(self):
        x, y = make_windows(10, 3, length=8, sensors=4, seed=2, noise=2.5)
        spec = GridSpec(
            model_family="rf",
            hyperparameter_grid={"n_trees": [1, 40]},
            reduction_grid=(ReductionSpec("cov"),),
            folds=3,
            seed=0,
        )
        result = grid_search(x, y, spec)
        assert result.mean_accuracy[1] >= result.mean_accuracy[0]
        assert result.best_cell == int(np.argmax(result.mean_accuracy))
        assert result.fold_accuracy.shape == (2, 3)
        np.testing.assert_allclose(result.mean_accuracy, result.fold_accuracy.mean(axis=1))
        np.testing.assert_allclose(result.std_accuracy, result.fold_accuracy.std(axis=1))

    def test_tie_breaks_to_smallest_cell_index(self, easy_problem):
        x, y = easy_problem
        spec = GridSpec(
            model_family="rf",
            hyperparameter_grid={"n_trees": [5, 5]},
            reduction_grid=(ReductionSpec("cov"),),
            folds=2,
            seed=0,
        )
        result = grid_search(x, y, spec)
        assert np.array_equal(result.fold_accuracy[0], result.fold_accuracy[1])
        assert result.best_cell == 0

    def test_fold_reductions_fit_on_fold_train_only(self, easy_problem, monkeypatch):
        x, y = easy_problem
        spec = GridSpec(
            model_family="rf",
            hyperparameter_grid={"n_trees": [3]},
            reduction_grid=(ReductionSpec("cov"),),
            folds=3,
            seed=4,
        )
        fingerprints = []

        def recording_fit(spec, x_train):
            reduction, features = fit_reduction(spec, x_train)
            fingerprints.append(reduction.fingerprint())
            return reduction, features

        monkeypatch.setattr(wlclass.model_selection, "fit_reduction", recording_fit)
        result = grid_search(x, y, spec)
        assert len(fingerprints) == 3 + 1  # one fit per fold, then the refit
        full_fit = fit_reduction(ReductionSpec("cov"), x)[0].fingerprint()
        folds = kfold_indices(len(y), 3, y, seed=4)
        for fold_index, (train_idx, _) in enumerate(folds):
            expected = fit_reduction(ReductionSpec("cov"), x[train_idx])[0].fingerprint()
            assert fingerprints[fold_index] == expected
            assert fingerprints[fold_index] != full_fit
        # the refit pipeline, in contrast, uses the whole split
        assert result.pipeline.reduction.fingerprint() == full_fit

    def test_rerun_is_byte_identical(self, easy_problem):
        x, y = easy_problem
        spec = GridSpec(
            model_family="gbt",
            hyperparameter_grid={"rounds": [2], "max_depth": [2]},
            reduction_grid=(ReductionSpec("cov"),),
            folds=2,
            seed=3,
        )
        a = grid_search(x, y, spec)
        b = grid_search(x, y, spec)
        np.testing.assert_array_equal(a.fold_accuracy, b.fold_accuracy)
        assert serialize_model(a.pipeline.model) == serialize_model(b.pipeline.model)

    def test_svm_family_runs_and_pipeline_predicts(self, easy_problem):
        x, y = easy_problem
        spec = GridSpec(
            model_family="svm",
            hyperparameter_grid={"C": [1.0]},
            reduction_grid=(ReductionSpec("pca", k=4),),
            folds=2,
            seed=0,
        )
        result = grid_search(x, y, spec)
        predictions = result.pipeline.predict(x)
        assert (predictions == y).mean() >= 0.9

    def test_pca_reduction_cell_wins_are_recorded(self, easy_problem):
        x, y = easy_problem
        spec = GridSpec(
            model_family="rf",
            hyperparameter_grid={"n_trees": [5]},
            reduction_grid=(ReductionSpec("cov"), ReductionSpec("pca", k=6)),
            folds=2,
            seed=2,
        )
        result = grid_search(x, y, spec)
        assert len(result.cells) == 2
        assert result.cells[result.best_cell].reduction in spec.reduction_grid
        assert result.pipeline.reduction.spec == result.cells[result.best_cell].reduction

    def test_training_error_names_the_grid_cell(self, easy_problem):
        x, y = easy_problem  # 36 rows; 2 folds leave ~18, so k=30 cannot fit
        spec = GridSpec(
            model_family="rf",
            hyperparameter_grid={"n_trees": [2]},
            reduction_grid=(ReductionSpec("pca", k=30),),
            folds=2,
            seed=0,
        )
        with pytest.raises(DegenerateInputError) as excinfo:
            grid_search(x, y, spec)
        assert "cell 0" in str(excinfo.value)
        assert "pca-30" in str(excinfo.value)

    def test_infeasible_k_names_the_widest_cell(self, easy_problem):
        x, y = easy_problem
        spec = GridSpec(
            model_family="rf",
            hyperparameter_grid={"n_trees": [2]},
            reduction_grid=(ReductionSpec("pca", k=4), ReductionSpec("pca", k=30)),
            folds=2,
            seed=0,
        )
        with pytest.raises(DegenerateInputError, match=r"cell 1 \(pca-30"):
            grid_search(x, y, spec)

    @pytest.mark.parametrize("family,grid", [("rf", {"n_trees": [2, 7]}),
                                             ("svm", {"C": [0.1, 10.0]})])
    def test_fold_accuracy_matches_per_cell_reference(self, family, grid, monkeypatch):
        """Cells sharing a reduction family share one fit per fold; every
        cell must still see the features and score the accuracy that its
        own fit_reduction on the fold's training rows gives."""
        x, y = make_windows(10, 3, length=8, sensors=4, seed=2, noise=2.5)
        spec = GridSpec(
            model_family=family,
            hyperparameter_grid=grid,
            reduction_grid=(ReductionSpec("cov"), ReductionSpec("pca", k=4),
                            ReductionSpec("pca", k=8)),
            folds=3,
            seed=1,
        )
        seen = set()

        def recording_train(family, features, *args):
            seen.add(features.tobytes())
            return train_family(family, features, *args)

        monkeypatch.setattr(wlclass.model_selection, "train_family", recording_train)
        result = grid_search(x, y, spec)

        expected = np.empty((len(result.cells), 3))
        for cell in result.cells:
            for fold, (train, val) in enumerate(kfold_indices(len(y), 3, y, seed=1)):
                reduction, _ = fit_reduction(cell.reduction, x[train])
                features = reduction.transform(x[train])
                assert features.tobytes() in seen, (cell.describe(), fold)
                model = train_family(family, features, y[train], cell.params, 1, 3)
                expected[cell.index, fold] = (predict(model, reduction.transform(x[val]))
                                              == y[val]).mean()
        assert len(np.unique(expected)) > 1  # the cells do differ
        np.testing.assert_array_equal(result.fold_accuracy, expected)
        best = result.cells[result.best_cell].reduction
        assert result.pipeline.reduction.fingerprint() == fit_reduction(best, x)[0].fingerprint()

    @pytest.mark.parametrize("ks", [(4,), (2, 4), (2, 3, 4, 6)])
    def test_one_fit_and_one_transform_per_split_per_family_fold(self, easy_problem, ks,
                                                                 monkeypatch):
        """The fit returns the training split's features, so transform sees
        only validation splits, and the refit needs none."""
        x, y = easy_problem
        spec = GridSpec(
            model_family="rf",
            hyperparameter_grid={"n_trees": [2, 3]},
            reduction_grid=(ReductionSpec("cov"), *(ReductionSpec("pca", k=k) for k in ks)),
            folds=3,
            seed=0,
        )
        fits, transforms = [], []
        transform = FittedReduction.transform

        def recording_fit(spec, x_train):
            fits.append((spec.describe(), len(x_train)))
            return fit_reduction(spec, x_train)

        def recording_transform(self, tensor):
            transforms.append((self.spec.describe(), len(tensor)))
            return transform(self, tensor)

        monkeypatch.setattr(wlclass.model_selection, "fit_reduction", recording_fit)
        monkeypatch.setattr(FittedReduction, "transform", recording_transform)
        grid_search(x, y, spec)
        widest = f"pca-{max(ks)}"
        folds = kfold_indices(len(y), 3, y, seed=0)
        expected_fits = [(name, len(train)) for name in ("cov", widest) for train, _ in folds]
        assert fits[:-1] == expected_fits  # the last fit is the refit on the whole split
        assert transforms == [(name, len(val)) for name in ("cov", widest) for _, val in folds]

    @pytest.mark.parametrize("spec", [ReductionSpec("cov"),
                                      ReductionSpec("pca", k=1), ReductionSpec("pca", k=7)],
                             ids=lambda spec: spec.describe())
    def test_fit_returns_the_transform_of_its_training_windows(self, easy_problem, spec):
        x, _ = easy_problem
        reduction, features = fit_reduction(spec, x)
        assert features.tobytes() == reduction.transform(x).tobytes()

    def test_progress_logs_each_reduction_family_and_fold(self, easy_problem, caplog):
        x, y = easy_problem
        spec = GridSpec(
            model_family="rf",
            hyperparameter_grid={"n_trees": [2, 3]},
            reduction_grid=(ReductionSpec("cov"), ReductionSpec("pca", k=4),
                            ReductionSpec("pca", k=6)),
            folds=2,
            seed=0,
        )
        with caplog.at_level(logging.INFO, logger="wlclass.model_selection"):
            result = grid_search(x, y, spec)
        lines = [r.getMessage() for r in caplog.records if r.name == "wlclass.model_selection"]
        assert [line.split(":")[0] for line in lines] == [
            "cov fold 1/2", "cov fold 2/2", "pca-4,pca-6 fold 1/2", "pca-4,pca-6 fold 2/2"]
        assert all(" s, best cell accuracy " in line for line in lines)
        assert lines[3].endswith(f"{result.fold_accuracy[2:, 1].max():.4f}")

    def test_rejects_non_tensor_input(self):
        spec = GridSpec(
            model_family="rf",
            hyperparameter_grid={"n_trees": [2]},
            reduction_grid=(ReductionSpec("cov"),),
            folds=2,
        )
        with pytest.raises(ShapeMismatchError):
            grid_search(np.zeros((10, 4)), np.zeros(10, dtype=int), spec)


class TestEvaluate:
    def test_hand_worked_report(self):
        y = [0, 0, 1, 2]
        pred = [0, 1, 1, 2]
        report = evaluate(pred, y, class_names=("a", "b", "c"))
        assert report.accuracy == 75.0
        np.testing.assert_array_equal(
            report.confusion_matrix, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
        )
        np.testing.assert_allclose(report.precision, [1.0, 0.5, 1.0])
        np.testing.assert_allclose(report.recall, [0.5, 1.0, 1.0])

    def test_confusion_invariants_on_random_labels(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n_classes = int(rng.integers(2, 7))
            n = int(rng.integers(5, 60))
            y = rng.integers(0, n_classes, size=n)
            pred = rng.integers(0, n_classes, size=n)
            report = evaluate(pred, y, class_names=[f"c{i}" for i in range(n_classes)])
            assert report.confusion_matrix.sum() == n
            np.testing.assert_array_equal(
                report.confusion_matrix.sum(axis=1), np.bincount(y, minlength=n_classes)
            )
            expected = 100.0 * (pred == y).mean()
            assert report.accuracy == pytest.approx(expected)

    def test_absent_class_scores_zero_not_nan(self):
        report = evaluate([0, 0], [0, 0], class_names=("a", "b"))
        assert report.precision[1] == 0.0
        assert report.recall[1] == 0.0
        assert np.isfinite(report.precision).all()

    def test_shape_and_range_errors(self):
        with pytest.raises(ShapeMismatchError):
            evaluate([0, 1], [0], class_names=("a", "b"))
        with pytest.raises(ShapeMismatchError):
            evaluate([], [], class_names=("a",))
        with pytest.raises(ShapeMismatchError):
            evaluate([2], [0], class_names=("a", "b"))
        with pytest.raises(ShapeMismatchError):
            evaluate([-1], [0], class_names=("a", "b"))
        with pytest.raises(LabelOutOfRangeError, match="integers"):
            evaluate([0.7, 1.2], [0, 1], class_names=("a", "b"))

    def test_format_report_mentions_every_class(self):
        report = evaluate([0, 1, 1], [0, 1, 0], class_names=("alpha", "beta"))
        text = format_report(report)
        assert "accuracy: 66.67%" in text
        assert "alpha" in text and "beta" in text

    def test_evaluate_pipeline_carries_provenance(self):
        x, y = make_windows(8, 2, length=6, sensors=3, seed=1)
        spec = GridSpec(
            model_family="rf",
            hyperparameter_grid={"n_trees": [3]},
            reduction_grid=(ReductionSpec("cov"),),
            folds=2,
            seed=0,
        )
        result = grid_search(x, y, spec)
        report = evaluate_pipeline(result.pipeline, x, y, ("a", "b"), dataset_id="train")
        assert report.model_provenance["family"] == "rf"
        assert report.model_provenance["reduction"] == "cov"
        assert report.dataset_id == "train"


def tiny_suite(seed=0):
    """Seven in-memory datasets shaped like the challenge archives."""
    datasets = {}
    for i, name in enumerate(DATASET_COLUMNS):
        x, y = make_windows(6, 3, length=6, sensors=7, seed=seed + i)
        x_test, y_test = make_windows(3, 3, length=6, sensors=7, seed=100 + seed + i)
        datasets[name] = SimpleNamespace(
            x_train=x,
            y_train=y,
            x_test=x_test,
            y_test=y_test,
            model_train=("a", "b", "c"),
        )
    return datasets


class TestReproduceTable:
    def test_populates_every_variant_dataset_cell(self):
        datasets = tiny_suite()
        archives = {name: name for name in DATASET_COLUMNS}
        table = reproduce_table(
            archives,
            families=("rf",),
            folds=2,
            grids={"rf": {"n_trees": [3]}},
            pca_ks=(4,),
            loader=lambda name: datasets[name],
        )
        assert table["columns"] == list(DATASET_COLUMNS)
        assert [row["variant"] for row in table["rows"]] == ["rf-pca", "rf-cov"]
        for row in table["rows"]:
            assert set(row["accuracies"]) == set(DATASET_COLUMNS)
            for value in row["accuracies"].values():
                assert 0.0 <= value <= 100.0
        assert set(table["provenance"]) == set(DATASET_COLUMNS)

    def test_reads_each_archive_once(self):
        datasets = tiny_suite(seed=9)
        archives = {name: name for name in DATASET_COLUMNS[:2]}
        options = dict(folds=2, grids={"rf": {"n_trees": [2]}, "svm": {"C": [1.0]}},
                       pca_ks=(4,))
        calls = []

        def loader(name):
            calls.append(name)
            return datasets[name]

        table = reproduce_table(archives, families=("svm", "rf"), loader=loader, **options)
        assert calls == list(DATASET_COLUMNS[:2])
        assert [row["variant"] for row in table["rows"]] == ["svm-pca", "svm-cov",
                                                            "rf-pca", "rf-cov"]
        for family in ("svm", "rf"):
            alone = reproduce_table(archives, families=(family,), loader=datasets.get, **options)
            assert alone["rows"] == [r for r in table["rows"] if r["variant"].startswith(family)]
            for column, cells in alone["provenance"].items():
                assert cells.items() <= table["provenance"][column].items()

    def test_unknown_family_refused_before_any_archive_loads(self):
        calls = []
        archives = {name: name for name in DATASET_COLUMNS}
        with pytest.raises(UsageError, match="xgb"):
            reproduce_table(archives, families=("rf", "xgb"), loader=calls.append)
        with pytest.raises(UsageError):
            reproduce_table(archives, families=(), loader=calls.append)
        assert calls == []

    def test_empty_pca_ks_refused_for_pca_rows(self):
        """svm and rf have a pca row, which needs a k; a gbt-only table has none."""
        calls = []
        archives = {name: name for name in DATASET_COLUMNS}
        for families in (("svm",), ("rf",), ("gbt", "rf")):
            with pytest.raises(UsageError, match="pca_ks"):
                reproduce_table(archives, families=families, pca_ks=(), loader=calls.append)
        assert calls == []
        with pytest.raises(MissingArchiveError):  # past the pca_ks check
            reproduce_table({}, families=("gbt",), pca_ks=())

    def test_missing_archive_is_an_error(self):
        with pytest.raises(MissingArchiveError):
            reproduce_table({}, families=("rf",))

    def test_partial_table_covers_only_provided_columns(self):
        datasets = tiny_suite(seed=5)
        table = reproduce_table(
            {"60-middle-1": "60-middle-1"},
            families=("rf",),
            folds=2,
            grids={"rf": {"n_trees": [3]}},
            pca_ks=(4,),
            loader=lambda name: datasets[name],
        )
        assert table["columns"] == ["60-middle-1"]
        for row in table["rows"]:
            assert list(row["accuracies"]) == ["60-middle-1"]
            assert list(row["reference"]) == ["60-middle-1"]
            assert set(row["reference_delta"]) <= {"60-middle-1"}

    def test_reference_deltas_follow_the_published_cells(self):
        datasets = tiny_suite(seed=3)
        archives = {name: name for name in DATASET_COLUMNS}
        table = reproduce_table(
            archives,
            families=("gbt",),
            folds=2,
            grids={"gbt": {"rounds": [2], "max_depth": [2]}},
            loader=lambda name: datasets[name],
        )
        (row,) = table["rows"]
        assert row["variant"] == "gbt-cov"
        assert row["reference"] == dict(zip(DATASET_COLUMNS, REFERENCE_ACCURACY["gbt-cov"]))
        assert list(row["reference_delta"]) == ["60-random-1"]
        expected = row["accuracies"]["60-random-1"] - REFERENCE_ACCURACY["gbt-cov"][2]
        assert row["reference_delta"]["60-random-1"] == pytest.approx(expected)

    def test_format_table_lines_up(self):
        datasets = tiny_suite(seed=7)
        archives = {name: name for name in DATASET_COLUMNS}
        table = reproduce_table(
            archives,
            families=("rf",),
            folds=2,
            grids={"rf": {"n_trees": [2]}},
            pca_ks=(4,),
            loader=lambda name: datasets[name],
        )
        text = format_table(table)
        lines = text.splitlines()
        assert lines[0].startswith("variant")
        assert len(lines) == 1 + len(table["rows"])
        assert all(len(line) == len(lines[0]) for line in lines[1:])
