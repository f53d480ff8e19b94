"""Stratified k-fold cross validation, grid search, and evaluation reports.

The grid search consumes raw window tensors, never precomputed features:
the standardizer (and PCA, when selected) is refit inside every fold on
that fold's training rows only, so no statistic of a validation row ever
reaches the model that is scored on it. The search runs in (reduction
family, fold, cell) order, where a family is the reductions that differ
only in k. Each fold makes one fit_reduction per family, at its largest
k, which returns the training features too, and one transform of the
validation split; a cell at k trains and scores on the first k feature
columns. fit_pca's first k components are exactly those of a fit at k,
and the projection onto them agrees with the first k columns up to BLAS
rounding.

A FittedReduction is stored as a reduction bundle (write_reduction_bundle
and read_reduction_bundle), one of the dataset_io zip bundles.
"""

import hashlib
import itertools
import logging
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._checks import integer, integer_labels, real
from .classifiers import (
    GbtParams,
    KernelSpec,
    TreeParams,
    predict,
    train_forest,
    train_gbt,
    train_svm_multiclass,
)
# project_pca is called as features.project_pca, the one name perfbench/tracer.py
# wraps, so its span covers training and served projections alike
from . import features
from .dataset_io import read_bundle, read_challenge_archive, write_bundle
from .errors import (
    BadKError,
    MalformedArchiveError,
    MissingArchiveError,
    ShapeMismatchError,
    UsageError,
    WlclassError,
)
from .features import (
    PcaModel,
    Standardizer,
    apply_standardizer,
    covariance_feature_matrix,
    fit_pca,
    fit_standardizer,
    flatten_tensor,
)

log = logging.getLogger(__name__)

#: Each model family's parameters and their defaults. train_family fills
#: in what a call leaves out from here, and the CLI reads each family's
#: flags in this order, which is the order its grid cells enumerate in.
#: svm gamma None with the rbf kernel leaves the choice to train_svm_multiclass
#: (default_gamma of the training features).
FAMILY_PARAMS = {
    "rf": {"n_trees": 100, "max_depth": None, "min_leaf": 1},
    "svm": {"C": 1.0, "kernel": "rbf", "max_iter": 2000, "gamma": None, "tol": 1e-3},
    "gbt": {"rounds": 40, "gamma": 0.0, "alpha": 0.0, "lambda": 1.0, "learning_rate": 0.3,
            "max_depth": 6},
}

MODEL_FAMILIES = tuple(FAMILY_PARAMS)

DEFAULT_FOLDS = {"rf": 10, "svm": 10, "gbt": 5}

DATASET_COLUMNS = (
    "60-start-1",
    "60-middle-1",
    "60-random-1",
    "60-random-2",
    "60-random-3",
    "60-random-4",
    "60-random-5",
)

#: Published baseline test accuracies for the released challenge datasets,
#: in DATASET_COLUMNS order, used by the reproduction report for deltas.
REFERENCE_ACCURACY = {
    "svm-pca": (82.13, 80.84, 76.62, 75.32, 76.78, 75.29, 75.46),
    "svm-cov": (67.24, 73.21, 71.66, 71.32, 71.05, 70.55, 70.61),
    "rf-pca": (83.17, 89.76, 85.58, 86.69, 86.51, 86.31, 86.42),
    "rf-cov": (81.80, 93.02, 90.05, 90.64, 90.01, 90.73, 90.90),
    "gbt-cov": (None, None, 88.47, None, None, None, None),
}


@dataclass(frozen=True)
class ReductionSpec:
    """Which trial-level reduction a grid cell uses."""

    kind: str  # "cov" | "pca"
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("cov", "pca"):
            raise UsageError(f"reduction must be cov or pca, got {self.kind!r}")
        if (self.kind == "pca") != (self.k is not None):
            raise UsageError("k is required for pca and only for pca")
        if self.k is not None:  # a plain int: bundle meta is JSON
            object.__setattr__(self, "k", integer(self.k, "k", 1))

    @classmethod
    def parse(cls, token: str) -> "ReductionSpec":
        """The spec a token names, in describe()'s grammar: cov or pca-<k>."""
        token = str(token).strip()
        if token == "cov":
            return cls("cov")
        if token.startswith("pca-") and token[4:].isascii() and token[4:].isdecimal():
            return cls("pca", int(token[4:]))
        raise UsageError(f"bad reduction token {token!r}; use cov or pca-<k>")

    def describe(self) -> str:
        return "cov" if self.kind == "cov" else f"pca-{self.k}"


@dataclass
class FittedReduction:
    """A standardizer plus optional PCA, fitted on one specific training set."""

    spec: ReductionSpec
    standardizer: Standardizer
    pca: PcaModel | None = None

    def transform(self, tensor) -> np.ndarray:
        if self.spec.kind == "cov":
            return covariance_feature_matrix(tensor, self.standardizer)
        flat = flatten_tensor(apply_standardizer(self.standardizer, tensor))
        return features.project_pca(self.pca, flat)

    def fingerprint(self) -> str:
        """Hash of every fitted statistic; distinguishes what data fit this object."""
        h = hashlib.sha256()
        h.update(self.standardizer.means.tobytes())
        h.update(self.standardizer.stds.tobytes())
        if self.pca is not None:
            h.update(self.pca.mean.tobytes())
            h.update(self.pca.components.tobytes())
        return h.hexdigest()


def fit_reduction(spec: ReductionSpec, x_train) -> tuple:
    """(reduction fitted on x_train, x_train's features under it).

    A PCA projects the standardized, flattened matrix it was fit on, so the
    features equal reduction.transform(x_train) without standardizing twice.
    """
    standardizer = fit_standardizer(x_train)
    if spec.kind == "cov":
        cov = covariance_feature_matrix(x_train, standardizer)
        return FittedReduction(spec=spec, standardizer=standardizer), cov
    flat = flatten_tensor(apply_standardizer(standardizer, x_train))
    pca = fit_pca(flat, spec.k)
    reduction = FittedReduction(spec=spec, standardizer=standardizer, pca=pca)
    return reduction, features.project_pca(pca, flat)


_STANDARDIZER_KEYS = ("means", "stds", "constant")
_PCA_KEYS = ("pca_mean", "pca_components", "pca_variance")


def write_reduction_bundle(path, reduction: FittedReduction) -> None:
    spec, std, pca = reduction.spec, reduction.standardizer, reduction.pca
    arrays = {"means": std.means, "stds": std.stds, "constant": std.constant.astype(np.int64)}
    if pca is not None:
        arrays.update(pca_mean=pca.mean, pca_components=pca.components,
                      pca_variance=pca.explained_variance)
    write_bundle(path, arrays, {"kind": spec.kind, "k": spec.k})


def read_reduction_bundle(path) -> FittedReduction:
    """Load a fitted reduction, checking that its members fit together.

    A rank_deficient meta key, which older bundles wrote, is ignored: the
    loaded PcaModel derives it from pca_variance.

    Raises:
        MalformedArchiveError: besides unreadable members, a bad kind or k,
            a meta key of a retired cov variant that is not false,
            PCA members on a cov bundle or missing from a PCA one, or a
            member whose shape or dtype disagrees with the others: m-vectors
            means and stds (float) and constant (integer), and for PCA a
            d-vector pca_mean, k x d pca_components and k-vector pca_variance.
    """
    bundle = read_bundle(path, (*_STANDARDIZER_KEYS, "meta"), _PCA_KEYS)
    meta = bundle.pop("meta")
    kind, k = meta.get("kind"), meta.get("k")
    if not (kind == "cov" and k is None or kind == "pca" and type(k) is int and k >= 1):
        raise MalformedArchiveError(f"reduction bundle {path}: bad kind {kind!r} with k {k!r}")
    for key in ("center_per_trial", "scale_unbiased"):  # retired cov variants
        if meta.get(key, False) is not False:
            raise MalformedArchiveError(f"reduction bundle {path}: {key} is {meta[key]!r}; "
                                        "only the plain Gram reduction is supported")
    expected = _STANDARDIZER_KEYS + (_PCA_KEYS if kind == "pca" else ())
    if set(bundle) != set(expected):
        raise MalformedArchiveError(f"reduction bundle {path}: {kind} with {sorted(bundle)}")
    m, d = bundle["means"].size, bundle.get("pca_mean", bundle["means"]).size
    shapes = {"means": (m,), "stds": (m,), "constant": (m,),
              "pca_mean": (d,), "pca_components": (k, d), "pca_variance": (k,)}
    for key in expected:
        arr = bundle[key]
        if arr.shape != shapes[key] or arr.dtype.kind != ("i" if key == "constant" else "f"):
            raise MalformedArchiveError(f"reduction bundle {path}: {key} is {arr.dtype} "
                                        f"{arr.shape}, expected shape {shapes[key]}")
    std = Standardizer(bundle["means"], bundle["stds"], bundle["constant"].astype(bool))
    pca = None
    if kind == "pca":
        pca = PcaModel(bundle["pca_mean"], bundle["pca_components"], bundle["pca_variance"])
    return FittedReduction(spec=ReductionSpec(kind, k), standardizer=std, pca=pca)


@dataclass(frozen=True)
class GridSpec:
    model_family: str
    hyperparameter_grid: dict  # name -> list of values
    reduction_grid: tuple  # ReductionSpec entries
    folds: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.model_family not in MODEL_FAMILIES:
            raise UsageError(f"model family must be one of {MODEL_FAMILIES}")
        _check_params(self.model_family, self.hyperparameter_grid)
        if not self.reduction_grid:
            raise UsageError("reduction grid must be non-empty")
        for name, values in self.hyperparameter_grid.items():
            if not values:
                raise UsageError(f"grid list for {name!r} is empty")
        folds = DEFAULT_FOLDS[self.model_family] if self.folds is None else self.folds
        object.__setattr__(self, "folds", integer(folds, "folds", 2, BadKError))
        object.__setattr__(self, "seed", integer(self.seed, "seed", 0))

    def cells(self) -> list:
        names = list(self.hyperparameter_grid)
        value_lists = [self.hyperparameter_grid[n] for n in names]
        out = []
        for reduction in self.reduction_grid:
            for combo in itertools.product(*value_lists):
                out.append(GridCell(len(out), reduction, dict(zip(names, combo))))
        return out


@dataclass(frozen=True)
class GridCell:
    index: int
    reduction: ReductionSpec
    params: dict

    def describe(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.reduction.describe()}|{inner}" if inner else self.reduction.describe()


@dataclass
class GridPipeline:
    """Refit result: reduction fitted on the full training split plus the model."""

    reduction: FittedReduction
    model: object
    family: str

    def predict(self, tensor) -> np.ndarray:
        return predict(self.model, self.reduction.transform(tensor))

    @property
    def provenance(self) -> dict:
        return {
            "family": self.family,
            "reduction": self.reduction.spec.describe(),
            "reduction_fingerprint": self.reduction.fingerprint(),
        }


@dataclass
class CvResult:
    cells: list  # GridCell
    mean_accuracy: np.ndarray  # per cell
    std_accuracy: np.ndarray  # per cell
    fold_accuracy: np.ndarray  # cells x folds
    best_cell: int
    pipeline: GridPipeline

    @property
    def best_mean(self) -> float:
        return float(self.mean_accuracy[self.best_cell])


def kfold_indices(n: int, k: int, labels, seed: int) -> list:
    """Stratified fold assignment: per-class seeded shuffle, dealt round-robin.

    Classes smaller than k degrade gracefully with a warning. Returns
    (train_idx, val_idx) pairs whose validation sets partition range(n).

    Raises:
        BadKError: k is not an integer in [2, n].
        UsageError: seed is not an integer >= 0.
        LabelOutOfRangeError: a label is not an integer.
    """
    k, seed = integer(k, "k", 2, BadKError), integer(seed, "seed", 0)
    if k > n:
        raise BadKError(f"k must be an integer in [2, {n}], got {k}")
    labels = integer_labels(labels)
    if len(labels) != n:
        raise ShapeMismatchError(f"{len(labels)} labels for n={n}")
    fold_of = np.empty(n, dtype=np.int64)
    for class_position, label in enumerate(np.unique(labels)):
        members = np.nonzero(labels == label)[0]
        if len(members) < k:
            warnings.warn(
                f"class {label} has {len(members)} member(s) for {k} folds; "
                "some folds will miss it",
                RuntimeWarning,
                stacklevel=2,
            )
        rng = np.random.default_rng(np.random.SeedSequence([seed, class_position]))
        shuffled = members[rng.permutation(len(members))]
        fold_of[shuffled] = np.arange(len(members)) % k
    out = []
    everything = np.arange(n)
    for fold in range(k):
        val = everything[fold_of == fold]
        train = everything[fold_of != fold]
        out.append((train, val))
    return out


def _check_params(family: str, names) -> None:
    unknown = sorted(set(names) - set(FAMILY_PARAMS[family]))
    if unknown:
        raise UsageError(f"{family} has no parameter {', '.join(map(repr, unknown))}; "
                         f"it reads {', '.join(FAMILY_PARAMS[family])}")


def _family_kwargs(family: str, params: dict) -> dict:
    """The family trainer's keyword arguments for params over the FAMILY_PARAMS
    defaults, each value checked by its owner before any data is touched."""
    if family not in FAMILY_PARAMS:
        raise UsageError(f"unknown model family {family!r}")
    _check_params(family, params)
    p = {**FAMILY_PARAMS[family], **params}
    if family == "rf":
        integer(p["n_trees"], "n_trees", 1)
        TreeParams(p["max_depth"], p["min_leaf"])
        return p
    if family == "svm":
        name, gamma = p["kernel"], p["gamma"]
        return {"C": real(p["C"], "C", 0, above=True), "tol": real(p["tol"], "tol", 0, above=True),
                "max_iter": integer(p["max_iter"], "max_iter", 1),
                "kernel": None if name == "rbf" and gamma is None else KernelSpec(name, gamma)}
    return {"params": GbtParams(reg_lambda=p.pop("lambda"), **p)}


def train_family(family: str, x, y, params: dict, seed: int, n_classes: int):
    """Train one model of the given family with one grid cell's parameters;
    a parameter the cell leaves out takes its FAMILY_PARAMS default."""
    kwargs = _family_kwargs(family, params)
    if family == "rf":
        return train_forest(x, y, seed=seed, n_classes=n_classes, **kwargs)
    trainer = train_svm_multiclass if family == "svm" else train_gbt
    return trainer(x, y, n_classes=n_classes, **kwargs)


def _annotate(exc: WlclassError, context: str):
    exc.args = (f"[{context}] {exc}",)
    return exc


def _score_family_fold(x, y, family, fold_pair, fold_index, spec, n_classes) -> list:
    """Validation accuracy of every cell of one reduction family on one fold.

    One fit_reduction at the family's largest k, which also gives the
    training features, and one transform of the validation split serve
    every cell: a cell at k reads the first k feature columns, a cov cell
    all of them.
    """
    train_idx, val_idx = fold_pair
    x_train = x[train_idx]
    cell = max(family, key=lambda c: c.reduction.k or 0)
    accuracies = []
    try:
        fitted, f_train = fit_reduction(cell.reduction, x_train)
        f_val = fitted.transform(x[val_idx])
        for cell in family:
            columns = slice(cell.reduction.k)
            model = train_family(spec.model_family, np.ascontiguousarray(f_train[:, columns]),
                                 y[train_idx], cell.params, spec.seed, n_classes)
            predictions = predict(model, np.ascontiguousarray(f_val[:, columns]))
            accuracies.append((predictions == y[val_idx]).mean())
    except WlclassError as exc:
        raise _annotate(exc, f"cell {cell.index} ({cell.describe()}) fold {fold_index}")
    return accuracies


def grid_search(x, y, spec: GridSpec):
    """Cross-validate every grid cell, pick the best, refit on the full split.

    x is the raw trials x samples x sensors tensor; all feature fitting
    happens inside the folds. Ties on mean accuracy go to the smallest
    cell index.
    """
    x = np.asarray(x, dtype=np.float64)
    y = integer_labels(y)
    if x.ndim != 3 or x.shape[0] != len(y):
        raise ShapeMismatchError(f"tensor {x.shape} does not align with {len(y)} labels")
    cells = spec.cells()
    k = spec.folds
    folds = kfold_indices(len(y), k, y, spec.seed)
    n_classes = int(y.max()) + 1

    families = {}  # reductions that differ only in k
    for cell in cells:
        families.setdefault(cell.reduction.kind, []).append(cell)
    fold_accuracy = np.empty((len(cells), k))
    for family in families.values():
        rows = [c.index for c in family]
        names = ",".join(dict.fromkeys(c.reduction.describe() for c in family))
        for fold_index, fold_pair in enumerate(folds):
            start = time.perf_counter()
            fold_accuracy[rows, fold_index] = _score_family_fold(
                x, y, family, fold_pair, fold_index, spec, n_classes)
            log.info("%s fold %d/%d: %.2f s, best cell accuracy %.4f", names, fold_index + 1,
                     k, time.perf_counter() - start, fold_accuracy[rows, fold_index].max())

    mean_accuracy = fold_accuracy.mean(axis=1)
    std_accuracy = fold_accuracy.std(axis=1)
    best_cell = int(np.argmax(mean_accuracy))

    best = cells[best_cell]
    reduction, f_train = fit_reduction(best.reduction, x)
    model = train_family(spec.model_family, f_train, y, best.params, spec.seed, n_classes)
    return CvResult(
        cells=cells,
        mean_accuracy=mean_accuracy,
        std_accuracy=std_accuracy,
        fold_accuracy=fold_accuracy,
        best_cell=best_cell,
        pipeline=GridPipeline(reduction=reduction, model=model, family=spec.model_family),
    )


@dataclass
class EvalReport:
    accuracy: float  # percent
    confusion_matrix: np.ndarray  # true x predicted counts
    precision: np.ndarray  # per class, 0 where undefined
    recall: np.ndarray
    class_names: tuple
    dataset_id: str = ""
    model_provenance: dict = field(default_factory=dict)


def evaluate(predictions, y_test, class_names, dataset_id="", model_provenance=None) -> EvalReport:
    """Score predictions against labels into an accuracy/confusion report.
    A label or prediction that is not an integer raises LabelOutOfRangeError."""
    predictions = integer_labels(predictions)
    y_test = integer_labels(y_test)
    if predictions.shape != y_test.shape:
        raise ShapeMismatchError(
            f"{predictions.shape} predictions vs {y_test.shape} labels"
        )
    if len(y_test) == 0:
        raise ShapeMismatchError("cannot evaluate on an empty test set")
    n_classes = len(class_names)
    if y_test.min() < 0 or predictions.min() < 0:
        raise ShapeMismatchError("labels must be non-negative")
    if y_test.max() >= n_classes or predictions.max() >= n_classes:
        raise ShapeMismatchError("labels exceed the class-name table")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (y_test, predictions), 1)
    correct = np.trace(confusion)
    col = confusion.sum(axis=0)
    row = confusion.sum(axis=1)
    diag = np.diag(confusion)
    precision = np.divide(diag, col, out=np.zeros(n_classes), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros(n_classes), where=row > 0)
    return EvalReport(
        accuracy=100.0 * correct / len(y_test),
        confusion_matrix=confusion,
        precision=precision,
        recall=recall,
        class_names=tuple(class_names),
        dataset_id=dataset_id,
        model_provenance=model_provenance or {},
    )


def evaluate_pipeline(pipeline: GridPipeline, x_test, y_test, class_names, dataset_id="") -> EvalReport:
    return evaluate(
        pipeline.predict(x_test),
        y_test,
        class_names,
        dataset_id=dataset_id,
        model_provenance=pipeline.provenance,
    )


def format_report(report: EvalReport, max_rows: int = 40) -> str:
    lines = [f"dataset: {report.dataset_id or '(unnamed)'}"]
    if report.model_provenance:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(report.model_provenance.items()))
        lines.append(f"model: {pairs}")
    lines.append(f"accuracy: {report.accuracy:.2f}%")
    lines.append("class                     precision  recall   support")
    row_totals = report.confusion_matrix.sum(axis=1)
    for i, name in enumerate(report.class_names[:max_rows]):
        lines.append(
            f"{name:<25s} {report.precision[i]:9.3f} {report.recall[i]:7.3f} {row_totals[i]:9d}"
        )
    if len(report.class_names) > max_rows:
        lines.append(f"... {len(report.class_names) - max_rows} more classes")
    return "\n".join(lines)


#: Grids used by the reproduction protocol, per model family.
BASELINE_GRIDS = {
    "rf": {"n_trees": [50, 100, 250]},
    "svm": {"C": [0.1, 1.0, 10.0]},
    "gbt": {"gamma": [0.0, 1.0], "alpha": [0.0, 1.0], "lambda": [1.0, 10.0]},
}

PCA_GRID_KS = (28, 64, 256, 512)

#: Variant -> (family, reduction kinds) rows of the reproduction table.
TABLE_VARIANTS = {
    "svm-pca": ("svm", "pca"),
    "svm-cov": ("svm", "cov"),
    "rf-pca": ("rf", "pca"),
    "rf-cov": ("rf", "cov"),
    "gbt-cov": ("gbt", "cov"),
}


def _reduction_grid(kind: str, pca_ks, max_k=None) -> tuple:
    if kind == "cov":
        return (ReductionSpec("cov"),)
    ks = [k for k in pca_ks if max_k is None or k <= max_k]
    if not ks:
        ks = [min(pca_ks)]
    return tuple(ReductionSpec("pca", k=k) for k in ks)


def reproduce_table(
    archives: dict,
    families=("svm", "rf"),
    seed: int = 0,
    folds: int | None = None,
    grids: dict | None = None,
    pca_ks=PCA_GRID_KS,
    loader=read_challenge_archive,
):
    """Grid-search and score every (variant, dataset) pair of the accuracy table.

    archives maps DATASET_COLUMNS names to archive paths. Returns a dict
    with the column names, one row per variant carrying accuracies, the
    published accuracy of each column (None where the paper has none) and
    reference deltas, and the per-archive provenance. The table has one
    column per recognized name provided; whether an absent dataset is an
    error is the caller's policy (``reproduce --strict``).

    Raises:
        UsageError: no family, one outside MODEL_FAMILIES, or no pca_ks
            while svm or rf puts a pca row in the table.
        MissingArchiveError: no recognized dataset name is present.
    """
    if not families or not set(families) <= set(MODEL_FAMILIES):
        raise UsageError(f"families must be among {', '.join(MODEL_FAMILIES)}, got {families}")
    variants = [v for v, (fam, _) in TABLE_VARIANTS.items() if fam in families]
    if not pca_ks and any(TABLE_VARIANTS[v][1] == "pca" for v in variants):
        raise UsageError("pca_ks must be non-empty for the pca rows of svm and rf")
    grids = grids or BASELINE_GRIDS
    columns = [name for name in DATASET_COLUMNS if name in archives]
    if not columns:
        raise MissingArchiveError(
            f"no recognized dataset names among {sorted(archives)}; expected {DATASET_COLUMNS}"
        )

    accuracies = {variant: {} for variant in variants}
    provenance = {}
    for column in columns:
        dataset = loader(archives[column])  # once per archive, shared by every variant
        _, length, sensors = dataset.x_train.shape
        max_k = length * sensors
        for variant in variants:
            family, reduction_kind = TABLE_VARIANTS[variant]
            spec = GridSpec(
                model_family=family,
                hyperparameter_grid=grids[family],
                reduction_grid=_reduction_grid(reduction_kind, pca_ks, max_k=max_k),
                folds=folds,
                seed=seed,
            )
            result = grid_search(dataset.x_train, dataset.y_train, spec)
            report = evaluate_pipeline(
                result.pipeline,
                dataset.x_test,
                dataset.y_test,
                dataset.model_train,
                dataset_id=column,
            )
            accuracies[variant][column] = report.accuracy
            provenance.setdefault(column, {})[variant] = {
                "best_cell": result.cells[result.best_cell].describe(),
                "cv_mean": result.best_mean,
            }
    rows = []
    for variant in variants:
        published = dict(zip(DATASET_COLUMNS, REFERENCE_ACCURACY.get(variant) or ()))
        reference = {column: published.get(column) for column in columns}
        deltas = {column: accuracies[variant][column] - ref
                  for column, ref in reference.items() if ref is not None}
        rows.append({"variant": variant, "accuracies": accuracies[variant],
                     "reference": reference, "reference_delta": deltas})
    return {"columns": columns, "rows": rows, "provenance": provenance}


def format_table(table: dict) -> str:
    columns = table["columns"]
    width = max(len(c) for c in columns) + 2
    header = "variant".ljust(10) + "".join(c.rjust(width) for c in columns)
    lines = [header]
    for row in table["rows"]:
        cells = "".join(f"{row['accuracies'][c]:{width}.2f}" for c in columns)
        lines.append(row["variant"].ljust(10) + cells)
    return "\n".join(lines)
