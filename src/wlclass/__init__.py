"""Workload classification from GPU telemetry windows.

The pipeline: parse or synthesize labelled multi-sensor time series, cut
fixed-length windows, standardize and reduce them to covariance or PCA
features, and train from-scratch random forest, SVM, or boosted-tree
classifiers under a stratified cross-validated grid search. Everything
runs on one thread, is seeded, and is byte-reproducible across runs.
"""

__version__ = "0.1.0"

from .classifiers import (
    ForestModel,
    GbtModel,
    GbtParams,
    KernelSpec,
    SvmEnsemble,
    deserialize_model,
    feature_importance_report,
    load_model,
    predict,
    save_model,
    serialize_model,
    train_forest,
    train_gbt,
    train_svm_multiclass,
    train_tree,
)
from .dataset_io import (
    GPU_SENSORS,
    NUM_CLASSES,
    ChallengeDataset,
    RawTrial,
    ingest_raw_csv,
    read_array,
    read_challenge_archive,
    write_array,
    write_challenge_archive,
)
from .errors import (
    ConvergenceError,
    DataError,
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
    project_pca,
)
from .model_selection import (
    DATASET_COLUMNS,
    CvResult,
    EvalReport,
    GridSpec,
    ReductionSpec,
    evaluate,
    evaluate_pipeline,
    grid_search,
    kfold_indices,
    reproduce_table,
)
from .synth import (
    SynthClassSpec,
    SynthCorpusSpec,
    default_4_class_spec,
    default_26_class_spec,
    generate_corpus,
    make_corpus_spec,
)
from .windowing import (
    WindowPolicy,
    WindowedTrial,
    build_challenge_dataset,
    extract_window,
    split_jobs_by_class,
)

__all__ = [
    "ChallengeDataset",
    "ConvergenceError",
    "CvResult",
    "DATASET_COLUMNS",
    "DataError",
    "EvalReport",
    "ForestModel",
    "GbtModel",
    "GbtParams",
    "GPU_SENSORS",
    "GridSpec",
    "KernelSpec",
    "NUM_CLASSES",
    "PcaModel",
    "RawTrial",
    "ReductionSpec",
    "Standardizer",
    "SvmEnsemble",
    "SynthClassSpec",
    "SynthCorpusSpec",
    "UsageError",
    "WindowPolicy",
    "WindowedTrial",
    "WlclassError",
    "apply_standardizer",
    "build_challenge_dataset",
    "covariance_feature_matrix",
    "default_26_class_spec",
    "default_4_class_spec",
    "deserialize_model",
    "evaluate",
    "evaluate_pipeline",
    "extract_window",
    "feature_importance_report",
    "fit_pca",
    "fit_standardizer",
    "generate_corpus",
    "grid_search",
    "ingest_raw_csv",
    "kfold_indices",
    "load_model",
    "make_corpus_spec",
    "predict",
    "project_pca",
    "read_array",
    "read_challenge_archive",
    "reproduce_table",
    "save_model",
    "serialize_model",
    "split_jobs_by_class",
    "train_forest",
    "train_gbt",
    "train_svm_multiclass",
    "train_tree",
    "write_array",
    "write_challenge_archive",
]
