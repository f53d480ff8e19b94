"""The three baseline model families, trained from scratch."""

from ..errors import ShapeMismatchError
from .forest import ForestModel, forest_votes, train_forest
from .gbt import GbtModel, GbtParams, feature_importance_report, train_gbt
from .serialize import deserialize_model, load_model, save_model, serialize_model
from .svm import KernelSpec, SvmEnsemble, default_gamma, kernel_matrix, train_svm_multiclass
from .tree import NodeTable, TreeParams, stack_tables, train_tree

__all__ = [
    "ForestModel",
    "GbtModel",
    "GbtParams",
    "KernelSpec",
    "NodeTable",
    "SvmEnsemble",
    "TreeParams",
    "default_gamma",
    "deserialize_model",
    "feature_importance_report",
    "forest_votes",
    "kernel_matrix",
    "load_model",
    "predict",
    "save_model",
    "serialize_model",
    "stack_tables",
    "train_forest",
    "train_gbt",
    "train_svm_multiclass",
    "train_tree",
]


def predict(model, X):
    """Label predictions for any trained model; ties resolve to the lowest class.
    Each model checks X by query_rows."""
    if isinstance(model, (ForestModel, SvmEnsemble, GbtModel)):
        return model.predict(X)
    raise ShapeMismatchError(f"cannot predict with {type(model).__name__}")
