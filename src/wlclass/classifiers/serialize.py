"""Versioned self-describing model files, written by the one bundle codec.

A model file is one `dataset_io.write_bundle` zip: a stored `.npy`
member per array, then `meta.json` holding `format` (4), `kind`
(forest, gbt or svm), caller-supplied `provenance` and the model's
scalar fields, where an infinite float is the string "inf". Members are
int64 or float64, so floats survive exactly and equal models give equal
bytes. Each fact is stored once.

Tree models store their stacked node table (tree.NodeTable) as members
feature, threshold, left, right, roots (one per tree) and value (one row
per node: the class histogram for forests, (weight, g_sum, h_sum) for
boosted trees); boosted models add each split's gain and train_loss. An
SVM ensemble stores the union of its machines' support rows once
(SvmEnsemble._support): support_rows, support_vectors and support_coef
(rows x machines, alpha * y, 0 off a machine's support), plus one bias,
converged flag (0/1), update count and KKT gap per machine and n_train
in meta; loading rebuilds each machine from its nonzero coefficients.

Loading accepts exactly one bundle, with nothing before its first member
or after its end record, and checks every member before it builds a
model: every walk over a node table ends at a leaf without indexing out
of range, and an SVM has strictly increasing support rows in
[0, n_train), each used by some machine, finite vectors of one width,
finite coefficients with |coef| <= C and finite biases. Every failure
is a ModelFormatError.
"""

import dataclasses
import io
import math
import struct
from pathlib import Path

import numpy as np

from ..dataset_io import read_bundle, write_bundle
from ..errors import ArchiveIoError, DataError, ModelFormatError, UsageError
from .forest import ForestModel
from .gbt import GbtModel, GbtParams
from .svm import KernelSpec, SvmBinary, SvmEnsemble
from .tree import LEAF, NodeTable

FORMAT_VERSION = 4
_FOREST_FIELDS = ("seed", "feature_count", "class_count", "max_depth", "min_leaf")
#: Per-machine SVM members and their element kinds.
_MACHINE = {"bias": "f", "converged": "i", "updates": "i", "kkt_gap": "f"}
_TABLE = ("feature", "threshold", "left", "right", "value", "roots")
_MEMBERS = {
    "forest": _TABLE,
    "gbt": _TABLE + ("gain", "train_loss"),
    "svm": ("support_rows", "support_vectors", "support_coef", *_MACHINE),
}
#: Zip end-of-central-directory record: signature, two disk numbers, two
#: entry counts, directory size, directory offset, comment length.
_END = struct.Struct("<4s4H2LH")


def _count(obj, key) -> int:
    value = obj[key]
    if type(value) is not int or value < 1:
        raise ModelFormatError(f"{key} must be a positive integer, got {value!r}")
    return value


def _number(value, what):
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ModelFormatError(f"{what} must be a finite number, got {value!r}")
    return value


def _array(bundle, name, kind, ndim=1) -> np.ndarray:
    """Member name as a fresh int64 (kind "i") or float64 ("f") array of ndim axes."""
    arr = bundle[name]
    if arr.ndim != ndim or arr.dtype.kind != kind:
        kind_name = "integer" if kind == "i" else "float"
        raise ModelFormatError(f"member {name!r} must be a {ndim}-D {kind_name} array")
    return arr.astype(np.int64 if kind == "i" else np.float64)


def _table(bundle, n_trees, feature_count, width, boosted) -> NodeTable:
    """Rebuild a node table, refusing any table whose walk could fail to end or
    index out of range. Boosted trees carry float values and split gains,
    CART trees integer histograms."""
    feature, left, right, roots = (_array(bundle, name, "i")
                                   for name in ("feature", "left", "right", "roots"))
    threshold = _array(bundle, "threshold", "f")
    value = _array(bundle, "value", "f" if boosted else "i", 2)
    gain = _array(bundle, "gain", "f") if boosted else None
    n = len(feature)
    if any(a.shape != (n,) for a in (threshold, left, right) + ((gain,) if boosted else ())):
        raise ModelFormatError("node table arrays differ in length")
    if value.shape != (n, width):
        raise ModelFormatError(f"node table values must be {width} per node")
    if (n_trees < 1 or len(roots) != n_trees or roots[0] != 0 or (np.diff(roots) <= 0).any()
            or roots[-1] >= n):
        raise ModelFormatError(f"node table must hold {n_trees} trees with increasing roots")
    split = feature != LEAF
    if ((feature < LEAF) | (feature >= feature_count)).any():
        raise ModelFormatError("split feature out of range")
    if not np.isfinite(threshold[split]).all():
        raise ModelFormatError("split threshold is not finite")
    tree_end = np.repeat(np.append(roots[1:], n), np.diff(np.append(roots, n)))[split]
    for child in (left, right):
        if ((child != LEAF) != split).any():
            raise ModelFormatError("leaves must have no children and splits two")
        if ((child[split] <= np.flatnonzero(split)) | (child[split] >= tree_end)).any():
            raise ModelFormatError("child index must follow its parent inside its own tree")
    return NodeTable(feature, threshold, left, right, value, roots, feature_count, gain)


def _json_inf(value):
    """value with every +inf float, in nested dicts too, spelled "inf":
    JSON has no inf, and a GBT gamma of inf means "never split"."""
    if isinstance(value, dict):
        return {key: _json_inf(item) for key, item in value.items()}
    return "inf" if isinstance(value, float) and value == math.inf else value


def _table_arrays(table: NodeTable) -> dict:
    return {name: getattr(table, name) for name in _TABLE + ("gain",)
            if getattr(table, name) is not None}


def _forest_parts(model: ForestModel):
    return _table_arrays(model.table), {name: getattr(model, name) for name in _FOREST_FIELDS}


def _forest_from(meta, bundle) -> ForestModel:
    feature_count, class_count = (_count(meta, name) for name in ("feature_count", "class_count"))
    n_trees = len(bundle["roots"])  # one tree per root
    return ForestModel(table=_table(bundle, n_trees, feature_count, class_count, False),
                       n_trees=n_trees,
                       **{name: meta[name] for name in _FOREST_FIELDS if name != "feature_count"})


def _svm_parts(model: SvmEnsemble):
    rows, vectors, coef = model._support
    arrays = {
        "support_rows": rows,
        "support_vectors": vectors,
        "support_coef": coef,
        **{name: np.array([getattr(m, name) for m in model.machines],
                          np.float64 if kind == "f" else np.int64)
           for name, kind in _MACHINE.items()},
    }
    kernel = {"name": model.kernel.name, "gamma": model.kernel.gamma}
    return arrays, {"class_count": model.class_count, "kernel": kernel, "C": model.C,
                    "n_train": model.machines[0].n_train}


def _svm_from(meta, bundle) -> SvmEnsemble:
    gamma, C = meta["kernel"]["gamma"], _number(meta["C"], "C")
    kernel = KernelSpec(meta["kernel"]["name"], gamma if gamma is None else _number(gamma, "gamma"))
    if C <= 0:
        raise ModelFormatError(f"C must be positive, got {C!r}")
    class_count, n_train = _count(meta, "class_count"), _count(meta, "n_train")
    if class_count < 2:
        raise ModelFormatError(f"an SVM needs at least 2 classes, got {class_count}")
    per_machine = [_array(bundle, name, kind) for name, kind in _MACHINE.items()]
    if any(a.shape != (class_count,) for a in per_machine):
        raise ModelFormatError("per-machine members must hold one entry per class")
    bias, converged, updates, kkt_gap = per_machine
    rows = _array(bundle, "support_rows", "i")
    vectors = _array(bundle, "support_vectors", "f", 2)
    coef = _array(bundle, "support_coef", "f", 2)
    if len(vectors) != len(rows) or coef.shape != (len(rows), class_count):
        raise ModelFormatError("need one support vector and one coef per class per support row")
    if (np.diff(rows) <= 0).any() or (rows < 0).any() or (rows >= n_train).any():
        raise ModelFormatError("support rows must increase strictly within [0, n_train)")
    if not (np.isfinite(vectors).all() and np.isfinite(bias).all()):
        raise ModelFormatError("support vectors and biases must be finite")
    if not (np.abs(coef) <= C).all():  # NaN fails too
        raise ModelFormatError("support coefficients must be finite with |coef| <= C")
    used = coef != 0
    if not used.any(axis=1).all():
        raise ModelFormatError("every support row must be some machine's")
    if not (np.isin(converged, (0, 1)).all() and (updates >= 0).all()):
        raise ModelFormatError("need converged 0 or 1 and updates >= 0")
    machines = [SvmBinary(
        alphas=np.abs(coef[on, c]), bias=float(bias[c]), support_indices=rows[on],
        support_vectors=vectors[on], support_labels=np.sign(coef[on, c]), kernel=kernel, C=C,
        converged=bool(converged[c]), n_train=n_train, updates=int(updates[c]),
        kkt_gap=float(kkt_gap[c])) for c, on in enumerate(used.T)]
    return SvmEnsemble(machines=machines, class_count=class_count, kernel=kernel, C=C)


def _gbt_parts(model: GbtModel):
    params = _json_inf(dataclasses.asdict(model.params))
    arrays = {**_table_arrays(model.table), "train_loss": model.train_loss}
    return arrays, {"params": params, "feature_count": model.feature_count,
                    "class_count": model.class_count}


def _gbt_from(meta, bundle) -> GbtModel:
    p = meta["params"]
    _count(p, "rounds")
    _number(p["base_score"], "base_score")  # GbtParams checks the rest
    params = GbtParams(**{**p, "gamma": float("inf") if p["gamma"] == "inf" else p["gamma"]})
    feature_count, class_count = _count(meta, "feature_count"), _count(meta, "class_count")
    train_loss = _array(bundle, "train_loss", "f")
    if len(train_loss) != params.rounds:
        raise ModelFormatError("train_loss needs one entry per round")
    return GbtModel(
        table=_table(bundle, params.rounds * class_count, feature_count, 3, True),
        params=params,
        class_count=class_count,
        train_loss=train_loss.tolist(),
    )


#: kind -> (model type, model -> (arrays, meta fields), (meta, arrays) -> model)
_KINDS = {
    "forest": (ForestModel, _forest_parts, _forest_from),
    "svm": (SvmEnsemble, _svm_parts, _svm_from),
    "gbt": (GbtModel, _gbt_parts, _gbt_from),
}


def save_model(model, path, provenance: dict | None = None) -> None:
    """Write model as one bundle to path, or to a binary file-like."""
    for kind, (kind_type, parts, _) in _KINDS.items():
        if isinstance(model, kind_type):
            arrays, meta = parts(model)
            arrays = {name: np.asarray(a, np.float64 if np.asarray(a).dtype.kind == "f"
                                       else np.int64) for name, a in arrays.items()}
            meta = {"format": FORMAT_VERSION, "kind": kind,
                    "provenance": _json_inf(provenance or {}), **meta}
            return write_bundle(path, arrays, meta)
    raise ModelFormatError(f"cannot serialize {type(model).__name__}")


def serialize_model(model, provenance: dict | None = None) -> bytes:
    buffer = io.BytesIO()
    save_model(model, buffer, provenance)
    return buffer.getvalue()


def _check_extent(data: bytes) -> None:
    """Refuse bytes before the first member or after the end record, which a
    zip reader would skip: a model file is one bundle and nothing else."""
    if data[:4] == b"PK\x03\x04" and len(data) >= _END.size:
        signature, *_, size, offset, comment = _END.unpack_from(data, len(data) - _END.size)
        if signature == b"PK\x05\x06" and not comment and offset + size + _END.size == len(data):
            return
    raise ModelFormatError(
        f"not exactly one model bundle (it starts {data[:4]!r}); files of model format 2 "
        "and older, in the WLC1 section container, are no longer read: retrain to rewrite them"
    )


def deserialize_model(data: bytes):
    """Returns (model, provenance dict).

    Raises:
        ModelFormatError: data is not exactly one model bundle of format 4
            whose members pass the checks of its kind.
    """
    data = bytes(data)
    _check_extent(data)
    try:
        bundle = read_bundle(io.BytesIO(data), ("meta",), sorted(set().union(*_MEMBERS.values())))
    except DataError as exc:
        raise ModelFormatError(f"unreadable model bundle: {exc}") from None
    meta = bundle.pop("meta")
    if meta.get("format") != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format {meta.get('format')!r}; only "
                               f"format {FORMAT_VERSION} is read: retrain to rewrite the model")
    kind = meta.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ModelFormatError(f"unknown model kind {kind!r}")
    if set(bundle) != set(_MEMBERS[kind]):
        raise ModelFormatError(f"a {kind} model needs members {sorted(_MEMBERS[kind])}, "
                               f"got {sorted(bundle)}")
    try:
        model = _KINDS[kind][2](meta, bundle)
    except (KeyError, TypeError, ValueError, AttributeError, UsageError) as exc:
        raise ModelFormatError(f"malformed {kind} model: {exc}") from None
    return model, meta.get("provenance", {})


def load_model(path):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ArchiveIoError(f"cannot read model {path}: {exc}") from None
    return deserialize_model(data)
