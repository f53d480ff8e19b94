"""Versioned self-describing model files.

Layout: magic "WLC1", u16 format version, u16 section count, then per
section [u16 name length][name utf-8][u64 payload length][payload].
Payloads are canonical JSON (sorted keys, no whitespace); floats survive
the round trip exactly because JSON emits shortest-repr decimals. The
"meta" section names the model kind and carries caller-supplied
provenance so an evaluation can state what a model was trained on.

Tree models (format 2) store their stacked node table (tree.NodeTable)
as flat JSON arrays: feature, threshold, left, right, roots, value
(row-major, class_count per node for forests, 3 for boosted trees) and,
for boosted trees, gain. Loading checks that every walk over the table
ends at a leaf without indexing out of range.
"""

import json
from pathlib import Path

import numpy as np

from ..errors import ModelFormatError
from .forest import ForestModel
from .gbt import GbtModel, GbtParams
from .svm import KernelSpec, SvmBinary, SvmEnsemble
from .tree import LEAF, NodeTable

MAGIC = b"WLC1"
FORMAT_VERSION = 2
_TABLE_ARRAYS = ("feature", "threshold", "left", "right", "value", "roots", "gain")


def _table_to_obj(table: NodeTable):
    arrays = {name: getattr(table, name) for name in _TABLE_ARRAYS}
    return {name: a.ravel().tolist() for name, a in arrays.items() if a is not None}


def _count(obj, key) -> int:
    value = obj[key]
    if type(value) is not int or value < 1:
        raise ModelFormatError(f"{key} must be a positive integer, got {value!r}")
    return value


def _table_from_obj(obj, n_trees, feature_count, width, boosted) -> NodeTable:
    """Rebuild a node table, refusing any table whose walk could fail to end or
    index out of range. Boosted trees carry float values and split gains,
    CART trees integer histograms."""

    def ints(name):
        arr = np.asarray(obj[name])
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise ModelFormatError(f"node table {name!r} must be a list of integers")
        return arr.astype(np.int64)

    def floats(name):
        return np.asarray(obj[name], dtype=np.float64)

    feature, left, right, roots = (ints(name) for name in ("feature", "left", "right", "roots"))
    threshold = floats("threshold")
    value, gain = (floats("value"), floats("gain")) if boosted else (ints("value"), None)
    n = len(feature)
    if any(a.shape != (n,) for a in (threshold, left, right) + ((gain,) if boosted else ())):
        raise ModelFormatError("node table arrays differ in length")
    if value.shape != (n * width,):
        raise ModelFormatError(f"node table values must be {width} per node")
    if len(roots) != n_trees or roots[0] != 0 or (np.diff(roots) <= 0).any() or roots[-1] >= n:
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
    return NodeTable(feature, threshold, left, right, value.reshape(n, width), roots, gain)


def _forest_to_obj(model: ForestModel):
    return {
        "table": _table_to_obj(model.table),
        "n_trees": model.n_trees,
        "seed": model.seed,
        "feature_count": model.feature_count,
        "class_count": model.class_count,
        "max_depth": model.max_depth,
        "min_leaf": model.min_leaf,
    }


def _forest_from_obj(obj) -> ForestModel:
    n_trees, feature_count = _count(obj, "n_trees"), _count(obj, "feature_count")
    class_count = _count(obj, "class_count")
    return ForestModel(
        table=_table_from_obj(obj["table"], n_trees, feature_count, class_count, False),
        n_trees=n_trees,
        seed=obj["seed"],
        feature_count=feature_count,
        class_count=class_count,
        max_depth=obj["max_depth"],
        min_leaf=obj["min_leaf"],
    )


def _kernel_to_obj(kernel: KernelSpec):
    return {"name": kernel.name, "gamma": kernel.gamma}


def _svm_to_obj(model: SvmEnsemble):
    machines = []
    for m in model.machines:
        machines.append(
            {
                "support_alphas": m.alphas[m.support_indices].tolist(),
                "bias": m.bias,
                "support_indices": m.support_indices.tolist(),
                "support_vectors": m.support_vectors.tolist(),
                "support_labels": m.support_labels.tolist(),
                "converged": m.converged,
                "n_train": m.n_train,
                "updates": m.updates,
                "kkt_gap": m.kkt_gap,
            }
        )
    return {
        "machines": machines,
        "class_count": model.class_count,
        "kernel": _kernel_to_obj(model.kernel),
        "C": model.C,
    }


def _svm_from_obj(obj) -> SvmEnsemble:
    kernel = KernelSpec(obj["kernel"]["name"], obj["kernel"]["gamma"])
    machines = []
    for m in obj["machines"]:
        support = np.asarray(m["support_indices"], dtype=np.int64)
        alphas = np.zeros(m["n_train"])
        alphas[support] = np.asarray(m["support_alphas"])
        machines.append(
            SvmBinary(
                alphas=alphas,
                bias=m["bias"],
                support_indices=support,
                support_vectors=np.asarray(m["support_vectors"], dtype=np.float64).reshape(
                    len(support), -1
                ),
                support_labels=np.asarray(m["support_labels"], dtype=np.float64),
                kernel=kernel,
                C=obj["C"],
                converged=m["converged"],
                n_train=m["n_train"],
                updates=m.get("updates"),
                kkt_gap=m.get("kkt_gap"),
            )
        )
    return SvmEnsemble(
        machines=machines, class_count=obj["class_count"], kernel=kernel, C=obj["C"]
    )


def _gbt_to_obj(model: GbtModel):
    p = model.params
    return {
        "table": _table_to_obj(model.table),
        "params": {
            "rounds": p.rounds,
            "learning_rate": p.learning_rate,
            "max_depth": p.max_depth,
            "gamma": p.gamma if not np.isinf(p.gamma) else "inf",
            "alpha": p.alpha,
            "lambda": p.reg_lambda,
            "base_score": p.base_score,
        },
        "feature_count": model.feature_count,
        "class_count": model.class_count,
        "split_counts": model.split_counts.tolist(),
        "split_gains": model.split_gains.tolist(),
        "train_loss": model.train_loss,
    }


def _gbt_from_obj(obj) -> GbtModel:
    p = obj["params"]
    params = GbtParams(
        rounds=p["rounds"],
        learning_rate=p["learning_rate"],
        max_depth=p["max_depth"],
        gamma=float("inf") if p["gamma"] == "inf" else p["gamma"],
        alpha=p["alpha"],
        reg_lambda=p["lambda"],
        base_score=p["base_score"],
    )
    feature_count, class_count = _count(obj, "feature_count"), _count(obj, "class_count")
    return GbtModel(
        table=_table_from_obj(obj["table"], params.rounds * class_count, feature_count, 3, True),
        params=params,
        feature_count=feature_count,
        class_count=class_count,
        split_counts=np.asarray(obj["split_counts"], dtype=np.int64),
        split_gains=np.asarray(obj["split_gains"], dtype=np.float64),
        train_loss=obj["train_loss"],
    )


_KINDS = {
    ForestModel: ("forest", _forest_to_obj),
    SvmEnsemble: ("svm", _svm_to_obj),
    GbtModel: ("gbt", _gbt_to_obj),
}

_LOADERS = {
    "forest": _forest_from_obj,
    "svm": _svm_from_obj,
    "gbt": _gbt_from_obj,
}


def _encode_sections(sections: dict) -> bytes:
    out = bytearray()
    out += MAGIC
    out += FORMAT_VERSION.to_bytes(2, "little")
    out += len(sections).to_bytes(2, "little")
    for name, payload in sections.items():
        encoded = name.encode("utf-8")
        out += len(encoded).to_bytes(2, "little")
        out += encoded
        out += len(payload).to_bytes(8, "little")
        out += payload
    return bytes(out)


def _decode_sections(data: bytes) -> dict:
    if data[:4] != MAGIC:
        raise ModelFormatError(f"bad model magic {data[:4]!r}")
    if len(data) < 8:
        raise ModelFormatError("model file is truncated")
    version = int.from_bytes(data[4:6], "little")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version}")
    count = int.from_bytes(data[6:8], "little")
    sections = {}
    pos = 8
    for _ in range(count):
        if pos + 2 > len(data):
            raise ModelFormatError("model file is truncated")
        name_len = int.from_bytes(data[pos : pos + 2], "little")
        pos += 2
        if pos + name_len + 8 > len(data):
            raise ModelFormatError("model file is truncated")
        try:
            name = data[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError("section name is not UTF-8") from None
        pos += name_len
        payload_len = int.from_bytes(data[pos : pos + 8], "little")
        pos += 8
        if pos + payload_len > len(data):
            raise ModelFormatError("section payload is truncated")
        sections[name] = data[pos : pos + payload_len]
        pos += payload_len
    if pos != len(data):
        raise ModelFormatError(f"{len(data) - pos} trailing bytes after last section")
    return sections


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


def serialize_model(model, provenance: dict | None = None) -> bytes:
    for kind_type, (kind, encoder) in _KINDS.items():
        if isinstance(model, kind_type):
            meta = {"kind": kind, "provenance": provenance or {}}
            return _encode_sections(
                {"meta": _canonical_json(meta), "model": _canonical_json(encoder(model))}
            )
    raise ModelFormatError(f"cannot serialize {type(model).__name__}")


def deserialize_model(data: bytes):
    """Returns (model, provenance dict)."""
    sections = _decode_sections(bytes(data))
    for required in ("meta", "model"):
        if required not in sections:
            raise ModelFormatError(f"model file lacks the {required} section")
    try:
        meta = json.loads(sections["meta"])
        obj = json.loads(sections["model"])
    except ValueError as exc:  # covers JSON syntax and non-UTF-8 payloads
        raise ModelFormatError(f"model payload is not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ModelFormatError("meta section must hold a JSON object")
    kind = meta.get("kind")
    if kind not in _LOADERS:
        raise ModelFormatError(f"unknown model kind {kind!r}")
    try:
        model = _LOADERS[kind](obj)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ModelFormatError(f"malformed {kind} model payload: {exc}") from None
    return model, meta.get("provenance", {})


def save_model(model, path, provenance: dict | None = None) -> None:
    Path(path).write_bytes(serialize_model(model, provenance))


def load_model(path):
    data = Path(path).read_bytes()
    return deserialize_model(data)
