"""Versioned self-describing model files.

Layout: magic "WLC1", u16 format version, u16 section count, then per
section [u16 name length][name utf-8][u64 payload length][payload].
Payloads are canonical JSON (sorted keys, no whitespace); floats survive
the round trip exactly because JSON emits shortest-repr decimals. The
"meta" section names the model kind and carries caller-supplied
provenance so an evaluation can state what a model was trained on.
"""

import json
from pathlib import Path

import numpy as np

from ..errors import ModelFormatError
from .forest import ForestModel
from .gbt import GbtModel, GbtParams
from .svm import KernelSpec, SvmBinary, SvmEnsemble
from .tree import TreeNode

MAGIC = b"WLC1"
FORMAT_VERSION = 1


def _node_to_obj(node: TreeNode):
    if node.is_leaf:
        leaf = {}
        if node.histogram is not None:
            leaf["hist"] = [int(c) for c in node.histogram]
        if node.weight is not None:
            leaf["w"] = node.weight
            leaf["g"] = node.g_sum
            leaf["h"] = node.h_sum
        return leaf
    obj = {
        "f": node.feature_index,
        "t": node.threshold,
        "l": _node_to_obj(node.left),
        "r": _node_to_obj(node.right),
    }
    if node.gain is not None:
        obj["gain"] = node.gain
    return obj


def _node_from_obj(obj) -> TreeNode:
    if "f" not in obj:
        return TreeNode(
            histogram=np.asarray(obj["hist"], dtype=np.int64) if "hist" in obj else None,
            weight=obj.get("w"),
            g_sum=obj.get("g"),
            h_sum=obj.get("h"),
        )
    return TreeNode(
        feature_index=obj["f"],
        threshold=obj["t"],
        left=_node_from_obj(obj["l"]),
        right=_node_from_obj(obj["r"]),
        gain=obj.get("gain"),
    )


def _forest_to_obj(model: ForestModel):
    return {
        "trees": [_node_to_obj(t) for t in model.trees],
        "n_trees": model.n_trees,
        "seed": model.seed,
        "feature_count": model.feature_count,
        "class_count": model.class_count,
        "max_depth": model.max_depth,
        "min_leaf": model.min_leaf,
        "oob_info": model.oob_info,
    }


def _forest_from_obj(obj) -> ForestModel:
    return ForestModel(
        trees=[_node_from_obj(t) for t in obj["trees"]],
        n_trees=obj["n_trees"],
        seed=obj["seed"],
        feature_count=obj["feature_count"],
        class_count=obj["class_count"],
        max_depth=obj["max_depth"],
        min_leaf=obj["min_leaf"],
        oob_info=obj["oob_info"],
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
        "rounds": [[_node_to_obj(t) for t in round_trees] for round_trees in model.rounds],
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
    return GbtModel(
        rounds=[[_node_from_obj(t) for t in rt] for rt in obj["rounds"]],
        params=params,
        feature_count=obj["feature_count"],
        class_count=obj["class_count"],
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
