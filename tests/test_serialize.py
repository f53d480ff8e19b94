import numpy as np
import pytest

from wlclass.classifiers import (
    GbtParams,
    KernelSpec,
    deserialize_model,
    load_model,
    predict,
    save_model,
    serialize_model,
    train_forest,
    train_gbt,
    train_svm_multiclass,
)
from wlclass.errors import ModelFormatError


def sample_problem(seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(c, 0.6, size=(15, 3)) for c in (0.0, 4.0, 8.0)])
    y = np.repeat(np.arange(3), 15)
    return X, y


def trained_models():
    X, y = sample_problem()
    return X, y, {
        "forest": train_forest(X, y, n_trees=5, seed=1),
        "svm": train_svm_multiclass(X, y, C=1.0, kernel=KernelSpec("linear")),
        "gbt": train_gbt(X, y, GbtParams(rounds=3)),
    }


class TestRoundTrip:
    def test_predictions_survive_round_trip(self, tmp_path):
        X, y, models = trained_models()
        queries = np.random.default_rng(2).normal(4, 3, size=(30, 3))
        for name, model in models.items():
            path = tmp_path / f"{name}.wlc"
            save_model(model, path, provenance={"dataset": "unit", "features": "raw"})
            loaded, provenance = load_model(path)
            np.testing.assert_array_equal(predict(model, queries), predict(loaded, queries))
            assert provenance == {"dataset": "unit", "features": "raw"}

    def test_bytes_stable_across_save_load_save(self):
        _, _, models = trained_models()
        for model in models.values():
            raw = serialize_model(model)
            loaded, _ = deserialize_model(raw)
            assert serialize_model(loaded) == raw

    def test_exact_float_round_trip(self):
        X, y, models = trained_models()
        gbt = models["gbt"]
        loaded, _ = deserialize_model(serialize_model(gbt))
        np.testing.assert_array_equal(loaded.split_gains, gbt.split_gains)
        for a_round, b_round in zip(gbt.rounds, loaded.rounds):
            for a, b in zip(a_round, b_round):
                stack = [(a, b)]
                while stack:
                    na, nb = stack.pop()
                    if na.is_leaf:
                        assert nb.is_leaf and na.weight == nb.weight
                        assert na.g_sum == nb.g_sum and na.h_sum == nb.h_sum
                    else:
                        assert na.threshold == nb.threshold and na.gain == nb.gain
                        stack.append((na.left, nb.left))
                        stack.append((na.right, nb.right))

    def test_svm_alphas_reconstructed(self):
        X, y, models = trained_models()
        svm = models["svm"]
        loaded, _ = deserialize_model(serialize_model(svm))
        for a, b in zip(svm.machines, loaded.machines):
            np.testing.assert_array_equal(a.alphas, b.alphas)
            np.testing.assert_array_equal(a.support_vectors, b.support_vectors)
            assert a.bias == b.bias and a.converged == b.converged
            assert a.updates == b.updates and a.kkt_gap == b.kkt_gap

    def test_svm_file_without_solver_diagnostics_loads(self):
        import json

        from wlclass.classifiers.serialize import (
            _canonical_json,
            _decode_sections,
            _encode_sections,
        )

        _, _, models = trained_models()
        sections = _decode_sections(serialize_model(models["svm"]))
        payload = json.loads(sections["model"])
        for machine in payload["machines"]:
            del machine["updates"], machine["kkt_gap"]
        sections["model"] = _canonical_json(payload)
        loaded, _ = deserialize_model(_encode_sections(sections))
        assert all(m.updates is None and m.kkt_gap is None for m in loaded.machines)
        assert loaded.converged

    def test_magic_starts_file(self, tmp_path):
        _, _, models = trained_models()
        path = tmp_path / "model.wlc"
        save_model(models["forest"], path)
        assert path.read_bytes()[:4] == b"WLC1"


class TestMalformedModelFiles:
    def test_bad_magic(self):
        with pytest.raises(ModelFormatError):
            deserialize_model(b"NOPE" + b"\x00" * 32)

    def test_truncations(self):
        _, _, models = trained_models()
        raw = serialize_model(models["gbt"])
        for cut in (3, 6, 10, len(raw) // 2, len(raw) - 1):
            with pytest.raises(ModelFormatError):
                deserialize_model(raw[:cut])

    def test_trailing_garbage(self):
        _, _, models = trained_models()
        raw = serialize_model(models["forest"])
        with pytest.raises(ModelFormatError):
            deserialize_model(raw + b"extra")

    def test_unsupported_version(self):
        _, _, models = trained_models()
        raw = bytearray(serialize_model(models["forest"]))
        raw[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(ModelFormatError):
            deserialize_model(bytes(raw))

    def test_mutation_fuzz_total(self):
        _, _, models = trained_models()
        base = serialize_model(models["forest"])
        rng = np.random.default_rng(42)
        for _ in range(200):
            raw = bytearray(base)
            for _ in range(rng.integers(1, 4)):
                raw[rng.integers(0, len(raw))] = rng.integers(0, 256)
            try:
                deserialize_model(bytes(raw))
            except ModelFormatError:
                pass

    def test_unknown_kind(self):
        from wlclass.classifiers.serialize import _canonical_json, _encode_sections

        raw = _encode_sections(
            {"meta": _canonical_json({"kind": "mystery", "provenance": {}}),
             "model": _canonical_json({})}
        )
        with pytest.raises(ModelFormatError):
            deserialize_model(raw)
