import json

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
from wlclass.classifiers.serialize import _canonical_json, _decode_sections, _encode_sections
from wlclass.errors import ModelFormatError, WlclassError


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
        np.testing.assert_array_equal(loaded.rounds, gbt.rounds)
        for name in ("feature", "threshold", "left", "right", "value", "roots", "gain"):
            np.testing.assert_array_equal(getattr(loaded.table, name), getattr(gbt.table, name))

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
        """Random bytes anywhere, then random digits inside the payload: digit
        edits keep most files parseable, so the node table checks and predict
        see them too."""
        X, _, models = trained_models()
        base = serialize_model(models["forest"])
        digits = [i for i in range(8, len(base)) if chr(base[i]).isdigit()]
        rng = np.random.default_rng(42)
        predicted = 0
        for trial in range(400):
            raw = bytearray(base)
            for _ in range(rng.integers(1, 4)):
                if trial < 200:
                    raw[rng.integers(0, len(raw))] = rng.integers(0, 256)
                else:
                    raw[rng.choice(digits)] = ord("0") + rng.integers(0, 10)
            try:
                model, _ = deserialize_model(bytes(raw))
            except ModelFormatError:
                continue
            try:
                labels = predict(model, X)
            except WlclassError:
                continue
            assert labels.shape == (len(X),)
            assert ((labels >= 0) & (labels < model.class_count)).all()
            predicted += 1
        assert predicted > 0

    def test_version_1_forest_file(self):
        _, _, models = trained_models()
        raw = bytearray(serialize_model(models["forest"]))
        raw[4:6] = (1).to_bytes(2, "little")
        with pytest.raises(ModelFormatError, match="version 1"):
            deserialize_model(bytes(raw))

    def tampered(self, model, edit):
        """The model's file after edit(payload) changed its decoded model payload."""
        sections = _decode_sections(serialize_model(model))
        payload = json.loads(sections["model"])
        edit(payload)
        sections["model"] = _canonical_json(payload)
        return _encode_sections(sections)

    def test_child_index_pointing_backwards(self):
        _, _, models = trained_models()
        for name in ("forest", "gbt"):
            table = models[name].table
            split = int(np.flatnonzero(table.feature >= 0)[-1])

            def edit(payload):
                payload["table"]["right"][split] = split - 1

            with pytest.raises(ModelFormatError, match="child index"):
                deserialize_model(self.tampered(models[name], edit))

    def test_child_index_in_the_next_tree(self):
        _, _, models = trained_models()
        table = models["forest"].table

        def edit(payload):
            payload["table"]["left"][0] = int(table.roots[1])

        with pytest.raises(ModelFormatError, match="child index"):
            deserialize_model(self.tampered(models["forest"], edit))

    def test_out_of_range_feature(self):
        _, _, models = trained_models()
        for name, bad in (("forest", 3), ("gbt", 3), ("forest", -2)):
            split = int(np.flatnonzero(models[name].table.feature >= 0)[0])

            def edit(payload):
                payload["table"]["feature"][split] = bad

            with pytest.raises(ModelFormatError, match="feature out of range"):
                deserialize_model(self.tampered(models[name], edit))

    def test_table_shape_checks(self):
        _, _, models = trained_models()
        edits = {
            "differ in length": lambda p: p["table"]["threshold"].pop(),
            "values must be": lambda p: p["table"]["value"].pop(),
            "trees with increasing roots": lambda p: p["table"]["roots"].pop(),
            "must be a list of integers": lambda p: p["table"]["left"].__setitem__(0, 1.5),
        }
        for message, edit in edits.items():
            with pytest.raises(ModelFormatError, match=message):
                deserialize_model(self.tampered(models["forest"], edit))

    def test_unknown_kind(self):
        raw = _encode_sections(
            {"meta": _canonical_json({"kind": "mystery", "provenance": {}}),
             "model": _canonical_json({})}
        )
        with pytest.raises(ModelFormatError):
            deserialize_model(raw)
