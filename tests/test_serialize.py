import io

import numpy as np
import pytest

from wlclass.classifiers import (
    GbtParams,
    KernelSpec,
    deserialize_model,
    kernel_matrix,
    load_model,
    predict,
    save_model,
    serialize_model,
    train_forest,
    train_gbt,
    train_svm_multiclass,
)
from wlclass.classifiers.serialize import _MEMBERS
from wlclass.classifiers.svm import _solve_dual
from wlclass.dataset_io import read_bundle, write_bundle
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


def binary_machines(X, y):
    """The one-vs-rest machines of trained_models' SVM, one _solve_dual each:
    (signs, alpha, bias, SolverRecord) per class."""
    K = kernel_matrix(KernelSpec("linear"), X, X)
    signs = [np.where(y == c, 1, -1) for c in range(3)]
    return [(s, *_solve_dual(K, s, 1.0, 1e-3, 2000)) for s in signs]


def unbundle(raw):
    """(arrays, meta) of a model file."""
    bundle = read_bundle(io.BytesIO(raw), ("meta",), sorted(set().union(*_MEMBERS.values())))
    meta = bundle.pop("meta")
    return {name: arr.copy() for name, arr in bundle.items()}, meta


def rebundle(arrays, meta):
    buffer = io.BytesIO()
    write_bundle(buffer, arrays, meta)
    return buffer.getvalue()


def wlc1_file(version):
    """A section file of the retired WLC1 container: magic, version, no sections."""
    return b"WLC1" + version.to_bytes(2, "little") + (0).to_bytes(2, "little")


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

    def test_bytes_stable_across_save_load_save(self, tmp_path):
        _, _, models = trained_models()
        for name, model in models.items():
            raw = serialize_model(model, provenance={"seed": 3})
            loaded, _ = deserialize_model(raw)
            assert serialize_model(loaded, provenance={"seed": 3}) == raw
            save_model(loaded, tmp_path / name, provenance={"seed": 3})
            assert (tmp_path / name).read_bytes() == raw

    def test_exact_float_round_trip(self):
        X, y, models = trained_models()
        gbt = models["gbt"]
        loaded, provenance = deserialize_model(serialize_model(gbt, {"family": "gbt"}))
        np.testing.assert_array_equal(loaded.split_gains, gbt.split_gains)
        np.testing.assert_array_equal(loaded.split_counts, gbt.split_counts)
        np.testing.assert_array_equal(loaded.rounds, gbt.rounds)
        assert loaded.train_loss == gbt.train_loss and loaded.params == gbt.params
        assert provenance == {"family": "gbt"}
        for model in (gbt, models["forest"]):
            loaded, _ = deserialize_model(serialize_model(model))
            for name in ("feature", "threshold", "left", "right", "value", "roots", "gain"):
                a, b = getattr(loaded.table, name), getattr(model.table, name)
                assert (a is None) == (b is None)
                if a is not None:
                    np.testing.assert_array_equal(a, b)
                    assert a.dtype == b.dtype

    def test_svm_alphas_reconstructed(self):
        """Column c of the ensemble is the binary machine of class c against the rest."""
        X, y, models = trained_models()
        svm = models["svm"]
        loaded, _ = deserialize_model(serialize_model(svm))
        assert loaded.kernel == svm.kernel and loaded.C == svm.C
        assert loaded.class_count == svm.class_count
        machines = binary_machines(X, y)
        for model in (svm, loaded):
            for c, (machine, record) in enumerate(zip(machines, model.machines, strict=True)):
                signs, alpha, bias, expected = machine
                support = np.nonzero(alpha > 0.0)[0]
                on = model.coef[:, c] != 0
                np.testing.assert_array_equal(alpha[support], np.abs(model.coef[on, c]))
                np.testing.assert_array_equal(support, model.support_rows[on])
                np.testing.assert_array_equal(X[support], model.support_vectors[on])
                np.testing.assert_array_equal(signs[support], np.sign(model.coef[on, c]))
                assert bias == model.bias[c] and record == expected
                assert len(y) == model.n_train

    def test_magic_starts_file(self, tmp_path):
        """A model file is a bundle: its first member's header opens it."""
        _, _, models = trained_models()
        path = tmp_path / "model.wlc"
        save_model(models["forest"], path)
        assert path.read_bytes()[:4] == b"PK\x03\x04"
        bundle = read_bundle(path, ("meta", *_MEMBERS["forest"]))
        assert bundle["meta"]["format"] == 4 and bundle["meta"]["kind"] == "forest"

    def test_svm_stores_each_support_row_once(self):
        _, _, models = trained_models()
        svm = models["svm"]
        arrays, meta = unbundle(serialize_model(svm))
        X, y = sample_problem()
        supports = [np.nonzero(alpha > 0.0)[0] for _, alpha, _, _ in binary_machines(X, y)]
        distinct = np.unique(np.concatenate(supports))
        np.testing.assert_array_equal(arrays["support_rows"], distinct)
        assert arrays["support_vectors"].shape == (len(distinct), 3)
        assert arrays["support_coef"].shape == (len(distinct), svm.class_count)
        assert meta["n_train"] == svm.n_train == len(y)


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
        for extra in (b"extra", b"\x00" * 22, raw):
            with pytest.raises(ModelFormatError, match="not exactly one model bundle"):
                deserialize_model(raw + extra)

    def test_leading_garbage(self):
        _, _, models = trained_models()
        raw = serialize_model(models["svm"])
        for extra in (b"junk", raw[:30], raw):
            with pytest.raises(ModelFormatError):
                deserialize_model(extra + raw)

    def test_unsupported_version(self):
        _, _, models = trained_models()
        arrays, meta = unbundle(serialize_model(models["forest"]))
        for version in (99, 2, None, "4"):
            with pytest.raises(ModelFormatError, match="unsupported model format"):
                deserialize_model(rebundle(arrays, {**meta, "format": version}))
        del meta["format"]
        with pytest.raises(ModelFormatError, match="unsupported model format"):
            deserialize_model(rebundle(arrays, meta))

    def test_format_3_file_says_retrain(self):
        """A format-3 SVM file (support rows per machine, n_train per machine)
        is refused by its format number and told to retrain."""
        n = 4
        arrays = {"support_indices": np.arange(n), "support_alphas": np.full(n, 0.5),
                  "support_labels": np.array([1.0, -1.0, -1.0, 1.0]),
                  "support_vectors": np.zeros((n, 3)), "support_counts": np.array([2, 2]),
                  "bias": np.zeros(2), "converged": np.ones(2, np.int64),
                  "updates": np.ones(2, np.int64), "kkt_gap": np.zeros(2),
                  "n_train": np.full(2, n)}
        meta = {"format": 3, "kind": "svm", "provenance": {}, "class_count": 2,
                "kernel": {"name": "linear", "gamma": None}, "C": 1.0}
        with pytest.raises(ModelFormatError, match="format 3.*retrain"):
            deserialize_model(rebundle(arrays, meta))

    def test_version_1_forest_file(self):
        with pytest.raises(ModelFormatError, match="WLC1"):
            deserialize_model(wlc1_file(1))

    def test_version_2_wlc1_file(self):
        with pytest.raises(ModelFormatError, match="WLC1 section container"):
            deserialize_model(wlc1_file(2) + b"\x04\x00meta" + (2).to_bytes(8, "little") + b"{}")

    def test_mutation_fuzz_total(self):
        """Random bytes anywhere in a forest file, then random edits of single
        array entries, re-bundled, for every model kind: edited files mostly
        still parse, so the member checks and predict see them too."""
        X, _, models = trained_models()
        base = serialize_model(models["forest"])
        rng = np.random.default_rng(42)
        mutants = []
        for _ in range(200):
            raw = bytearray(base)
            for _ in range(rng.integers(1, 4)):
                raw[rng.integers(0, len(raw))] = rng.integers(0, 256)
            mutants.append(bytes(raw))
        for model in models.values():
            arrays, meta = unbundle(serialize_model(model))
            names = sorted(arrays)
            for _ in range(100):
                edited = {name: arr.copy() for name, arr in arrays.items()}
                for _ in range(rng.integers(1, 3)):
                    arr = edited[names[rng.integers(len(names))]]
                    if arr.size == 0:
                        continue
                    at = tuple(rng.integers(0, n) for n in arr.shape)
                    if arr.dtype.kind == "i":
                        arr[at] = rng.integers(-2, max(int(arr.max()), 1) + 3)
                    else:
                        arr[at] = rng.choice([0.0, -1.0, 1.0, 2 * arr[at], rng.normal(),
                                              np.nan, np.inf])
                mutants.append(rebundle(edited, meta))
        predicted = 0
        for raw in mutants:
            try:
                model, _ = deserialize_model(raw)
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

    def tampered(self, model, edit):
        """The model's file after edit(arrays, meta) changed its members."""
        arrays, meta = unbundle(serialize_model(model))
        edit(arrays, meta)
        return rebundle(arrays, meta)

    def test_child_index_pointing_backwards(self):
        _, _, models = trained_models()
        for name in ("forest", "gbt"):
            table = models[name].table
            split = int(np.flatnonzero(table.feature >= 0)[-1])

            def edit(arrays, meta):
                arrays["right"][split] = split - 1

            with pytest.raises(ModelFormatError, match="child index"):
                deserialize_model(self.tampered(models[name], edit))

    def test_child_index_in_the_next_tree(self):
        _, _, models = trained_models()
        table = models["forest"].table

        def edit(arrays, meta):
            arrays["left"][0] = int(table.roots[1])

        with pytest.raises(ModelFormatError, match="child index"):
            deserialize_model(self.tampered(models["forest"], edit))

    def test_out_of_range_feature(self):
        _, _, models = trained_models()
        for name, bad in (("forest", 3), ("gbt", 3), ("forest", -2)):
            split = int(np.flatnonzero(models[name].table.feature >= 0)[0])

            def edit(arrays, meta):
                arrays["feature"][split] = bad

            with pytest.raises(ModelFormatError, match="feature out of range"):
                deserialize_model(self.tampered(models[name], edit))

    def test_table_shape_checks(self):
        _, _, models = trained_models()
        edits = {
            "differ in length": lambda a: a.update(threshold=a["threshold"][:-1]),
            "values must be": lambda a: a.update(value=a["value"][:, :-1]),
            "trees with increasing roots": lambda a: a.update(roots=a["roots"][::-1]),
            "must be a 1-D integer array": lambda a: a.update(left=a["left"] + 0.5),
            "must be a 2-D integer array": lambda a: a.update(value=a["value"].ravel()),
        }
        for message, edit in edits.items():
            with pytest.raises(ModelFormatError, match=message):
                deserialize_model(self.tampered(models["forest"], lambda a, m: edit(a)))

    def test_gbt_importance_and_loss_lengths(self):
        """train_loss needs one entry per round; importance is not stored but
        read off the table, so an edited split feature moves it."""
        _, _, models = trained_models()
        gbt = models["gbt"]
        with pytest.raises(ModelFormatError, match="one entry per"):
            deserialize_model(self.tampered(
                gbt, lambda a, m: a.update(train_loss=a["train_loss"][:-1])))
        split = int(np.flatnonzero(gbt.table.feature >= 0)[0])
        moved = (int(gbt.table.feature[split]) + 1) % 3
        loaded, _ = deserialize_model(self.tampered(gbt, set_entry("feature", split, moved)))
        counts = gbt.split_counts.copy()
        counts[gbt.table.feature[split]] -= 1
        counts[moved] += 1
        np.testing.assert_array_equal(loaded.split_counts, counts)

    @pytest.mark.parametrize("name, value", [
        ("seed", "x"), ("seed", -1), ("max_depth", -5), ("max_depth", 2.0),
        ("min_leaf", 2.5), ("min_leaf", 0)])
    def test_forest_limits_and_seed_checked(self, name, value):
        _, _, models = trained_models()
        with pytest.raises(ModelFormatError, match=name):
            deserialize_model(self.tampered(models["forest"], set_meta((name,), value)))

    def test_forest_without_depth_limit_loads(self):
        X, y = sample_problem()
        forest = train_forest(X, y, n_trees=2, seed=3, max_depth=None, min_leaf=2)
        loaded, _ = deserialize_model(serialize_model(forest))
        assert (loaded.seed, loaded.max_depth, loaded.min_leaf) == (3, None, 2)

    def test_unknown_kind(self):
        _, _, models = trained_models()
        for kind in ("mystery", None, ["forest"]):
            with pytest.raises(ModelFormatError, match="unknown model kind"):
                deserialize_model(self.tampered(
                    models["forest"], lambda a, m: m.update(kind=kind)))
        with pytest.raises(ModelFormatError, match="needs members"):
            deserialize_model(self.tampered(models["forest"], lambda a, m: m.update(kind="gbt")))
        with pytest.raises(ModelFormatError, match="needs members"):
            deserialize_model(self.tampered(models["forest"], lambda a, m: a.pop("roots")))


def set_entry(name, index, value):
    def edit(arrays, meta):
        arrays[name][index] = value
    return edit


def replace(name, make):
    def edit(arrays, meta):
        arrays[name] = make(arrays[name])
    return edit


def set_meta(path, value):
    def edit(arrays, meta):
        *outer, last = path
        target = meta
        for key in outer:
            target = target[key]
        target[last] = value
    return edit


def one_machine(arrays, meta):
    """Keep only the first machine, for one class, and the rows it uses."""
    used = arrays["support_coef"][:, 0] != 0
    for name in ("support_rows", "support_vectors"):
        arrays[name] = arrays[name][used]
    arrays["support_coef"] = arrays["support_coef"][used, :1]
    for name in ("bias", "converged", "updates", "kkt_gap"):
        arrays[name] = arrays[name][:1]
    meta["class_count"] = 1


def unused_row(arrays, meta):
    """Zero every machine's coefficient at the first support row."""
    arrays["support_coef"][0] = 0.0


def zero_alpha(arrays, meta):
    """Zero the one alpha of a support row that a single machine uses."""
    coef = arrays["support_coef"]
    row = np.flatnonzero((coef != 0).sum(axis=1) == 1)[0]
    coef[row] = 0.0


class TestSvmValidation:
    """Every inconsistent SVM file is a ModelFormatError at load, never a
    later crash or a silently wrong model."""

    CASES = {
        "labels one short": replace("support_coef", lambda a: a[:-1]),  # coef is alpha * y
        "coef one machine short": replace("support_coef", lambda a: a[:, :-1]),
        "coef not a matrix": replace("support_coef", lambda a: a.ravel()),
        "vectors not a matrix": replace("support_vectors", lambda a: a.ravel()),
        "vectors of a third axis": replace("support_vectors", lambda a: a[:, :, None]),
        "vectors one row short": replace("support_vectors", lambda a: a[:-1]),
        "non-finite vector": set_entry("support_vectors", (0, 0), np.nan),
        "bias not a number": replace("bias", lambda a: np.array([b"x"] * len(a))),
        "infinite bias": set_entry("bias", 0, np.inf),
        "no machines": lambda a, m: a.update(
            support_coef=a["support_coef"][:, :0],
            **{name: a[name][:0] for name in ("bias", "converged", "updates", "kkt_gap")}),
        "one class": set_meta(("class_count",), 1),
        "one machine for one class": one_machine,
        "more classes than machines": set_meta(("class_count",), 4),
        "negative support index": set_entry("support_rows", 0, -1),
        "support index past n_train": replace("support_rows", lambda a: a + 45),
        "support indices not increasing": set_entry("support_rows", 1, 0),
        "support indices not integers": replace("support_rows", lambda a: a + 0.0),
        "zero alpha": zero_alpha,
        "alpha above C": set_entry("support_coef", (0, 0), 1.5),
        "coef below -C": set_entry("support_coef", (0, 0), -1.5),
        "NaN coef": set_entry("support_coef", (0, 0), np.nan),
        "infinite coef": set_entry("support_coef", (0, 0), -np.inf),
        "row no machine uses": unused_row,
        "converged of 2": set_entry("converged", 0, 2),
        "negative updates": set_entry("updates", 0, -1),
        "negative n_train": set_meta(("n_train",), -1),
        "n_train zero": set_meta(("n_train",), 0),
        "n_train text": set_meta(("n_train",), "45"),
        "n_train missing": lambda a, m: m.pop("n_train"),
        "per-machine member one short": replace("kkt_gap", lambda a: a[:-1]),
        "gamma null on rbf": set_meta(("kernel", "gamma"), None),
        "gamma text": set_meta(("kernel", "gamma"), "x"),
        "gamma negative": set_meta(("kernel", "gamma"), -0.5),
        "unknown kernel": set_meta(("kernel", "name"), "poly"),
        "kernel not an object": set_meta(("kernel",), "rbf"),
        "non-positive C": set_meta(("C",), 0.0),
        "C text": set_meta(("C",), "1"),
        "class_count missing": lambda a, m: m.pop("class_count"),
    }

    @pytest.fixture(scope="class")
    def parts(self):
        X, y = sample_problem()
        svm = train_svm_multiclass(X, y, C=1.0, kernel=KernelSpec("rbf", 0.5))
        assert ((svm.coef != 0).sum(axis=0) >= 2).all()  # every machine has 2+ support rows
        return unbundle(serialize_model(svm))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_at_load(self, parts, case):
        arrays, meta = parts
        arrays = {name: arr.copy() for name, arr in arrays.items()}
        meta = {**meta, "kernel": dict(meta["kernel"])}
        self.CASES[case](arrays, meta)
        with pytest.raises(ModelFormatError):
            deserialize_model(rebundle(arrays, meta))

    def test_huge_n_train_allocates_nothing(self, parts):
        """n_train only bounds the support indices: a file claiming 2**40
        training rows loads, with no array of that size, and predicts as before."""
        arrays, meta = parts
        original = deserialize_model(rebundle(arrays, meta))[0]
        loaded = deserialize_model(rebundle(arrays, {**meta, "n_train": 2**40}))[0]
        assert loaded.n_train == 2**40
        X, _ = sample_problem(seed=3)
        np.testing.assert_array_equal(predict(loaded, X), predict(original, X))

    def test_linear_kernel_with_gamma(self):
        _, _, models = trained_models()
        arrays, meta = unbundle(serialize_model(models["svm"]))
        meta["kernel"]["gamma"] = 0.5
        with pytest.raises(ModelFormatError):
            deserialize_model(rebundle(arrays, meta))
