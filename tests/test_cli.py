import hashlib
import json

import numpy as np
import pytest

import wlclass
from wlclass.classifiers import load_model
from wlclass.cli import (
    derive_seed,
    main,
    read_feature_set,
    read_reduction_bundle,
    write_feature_set,
    write_reduction_bundle,
)
from wlclass.dataset_io import (
    read_bundle,
    read_challenge_archive,
    write_bundle,
    write_challenge_archive,
)
from wlclass.errors import MalformedArchiveError
from wlclass.model_selection import ReductionSpec, fit_reduction
from wlclass.synth import generate_corpus, make_corpus_spec
from wlclass.windowing import WindowPolicy, build_challenge_dataset


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def run_chain(d, seed=7, threads=None):
    """synth -> window -> featurize -> train -> evaluate, small sizes."""
    extra = [] if threads is None else ["--threads", str(threads)]
    assert main(["synth", "--classes", "4", "--jobs-per-class", "6",
                 "--length-min", "60", "--length-max", "70", "--noise", "0.3",
                 "--seed", str(seed), "--out", str(d / "corpus.csv")] + extra) == 0
    assert main(["window", "--in", str(d / "corpus.csv"), "--policy", "middle",
                 "--length", "50", "--seed", str(seed),
                 "--out", str(d / "arc.npz")]) == 0
    assert main(["featurize", "--in", str(d / "arc.npz"), "--reduction", "cov",
                 "--out", str(d / "feat.npz"),
                 "--reduction-out", str(d / "red.npz")]) == 0
    assert main(["train", "--in", str(d / "feat.npz"), "--model", "rf",
                 "--n-trees", "15", "--seed", "1",
                 "--out", str(d / "model.wlc1")]) == 0
    assert main(["evaluate", "--model-path", str(d / "model.wlc1"),
                 "--in", str(d / "feat.npz"), "--out", str(d / "report.jsonl")]) == 0


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_no_arguments_is_usage(self):
        assert main([]) == 1

    def test_unknown_subcommand_is_usage(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage(self, tmp_path):
        assert main(["evaluate", "--in", str(tmp_path / "x.npz"),
                     "--out", str(tmp_path / "r.jsonl")]) == 1

    def test_bad_choice_is_usage(self, tmp_path):
        assert main(["window", "--in", "x.csv", "--policy", "sideways",
                     "--out", str(tmp_path / "a.npz")]) == 1

    def test_synth_without_output_is_usage(self):
        assert main(["synth", "--classes", "4"]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert main(["window", "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "a.npz")]) == 2

    def test_corrupt_archive_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"this is not a zip archive")
        assert main(["featurize", "--in", str(bad),
                     "--out", str(tmp_path / "f.npz")]) == 2

    def test_bad_threads_env_is_usage(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WLCLASS_THREADS", "lots")
        assert main(["synth", "--classes", "4", "--jobs-per-class", "3",
                     "--length-min", "20", "--length-max", "20",
                     "--out", str(tmp_path / "c.csv")]) == 1

    def test_threads_env_is_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WLCLASS_THREADS", "2")
        assert main(["synth", "--classes", "4", "--jobs-per-class", "3",
                     "--length-min", "20", "--length-max", "20",
                     "--out", str(tmp_path / "c.csv")]) == 0

    def test_nonconverged_svm_exits_3_unless_allowed(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((40, 6))
        labels = rng.integers(0, 2, size=40)
        feat = tmp_path / "feat.npz"
        write_feature_set(feat, features, labels, features[:8], labels[:8],
                          {"class_names": ["a", "b"], "reduction": "cov"})
        args = ["train", "--in", str(feat), "--model", "svm", "--c", "10",
                "--max-iter", "1", "--out", str(tmp_path / "m.wlc1")]
        assert main(args) == 3
        assert "2 of 2 SVM machines did not converge" in capsys.readouterr().err
        assert main(args + ["--allow-nonconverged"]) == 0


class TestConfigFile:
    def feature_set(self, tmp_path, seed=3):
        d = tmp_path
        assert main(["synth", "--classes", "4", "--jobs-per-class", "5",
                     "--length-min", "40", "--length-max", "45", "--seed", str(seed),
                     "--emit-archive", str(d / "arc.npz"), "--length", "30"]) == 0
        assert main(["featurize", "--in", str(d / "arc.npz"),
                     "--out", str(d / "feat.npz")]) == 0
        return d / "feat.npz"

    def test_config_supplies_defaults(self, tmp_path):
        feat = self.feature_set(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("# small forest\nn-trees = 7\nseed = 5\n")
        out = tmp_path / "m.wlc1"
        assert main(["train", "--in", str(feat), "--model", "rf",
                     "--config", str(cfg), "--out", str(out)]) == 0
        _, provenance = load_model(out)
        assert provenance["params"]["n_trees"] == 7
        assert provenance["seed"] == 5

    def test_explicit_flag_beats_config(self, tmp_path):
        feat = self.feature_set(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("n-trees = 7\n")
        out = tmp_path / "m.wlc1"
        assert main(["train", "--in", str(feat), "--model", "rf",
                     "--config", str(cfg), "--n-trees", "9",
                     "--out", str(out)]) == 0
        _, provenance = load_model(out)
        assert provenance["params"]["n_trees"] == 9

    def test_unknown_config_key_is_usage(self, tmp_path):
        feat = self.feature_set(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("tree-count = 7\n")
        assert main(["train", "--in", str(feat), "--model", "rf",
                     "--config", str(cfg), "--out", str(tmp_path / "m.wlc1")]) == 1

    def test_malformed_config_line_is_usage(self, tmp_path):
        feat = self.feature_set(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("just words\n")
        assert main(["train", "--in", str(feat), "--model", "rf",
                     "--config", str(cfg), "--out", str(tmp_path / "m.wlc1")]) == 1

    def test_boolean_config_toggles_store_true_flag(self, tmp_path):
        d = tmp_path
        assert main(["synth", "--classes", "4", "--jobs-per-class", "5",
                     "--length-min", "40", "--length-max", "45",
                     "--emit-archive", str(d / "arc.npz"), "--length", "30"]) == 0
        cfg = d / "feat.cfg"
        cfg.write_text("center-per-trial = true\n")
        assert main(["featurize", "--in", str(d / "arc.npz"), "--config", str(cfg),
                     "--out", str(d / "feat.npz")]) == 0
        *_, meta = read_feature_set(d / "feat.npz")
        assert meta["reduction"] == "cov,centered"


class TestPipelineArtifacts:
    def test_report_recounts_from_confusion(self, tmp_path):
        run_chain(tmp_path)
        records = read_jsonl(tmp_path / "report.jsonl")
        summary = records[0]
        assert summary["record"] == "summary"
        confusion = np.array(next(r for r in records if r["record"] == "confusion")["matrix"])
        assert summary["accuracy"] == pytest.approx(
            100.0 * np.trace(confusion) / confusion.sum()
        )
        class_records = [r for r in records if r["record"] == "class"]
        assert len(class_records) == 4
        assert confusion.sum(axis=1).tolist() == [r["support"] for r in class_records]

    def test_predict_csv_well_formed(self, tmp_path):
        run_chain(tmp_path)
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model-path", str(tmp_path / "model.wlc1"),
                     "--in", str(tmp_path / "feat.npz"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,label,class_name"
        _, _, _, y_test, meta = read_feature_set(tmp_path / "feat.npz")
        assert len(lines) == 1 + len(y_test)
        for line in lines[1:]:
            index, label, name = line.split(",")
            assert meta["class_names"][int(label)] == name

    def test_pca_k_flag_controls_feature_width(self, tmp_path):
        run_chain(tmp_path)
        out = tmp_path / "pca.npz"
        assert main(["featurize", "--in", str(tmp_path / "arc.npz"),
                     "--reduction", "pca", "--k", "4", "--out", str(out)]) == 0
        features_train, _, features_test, _, meta = read_feature_set(out)
        assert features_train.shape[1] == 4
        assert features_test.shape[1] == 4
        assert meta["reduction"] == "pca-4"

    def test_reduction_bundle_reapplies_exactly(self, tmp_path):
        run_chain(tmp_path)
        reduction = read_reduction_bundle(tmp_path / "red.npz")
        dataset = read_challenge_archive(tmp_path / "arc.npz")
        _, _, features_test, _, _ = read_feature_set(tmp_path / "feat.npz")
        np.testing.assert_array_equal(reduction.transform(dataset.x_test), features_test)

    def test_emit_archive_shortcut(self, tmp_path):
        out = tmp_path / "arc.npz"
        assert main(["synth", "--classes", "4", "--jobs-per-class", "10",
                     "--length-min", "40", "--length-max", "45", "--length", "30",
                     "--split-ratio", "0.8", "--emit-archive", str(out)]) == 0
        dataset = read_challenge_archive(out)
        assert dataset.x_train.shape[1:] == (30, 7)
        assert dataset.x_train.shape[0] == 32
        assert dataset.x_test.shape[0] == 8

    def test_manifest_records_hashes_and_seeds(self, tmp_path):
        run_chain(tmp_path, seed=11)
        manifest = json.loads((tmp_path / "model.wlc1.manifest.json").read_text())
        assert manifest["subcommand"] == "train"
        assert manifest["version"] == wlclass.__version__
        feat = str(tmp_path / "feat.npz")
        assert manifest["input_hashes"][feat] == sha256(tmp_path / "feat.npz")
        assert manifest["seeds"]["master"] == 1
        assert manifest["flags"]["n_trees"] == 15
        assert manifest["wall_clock_s"] >= 0.0

    def test_derived_seeds_are_stable_and_distinct(self):
        assert derive_seed(7, "split") == derive_seed(7, "split")
        assert derive_seed(7, "split") != derive_seed(7, "window-offset")
        assert derive_seed(7, "split") != derive_seed(8, "split")


class TestDeterminism:
    def test_same_seed_byte_identical_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        run_chain(a, seed=7)
        run_chain(b, seed=7)
        for name in ("corpus.csv", "arc.npz", "feat.npz", "model.wlc1", "report.jsonl"):
            assert sha256(a / name) == sha256(b / name), name

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "t1", tmp_path / "t4"
        a.mkdir(), b.mkdir()
        run_chain(a, seed=9, threads=1)
        run_chain(b, seed=9, threads=4)
        for name in ("corpus.csv", "arc.npz", "feat.npz", "model.wlc1", "report.jsonl"):
            assert sha256(a / name) == sha256(b / name), name


class TestGridsearchCli:
    def setup_archive(self, d):
        assert main(["synth", "--classes", "4", "--jobs-per-class", "8",
                     "--length-min", "60", "--length-max", "70", "--seed", "3",
                     "--emit-archive", str(d / "arc.npz"), "--length", "50"]) == 0
        return d / "arc.npz"

    def test_cell_records_recount(self, tmp_path):
        arc = self.setup_archive(tmp_path)
        out = tmp_path / "cv.jsonl"
        assert main(["gridsearch", "--in", str(arc), "--family", "rf",
                     "--n-trees", "3,9", "--reductions", "cov,pca-4",
                     "--folds", "3", "--out", str(out),
                     "--model-out", str(tmp_path / "best.wlc1")]) == 0
        records = read_jsonl(out)
        cells = [r for r in records if r["record"] == "cell"]
        (best,) = [r for r in records if r["record"] == "best"]
        assert len(cells) == 4
        for cell in cells:
            assert cell["mean_accuracy"] == pytest.approx(
                float(np.mean(cell["fold_accuracies"]))
            )
        means = [c["mean_accuracy"] for c in cells]
        assert best["index"] == int(np.argmax(means))
        model, provenance = load_model(tmp_path / "best.wlc1")
        assert provenance["cv_mean_accuracy"] == pytest.approx(max(means))


class TestReproduceCli:
    def make_archive(self, path, seed):
        spec = make_corpus_spec(["a", "b", "c"], [6, 6, 6], seed=seed,
                                noise=0.3, length_range=(60, 70))
        dataset = build_challenge_dataset(
            generate_corpus(spec), WindowPolicy("middle", length=50),
            split_ratio=0.8, split_seed=0,
        )
        write_challenge_archive(dataset, path)

    def test_partial_table_and_delta_recount(self, tmp_path):
        self.make_archive(tmp_path / "m1.npz", seed=1)
        self.make_archive(tmp_path / "r1.npz", seed=2)
        manifest = tmp_path / "archives.json"
        manifest.write_text(json.dumps({
            "60-middle-1": str(tmp_path / "m1.npz"),
            "60-random-1": str(tmp_path / "r1.npz"),
        }))
        out = tmp_path / "table.jsonl"
        assert main(["reproduce", "--manifest", str(manifest), "--families", "rf",
                     "--rf-trees", "3", "--pca-ks", "4", "--folds", "2",
                     "--out", str(out)]) == 0
        records = read_jsonl(out)
        missing = [r["dataset"] for r in records if r["record"] == "missing"]
        assert sorted(missing) == sorted(
            ["60-start-1", "60-random-2", "60-random-3", "60-random-4", "60-random-5"]
        )
        cells = [r for r in records if r["record"] == "cell"]
        assert len(cells) == 4  # 2 variants x 2 datasets
        for cell in cells:
            assert 0.0 <= cell["accuracy"] <= 100.0
            if cell["reference"] is not None:
                assert cell["delta"] == pytest.approx(
                    cell["accuracy"] - cell["reference"]
                )

    def test_strict_mode_requires_all_archives(self, tmp_path):
        self.make_archive(tmp_path / "m1.npz", seed=1)
        manifest = tmp_path / "archives.json"
        manifest.write_text(json.dumps({"60-middle-1": str(tmp_path / "m1.npz")}))
        assert main(["reproduce", "--manifest", str(manifest), "--strict",
                     "--out", str(tmp_path / "t.jsonl")]) == 2

    def test_bad_manifest_is_data_error(self, tmp_path):
        manifest = tmp_path / "archives.json"
        manifest.write_text("[1, 2, 3]")
        assert main(["reproduce", "--manifest", str(manifest),
                     "--out", str(tmp_path / "t.jsonl")]) == 2
        manifest.write_text("{broken")
        assert main(["reproduce", "--manifest", str(manifest),
                     "--out", str(tmp_path / "t.jsonl")]) == 2
        assert main(["reproduce", "--manifest", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "t.jsonl")]) == 1


class TestCorruptFeatureSets:
    def test_evaluate_on_mutated_feature_sets_exits_2(self, tmp_path, capsys):
        run_chain(tmp_path)
        original = read_feature_set(tmp_path / "feat.npz")
        base = (tmp_path / "feat.npz").read_bytes()
        directory = int.from_bytes(base[-6:-2], "little")
        mutant = tmp_path / "mutant.npz"
        args = ["evaluate", "--model-path", str(tmp_path / "model.wlc1"),
                "--in", str(mutant), "--out", str(tmp_path / "mutant.jsonl")]
        rng = np.random.default_rng(29)
        codes = []
        # half the mutants anywhere, half confined to the central directory
        for start in [0, directory] * 150:
            raw = bytearray(base)
            for _ in range(rng.integers(1, 4)):
                raw[rng.integers(start, len(raw))] = rng.integers(0, 256)
            mutant.write_bytes(bytes(raw))
            code = main(args)
            if code == 0:  # only bytes the reader never looks at changed
                *arrays, meta = read_feature_set(mutant)
                assert all(map(np.array_equal, arrays, original[:4])) and meta == original[4]
            else:
                assert code == 2
            codes.append(code)
        assert codes.count(2) >= 150
        capsys.readouterr()


    def test_empty_splits_are_data_errors(self, tmp_path, capsys):
        feat = tmp_path / "feat.npz"
        rows, labels = np.ones((3, 4)), np.array([0, 1, 0])
        write_feature_set(feat, rows[:0], labels[:0], rows, labels, {"reduction": "cov"})
        assert main(["train", "--in", str(feat), "--model", "rf",
                     "--out", str(tmp_path / "m.wlc1")]) == 2
        write_feature_set(feat, rows, labels, rows[:0], labels[:0], {"reduction": "cov"})
        assert main(["train", "--in", str(feat), "--model", "rf", "--n-trees", "2",
                     "--out", str(tmp_path / "m.wlc1")]) == 0
        assert main(["evaluate", "--model-path", str(tmp_path / "m.wlc1"), "--in", str(feat),
                     "--out", str(tmp_path / "r.jsonl")]) == 2
        capsys.readouterr()


class TestReductionBundleValidation:
    """Every inconsistent bundle is a MalformedArchiveError, never a later crash."""

    @pytest.fixture
    def parts(self, tmp_path):
        x = np.random.default_rng(4).normal(size=(12, 6, 7))
        path = tmp_path / "red.npz"
        write_reduction_bundle(path, fit_reduction(ReductionSpec("pca", k=3), x))
        bundle = read_bundle(path, ("means", "stds", "constant", "pca_mean",
                                    "pca_components", "pca_variance", "meta"))
        meta = bundle.pop("meta")
        assert read_reduction_bundle(path).transform(x).shape == (12, 3)
        return bundle, meta

    def rejects(self, tmp_path, arrays, meta):
        path = tmp_path / "bad.npz"
        write_bundle(path, arrays, meta)
        with pytest.raises(MalformedArchiveError):
            read_reduction_bundle(path)

    def test_meta_not_an_object(self, tmp_path, parts):
        arrays, _ = parts
        for meta in ([1, 2], "pca", 3):
            self.rejects(tmp_path, arrays, meta)

    def test_pca_mean_length_differs_from_component_width(self, tmp_path, parts):
        arrays, meta = parts
        self.rejects(tmp_path, {**arrays, "pca_mean": arrays["pca_mean"][:-1]}, meta)

    def test_pca_components_not_two_dimensional(self, tmp_path, parts):
        arrays, meta = parts
        components = arrays["pca_components"]
        for bad in (components.ravel(), components[None], components[0, 0]):
            self.rejects(tmp_path, {**arrays, "pca_components": bad}, meta)

    @pytest.mark.parametrize("key", ["means", "stds", "constant", "pca_variance"])
    def test_vector_lengths_disagree(self, tmp_path, parts, key):
        arrays, meta = parts
        self.rejects(tmp_path, {**arrays, key: arrays[key][:-1]}, meta)
        self.rejects(tmp_path, {**arrays, key: np.append(arrays[key], arrays[key][:1])}, meta)

    def test_bad_kind_or_k(self, tmp_path, parts):
        arrays, meta = parts
        for changes in ({"kind": "svd"}, {"kind": None}, {"k": 0}, {"k": "3"}, {"k": 3.0},
                        {"k": True}, {"k": None}, {"k": 2}, {"kind": "cov"},
                        {"kind": "cov", "k": None}):
            self.rejects(tmp_path, arrays, {**meta, **changes})
        cov_arrays = {key: arrays[key] for key in ("means", "stds", "constant")}
        self.rejects(tmp_path, cov_arrays, meta)  # kind pca without its members
        self.rejects(tmp_path, cov_arrays, {**meta, "k": 3.5, "kind": "cov"})
