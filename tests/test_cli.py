import hashlib
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import wlclass
from wlclass.classifiers import load_model
from wlclass.cli import (
    PARAM_FLAGS,
    REPRODUCE_PARAM_FLAGS,
    build_parser,
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
from wlclass.model_selection import (
    FAMILY_PARAMS,
    GridPipeline,
    ReductionSpec,
    evaluate_pipeline,
    fit_reduction,
)
from wlclass.synth import generate_corpus, make_corpus_spec
from wlclass.windowing import WindowPolicy, build_challenge_dataset


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def run_chain(d, seed=7):
    """synth -> window -> featurize -> train -> evaluate, small sizes."""
    assert main(["synth", "--classes", "4", "--jobs-per-class", "6",
                 "--length-min", "60", "--length-max", "70", "--noise", "0.3",
                 "--seed", str(seed), "--out", str(d / "corpus.csv")]) == 0
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


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    d = tmp_path_factory.mktemp("chain")
    run_chain(d)
    return d


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_readme_commands_parse(self):
        """Every wlclass command of the README's sh blocks, continuations
        joined, parses, so a flag deleted but still documented fails here."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        parser, _ = build_parser()
        commands = [shlex.split(line)[1:]
                    for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                    for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("wlclass ")]
        assert len(commands) >= 9
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: wlclass {shlex.join(argv)}")

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

    @pytest.mark.parametrize("argv", [
        ["featurize", "--reduction", "cov"],
        ["featurize", "--reduction", "pca-3"],
        ["gridsearch", "--family", "rf", "--n-trees", "2", "--folds", "2", "--reductions", "cov"],
        ["gridsearch", "--family", "rf", "--n-trees", "2", "--folds", "2", "--reductions", "pca-2"],
    ], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
    def test_nonfinite_reading_is_data_error(self, chain, tmp_path, capsys, argv):
        """A NaN reading in every training window reaches each reduction's fit,
        on the whole split and on every fold, and exits 2 for both kinds."""
        dataset = read_challenge_archive(chain / "arc.npz")
        dataset.x_train = dataset.x_train.copy()
        dataset.x_train[:, 3, 1] = np.nan
        write_challenge_archive(dataset, tmp_path / "nan.npz")
        out = tmp_path / "out"
        assert main([*argv, "--in", str(tmp_path / "nan.npz"), "--out", str(out)]) == 2
        assert "data error" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [
        ["synth", "--classes", "4", "--jobs-per-class", "3", "--length-min", "20",
         "--length-max", "20"],
        ["window", "--in", "{d}/corpus.csv", "--policy", "random"],
        ["gridsearch", "--in", "{d}/arc.npz", "--family", "rf", "--n-trees", "2",
         "--folds", "2"],
        ["reproduce", "--manifest", "{t}/archives.json", "--families", "rf",
         "--rf-trees", "2", "--pca-ks", "4", "--folds", "2"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_usage(self, chain, tmp_path, capsys, argv):
        """Every stage seeds a SeedSequence, which takes no negative seed."""
        (tmp_path / "archives.json").write_text(json.dumps({"60-middle-1": str(chain / "arc.npz")}))
        out = tmp_path / "out"
        argv = [arg.format(d=chain, t=tmp_path) for arg in argv]
        assert main([*argv, "--seed", "-1", "--out", str(out)]) == 1
        assert "usage error: --seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["reproduce", "--manifest", "{t}/archives.json", "--svm-c", "-1"], "C must be"),
        (["reproduce", "--manifest", "{t}/archives.json", "--families", "rf", "--svm-c", "-1"],
         "C must be"),
        (["reproduce", "--manifest", "{t}/archives.json", "--families", "gbt",
          "--pca-ks", "4,x"], "'4,x'"),
        (["reproduce", "--manifest", "{t}/archives.json", "--folds", "1"], "--folds"),
        (["gridsearch", "--in", "{t}/missing.npz", "--family", "rf", "--reductions", "bogus"],
         "'bogus'"),
        (["gridsearch", "--in", "{t}/missing.npz", "--family", "rf", "--reductions", ","],
         "reduction grid must be non-empty"),
        (["gridsearch", "--in", "{t}/missing.npz", "--family", "rf", "--folds", "1"],
         "--folds"),
        (["train", "--in", "{t}/missing.npz", "--model", "svm", "--kernel", "linear",
          "--rbf-gamma", "0.5"], "linear kernel takes no gamma"),
    ], ids=["reproduce-svm-c", "reproduce-other-family", "reproduce-pca-ks",
            "reproduce-folds", "gridsearch-reduction", "gridsearch-no-reduction",
            "gridsearch-folds", "train-kernel-gamma"])
    def test_flags_are_checked_before_any_input_opens(self, tmp_path, monkeypatch, capsys,
                                                      argv, message):
        """Every family's grid and every list flag is a usage error before the
        manifest, archive or feature set is opened, whichever family runs."""
        def opened(path):
            raise AssertionError(f"{path} opened before the flags were checked")

        for reader in ("_load_manifest_paths", "read_challenge_archive", "read_feature_set"):
            monkeypatch.setattr(f"wlclass.cli.{reader}", opened)
        out = tmp_path / "out"
        assert main([*(arg.format(t=tmp_path) for arg in argv), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error: " in err and message in err
        assert not out.exists()


class TestFileErrors:
    """A path the OS refuses is a data error (exit 2), never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["train", "--in", "{d}/feat.npz", "--model", "rf", "--n-trees", "2",
         "--out", "{d}/no/such/m.wlc1"],
        ["evaluate", "--model-path", "{d}/model.wlc1", "--in", "{d}/feat.npz",
         "--out", "{d}/no/such/r.jsonl"],
        ["predict", "--model-path", "{d}/model.wlc1", "--in", "{d}/feat.npz",
         "--out", "{d}/no/such/p.csv"],
        ["gridsearch", "--in", "{d}/arc.npz", "--family", "rf", "--n-trees", "2",
         "--folds", "2", "--out", "{d}/no/such/cv.jsonl"],
        ["synth", "--classes", "4", "--jobs-per-class", "3", "--length-min", "20",
         "--length-max", "20", "--out", "{d}/no/such/c.csv"],
        ["evaluate", "--model-path", "{d}/absent.wlc1", "--in", "{d}/feat.npz",
         "--out", "{d}/r.jsonl"],
    ], ids=["train-out", "evaluate-out", "predict-out", "gridsearch-out", "synth-out",
            "missing-model"])
    def test_exits_2(self, chain, argv, capsys):
        assert main([arg.format(d=chain) for arg in argv]) == 2
        assert "data error: cannot" in capsys.readouterr().err


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

    def test_non_utf8_config_is_usage(self, tmp_path, capsys):
        cfg = tmp_path / "bad.bin"
        cfg.write_bytes(b"policy = \xff\xfe middle\n")
        assert main(["window", "--config", str(cfg), "--in", str(tmp_path / "c.csv"),
                     "--out", str(tmp_path / "arc.npz")]) == 1
        assert "cannot read config" in capsys.readouterr().err
        assert not (tmp_path / "arc.npz").exists()

    def test_malformed_config_line_is_usage(self, tmp_path):
        feat = self.feature_set(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("just words\n")
        assert main(["train", "--in", str(feat), "--model", "rf",
                     "--config", str(cfg), "--out", str(tmp_path / "m.wlc1")]) == 1

    def test_config_may_set_every_family_but_each_value_is_checked(self, tmp_path):
        """One config file can serve every family; a value no family could
        train with is refused whichever family the command line picks."""
        feat = self.feature_set(tmp_path)
        cfg, out = tmp_path / "train.cfg", tmp_path / "m.wlc1"
        cfg.write_text("n-trees = 2\nc = 2\nrounds = 2\n")
        assert main(["train", "--in", str(feat), "--model", "rf",
                     "--config", str(cfg), "--out", str(out)]) == 0
        cfg.write_text("n-trees = 2\nc = nan\nrounds = 2\n")
        out.unlink()
        assert main(["train", "--in", str(feat), "--model", "rf",
                     "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()

    def test_boolean_config_toggles_store_true_flag(self, tmp_path):
        feat = self.feature_set(tmp_path)
        cfg, out = tmp_path / "train.cfg", tmp_path / "m.wlc1"
        for word, expected in (("true", True), ("false", False)):
            cfg.write_text(f"allow-nonconverged = {word}\n")
            assert main(["train", "--in", str(feat), "--model", "rf", "--n-trees", "2",
                         "--config", str(cfg), "--out", str(out)]) == 0
            manifest = json.loads((tmp_path / "m.wlc1.manifest.json").read_text())
            assert manifest["flags"]["allow_nonconverged"] is expected

    def test_config_reduction_outside_choices_is_usage(self, tmp_path):
        """featurize --reduction takes one gridsearch --reductions token."""
        d = tmp_path
        self.feature_set(d)
        cfg = d / "feat.cfg"
        for token in ("pca2", "pca", "pca-0", "pca-x", "cov,pca-4"):
            cfg.write_text(f"reduction = {token}\n")
            assert main(["featurize", "--in", str(d / "arc.npz"), "--config", str(cfg),
                         "--out", str(d / "pca.npz")]) == 1
            assert main(["featurize", "--in", str(d / "arc.npz"), "--reduction", token,
                         "--out", str(d / "pca.npz")]) == 1
            assert not list(d.glob("pca.npz*"))

    def test_config_split_outside_choices_is_usage(self, tmp_path):
        d = tmp_path
        feat, model = self.feature_set(d), d / "m.wlc1"
        assert main(["train", "--in", str(feat), "--model", "rf", "--n-trees", "2",
                     "--out", str(model)]) == 0
        cfg = d / "predict.cfg"
        cfg.write_text("split = val\n")
        assert main(["predict", "--model-path", str(model), "--in", str(feat),
                     "--config", str(cfg), "--out", str(d / "pred.csv")]) == 1
        assert not (d / "pred.csv").exists()

    def test_abbreviated_flag_beats_config(self, tmp_path):
        feat = self.feature_set(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("n-trees = 3\n")
        out = tmp_path / "m.wlc1"
        assert main(["train", "--in", str(feat), "--model", "rf",
                     "--config", str(cfg), "--n-tr", "9", "--out", str(out)]) == 0
        model, provenance = load_model(out)
        assert provenance["params"]["n_trees"] == 9
        assert model.n_trees == 9


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
                     "--reduction", "pca-4", "--out", str(out)]) == 0
        features_train, _, features_test, _, meta = read_feature_set(out)
        assert features_train.shape[1] == 4
        assert features_test.shape[1] == 4
        assert meta["reduction"] == "pca-4"

    def test_feature_set_meta_holds_no_row_counts(self, tmp_path):
        """The arrays carry the split sizes; a set written with the old
        n_train/n_test meta keys still loads."""
        run_chain(tmp_path)
        *arrays, meta = read_feature_set(tmp_path / "feat.npz")
        assert not {"n_train", "n_test"} & set(meta)
        old = tmp_path / "old.npz"
        write_feature_set(old, *arrays, {**meta, "n_train": len(arrays[0]),
                                         "n_test": len(arrays[2])})
        *loaded, old_meta = read_feature_set(old)
        for a, b in zip(arrays, loaded, strict=True):
            np.testing.assert_array_equal(a, b)
        assert old_meta["n_train"] == len(arrays[0])

    def test_reduction_bundle_meta_holds_no_rank_flag(self, tmp_path):
        """rank_deficient is derived from pca_variance; a bundle written with
        the old meta key still loads."""
        x = np.random.default_rng(4).normal(size=(12, 6, 7))
        path = tmp_path / "red.npz"
        write_reduction_bundle(path, fit_reduction(ReductionSpec("pca", k=3), x)[0])
        keys = ("means", "stds", "constant", "pca_mean", "pca_components", "pca_variance")
        bundle = read_bundle(path, (*keys, "meta"))
        assert bundle["meta"] == {"kind": "pca", "k": 3}
        old = tmp_path / "old.npz"
        write_bundle(old, {key: bundle[key] for key in keys},
                     {**bundle["meta"], "rank_deficient": False})
        np.testing.assert_array_equal(read_reduction_bundle(old).transform(x),
                                      read_reduction_bundle(path).transform(x))

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

    @pytest.mark.parametrize("stage", ["window", "synth"])
    def test_random_policy_records_its_offset_seed(self, chain, tmp_path, stage):
        """--policy random draws window offsets from the window-offset stream
        of --seed, which the manifest records; a rerun writes the same bytes."""
        source = {"window": ["window", "--in", str(chain / "corpus.csv"), "--out"],
                  "synth": ["synth", "--classes", "4", "--jobs-per-class", "6",
                            "--length-min", "60", "--length-max", "70", "--emit-archive"]}
        for run in ("a", "b"):
            assert main([*source[stage], str(tmp_path / f"{run}.npz"), "--policy", "random",
                         "--length", "50", "--seed", "9"]) == 0
        assert sha256(tmp_path / "a.npz") == sha256(tmp_path / "b.npz")
        manifest = json.loads((tmp_path / "a.npz.manifest.json").read_text())
        assert manifest["seeds"]["window-offset"] == derive_seed(9, "window-offset")
        assert manifest["seeds"]["split"] == derive_seed(9, "split")
        middle = tmp_path / "middle.npz"
        assert main([*source[stage], str(middle), "--length", "50", "--seed", "9"]) == 0
        assert sha256(middle) != sha256(tmp_path / "a.npz")
        assert "window-offset" not in json.loads(
            (tmp_path / "middle.npz.manifest.json").read_text())["seeds"]

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

    def test_saved_artifacts_reproduce_the_test_report(self, tmp_path):
        """The refit reduction and model that --reduction-out and --model-out
        save, reloaded, score the archive's test split as --report-out did."""
        arc = self.setup_archive(tmp_path)
        paths = {flag: tmp_path / name for flag, name in (
            ("--model-out", "best.wlc1"), ("--reduction-out", "red.npz"),
            ("--report-out", "report.jsonl"))}
        assert main(["gridsearch", "--in", str(arc), "--family", "rf", "--n-trees", "3,9",
                     "--reductions", "cov,pca-4", "--folds", "3",
                     "--out", str(tmp_path / "cv.jsonl"),
                     *(str(part) for pair in paths.items() for part in pair)]) == 0
        pipeline = GridPipeline(reduction=read_reduction_bundle(paths["--reduction-out"]),
                                model=load_model(paths["--model-out"])[0], family="rf")
        dataset = read_challenge_archive(arc)
        report = evaluate_pipeline(pipeline, dataset.x_test, dataset.y_test,
                                   dataset.model_train)
        records = read_jsonl(paths["--report-out"])
        assert records[0]["accuracy"] == report.accuracy
        assert records[0]["model_provenance"] == report.model_provenance
        assert records[-1]["matrix"] == report.confusion_matrix.tolist()


class TestFamilyParameterFlags:
    """Each family parameter flag reaches its parameter: the cells keep their
    order and text, and train records exactly the parameters it was given."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("params")
        assert main(["synth", "--classes", "4", "--jobs-per-class", "5",
                     "--length-min", "40", "--length-max", "45", "--seed", "3",
                     "--emit-archive", str(d / "arc.npz"), "--length", "30"]) == 0
        assert main(["featurize", "--in", str(d / "arc.npz"),
                     "--out", str(d / "feat.npz")]) == 0
        return d

    GBT_FLAGS = ["--rounds", "2,3", "--min-split-loss", "0.5", "--gbt-alpha", "0.1",
                 "--gbt-lambda", "2", "--learning-rate", "0.2", "--max-depth", "2"]

    @pytest.mark.parametrize("family,flags,cells", [
        ("rf", [], ["cov|n_trees=50", "cov|n_trees=100", "cov|n_trees=250"]),
        ("svm", [], [f"cov|C={c},kernel=rbf,max_iter=2000" for c in ("0.1", "1.0", "10.0")]),
        ("gbt", [], ["cov|rounds=40,gamma=0.0,alpha=0.0,lambda=1.0,learning_rate=0.3"]),
        ("rf", ["--n-trees", "2,3", "--max-depth", "4"],
         ["cov|n_trees=2,max_depth=4", "cov|n_trees=3,max_depth=4"]),
        ("svm", ["--c", "2,0.5", "--kernel", "linear", "--max-iter", "50"],
         ["cov|C=2.0,kernel=linear,max_iter=50", "cov|C=0.5,kernel=linear,max_iter=50"]),
        ("gbt", GBT_FLAGS,
         [f"cov|rounds={r},gamma=0.5,alpha=0.1,lambda=2.0,learning_rate=0.2,max_depth=2"
          for r in (2, 3)]),
    ], ids=["rf", "svm", "gbt", "rf-flags", "svm-flags", "gbt-flags"])
    def test_gridsearch_cells(self, data, tmp_path, family, flags, cells):
        out = tmp_path / "cv.jsonl"
        assert main(["gridsearch", "--in", str(data / "arc.npz"), "--family", family,
                     "--folds", "2", "--allow-nonconverged", "--out", str(out), *flags]) == 0
        records = [r for r in read_jsonl(out) if r["record"] == "cell"]
        assert [(r["index"], r["cell"]) for r in records] == list(enumerate(cells))

    @pytest.mark.parametrize("family,flags,params", [
        ("rf", [], {"n_trees": 100, "min_leaf": 1}),
        ("svm", [], {"C": 1.0, "kernel": "rbf", "tol": 0.001, "max_iter": 2000}),
        ("gbt", [], {"rounds": 40, "learning_rate": 0.3, "gamma": 0.0, "alpha": 0.0,
                     "lambda": 1.0}),
        ("rf", ["--n-trees", "3", "--min-leaf", "2", "--max-depth", "4"],
         {"n_trees": 3, "min_leaf": 2, "max_depth": 4}),
        ("svm", ["--c", "2", "--kernel", "rbf", "--rbf-gamma", "0.5", "--tol", "0.01",
                 "--max-iter", "50"],
         {"C": 2.0, "kernel": "rbf", "gamma": 0.5, "tol": 0.01, "max_iter": 50}),
        ("gbt", ["--rounds", "3", "--min-split-loss", "0.5", "--gbt-alpha", "0.1",
                 "--gbt-lambda", "2", "--learning-rate", "0.2", "--max-depth", "2"],
         {"rounds": 3, "learning_rate": 0.2, "gamma": 0.5, "alpha": 0.1, "lambda": 2.0,
          "max_depth": 2}),
    ], ids=["rf", "svm", "gbt", "rf-flags", "svm-flags", "gbt-flags"])
    def test_train_provenance_params(self, data, tmp_path, family, flags, params):
        out = tmp_path / "m.wlc1"
        assert main(["train", "--in", str(data / "feat.npz"), "--model", family,
                     "--allow-nonconverged", "--out", str(out), *flags]) == 0
        _, provenance = load_model(out)
        # as JSON text, so 0 and 0.0 differ
        assert json.dumps(provenance["params"], sort_keys=True) == json.dumps(
            params, sort_keys=True)

    def test_flag_mapping_names_real_flags_and_parameters(self):
        """A name mistyped in the mapping would silently skip its parameter."""
        _, registry = build_parser()
        dests = {name: {a.dest for a in sub._actions} for name, sub in registry.items()}
        for family, name in REPRODUCE_PARAM_FLAGS:  # a superset of PARAM_FLAGS' keys
            assert name in FAMILY_PARAMS[family]
        assert set(PARAM_FLAGS.values()) <= dests["train"]
        assert {REPRODUCE_PARAM_FLAGS[k] for k in (("rf", "n_trees"), ("svm", "C"))} \
            <= dests["reproduce"]
        every = {(f, name) for f, params in FAMILY_PARAMS.items() for name in params}
        flags = {"train": PARAM_FLAGS, "gridsearch": PARAM_FLAGS,
                 "reproduce": REPRODUCE_PARAM_FLAGS}
        read = {cmd: {key for key in every if m.get(key, key[1]) in dests[cmd]}
                for cmd, m in flags.items()}
        assert read["train"] == every
        assert read["gridsearch"] == {("rf", "n_trees"), ("rf", "max_depth"), ("svm", "C"),
                                      ("svm", "kernel"), ("svm", "max_iter"),
                                      *(("gbt", name) for name in FAMILY_PARAMS["gbt"])}
        assert read["reproduce"] == {("rf", "n_trees"), ("svm", "C"), ("gbt", "rounds"),
                                     ("gbt", "gamma"), ("gbt", "alpha"), ("gbt", "lambda")}

    @pytest.mark.parametrize("family,flags,message", [
        ("svm", ["--kernel", "linear", "--rbf-gamma", "0.5"], "linear kernel takes no gamma"),
        ("rf", ["--n-trees", "2", "--max-depth", "-1"], "max_depth"),
        ("rf", ["--n-trees", "2", "--min-leaf", "0"], "min_leaf"),
    ], ids=["linear-gamma", "rf-depth", "rf-leaf"])
    def test_train_parameters_out_of_range_are_usage(self, data, tmp_path, capsys, family,
                                                     flags, message):
        out = tmp_path / "m.wlc1"
        assert main(["train", "--in", str(data / "feat.npz"), "--model", family,
                     "--out", str(out), *flags]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid_lists_are_usage(self, data, tmp_path, capsys):
        assert main(["gridsearch", "--in", str(data / "arc.npz"), "--family", "rf",
                     "--n-trees", "5,x", "--folds", "2",
                     "--out", str(tmp_path / "cv.jsonl")]) == 1
        assert "5,x" in capsys.readouterr().err
        manifest = tmp_path / "archives.json"
        manifest.write_text("{}")  # valid flags would reach the archive check: exit 2
        assert main(["reproduce", "--manifest", str(manifest), "--svm-c", "a",
                     "--out", str(tmp_path / "t.jsonl")]) == 1
        assert "'a'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "gridsearch"])
    def test_infinite_min_split_loss_saves_and_loads(self, data, tmp_path, command):
        """gamma = inf, "never split", is valid: its model file spells it "inf",
        in the model's parameters and in the provenance alike."""
        model = tmp_path / "m.wlc1"
        argv = {
            "train": ["train", "--in", str(data / "feat.npz"), "--model", "gbt",
                      "--out", str(model)],
            "gridsearch": ["gridsearch", "--in", str(data / "arc.npz"), "--family", "gbt",
                           "--folds", "2", "--out", str(tmp_path / "cv.jsonl"),
                           "--model-out", str(model)],
        }[command]
        assert main([*argv, "--rounds", "2", "--min-split-loss", "inf"]) == 0
        loaded, provenance = load_model(model)
        assert loaded.params.gamma == math.inf
        assert provenance["params"]["gamma"] == "inf"

    @pytest.mark.parametrize("flags,key,text", [
        (["--model", "gbt", "--rounds", "2", "--min-split-loss", "inf"], "min_split_loss", "inf"),
    ], ids=["gbt-inf"])
    def test_manifest_is_strict_json(self, data, tmp_path, flags, key, text):
        """A non-finite flag value reaches the manifest as text, never as the
        Infinity or NaN tokens that strict JSON readers refuse."""
        model = tmp_path / "m.wlc1"
        assert main(["train", "--in", str(data / "feat.npz"), *flags, "--out", str(model)]) == 0

        def refuse(token):
            raise ValueError(f"non-JSON token {token}")

        sidecar = tmp_path / "m.wlc1.manifest.json"
        manifest = json.loads(sidecar.read_text(), parse_constant=refuse)
        assert manifest["flags"][key] == text

    @pytest.mark.parametrize("argv", [
        ["train", "--model", "svm", "--c", "inf"],
        ["train", "--model", "svm", "--c", "nan"],
        ["train", "--model", "svm", "--rbf-gamma", "inf"],
        ["train", "--model", "svm", "--tol", "nan"],
        ["train", "--model", "gbt", "--learning-rate", "inf"],
        ["train", "--model", "gbt", "--learning-rate", "nan"],
        ["train", "--model", "gbt", "--gbt-lambda", "inf"],
        ["train", "--model", "gbt", "--gbt-alpha", "nan"],
        ["gridsearch", "--family", "gbt", "--learning-rate", "inf"],
        ["gridsearch", "--family", "svm", "--c", "inf"],
        ["synth", "--classes", "26", "--scale", "nan"],
        ["synth", "--classes", "26", "--scale", "1e308"],
        ["synth", "--noise", "nan"],
        ["train", "--model", "svm", "--tol", "-1", "--allow-nonconverged"],
        ["train", "--model", "svm", "--max-iter", "0", "--allow-nonconverged"],
        ["gridsearch", "--family", "svm", "--max-iter", "0", "--allow-nonconverged"],
        ["gridsearch", "--family", "rf", "--n-trees", "2", "--reductions", "pca-\u0663"],
        ["train", "--model", "rf", "--n-trees", "2", "--c", "nan"],
        ["train", "--model", "svm", "--n-trees", "0"],
        ["train", "--model", "rf", "--n-trees", "2", "--learning-rate", "inf"],
        ["gridsearch", "--family", "rf", "--n-trees", "2", "--c", "1,-1"],
        ["gridsearch", "--family", "svm", "--max-depth", "-1"],
        ["gridsearch", "--family", "gbt", "--rounds", "1", "--n-trees", "0"],
    ], ids=" ".join)
    def test_bad_parameter_values_are_usage(self, data, tmp_path, capsys, argv):
        """A parameter no model file can hold, or a reduction token that
        describe() would not write back, is refused before any work: never
        a traceback from the writer or a fit on garbage."""
        out = tmp_path / "out"
        source = {"train": "feat.npz", "gridsearch": "arc.npz"}.get(argv[0])
        inputs = ["--in", str(data / source)] if source else []
        folds = ["--folds", "2"] if argv[0] == "gridsearch" else []
        assert main([*argv, *inputs, *folds, "--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


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

    def test_strict_mode_requires_all_archives(self, tmp_path, capsys):
        self.make_archive(tmp_path / "m1.npz", seed=1)
        manifest = tmp_path / "archives.json"
        out = tmp_path / "t.jsonl"
        for name, file, message in [
            ("60-middle-1", "m1.npz", "'60-start-1' missing from the archive manifest"),
            ("60-start-1", "absent.npz", "'60-start-1' not found at"),
        ]:
            manifest.write_text(json.dumps({name: str(tmp_path / file)}))
            assert main(["reproduce", "--manifest", str(manifest), "--strict",
                         "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_unknown_family_is_usage(self, tmp_path):
        self.make_archive(tmp_path / "m1.npz", seed=1)
        manifest = tmp_path / "archives.json"
        manifest.write_text(json.dumps({"60-middle-1": str(tmp_path / "m1.npz")}))
        out = tmp_path / "t.jsonl"
        assert main(["reproduce", "--manifest", str(manifest), "--families", "xgb",
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_empty_pca_ks_is_usage(self, tmp_path, capsys):
        self.make_archive(tmp_path / "m1.npz", seed=1)
        manifest = tmp_path / "archives.json"
        manifest.write_text(json.dumps({"60-middle-1": str(tmp_path / "m1.npz")}))
        out = tmp_path / "t.jsonl"
        for ks in ("", ","):
            assert main(["reproduce", "--manifest", str(manifest), "--families", "rf",
                         "--pca-ks", ks, "--out", str(out)]) == 1
            assert "usage error: pca_ks" in capsys.readouterr().err
            assert not out.exists()

    def test_pca_ks_beyond_every_window_width_is_usage(self, tmp_path, capsys):
        """A pca row needs a k the window can hold: pca-400 and pca-500 on
        50 x 7 windows are refused, naming the column, before its first fold."""
        self.make_archive(tmp_path / "m1.npz", seed=1)
        manifest = tmp_path / "archives.json"
        manifest.write_text(json.dumps({"60-middle-1": str(tmp_path / "m1.npz")}))
        out = tmp_path / "t.jsonl"
        for ks, message in (("400,500", "60-middle-1 has 350 features per window, fewer than "
                             "every pca k in 400, 500"), ("0", "k must be an integer >= 1")):
            assert main(["reproduce", "--manifest", str(manifest), "--families", "rf",
                         "--rf-trees", "2", "--pca-ks", ks, "--folds", "2",
                         "--out", str(out)]) == 1
            assert f"usage error: {message}" in capsys.readouterr().err
            assert not out.exists()

    def test_bad_manifest_is_data_error(self, tmp_path):
        manifest = tmp_path / "archives.json"
        manifest.write_text("[1, 2, 3]")
        assert main(["reproduce", "--manifest", str(manifest),
                     "--out", str(tmp_path / "t.jsonl")]) == 2
        manifest.write_text("{broken")
        assert main(["reproduce", "--manifest", str(manifest),
                     "--out", str(tmp_path / "t.jsonl")]) == 2
        manifest.write_bytes(b"\xff\xfe{}")  # not UTF-8
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
        write_reduction_bundle(path, fit_reduction(ReductionSpec("pca", k=3), x)[0])
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

    def test_rank_deficient_is_derived_not_read(self, tmp_path, parts):
        arrays, meta = parts
        path = tmp_path / "tampered.npz"
        write_bundle(path, arrays, {**meta, "rank_deficient": True})
        assert not read_reduction_bundle(path).pca.rank_deficient
        variance = arrays["pca_variance"].copy()
        variance[-1] = 0.0
        write_bundle(path, {**arrays, "pca_variance": variance}, meta)
        assert read_reduction_bundle(path).pca.rank_deficient

    def test_retired_cov_variant_keys(self, tmp_path, parts):
        """Bundles that still carry the retired variants' meta keys load when
        both are false and are refused, by key name, when either is true."""
        arrays, meta = parts
        legacy = {**meta, "center_per_trial": False, "scale_unbiased": False}
        path = tmp_path / "legacy.npz"
        write_bundle(path, arrays, legacy)
        assert read_reduction_bundle(path).spec == ReductionSpec("pca", k=3)
        for key in ("center_per_trial", "scale_unbiased"):
            write_bundle(path, arrays, {**legacy, key: True})
            with pytest.raises(MalformedArchiveError, match=key):
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
