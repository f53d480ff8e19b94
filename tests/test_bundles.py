"""Every binary artifact the CLI writes is one kind of file: a bundle that
dataset_io.read_bundle opens."""

from wlclass.cli import main
from wlclass.dataset_io import ARCHIVE_KEYS, read_bundle


def test_every_binary_artifact_is_a_bundle(tmp_path):
    d = tmp_path
    assert main(["synth", "--classes", "4", "--jobs-per-class", "5", "--length-min", "40",
                 "--length-max", "45", "--emit-archive", str(d / "arc.npz"),
                 "--length", "30"]) == 0
    assert main(["featurize", "--in", str(d / "arc.npz"), "--out", str(d / "feat.npz"),
                 "--reduction-out", str(d / "red.npz")]) == 0
    assert main(["train", "--in", str(d / "feat.npz"), "--model", "rf", "--n-trees", "3",
                 "--out", str(d / "model.wlc1")]) == 0
    text = {".json", ".jsonl", ".csv"}
    binary = sorted(p.name for p in d.iterdir() if p.suffix not in text)
    assert binary == ["arc.npz", "feat.npz", "model.wlc1", "red.npz"]
    read_bundle(d / "arc.npz", ARCHIVE_KEYS)
    assert read_bundle(d / "feat.npz", ("features_train", "y_train", "features_test",
                                        "y_test", "meta"))["meta"]["reduction"] == "cov"
    red = read_bundle(d / "red.npz", ("means", "stds", "constant", "meta"))
    assert red["meta"]["kind"] == "cov"
    meta = read_bundle(d / "model.wlc1", ("meta", "feature", "roots"))["meta"]
    assert (meta["format"], meta["kind"]) == (4, "forest")
