"""Golden answers: the reproduction table on seven small synthetic archives.

Every step is seeded and serial, so a change that moves any accuracy,
cross-validated mean or best cell fails here. A change that has to move
an answer re-records the JSON and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import tempfile
import warnings
from pathlib import Path

from wlclass.dataset_io import write_challenge_archive
from wlclass.model_selection import DATASET_COLUMNS, reproduce_table
from wlclass.synth import default_26_class_spec, generate_corpus
from wlclass.windowing import WindowPolicy, build_challenge_dataset

GOLDEN = Path(__file__).with_name("golden_reproduce_table.json")

#: One window policy per dataset column, as the released archives were cut.
POLICIES = {
    "60-start-1": WindowPolicy("start"),
    "60-middle-1": WindowPolicy("middle"),
    **{f"60-random-{i}": WindowPolicy("random", seed=i) for i in range(1, 6)},
}

GRIDS = {
    "svm": {"C": [1.0]},
    "rf": {"n_trees": [4]},
    "gbt": {"rounds": [2], "max_depth": [3]},
}


def golden_table(directory: Path) -> dict:
    """Accuracies and best cells of every variant on every dataset column."""
    trials = generate_corpus(default_26_class_spec(seed=7, scale=0.05))
    archives = {}
    for name in DATASET_COLUMNS:
        archives[name] = directory / f"{name}.npz"
        write_challenge_archive(build_challenge_dataset(trials, POLICIES[name]), archives[name])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # classes with fewer rows than folds
        table = reproduce_table(archives, families=("svm", "rf", "gbt"), seed=0, folds=3,
                                grids=GRIDS, pca_ks=(4, 8))
    answers = {"accuracies": {row["variant"]: row["accuracies"] for row in table["rows"]},
               "provenance": table["provenance"]}
    return json.loads(json.dumps(answers))  # the JSON's own view of the floats


def test_reproduce_table_matches_recorded_answers(tmp_path):
    assert golden_table(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(golden_table(Path(tmp)), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
