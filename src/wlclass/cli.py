"""Command line pipeline: synth, window, featurize, train, predict,
gridsearch, evaluate, reproduce.

Every subcommand is a pure function of its inputs and --seed: a run
manifest (resolved flags, input hashes, seed ledger, timing) is written
next to each primary output so any artifact can be regenerated exactly.
Reports are line-delimited JSON records plus a human table on stdout.

Exit codes: 0 success, 1 usage error, 2 data error, 3 non-convergence.
"""

import argparse
import csv
import hashlib
import json
import logging
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from ._checks import integer
from .classifiers import load_model, predict, save_model
from .dataset_io import (
    GPU_SENSORS,
    canonical_json,
    ingest_raw_csv,
    read_bundle,
    read_challenge_archive,
    spell_nonfinite,
    write_bundle,
    write_challenge_archive,
)
from .errors import (
    ArchiveIoError,
    ConvergenceError,
    DataError,
    MalformedArchiveError,
    MissingArchiveError,
    NoConvergenceError,
    UsageError,
    WlclassError,
)
from .model_selection import (
    BASELINE_GRIDS,
    DATASET_COLUMNS,
    FAMILY_PARAMS,
    MODEL_FAMILIES,
    PCA_GRID_KS,
    GridSpec,
    ReductionSpec,
    _family_kwargs,
    evaluate,
    evaluate_pipeline,
    fit_reduction,
    format_report,
    format_table,
    grid_search,
    read_reduction_bundle,
    reproduce_table,
    train_family,
    write_reduction_bundle,
)
from .synth import default_4_class_spec, default_26_class_spec, generate_corpus
from .windowing import WindowPolicy, build_challenge_dataset

log = logging.getLogger("wlclass")


# ---------------------------------------------------------------------------
# seeds, hashing, manifests

def derive_seed(master: int, name: str) -> int:
    """Named substream: a stable child seed for one pipeline stage."""
    tag = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")
    state = np.random.SeedSequence([master, tag]).generate_state(1, dtype=np.uint64)
    return int(state[0])


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class StageResult:
    """What a handler reports back for the manifest."""

    outputs: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    seeds: dict = field(default_factory=dict)


@contextmanager
def _text_out(path, newline=None):
    """A text file open for writing; an OS failure becomes ArchiveIoError."""
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise ArchiveIoError(f"cannot write {path}: {exc}") from None


def _write_manifest(args, result: StageResult, wall_clock: float) -> None:
    if not result.outputs:
        return
    flags = {}
    for key, value in vars(args).items():
        if key in ("func",):
            continue
        flags[key] = str(value) if isinstance(value, Path) else value
    manifest = {
        "subcommand": args.command,
        "flags": spell_nonfinite(flags),
        "input_hashes": {
            str(p): _sha256_file(p) for p in result.inputs if p and Path(p).is_file()
        },
        "seeds": result.seeds,
        "version": __version__,
        "wall_clock_s": round(wall_clock, 6),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    primary = Path(result.outputs[0])
    target = primary.with_name(primary.name + ".manifest.json")
    with _text_out(target) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_jsonl(path, records) -> None:
    with _text_out(path) as fh:
        for record in records:
            fh.write(canonical_json(record))
            fh.write("\n")


def _resolve_threads(value) -> int:
    """The CLI's thread count, which is always 1: every stage runs serially.

    Nothing in the package calls this; its only reader is the benchmark's
    load guard (perfbench/run.py), which reports it as process.threads.
    """
    return 1


# ---------------------------------------------------------------------------
# config files: key = value lines mirroring the flags; flags win

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _config_tokens(subparser, path) -> list:
    """The flag tokens a config file stands for, to be parsed with the command line.

    Each key names a flag by its destination, with - or _ (n-trees,
    input); a store-true key takes 1/true/yes/on or 0/false/no/off. A bad
    file, line or key is a usage error of the subcommand.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        subparser.error(f"cannot read config {path}: {exc}")
    actions = {a.dest: a for a in subparser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        action = actions.get(key.replace("-", "_"))
        if not eq or action is None:
            subparser.error(f"{path}:{lineno}: expected key = value with a known key, got {line!r}")
        flag = action.option_strings[-1]
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif value.lower() not in _BOOL_WORDS:
            subparser.error(f"{path}:{lineno}: {key} needs a boolean, got {value!r}")
        elif _BOOL_WORDS[value.lower()]:
            tokens.append(flag)
    return tokens


def _values(text: str, kind=int) -> list:
    """The values of a comma list flag (--n-trees 50,100), each made by kind."""
    try:
        return [kind(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected comma-separated {kind.__name__}s, got {text!r}") from None


def _joined(values, spec="") -> str:
    """A comma list flag's default text; spec "g" drops a float's trailing .0."""
    return ",".join(format(v, spec) for v in values)


# ---------------------------------------------------------------------------
# family parameter flags: model_selection.FAMILY_PARAMS holds the parameters
# and their defaults; a flag named like its parameter sets it (--n-trees)

#: (family, parameter) -> the dest of the flag that sets it, where the two
#: names differ.
PARAM_FLAGS = {
    ("svm", "C"): "c",
    ("svm", "gamma"): "rbf_gamma",
    ("gbt", "gamma"): "min_split_loss",
    ("gbt", "alpha"): "gbt_alpha",
    ("gbt", "lambda"): "gbt_lambda",
}

#: reproduce sets every family's grid at once, so it names two flags by family.
REPRODUCE_PARAM_FLAGS = {**PARAM_FLAGS, ("rf", "n_trees"): "rf_trees", ("svm", "C"): "svm_c"}


def _family_params(args, flags=PARAM_FLAGS, grid=False) -> dict:
    """{family: the parameters args set, in FAMILY_PARAMS order} for every
    family, each value (each list item with grid) checked alone by
    _family_kwargs: a config file may set every family's flags, so a value
    no family could train with is refused whichever family runs.

    A parameter whose flag the subcommand lacks, or left at None, is
    skipped. With grid, each value becomes a list: the text of a numeric
    parameter's flag is a comma list, any other value one value.
    """
    out = {}
    for family, defaults in FAMILY_PARAMS.items():
        params = out[family] = {}
        for name, default in defaults.items():
            value = getattr(args, flags.get((family, name), name), None)
            if value is None:
                continue
            if grid:
                numeric = isinstance(value, str) and not isinstance(default, str)
                value = _values(value, type(default)) if numeric else [value]
            for one in value if grid else [value]:
                _family_kwargs(family, {name: one})
            params[name] = value
    return out


# ---------------------------------------------------------------------------
# binary sidecar artifacts: feature sets (fitted reductions: model_selection)

def write_feature_set(path, features_train, y_train, features_test, y_test, meta: dict) -> None:
    """Store the four arrays plus a JSON meta member, byte-deterministically."""
    write_bundle(path, {
        "features_train": np.asarray(features_train, dtype=np.float64),
        "y_train": np.asarray(y_train, dtype=np.int64),
        "features_test": np.asarray(features_test, dtype=np.float64),
        "y_test": np.asarray(y_test, dtype=np.int64),
    }, meta)


def read_feature_set(path):
    """(features_train, y_train, features_test, y_test, meta) of a feature set.

    Raises:
        MalformedArchiveError: besides unreadable members, a split that is not
            a float matrix of the train split's width with one non-negative
            integer label per row, an empty train split, or class names that
            are not strings.
    """
    bundle = read_bundle(path, ("features_train", "y_train", "features_test", "y_test", "meta"))
    width = bundle["features_train"].shape[1:]
    for split in ("train", "test"):
        features, y = bundle[f"features_{split}"], bundle[f"y_{split}"]
        if (features.ndim != 2 or features.shape[1:] != width or features.dtype.kind != "f"
                or y.shape != features.shape[:1] or y.dtype.kind != "i" or (y < 0).any()):
            raise MalformedArchiveError(
                f"feature set {path}: the {split} split needs a float matrix of the "
                "train width and one non-negative integer label per row"
            )
    if not len(bundle["y_train"]):
        raise MalformedArchiveError(f"feature set {path}: the train split is empty")
    meta = bundle["meta"]
    names = meta.get("class_names", [])
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise MalformedArchiveError(f"feature set {path}: class_names must be a list of strings")
    return (bundle["features_train"], bundle["y_train"].astype(np.int64),
            bundle["features_test"], bundle["y_test"].astype(np.int64), meta)


# ---------------------------------------------------------------------------
# subcommand handlers

def _synth_spec(args):
    common = dict(seed=args.seed, length_range=(args.length_min, args.length_max),
                  warmup_samples=args.warmup)
    if args.noise is not None:  # else each spec's own default
        common["noise"] = args.noise
    if args.classes == 4:
        return default_4_class_spec(jobs_per_class=args.jobs_per_class, **common)
    return default_26_class_spec(scale=args.scale, **common)


def _write_corpus_csv(path, trials) -> None:
    with _text_out(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["job_id", "timestamp", "device_id", "label", *GPU_SENSORS])
        for trial in trials:
            for j, row in enumerate(trial.series):
                writer.writerow(
                    [trial.job_id, j, trial.device_id, trial.label_name]
                    + [repr(float(v)) for v in row]
                )


def cmd_synth(args) -> StageResult:
    if not args.out and not args.emit_archive:
        raise UsageError("synth needs --out (CSV) and/or --emit-archive (windowed archive)")
    spec = _synth_spec(args)
    trials = generate_corpus(spec, physical=not args.no_physical)
    log.info("generated %d trials over %d classes", len(trials), len(spec.classes))
    result = StageResult(seeds={"master": args.seed})
    if args.out:
        _write_corpus_csv(args.out, trials)
        result.outputs.append(args.out)
    if args.emit_archive:
        _, seeds = _window_to_archive(trials, args, args.emit_archive)
        result.seeds.update(seeds)
        result.outputs.append(args.emit_archive)
    print(f"synth: {len(trials)} trials, {len(spec.classes)} classes")
    return result


def _window_to_archive(trials, args, out):
    """Window trials by --policy/--length, split by --split-ratio, write the
    archive to out; returns the dataset and the seeds derived from --seed."""
    seeds = {"split": derive_seed(args.seed, "split")}
    if args.policy == "random":
        seeds["window-offset"] = derive_seed(args.seed, "window-offset")
    policy = WindowPolicy(args.policy, seed=seeds.get("window-offset"), length=args.length)
    dataset = build_challenge_dataset(
        trials, policy, split_ratio=args.split_ratio, split_seed=seeds["split"]
    )
    write_challenge_archive(dataset, out)
    return dataset, seeds


def cmd_window(args) -> StageResult:
    trials = ingest_raw_csv(args.input, nonfinite=args.nonfinite)
    dataset, seeds = _window_to_archive(trials, args, args.out)
    print(
        f"window: {dataset.x_train.shape[0]} train / {dataset.x_test.shape[0]} test "
        f"windows of {args.length} samples ({args.policy})"
    )
    return StageResult(outputs=[args.out], inputs=[args.input],
                       seeds={"master": args.seed, **seeds})


def cmd_featurize(args) -> StageResult:
    spec = ReductionSpec.parse(args.reduction)
    dataset = read_challenge_archive(args.input)
    reduction, features_train = fit_reduction(spec, dataset.x_train)
    features_test = reduction.transform(dataset.x_test)
    meta = {
        "reduction": spec.describe(),
        "class_names": list(dataset.model_train),
        "fingerprint": reduction.fingerprint(),
        "source": Path(args.input).name,
    }
    write_feature_set(args.out, features_train, dataset.y_train, features_test,
                      dataset.y_test, meta)
    if args.reduction_out:
        write_reduction_bundle(args.reduction_out, reduction)
    print(
        f"featurize: {spec.describe()} -> {features_train.shape[1]} features "
        f"({len(features_train)} train / {len(features_test)} test)"
    )
    outputs = [args.out] + ([args.reduction_out] if args.reduction_out else [])
    return StageResult(outputs=outputs, inputs=[args.input])


def _check_converged(model, allow: bool) -> None:
    if getattr(model, "converged", True):
        return
    stalled = [m for m in model.machines if not m.converged]
    detail = (f"{len(stalled)} of {len(model.machines)} SVM machines did not converge "
              f"(largest KKT gap {max(m.kkt_gap for m in stalled):.3g})")
    if allow:
        log.warning("%s; keeping the model as requested", detail)
        return
    raise NoConvergenceError(f"{detail}; raise --max-iter or pass --allow-nonconverged")


def cmd_train(args) -> StageResult:
    params = _family_params(args)[args.model]
    _family_kwargs(args.model, params)  # the values together: a linear kernel takes no gamma
    features_train, y_train, _, _, meta = read_feature_set(args.input)
    n_classes = max(len(meta.get("class_names", [])), int(y_train.max()) + 1)
    model = train_family(args.model, features_train, y_train, params, args.seed, n_classes)
    _check_converged(model, args.allow_nonconverged)
    provenance = {
        "family": args.model,
        "params": params,
        "seed": args.seed,
        "reduction": meta.get("reduction", ""),
        "features": Path(args.input).name,
    }
    save_model(model, args.out, provenance=provenance)
    print(f"train: {args.model} on {features_train.shape[0]} rows "
          f"x {features_train.shape[1]} features -> {args.out}")
    return StageResult(outputs=[args.out], inputs=[args.input],
                       seeds={"master": args.seed})


def _pick_split(split, features_train, y_train, features_test, y_test):
    if split == "train":
        return features_train, y_train
    return features_test, y_test


def cmd_predict(args) -> StageResult:
    model, provenance = load_model(args.model_path)
    features_train, y_train, features_test, y_test, meta = read_feature_set(args.input)
    features, _ = _pick_split(args.split, features_train, y_train, features_test, y_test)
    labels = predict(model, features)
    names = meta.get("class_names", [])
    with _text_out(args.out, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "label", "class_name"])
        for i, label in enumerate(labels):
            name = names[label] if label < len(names) else ""
            writer.writerow([i, int(label), name])
    print(f"predict: {len(labels)} rows ({args.split} split) -> {args.out}")
    return StageResult(outputs=[args.out], inputs=[args.model_path, args.input])


def _report_records(report) -> list:
    records = [{
        "record": "summary",
        "accuracy": report.accuracy,
        "n": int(report.confusion_matrix.sum()),
        "dataset_id": report.dataset_id,
        "model_provenance": report.model_provenance,
    }]
    support = report.confusion_matrix.sum(axis=1)
    for i, name in enumerate(report.class_names):
        records.append({
            "record": "class",
            "name": name,
            "precision": float(report.precision[i]),
            "recall": float(report.recall[i]),
            "support": int(support[i]),
        })
    records.append({"record": "confusion", "matrix": report.confusion_matrix.tolist()})
    return records


def cmd_evaluate(args) -> StageResult:
    model, provenance = load_model(args.model_path)
    features_train, y_train, features_test, y_test, meta = read_feature_set(args.input)
    features, labels = _pick_split(args.split, features_train, y_train,
                                   features_test, y_test)
    names = meta.get("class_names") or [
        f"class_{i}" for i in range(int(labels.max(initial=-1)) + 1)
    ]
    report = evaluate(
        predict(model, features),
        labels,
        class_names=names,
        dataset_id=f"{Path(args.input).name}:{args.split}",
        model_provenance=provenance or {},
    )
    _write_jsonl(args.out, _report_records(report))
    print(format_report(report))
    return StageResult(outputs=[args.out], inputs=[args.model_path, args.input])


def cmd_gridsearch(args) -> StageResult:
    spec = GridSpec(
        model_family=args.family,
        hyperparameter_grid=_family_params(args, grid=True)[args.family],
        reduction_grid=tuple(_values(args.reductions, ReductionSpec.parse)),
        folds=args.folds,
        seed=args.seed,
    )
    dataset = read_challenge_archive(args.input)
    result = grid_search(dataset.x_train, dataset.y_train, spec)
    _check_converged(result.pipeline.model, args.allow_nonconverged)

    records = []
    for cell in result.cells:
        records.append({
            "record": "cell",
            "index": cell.index,
            "cell": cell.describe(),
            "mean_accuracy": float(result.mean_accuracy[cell.index]),
            "std_accuracy": float(result.std_accuracy[cell.index]),
            "fold_accuracies": [float(a) for a in result.fold_accuracy[cell.index]],
        })
    records.append({
        "record": "best",
        "index": result.best_cell,
        "cell": result.cells[result.best_cell].describe(),
        "mean_accuracy": result.best_mean,
    })
    _write_jsonl(args.out, records)
    outputs = [args.out]

    if args.model_out:
        best = result.cells[result.best_cell]
        save_model(result.pipeline.model, args.model_out, provenance={
            "family": args.family,
            "params": best.params,
            "reduction": best.reduction.describe(),
            "seed": args.seed,
            "cv_mean_accuracy": result.best_mean,
        })
        outputs.append(args.model_out)
    if args.reduction_out:
        write_reduction_bundle(args.reduction_out, result.pipeline.reduction)
        outputs.append(args.reduction_out)

    print(f"gridsearch: {len(result.cells)} cells x {spec.folds} folds")
    for record in records[:-1]:
        print(f"  [{record['index']}] {record['cell']}: "
              f"{record['mean_accuracy']:.4f} +/- {record['std_accuracy']:.4f}")
    print(f"best: [{result.best_cell}] {result.cells[result.best_cell].describe()} "
          f"mean accuracy {result.best_mean:.4f}")

    if args.report_out:
        report = evaluate_pipeline(
            result.pipeline, dataset.x_test, dataset.y_test, dataset.model_train,
            dataset_id=f"{Path(args.input).name}:test",
        )
        _write_jsonl(args.report_out, _report_records(report))
        outputs.append(args.report_out)
        print(format_report(report))
    return StageResult(outputs=outputs, inputs=[args.input],
                       seeds={"master": args.seed})


def _load_manifest_paths(path) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read manifest {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedArchiveError(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in payload.items()
    ):
        raise MalformedArchiveError(f"manifest {path} must map dataset names to paths")
    return payload


def cmd_reproduce(args) -> StageResult:
    families = _values(args.families, str.strip)
    pca_ks = tuple(_values(args.pca_ks))
    grids = _family_params(args, REPRODUCE_PARAM_FLAGS, grid=True)
    manifest = _load_manifest_paths(args.manifest)
    unknown = sorted(set(manifest) - set(DATASET_COLUMNS))
    if unknown:
        log.warning("ignoring unrecognized dataset names: %s", ", ".join(unknown))
    present, missing = {}, []
    for name in DATASET_COLUMNS:
        path = manifest.get(name)
        if path is None:
            if args.strict:
                raise MissingArchiveError(f"dataset {name!r} missing from the archive manifest")
            missing.append(name)
        elif not Path(path).is_file():
            if args.strict:
                raise MissingArchiveError(f"archive for {name!r} not found at {path}")
            log.warning("archive for %s not found at %s; skipping", name, path)
            missing.append(name)
        else:
            present[name] = path
    table = reproduce_table(present, families=families, seed=args.seed, folds=args.folds,
                            grids=grids, pca_ks=pca_ks)
    records = []
    for name in missing:
        records.append({"record": "missing", "dataset": name})
    for row in table["rows"]:
        variant = row["variant"]
        for column in table["columns"]:
            records.append({
                "record": "cell",
                "variant": variant,
                "dataset": column,
                "accuracy": row["accuracies"][column],
                "reference": row["reference"][column],
                "delta": row["reference_delta"].get(column),
                "best_cell": table["provenance"][column][variant]["best_cell"],
            })
    _write_jsonl(args.out, records)
    print(format_table(table))
    for row in table["rows"]:
        for column, delta in sorted(row["reference_delta"].items()):
            print(f"  {row['variant']} {column}: delta vs reference {delta:+.2f}")
    if missing:
        print(f"  missing archives skipped: {', '.join(missing)}")
    return StageResult(outputs=[args.out], inputs=list(present.values()),
                       seeds={"master": args.seed})


# ---------------------------------------------------------------------------
# parser

def _add_common(sub, out_required=True, out_help="output path"):
    sub.add_argument("--config", default=None, help="key = value file mirroring the flags")
    sub.add_argument("--seed", type=int, default=0, help="master seed for this stage")
    sub.add_argument("-v", "--verbose", action="count", default=0)
    sub.add_argument("--out", required=out_required, help=out_help)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wlclass",
        description="Workload classification pipeline over GPU telemetry windows.",
    )
    parser.add_argument("--version", action="version", version=f"wlclass {__version__}")
    rf, svm, gbt = FAMILY_PARAMS["rf"], FAMILY_PARAMS["svm"], FAMILY_PARAMS["gbt"]
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="generate a synthetic labelled corpus")
    synth.add_argument("--classes", type=int, choices=(4, 26), default=4)
    synth.add_argument("--scale", type=float, default=1.0,
                       help="job-count scale for the 26-class taxonomy")
    synth.add_argument("--noise", type=float, default=None,
                       help="white-noise std (default 0.3 for 4 classes, 0.5 for 26)")
    synth.add_argument("--jobs-per-class", type=int, default=100)
    synth.add_argument("--length-min", type=int, default=560)
    synth.add_argument("--length-max", type=int, default=640)
    synth.add_argument("--warmup", type=int, default=0,
                       help="class-independent warm-up samples at trial start")
    synth.add_argument("--no-physical", action="store_true",
                       help="skip clipping and the complementary memory pair")
    synth.add_argument("--emit-archive", default=None,
                       help="also window and split directly into a challenge archive")
    synth.add_argument("--policy", choices=("start", "middle", "random"), default="middle")
    synth.add_argument("--length", type=int, default=540)
    synth.add_argument("--split-ratio", type=float, default=0.8)
    _add_common(synth, out_required=False, out_help="corpus CSV path")
    synth.set_defaults(func=cmd_synth)

    window = subs.add_parser("window", help="ingest raw CSV, window, and split")
    window.add_argument("--in", dest="input", required=True, help="corpus CSV")
    window.add_argument("--policy", choices=("start", "middle", "random"), default="middle")
    window.add_argument("--length", type=int, default=540)
    window.add_argument("--split-ratio", type=float, default=0.8)
    window.add_argument("--nonfinite", choices=("drop", "ffill"), default="drop")
    _add_common(window, out_help="challenge archive path (.npz)")
    window.set_defaults(func=cmd_window)

    featurize = subs.add_parser("featurize", help="fit a reduction on train, apply to both splits")
    featurize.add_argument("--in", dest="input", required=True, help="challenge archive")
    featurize.add_argument("--reduction", default="cov", help="cov or pca-<k>")
    featurize.add_argument("--reduction-out", default=None,
                           help="also save the fitted reduction bundle")
    _add_common(featurize, out_help="feature set path (.npz)")
    featurize.set_defaults(func=cmd_featurize)

    train = subs.add_parser("train", help="train one model on a feature set")
    train.add_argument("--in", dest="input", required=True, help="feature set")
    train.add_argument("--model", choices=MODEL_FAMILIES, required=True)
    train.add_argument("--n-trees", type=int, default=rf["n_trees"])
    train.add_argument("--min-leaf", type=int, default=rf["min_leaf"])
    train.add_argument("--max-depth", type=int, default=None,
                       help=f"default: no limit for rf, {gbt['max_depth']} for gbt")
    train.add_argument("--c", type=float, default=svm["C"], help="SVM box constraint")
    train.add_argument("--kernel", choices=("rbf", "linear"), default=svm["kernel"])
    train.add_argument("--rbf-gamma", type=float, default=svm["gamma"])
    train.add_argument("--tol", type=float, default=svm["tol"])
    train.add_argument("--max-iter", type=int, default=svm["max_iter"],
                       help="SVM solver cap: at most this many pair updates per training row")
    train.add_argument("--rounds", type=int, default=gbt["rounds"])
    train.add_argument("--learning-rate", type=float, default=gbt["learning_rate"])
    train.add_argument("--min-split-loss", type=float, default=gbt["gamma"], help="GBT gamma")
    train.add_argument("--gbt-alpha", type=float, default=gbt["alpha"])
    train.add_argument("--gbt-lambda", type=float, default=gbt["lambda"])
    train.add_argument("--allow-nonconverged", action="store_true")
    _add_common(train, out_help="model path (.wlc1)")
    train.set_defaults(func=cmd_train)

    pred = subs.add_parser("predict", help="predict labels for a feature set split")
    pred.add_argument("--model-path", required=True)
    pred.add_argument("--in", dest="input", required=True, help="feature set")
    pred.add_argument("--split", choices=("train", "test"), default="test")
    _add_common(pred, out_help="predictions CSV path")
    pred.set_defaults(func=cmd_predict)

    ev = subs.add_parser("evaluate", help="score a model on a feature set split")
    ev.add_argument("--model-path", required=True)
    ev.add_argument("--in", dest="input", required=True, help="feature set")
    ev.add_argument("--split", choices=("train", "test"), default="test")
    _add_common(ev, out_help="report path (.jsonl)")
    ev.set_defaults(func=cmd_evaluate)

    gs = subs.add_parser("gridsearch", help="cross-validated grid search on an archive")
    gs.add_argument("--in", dest="input", required=True, help="challenge archive")
    gs.add_argument("--family", choices=MODEL_FAMILIES, required=True)
    gs.add_argument("--reductions", default="cov", help="comma list: cov, pca-<k>")
    gs.add_argument("--folds", type=int, default=None,
                    help="default: 10 for rf/svm, 5 for gbt")
    gs.add_argument("--n-trees", default=_joined(BASELINE_GRIDS["rf"]["n_trees"], "g"))
    gs.add_argument("--c", default=_joined(BASELINE_GRIDS["svm"]["C"], "g"))
    gs.add_argument("--kernel", choices=("rbf", "linear"), default=svm["kernel"])
    gs.add_argument("--max-iter", type=int, default=svm["max_iter"],
                    help="SVM solver cap: at most this many pair updates per training row")
    gs.add_argument("--max-depth", type=int, default=None)
    gs.add_argument("--rounds", default=_joined([gbt["rounds"]]))
    gs.add_argument("--learning-rate", type=float, default=gbt["learning_rate"])
    gs.add_argument("--min-split-loss", default=_joined([gbt["gamma"]], "g"))
    gs.add_argument("--gbt-alpha", default=_joined([gbt["alpha"]], "g"))
    gs.add_argument("--gbt-lambda", default=_joined([gbt["lambda"]], "g"))
    gs.add_argument("--model-out", default=None, help="save the refit best model")
    gs.add_argument("--reduction-out", default=None, help="save the refit reduction")
    gs.add_argument("--report-out", default=None, help="also evaluate on the test split")
    gs.add_argument("--allow-nonconverged", action="store_true")
    _add_common(gs, out_help="cell records path (.jsonl)")
    gs.set_defaults(func=cmd_gridsearch)

    rep = subs.add_parser("reproduce", help="rebuild the accuracy table from released archives")
    rep.add_argument("--manifest", required=True,
                     help="JSON mapping dataset names to archive paths")
    rep.add_argument("--families", default="svm,rf")
    rep.add_argument("--folds", type=int, default=None)
    rep.add_argument("--pca-ks", default=_joined(PCA_GRID_KS))
    rep.add_argument("--rf-trees", default=_joined(BASELINE_GRIDS["rf"]["n_trees"]))
    rep.add_argument("--svm-c", default=_joined(BASELINE_GRIDS["svm"]["C"]))
    rep.add_argument("--rounds", default=_joined([gbt["rounds"]]))
    rep.add_argument("--min-split-loss", default=_joined(BASELINE_GRIDS["gbt"]["gamma"]))
    rep.add_argument("--gbt-alpha", default=_joined(BASELINE_GRIDS["gbt"]["alpha"]))
    rep.add_argument("--gbt-lambda", default=_joined(BASELINE_GRIDS["gbt"]["lambda"]))
    rep.add_argument("--strict", action="store_true",
                     help="fail instead of skipping absent archives")
    _add_common(rep, out_help="table records path (.jsonl)")
    rep.set_defaults(func=cmd_reproduce)

    return parser, subs.choices


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # the file's flags go first, so the command line's win
            at = argv.index(args.command) + 1
            argv[at:at] = _config_tokens(commands[args.command], args.config)
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")

    start = time.monotonic()
    try:
        integer(args.seed, "--seed", 0)  # every stage seeds a SeedSequence with it
        if getattr(args, "folds", None) is not None:  # gridsearch and reproduce
            integer(args.folds, "--folds", 2)
        result = args.func(args)
        _write_manifest(args, result, time.monotonic() - start)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except WlclassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
