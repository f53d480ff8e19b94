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
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .classifiers import load_model, predict, save_model
from .dataset_io import (
    GPU_SENSORS,
    canonical_json,
    ingest_raw_csv,
    read_bundle,
    read_challenge_archive,
    write_bundle,
    write_challenge_archive,
)
from .errors import (
    ConvergenceError,
    DataError,
    MalformedArchiveError,
    MissingArchiveError,
    NoConvergenceError,
    UsageError,
    WlclassError,
)
from .features import PcaModel, Standardizer
from .model_selection import (
    BASELINE_GRIDS,
    DATASET_COLUMNS,
    PCA_GRID_KS,
    REFERENCE_ACCURACY,
    FittedReduction,
    GridSpec,
    ReductionSpec,
    evaluate,
    evaluate_pipeline,
    fit_reduction,
    format_report,
    format_table,
    grid_search,
    reproduce_table,
    train_family,
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
        "flags": flags,
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
    with open(target, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_jsonl(path, records) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(canonical_json(record))
            fh.write("\n")


def _resolve_threads(value) -> int:
    if value is not None:
        threads = value
    else:
        env = os.environ.get("WLCLASS_THREADS", "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise UsageError(f"WLCLASS_THREADS must be an integer, got {env!r}") from None
        else:
            threads = os.cpu_count() or 1
    if threads < 1:
        raise UsageError(f"threads must be >= 1, got {threads}")
    return threads


# ---------------------------------------------------------------------------
# config files: key = value lines mirroring the flags; flags win

def _parse_config_text(text: str, path) -> dict:
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _flag_given(argv, option_strings) -> bool:
    return any(
        token == opt or token.startswith(opt + "=")
        for token in argv
        for opt in option_strings
    )


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _apply_config(subparser, args, argv) -> None:
    if not args.config:
        return
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from None
    entries = _parse_config_text(text, args.config)
    actions = {a.dest: a for a in subparser._actions if a.option_strings}
    for raw_key, raw_value in entries.items():
        dest = raw_key.replace("-", "_")
        action = actions.get(dest)
        if action is None or dest in ("help", "config"):
            raise UsageError(f"unknown config key {raw_key!r} for {args.command}")
        if _flag_given(argv, action.option_strings):
            continue  # the command line wins
        if action.nargs == 0 and isinstance(action.const, bool):
            word = raw_value.lower()
            if word not in _BOOL_WORDS:
                raise UsageError(f"config key {raw_key!r} needs a boolean, got {raw_value!r}")
            value = _BOOL_WORDS[word]
        elif callable(action.type):
            try:
                value = action.type(raw_value)
            except (TypeError, ValueError) as exc:
                raise UsageError(f"config key {raw_key!r}: {exc}") from None
        else:
            value = raw_value
        setattr(args, dest, value)


def _int_list(text: str) -> list:
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _float_list(text: str) -> list:
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from None


# ---------------------------------------------------------------------------
# binary sidecar artifacts: feature sets and fitted reductions

_STANDARDIZER_KEYS = ("means", "stds", "constant")
_PCA_KEYS = ("pca_mean", "pca_components", "pca_variance")


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


def write_reduction_bundle(path, reduction: FittedReduction) -> None:
    spec, std, pca = reduction.spec, reduction.standardizer, reduction.pca
    arrays = {"means": std.means, "stds": std.stds, "constant": std.constant.astype(np.int64)}
    if pca is not None:
        arrays.update(pca_mean=pca.mean, pca_components=pca.components,
                      pca_variance=pca.explained_variance)
    write_bundle(path, arrays, {
        "kind": spec.kind,
        "k": spec.k,
        "center_per_trial": spec.center_per_trial,
        "scale_unbiased": spec.scale_unbiased,
        "rank_deficient": bool(pca.rank_deficient) if pca else False,
    })


def read_reduction_bundle(path) -> FittedReduction:
    """Load a fitted reduction, checking that its members fit together.

    Raises:
        MalformedArchiveError: besides unreadable members, a bad kind or k,
            PCA members on a cov bundle or missing from a PCA one, or a
            member whose shape or dtype disagrees with the others: m-vectors
            means and stds (float) and constant (integer), and for PCA a
            d-vector pca_mean, k x d pca_components and k-vector pca_variance.
    """
    bundle = read_bundle(path, (*_STANDARDIZER_KEYS, "meta"), _PCA_KEYS)
    meta = bundle.pop("meta")
    kind, k = meta.get("kind"), meta.get("k")
    if not (kind == "cov" and k is None or kind == "pca" and type(k) is int and k >= 1):
        raise MalformedArchiveError(f"reduction bundle {path}: bad kind {kind!r} with k {k!r}")
    expected = _STANDARDIZER_KEYS + (_PCA_KEYS if kind == "pca" else ())
    if set(bundle) != set(expected):
        raise MalformedArchiveError(f"reduction bundle {path}: {kind} with {sorted(bundle)}")
    m, d = bundle["means"].size, bundle.get("pca_mean", bundle["means"]).size
    shapes = {"means": (m,), "stds": (m,), "constant": (m,),
              "pca_mean": (d,), "pca_components": (k, d), "pca_variance": (k,)}
    for key in expected:
        arr = bundle[key]
        if arr.shape != shapes[key] or arr.dtype.kind != ("i" if key == "constant" else "f"):
            raise MalformedArchiveError(f"reduction bundle {path}: {key} is {arr.dtype} "
                                        f"{arr.shape}, expected shape {shapes[key]}")
    std = Standardizer(bundle["means"], bundle["stds"], bundle["constant"].astype(bool))
    pca = None
    if kind == "pca":
        pca = PcaModel(bundle["pca_mean"], bundle["pca_components"], bundle["pca_variance"], k,
                       rank_deficient=bool(meta.get("rank_deficient", False)))
    spec = ReductionSpec(kind, k, center_per_trial=bool(meta.get("center_per_trial", False)),
                         scale_unbiased=bool(meta.get("scale_unbiased", False)))
    return FittedReduction(spec=spec, standardizer=std, pca=pca)


# ---------------------------------------------------------------------------
# subcommand handlers

def _synth_spec(args):
    common = dict(
        seed=args.seed,
        length_range=(args.length_min, args.length_max),
        warmup_samples=args.warmup,
    )
    if args.classes == 4:
        noise = 0.3 if args.noise is None else args.noise
        return default_4_class_spec(noise=noise, jobs_per_class=args.jobs_per_class, **common)
    noise = 0.5 if args.noise is None else args.noise
    return default_26_class_spec(scale=args.scale, noise=noise, **common)


def _write_corpus_csv(path, trials) -> None:
    with open(path, "w", newline="") as fh:
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
    threads = _resolve_threads(args.threads)
    spec = _synth_spec(args)
    trials = generate_corpus(spec, physical=not args.no_physical, threads=threads)
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
    dataset = read_challenge_archive(args.input)
    if args.reduction == "pca":
        spec = ReductionSpec("pca", k=args.k)
    else:
        spec = ReductionSpec(
            "cov", center_per_trial=args.center_per_trial, scale_unbiased=args.unbiased
        )
    reduction = fit_reduction(spec, dataset.x_train)
    features_train = reduction.transform(dataset.x_train)
    features_test = reduction.transform(dataset.x_test)
    meta = {
        "reduction": spec.describe(),
        "class_names": list(dataset.model_train),
        "fingerprint": reduction.fingerprint(),
        "source": Path(args.input).name,
        "n_train": int(features_train.shape[0]),
        "n_test": int(features_test.shape[0]),
    }
    write_feature_set(args.out, features_train, dataset.y_train, features_test,
                      dataset.y_test, meta)
    if args.reduction_out:
        write_reduction_bundle(args.reduction_out, reduction)
    print(
        f"featurize: {spec.describe()} -> {features_train.shape[1]} features "
        f"({meta['n_train']} train / {meta['n_test']} test)"
    )
    outputs = [args.out] + ([args.reduction_out] if args.reduction_out else [])
    return StageResult(outputs=outputs, inputs=[args.input])


def _train_params(args) -> dict:
    if args.model == "rf":
        params = {"n_trees": args.n_trees, "min_leaf": args.min_leaf}
        if args.max_depth is not None:
            params["max_depth"] = args.max_depth
        return params
    if args.model == "svm":
        params = {"C": args.c, "kernel": args.kernel, "tol": args.tol,
                  "max_iter": args.max_iter}
        if args.rbf_gamma is not None:
            params["gamma"] = args.rbf_gamma
        return params
    params = {"rounds": args.rounds, "learning_rate": args.learning_rate,
              "gamma": args.min_split_loss, "alpha": args.gbt_alpha,
              "lambda": args.gbt_lambda}
    if args.max_depth is not None:
        params["max_depth"] = args.max_depth
    return params


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
    features_train, y_train, _, _, meta = read_feature_set(args.input)
    n_classes = max(len(meta.get("class_names", [])), int(y_train.max()) + 1)
    params = _train_params(args)
    model = train_family(args.model, features_train, y_train, params, args.seed, n_classes)
    _check_converged(model, args.allow_nonconverged)
    provenance = {
        "family": args.model,
        "params": {k: v for k, v in params.items()},
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
    with open(args.out, "w", newline="") as fh:
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


def _parse_reductions(text: str) -> tuple:
    specs = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        if token == "cov":
            specs.append(ReductionSpec("cov"))
        elif token.startswith("pca-"):
            try:
                k = int(token[4:])
            except ValueError:
                raise UsageError(f"bad reduction token {token!r}; use cov or pca-<k>") from None
            specs.append(ReductionSpec("pca", k=k))
        else:
            raise UsageError(f"bad reduction token {token!r}; use cov or pca-<k>")
    if not specs:
        raise UsageError("at least one reduction is required")
    return tuple(specs)


def _grid_for(args) -> dict:
    if args.family == "rf":
        grid = {"n_trees": _int_list(args.n_trees)}
        if args.max_depth is not None:
            grid["max_depth"] = [args.max_depth]
        return grid
    if args.family == "svm":
        return {"C": _float_list(args.c), "kernel": [args.kernel],
                "max_iter": [args.max_iter]}
    grid = {
        "rounds": _int_list(args.rounds),
        "gamma": _float_list(args.min_split_loss),
        "alpha": _float_list(args.gbt_alpha),
        "lambda": _float_list(args.gbt_lambda),
        "learning_rate": [args.learning_rate],
    }
    if args.max_depth is not None:
        grid["max_depth"] = [args.max_depth]
    return grid


def cmd_gridsearch(args) -> StageResult:
    dataset = read_challenge_archive(args.input)
    spec = GridSpec(
        model_family=args.family,
        hyperparameter_grid=_grid_for(args),
        reduction_grid=_parse_reductions(args.reductions),
        folds=args.folds,
        seed=args.seed,
    )
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

    print(f"gridsearch: {len(result.cells)} cells x {spec.effective_folds} folds")
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
    except json.JSONDecodeError as exc:
        raise MalformedArchiveError(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in payload.items()
    ):
        raise MalformedArchiveError(f"manifest {path} must map dataset names to paths")
    return payload


def cmd_reproduce(args) -> StageResult:
    manifest = _load_manifest_paths(args.manifest)
    unknown = sorted(set(manifest) - set(DATASET_COLUMNS))
    if unknown:
        log.warning("ignoring unrecognized dataset names: %s", ", ".join(unknown))
    present, missing = {}, []
    for name in DATASET_COLUMNS:
        path = manifest.get(name)
        if path is None:
            missing.append(name)
        elif not Path(path).is_file():
            if args.strict:
                raise MissingArchiveError(f"archive for {name!r} not found at {path}")
            log.warning("archive for %s not found at %s; skipping", name, path)
            missing.append(name)
        else:
            present[name] = path
    grids = {
        "rf": {"n_trees": _int_list(args.rf_trees)},
        "svm": {"C": _float_list(args.svm_c)},
        "gbt": {
            "rounds": _int_list(args.rounds),
            "gamma": _float_list(args.min_split_loss),
            "alpha": _float_list(args.gbt_alpha),
            "lambda": _float_list(args.gbt_lambda),
        },
    }
    families = [tok.strip() for tok in args.families.split(",") if tok.strip()]
    table = reproduce_table(
        present,
        families=families,
        seed=args.seed,
        folds=args.folds,
        grids=grids,
        pca_ks=tuple(_int_list(args.pca_ks)),
        require_all=args.strict,
    )
    records = []
    for name in missing:
        records.append({"record": "missing", "dataset": name})
    for row in table["rows"]:
        variant = row["variant"]
        reference = dict(zip(DATASET_COLUMNS, REFERENCE_ACCURACY.get(variant, ())))
        for column in table["columns"]:
            records.append({
                "record": "cell",
                "variant": variant,
                "dataset": column,
                "accuracy": row["accuracies"][column],
                "reference": reference.get(column),
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
    if out_required is not None:
        sub.add_argument("--out", required=out_required, help=out_help)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wlclass",
        description="Workload classification pipeline over GPU telemetry windows.",
    )
    parser.add_argument("--version", action="version", version=f"wlclass {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

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
    synth.add_argument("--threads", type=int, default=None,
                       help="trial generation pool (default: WLCLASS_THREADS or all cores)")
    _add_common(synth, out_required=False, out_help="corpus CSV path")
    synth.set_defaults(func=cmd_synth)
    registry["synth"] = synth

    window = subs.add_parser("window", help="ingest raw CSV, window, and split")
    window.add_argument("--in", dest="input", required=True, help="corpus CSV")
    window.add_argument("--policy", choices=("start", "middle", "random"), default="middle")
    window.add_argument("--length", type=int, default=540)
    window.add_argument("--split-ratio", type=float, default=0.8)
    window.add_argument("--nonfinite", choices=("drop", "ffill"), default="drop")
    _add_common(window, out_help="challenge archive path (.npz)")
    window.set_defaults(func=cmd_window)
    registry["window"] = window

    featurize = subs.add_parser("featurize", help="fit a reduction on train, apply to both splits")
    featurize.add_argument("--in", dest="input", required=True, help="challenge archive")
    featurize.add_argument("--reduction", choices=("cov", "pca"), default="cov")
    featurize.add_argument("--k", type=int, default=28, help="PCA components")
    featurize.add_argument("--center-per-trial", action="store_true")
    featurize.add_argument("--unbiased", action="store_true",
                           help="divide Gram entries by n - 1")
    featurize.add_argument("--reduction-out", default=None,
                           help="also save the fitted reduction bundle")
    _add_common(featurize, out_help="feature set path (.npz)")
    featurize.set_defaults(func=cmd_featurize)
    registry["featurize"] = featurize

    train = subs.add_parser("train", help="train one model on a feature set")
    train.add_argument("--in", dest="input", required=True, help="feature set")
    train.add_argument("--model", choices=("rf", "svm", "gbt"), required=True)
    train.add_argument("--n-trees", type=int, default=100)
    train.add_argument("--min-leaf", type=int, default=1)
    train.add_argument("--max-depth", type=int, default=None)
    train.add_argument("--c", type=float, default=1.0, help="SVM box constraint")
    train.add_argument("--kernel", choices=("rbf", "linear"), default="rbf")
    train.add_argument("--rbf-gamma", type=float, default=None)
    train.add_argument("--tol", type=float, default=1e-3)
    train.add_argument("--max-iter", type=int, default=2000,
                       help="SVM solver cap: at most this many pair updates per training row")
    train.add_argument("--rounds", type=int, default=40)
    train.add_argument("--learning-rate", type=float, default=0.3)
    train.add_argument("--min-split-loss", type=float, default=0.0, help="GBT gamma")
    train.add_argument("--gbt-alpha", type=float, default=0.0)
    train.add_argument("--gbt-lambda", type=float, default=1.0)
    train.add_argument("--allow-nonconverged", action="store_true")
    _add_common(train, out_help="model path (.wlc1)")
    train.set_defaults(func=cmd_train)
    registry["train"] = train

    pred = subs.add_parser("predict", help="predict labels for a feature set split")
    pred.add_argument("--model-path", required=True)
    pred.add_argument("--in", dest="input", required=True, help="feature set")
    pred.add_argument("--split", choices=("train", "test"), default="test")
    _add_common(pred, out_help="predictions CSV path")
    pred.set_defaults(func=cmd_predict)
    registry["predict"] = pred

    ev = subs.add_parser("evaluate", help="score a model on a feature set split")
    ev.add_argument("--model-path", required=True)
    ev.add_argument("--in", dest="input", required=True, help="feature set")
    ev.add_argument("--split", choices=("train", "test"), default="test")
    _add_common(ev, out_help="report path (.jsonl)")
    ev.set_defaults(func=cmd_evaluate)
    registry["evaluate"] = ev

    gs = subs.add_parser("gridsearch", help="cross-validated grid search on an archive")
    gs.add_argument("--in", dest="input", required=True, help="challenge archive")
    gs.add_argument("--family", choices=("rf", "svm", "gbt"), required=True)
    gs.add_argument("--reductions", default="cov", help="comma list: cov, pca-<k>")
    gs.add_argument("--folds", type=int, default=None,
                    help="default: 10 for rf/svm, 5 for gbt")
    gs.add_argument("--n-trees", default="50,100,250")
    gs.add_argument("--c", default="0.1,1,10")
    gs.add_argument("--kernel", choices=("rbf", "linear"), default="rbf")
    gs.add_argument("--max-iter", type=int, default=2000,
                    help="SVM solver cap: at most this many pair updates per training row")
    gs.add_argument("--max-depth", type=int, default=None)
    gs.add_argument("--rounds", default="40")
    gs.add_argument("--learning-rate", type=float, default=0.3)
    gs.add_argument("--min-split-loss", default="0")
    gs.add_argument("--gbt-alpha", default="0")
    gs.add_argument("--gbt-lambda", default="1")
    gs.add_argument("--model-out", default=None, help="save the refit best model")
    gs.add_argument("--reduction-out", default=None, help="save the refit reduction")
    gs.add_argument("--report-out", default=None, help="also evaluate on the test split")
    gs.add_argument("--allow-nonconverged", action="store_true")
    _add_common(gs, out_help="cell records path (.jsonl)")
    gs.set_defaults(func=cmd_gridsearch)
    registry["gridsearch"] = gs

    rep = subs.add_parser("reproduce", help="rebuild the accuracy table from released archives")
    rep.add_argument("--manifest", required=True,
                     help="JSON mapping dataset names to archive paths")
    rep.add_argument("--families", default="svm,rf")
    rep.add_argument("--folds", type=int, default=None)
    rep.add_argument("--pca-ks", default=",".join(str(k) for k in PCA_GRID_KS))
    rep.add_argument("--rf-trees", default=",".join(str(v) for v in BASELINE_GRIDS["rf"]["n_trees"]))
    rep.add_argument("--svm-c", default=",".join(str(v) for v in BASELINE_GRIDS["svm"]["C"]))
    rep.add_argument("--rounds", default="40")
    rep.add_argument("--min-split-loss",
                     default=",".join(str(v) for v in BASELINE_GRIDS["gbt"]["gamma"]))
    rep.add_argument("--gbt-alpha",
                     default=",".join(str(v) for v in BASELINE_GRIDS["gbt"]["alpha"]))
    rep.add_argument("--gbt-lambda",
                     default=",".join(str(v) for v in BASELINE_GRIDS["gbt"]["lambda"]))
    rep.add_argument("--strict", action="store_true",
                     help="fail instead of skipping absent archives")
    _add_common(rep, out_help="table records path (.jsonl)")
    rep.set_defaults(func=cmd_reproduce)
    registry["reproduce"] = rep

    return parser, registry


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, registry = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")

    start = time.monotonic()
    try:
        _apply_config(registry[args.command], args, argv)
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
