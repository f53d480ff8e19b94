"""The benchmark's tracer wraps package functions by (module, attribute);
each of those names must keep resolving, or traced runs lose their spans."""

import importlib
import importlib.util
import sys
from pathlib import Path

import wlclass.cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    hooks = load_tracer().HOOKS
    assert hooks
    missing = [f"{module}.{attr}" for module, attr, _ in hooks
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_names_the_benchmark_calls_directly():
    # the serving harness loads reductions, and the load guard reports the
    # CLI's thread count, which is 1: every command runs serially
    assert callable(wlclass.cli.read_reduction_bundle)
    assert callable(wlclass.cli._resolve_threads)
    assert wlclass.cli._resolve_threads(None) == 1


def test_traced_commands_fire_the_feature_and_selection_spans(tmp_path):
    """The spans fire only where the package calls the hooked names, so a
    refactor that moves a call out from under its hook shows up here."""
    archive = tmp_path / "arc.npz"
    assert wlclass.cli.main(["synth", "--classes", "4", "--jobs-per-class", "5",
                             "--length-min", "40", "--length-max", "45", "--length", "30",
                             "--emit-archive", str(archive)]) == 0
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert wlclass.cli.main(["featurize", "--in", str(archive), "--reduction", "pca-3",
                                 "--out", str(tmp_path / "pca.npz")]) == 0
        assert wlclass.cli.main(["gridsearch", "--in", str(archive), "--family", "rf",
                                 "--n-trees", "2", "--folds", "2",
                                 "--reductions", "cov,pca-2,pca-3",
                                 "--out", str(tmp_path / "cells.jsonl")]) == 0
    finally:
        tracer.uninstall()
    fired = {span.name for span in tracer.spans}
    assert {"features.standardize", "features.cov", "features.pca_fit",
            "features.pca_project", "model_selection.fit_reduction",
            "model_selection.train_family"} <= fired
