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
    # the serving harness loads reductions, and the load guard sizes the pool
    assert callable(wlclass.cli.read_reduction_bundle)
    assert callable(wlclass.cli._resolve_threads)
