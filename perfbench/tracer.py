"""Outside-in tracing: spans around the package's public calls.

Nothing inside the package is edited. `Tracer.install()` replaces each
hook target, under the name its caller looks it up by, with a wrapper
that records a span (name, start, end, parent, thread, request id), and
replaces the `ThreadPoolExecutor` name the package modules imported with
a subclass that runs each task in the submitter's context, so worker
spans link to the span that submitted them. `uninstall()` restores every
original. Spans stay in memory until the run ends.
"""

import contextlib
import contextvars
import importlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

#: (module, attribute, span name). The module is the namespace the caller
#: resolves the name in, so `from .x import f` call sites are covered.
HOOKS = (
    ("wlclass.cli", "main", "cli.main"),
    ("wlclass.cli", "cmd_window", "cli.window"),
    ("wlclass.cli", "cmd_featurize", "cli.featurize"),
    ("wlclass.cli", "cmd_train", "cli.train"),
    ("wlclass.cli", "cmd_evaluate", "cli.evaluate"),
    ("wlclass.cli", "cmd_predict", "cli.predict"),
    ("wlclass.cli", "cmd_gridsearch", "cli.gridsearch"),
    ("wlclass.cli", "ingest_raw_csv", "dataset_io.ingest_csv"),
    ("wlclass", "write_challenge_archive", "dataset_io.archive_write"),
    ("wlclass.cli", "write_challenge_archive", "dataset_io.archive_write"),
    ("wlclass", "read_challenge_archive", "dataset_io.archive_read"),
    ("wlclass.cli", "read_challenge_archive", "dataset_io.archive_read"),
    ("wlclass", "generate_corpus", "synth.generate"),
    ("wlclass", "extract_window", "windowing.build"),
    ("wlclass.cli", "build_challenge_dataset", "windowing.build"),
    ("wlclass.model_selection", "fit_standardizer", "features.standardize"),
    ("wlclass.model_selection", "apply_standardizer", "features.standardize"),
    ("wlclass.features", "apply_standardizer", "features.standardize"),
    ("wlclass.model_selection", "covariance_feature_matrix", "features.cov"),
    ("wlclass.model_selection", "fit_pca", "features.pca_fit"),
    ("wlclass.features", "project_pca", "features.pca_project"),
    ("wlclass.cli", "grid_search", "model_selection.grid_search"),
    ("wlclass.cli", "evaluate_pipeline", "model_selection.evaluate_pipeline"),
    ("wlclass.cli", "fit_reduction", "model_selection.fit_reduction"),
    ("wlclass.model_selection", "fit_reduction", "model_selection.fit_reduction"),
    ("wlclass.cli", "train_family", "model_selection.train_family"),
    ("wlclass.model_selection", "train_family", "model_selection.train_family"),
    ("wlclass.model_selection", "train_forest", "classifiers.forest.train"),
    ("wlclass.classifiers.forest", "train_tree", "classifiers.tree.train"),
    ("wlclass.model_selection", "train_gbt", "classifiers.gbt.train"),
    ("wlclass.model_selection", "train_svm_multiclass", "classifiers.svm.train"),
    ("wlclass.classifiers.svm", "kernel_matrix", "classifiers.svm.kernel"),
    ("wlclass", "predict", "classifiers.predict"),
    ("wlclass.cli", "predict", "classifiers.predict"),
    ("wlclass.model_selection", "predict", "classifiers.predict"),
    ("wlclass", "load_model", "classifiers.serialize.load"),
    ("wlclass.cli", "load_model", "classifiers.serialize.load"),
    ("wlclass.cli", "save_model", "classifiers.serialize.save"),
)

#: Modules whose thread pools must carry the submitter's span.
POOL_MODULES = (
    "wlclass.model_selection",
    "wlclass.classifiers.forest",
    "wlclass.classifiers.svm",
    "wlclass.synth",
)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _path_bytes(index: int):
    """Size of the file named by the call's path argument."""
    return lambda a, k, r: {"bytes": _file_size(a[index] if len(a) > index else k.get("path"))}


#: Span name -> (args, kwargs, result) -> counts kept on the span. Only
#: small values are kept, so tracing never pins the tensors a call received.
COUNTERS = {
    "dataset_io.ingest_csv": lambda a, k, r: {"rows": sum(t.n_samples for t in r)},
    "dataset_io.archive_write": _path_bytes(1),
    "dataset_io.archive_read": _path_bytes(0),
    "classifiers.tree.train": lambda a, k, r: {"tree": r},
    "classifiers.gbt.train": lambda a, k, r: {"trees": sum(len(trees) for trees in r.rounds)},
    "classifiers.svm.train": lambda a, k, r: {
        "machines": len(r.machines),
        "nonconverged": sum(1 for m in r.machines if not m.converged),
    },
    "classifiers.predict": lambda a, k, r: {"rows": len(r)},
    "classifiers.serialize.save": _path_bytes(1),
}

_current = contextvars.ContextVar("perfbench_span", default=None)
_request = contextvars.ContextVar("perfbench_request", default=None)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    thread: int = 0
    request: object = None
    counts: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the union of the child spans' intervals."""
        covered, reach = 0.0, self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


class _PropagatingPool(ThreadPoolExecutor):
    """Runs each task in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []  # "module.attr" hook targets that no longer exist
        self._saved = []
        self._lock = threading.Lock()

    @staticmethod
    @contextlib.contextmanager
    def request(request_id):
        """Tag the spans of one CLI command or serving request."""
        token = _request.set(request_id)
        try:
            yield
        finally:
            _request.reset(token)

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = _current.get()
            span = Span(name, time.perf_counter(), parent=parent,
                        thread=threading.get_ident(), request=_request.get())
            token = _current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                _current.reset(token)
                with self._lock:
                    self.spans.append(span)
                    if parent is not None:
                        parent.children.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, module_name, attr, make):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        for module_name, attr, span_name in HOOKS:
            self._replace(module_name, attr, lambda fn, n=span_name: self._wrap(fn, n))
        for module_name in POOL_MODULES:
            self._replace(module_name, "ThreadPoolExecutor", lambda _: _PropagatingPool)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        """One JSON line per span, parents by index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": index.get(id(s.parent)),
                    "thread": s.thread,
                    "request": s.request,
                }) + "\n")


def _tree_nodes(root) -> int:
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(c for c in (getattr(node, "left", None), getattr(node, "right", None))
                     if c is not None)
    return count


def layer_metrics(tracer: Tracer) -> dict:
    """Busy time, self time and counts per layer from the recorded spans."""
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_time(names):
        return sum(s.self_time for n in names for s in by_name.get(n, ()))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    commands = ("window", "featurize", "train", "evaluate", "predict", "gridsearch")
    out = {f"cli.{c}_s": busy(f"cli.{c}") for c in commands}
    out.update({
        "cli.self_s": self_time(["cli.main"] + [f"cli.{c}" for c in commands]),
        "dataset_io.ingest_csv_s": busy("dataset_io.ingest_csv"),
        "dataset_io.ingest_rows": total("dataset_io.ingest_csv", "rows"),
        "dataset_io.archive_write_s": busy("dataset_io.archive_write"),
        "dataset_io.archive_read_s": busy("dataset_io.archive_read"),
        "dataset_io.archive_bytes": total("dataset_io.archive_write", "bytes")
        + total("dataset_io.archive_read", "bytes"),
        "synth.generate_s": busy("synth.generate"),
        "windowing.build_s": busy("windowing.build"),
        "features.standardize_s": busy("features.standardize"),
        "features.cov_s": busy("features.cov"),
        "features.pca_fit_s": busy("features.pca_fit"),
        "features.pca_fits": len(by_name.get("features.pca_fit", ())),
        "features.pca_project_s": busy("features.pca_project"),
        "model_selection.grid_search_s": busy("model_selection.grid_search"),
        "model_selection.grid_search_self_s": self_time(["model_selection.grid_search"]),
        "model_selection.reduction_fits": len(by_name.get("model_selection.fit_reduction", ())),
        "model_selection.model_fits": len(by_name.get("model_selection.train_family", ())),
        "classifiers.forest.train_s": busy("classifiers.forest.train"),
        "classifiers.forest.self_s": self_time(["classifiers.forest.train"]),
        "classifiers.tree.train_s": busy("classifiers.tree.train"),
        "classifiers.tree.trees": len(by_name.get("classifiers.tree.train", ())),
        "classifiers.tree.nodes": sum(
            _tree_nodes(s.counts["tree"]) for s in by_name.get("classifiers.tree.train", ())
        ),
        "classifiers.gbt.train_s": busy("classifiers.gbt.train"),
        "classifiers.gbt.trees": total("classifiers.gbt.train", "trees"),
        "classifiers.svm.train_s": busy("classifiers.svm.train"),
        "classifiers.svm.machines": total("classifiers.svm.train", "machines"),
        "classifiers.svm.nonconverged": total("classifiers.svm.train", "nonconverged"),
        "classifiers.svm.kernel_s": busy("classifiers.svm.kernel"),
        "classifiers.svm.kernel_calls": len(by_name.get("classifiers.svm.kernel", ())),
        "classifiers.predict_s": busy("classifiers.predict"),
        "classifiers.predict_rows": total("classifiers.predict", "rows"),
        "classifiers.serialize.save_s": busy("classifiers.serialize.save"),
        "classifiers.serialize.load_s": busy("classifiers.serialize.load"),
        "classifiers.serialize.model_bytes": total("classifiers.serialize.save", "bytes"),
    })
    return out
