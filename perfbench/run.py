"""wlclass benchmark: three workloads through the command line interface.

    python3 perfbench/run.py --workload cv-trees --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. A run sets up the workload's input file
from the seed in a fresh interpreter, then runs the workload's CLI
command sequence in-process through `wlclass.cli.main` at the CLI's
default settings: once to warm up and save the model that is served,
then again until `--seconds` have passed, at least three more times.
Before each command of those timed passes it serves a block of single
windows through the first pass's saved reduction and model (closed
loop, one client), and after each pass it sets up the input again. It
checks every output. The last line of standard output is one JSON
object: the end-to-end metrics with `--trace 0`, the per-layer metrics
of one traced pass with `--trace 1` (see tracer.py). README.md defines
every metric.
"""

import argparse
import contextlib
import filecmp
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

from corpus import CorpusParams, write_inputs

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_PASSES = 4  # passes per run; the first warms up and is not timed
SERVED = 2000  # serving requests per timed pass, split evenly between its commands


@dataclass(frozen=True)
class Workload:
    corpus: CorpusParams
    #: argv templates; {input} is the set-up file, {out} the run's directory
    commands: tuple
    archive: str  # archive holding the test windows that are served
    reduction: str  # served reduction bundle
    model: str  # served model
    report: str  # report of the served model
    predictions: str | None = None  # batch predictions CSV of the served model


def _gridsearch(archive, family, name, *flags, serve=False):
    argv = ["gridsearch", "--in", archive, "--family", family, *flags,
            "--folds", "3", "--out", f"{{out}}/{name}_cells.jsonl",
            "--report-out", f"{{out}}/{name}_report.jsonl"]
    if serve:
        argv += ["--model-out", "{out}/model.wlc1", "--reduction-out", "{out}/reduction.npz"]
    return tuple(argv)


#: Sizes keep one pass to a few seconds on two cores, so that every run
#: makes at least MIN_PASSES passes and samples the run many times.
WORKLOADS = {
    "cv-trees": Workload(
        corpus=CorpusParams(noise=3.0, offset=0.3, scale=0.1, test_scale=0.1),
        commands=(
            _gridsearch("{input}", "rf", "rf", "--n-trees", "5,20", "--reductions", "cov",
                        serve=True),
            _gridsearch("{input}", "gbt", "gbt", "--rounds", "2", "--reductions", "cov"),
        ),
        archive="{input}",
        reduction="{out}/reduction.npz",
        model="{out}/model.wlc1",
        report="{out}/rf_report.jsonl",
    ),
    "staged-svm": Workload(
        corpus=CorpusParams(noise=2.0, offset=0.3, scale=0.07, test_scale=0.1, fixed_train=True),
        commands=(
            ("featurize", "--in", "{input}", "--reduction", "cov", "--out", "{out}/features.npz",
             "--reduction-out", "{out}/reduction.npz"),
            ("train", "--in", "{out}/features.npz", "--model", "svm", "--allow-nonconverged",
             "--out", "{out}/model.wlc1"),
            ("evaluate", "--model-path", "{out}/model.wlc1", "--in", "{out}/features.npz",
             "--out", "{out}/report.jsonl"),
            ("predict", "--model-path", "{out}/model.wlc1", "--in", "{out}/features.npz",
             "--out", "{out}/predictions.csv"),
        ),
        archive="{input}",
        reduction="{out}/reduction.npz",
        model="{out}/model.wlc1",
        report="{out}/report.jsonl",
        predictions="{out}/predictions.csv",
    ),
    "ingest-pca": Workload(
        corpus=CorpusParams(noise=3.0, offset=0.5, scale=0.1),
        commands=(
            ("window", "--in", "{input}", "--policy", "random", "--split-ratio", "0.5",
             "--out", "{out}/archive.npz"),
            _gridsearch("{out}/archive.npz", "rf", "rf", "--n-trees", "20", "--max-depth", "6",
                        "--reductions", "pca-16,pca-64", serve=True),
        ),
        archive="{out}/archive.npz",
        reduction="{out}/reduction.npz",
        model="{out}/model.wlc1",
        report="{out}/rf_report.jsonl",
    ),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import wlclass from this checkout's src/, never from elsewhere."""
    if not (SRC / "wlclass" / "__init__.py").is_file():
        raise BenchError(f"no wlclass package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import wlclass
    import wlclass.cli

    if Path(wlclass.__file__).resolve().parent != (SRC / "wlclass").resolve():
        raise BenchError(f"imported wlclass from {wlclass.__file__}, not from {SRC}")
    return wlclass


def load_guard(wlclass) -> int:
    """The pool size the CLI resolves when --threads is not given, if allowed."""
    resolve = getattr(wlclass.cli, "_resolve_threads", None)
    if resolve is None:
        raise BenchError("wlclass.cli._resolve_threads is gone; cannot tell the CLI's "
                         "default pool size")
    try:
        threads = resolve(None)
    except wlclass.UsageError as exc:
        raise BenchError(str(exc)) from None
    allowed = len(os.sched_getaffinity(0))
    if threads > allowed:
        raise BenchError(f"the CLI default of {threads} threads exceeds the {allowed} "
                         "usable cores; set WLCLASS_THREADS to at most that")
    return threads


# ---------------------------------------------------------------------------
# set-up

def setup_once(workload: Workload, seed: int, out_dir: Path) -> tuple:
    """One set-up in a fresh interpreter: import plus input generation."""
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("corpus.py")),
         json.dumps(asdict(workload.corpus)), str(seed), str(out_dir)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up failed:\n{proc.stderr}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record["setup_s"], Path(record["path"])


# ---------------------------------------------------------------------------
# the command sequence

def request_scope(tracer, request_id):
    """Tag the spans inside with a request id when tracing."""
    return tracer.request(request_id) if tracer else contextlib.nullcontext()


@dataclass
class Pass:
    directory: Path
    wall_s: float  # the commands' own wall time, without the serving blocks between them
    exit_codes: list


def run_sequence(wlclass, workload: Workload, input_path: Path, out_dir: Path,
                 tracer=None, between=None) -> Pass:
    """Run the command sequence once; `between()` runs, untimed, before each command."""
    out_dir.mkdir(parents=True)
    argvs = [[a.format(input=input_path, out=out_dir) for a in argv]
             for argv in workload.commands]
    codes = []
    wall = 0.0
    gc.collect()  # no pass pays for the previous pass's garbage
    with open(out_dir / "cli.log", "w") as log, contextlib.redirect_stdout(log):
        for i, argv in enumerate(argvs):
            if between:
                between()
            start = time.perf_counter()
            with request_scope(tracer, f"cmd-{i}"):
                try:
                    codes.append(wlclass.cli.main(argv))
                except Exception:  # an escaped error is a failed command
                    traceback.print_exc()
                    codes.append(-1)
            wall += time.perf_counter() - start
    for argv, code in zip(argvs, codes):
        if code != 0:
            print(f"command failed with exit {code}: wlclass {' '.join(argv)}", file=sys.stderr)
    return Pass(out_dir, wall, codes)


def artifacts(directory: Path) -> list:
    return sorted(p.name for p in directory.iterdir()
                  if p.is_file() and not p.name.endswith(".manifest.json") and p.name != "cli.log")


def same_artifacts(first: Path, other: Path) -> bool:
    names = artifacts(first)
    if names != artifacts(other):
        return False
    _, mismatch, errors = filecmp.cmpfiles(first, other, names, shallow=False)
    return not mismatch and not errors


def machine_counts(wlclass, directory: Path) -> tuple:
    """(binary SVM machines, non-converged ones) over the saved models."""
    machines = nonconverged = 0
    for path in sorted(directory.glob("*.wlc1")):
        model, _ = wlclass.load_model(path)
        for machine in getattr(model, "machines", ()):
            machines += 1
            nonconverged += not machine.converged
    return machines, nonconverged


# ---------------------------------------------------------------------------
# serving and checks

def read_jsonl(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def batch_labels(wlclass, workload: Workload, fmt: dict) -> tuple:
    """(reduction, model, test windows, their labels, the model's batch labels)."""
    reduction = wlclass.cli.read_reduction_bundle(workload.reduction.format(**fmt))
    model, _ = wlclass.load_model(workload.model.format(**fmt))
    dataset = wlclass.read_challenge_archive(workload.archive.format(**fmt))
    batch = wlclass.predict(model, reduction.transform(dataset.x_test))
    return reduction, model, dataset.x_test, dataset.y_test, batch


class Server:
    """Closed loop, one client: labels single test windows with one pass's saved
    reduction and model, in blocks, and checks each label against the batch one."""

    def __init__(self, wlclass, workload: Workload, fmt: dict, seed: int):
        import numpy as np

        self.predict = wlclass.predict
        self.reduction, self.model, self.x_test, _, self.batch = \
            batch_labels(wlclass, workload, fmt)
        self.order = np.random.default_rng(seed).permutation(len(self.batch))
        self.cpu, self.wall = [], []
        self.requests = self.errors = self.mismatches = 0

    def block(self, count: int, tracer=None) -> None:
        # Requests pay for their own collections only, not for the pass's objects.
        gc.collect()
        gc.freeze()
        try:
            for _ in range(count):
                i = self.requests
                self.requests += 1
                j = int(self.order[i % len(self.order)])
                with request_scope(tracer, f"serve-{i}"):
                    start, start_cpu = time.perf_counter(), time.thread_time()
                    try:
                        window = self.reduction.transform(self.x_test[j:j + 1])
                        label = int(self.predict(self.model, window)[0])
                    except Exception:  # a failed request counts, and is not timed
                        traceback.print_exc()
                        self.errors += 1
                        continue
                    self.cpu.append(time.thread_time() - start_cpu)
                    self.wall.append(time.perf_counter() - start)
                self.mismatches += label != self.batch[j]
        finally:
            gc.unfreeze()


def check_outputs(wlclass, workload: Workload, fmt: dict) -> list:
    """Problems found in one pass's outputs; empty when all hold."""
    import numpy as np

    problems = []
    for path in sorted(Path(fmt["out"]).glob("*report.jsonl")):
        summary, *rest = read_jsonl(path)
        confusion = np.array(next(r["matrix"] for r in rest if r["record"] == "confusion"))
        if summary["accuracy"] != 100.0 * np.trace(confusion) / confusion.sum():
            problems.append(f"{path.name}: accuracy disagrees with its confusion matrix")
    *_, y_test, batch = batch_labels(wlclass, workload, fmt)
    report = read_jsonl(Path(workload.report.format(**fmt)))
    recomputed = 100.0 * int((batch == y_test).sum()) / len(y_test)
    if report[0]["accuracy"] != recomputed:
        problems.append(f"report accuracy {report[0]['accuracy']} != {recomputed} "
                        "recomputed from the saved model's predictions")
    if workload.predictions:
        with open(workload.predictions.format(**fmt)) as fh:
            labels = [int(line.split(",")[1]) for line in fh.readlines()[1:]]
        if labels != batch.tolist():
            problems.append("predictions CSV disagrees with the saved model's labels")
    return problems


def serving_problems(server: Server) -> list:
    if server.mismatches:
        return [f"{server.mismatches} served label(s) differ from the batch label of "
                "their window"]
    return []


def cpu_ticks() -> tuple:
    """(stolen, total) jiffies of the whole machine, or zeros off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def percentile(values, share: float) -> float:
    """The smallest sample with at least `share` of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# runs

def checked_pass(wlclass, workload, input_path, out_dir, between=None) -> tuple:
    """One pass of the command sequence and the problems found in its outputs."""
    sequence = run_sequence(wlclass, workload, input_path, out_dir, between=between)
    failures = sum(code != 0 for code in sequence.exit_codes)
    if failures:
        return sequence, [f"{out_dir.name}: {failures} CLI command(s) exited non-zero"]
    return sequence, check_outputs(wlclass, workload, {"input": input_path, "out": out_dir})


def determinism_problems(directories) -> list:
    first, *others = directories
    return [f"{d.name} outputs differ from {first.name}"
            for d in others if not same_artifacts(first, d)]


def end_to_end(wlclass, name: str, workload: Workload, seed: int, seconds: float) -> dict:
    work = WORK / name
    setups = [setup_once(workload, seed, work / "setup0")]
    input_path = setups[0][1]
    ticks = cpu_ticks()
    start = time.perf_counter()
    # The first pass warms up and saves the model that is served. Serving
    # blocks run between the commands of every later pass, and set-ups
    # between passes, so that all three sample the whole run.
    first, problems = checked_pass(wlclass, workload, input_path, work / "pass0")
    if problems:  # nothing to serve; the problems say why
        return {"problems": problems, "attempted": len(first.exit_codes),
                "failed": sum(code != 0 for code in first.exit_codes), "metrics": {}}
    server = Server(wlclass, workload, {"input": input_path, "out": first.directory}, seed)
    per_command = SERVED // len(workload.commands)
    passes = [first]
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        sequence, found = checked_pass(wlclass, workload, input_path, work / f"pass{len(passes)}",
                                       between=lambda: server.block(per_command))
        passes.append(sequence)
        problems += found
        setup_s, path = setup_once(workload, seed, work / f"setup{len(setups)}")
        setups.append((setup_s, path))
        if not filecmp.cmp(input_path, path, shallow=False):
            problems.append(f"set-up {len(setups) - 1} wrote other inputs than set-up 0")
        shutil.rmtree(path.parent)
    stolen, total = (after - before for after, before in zip(cpu_ticks(), ticks))
    problems += serving_problems(server)
    problems += determinism_problems([p.directory for p in passes])

    timed = passes[1:]
    commands = sum(len(p.exit_codes) for p in passes)
    command_failures = sum(code != 0 for p in passes for code in p.exit_codes)
    machines = [machine_counts(wlclass, p.directory) for p in passes]
    ops = commands + sum(m for m, _ in machines)
    failed_ops = command_failures + sum(n for _, n in machines)
    latencies = [1e3 * t for t in server.cpu]
    wall = [1e3 * t for t in server.wall]
    if not latencies:  # every request failed; the problems say so
        return {"problems": problems + ["no request was served"], "attempted": commands
                + server.requests, "failed": command_failures + server.errors, "metrics": {}}
    report = read_jsonl(Path(workload.report.format(input=input_path, out=first.directory)))
    metrics = {
        "run_s": (statistics.median(p.wall_s for p in timed), "s"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "test_acc_pct": (report[0]["accuracy"], "%"),
        "classify_p90_ms": (percentile(latencies, 0.90), "ms"),
        "classify_p99_ms": (percentile(latencies, 0.99), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_ops_pct": (100.0 * (ops - failed_ops) / ops, "%"),
    }
    print(f"passes: {len(passes)}, the first untimed ("
          + ", ".join(f"{p.wall_s:.3f}" for p in passes) + " s); "
          f"serving: {server.requests} requests, {per_command} before each command, "
          f"{len(latencies)} timed; "
          f"set-ups: {len(setups)} (" + ", ".join(f"{s:.3f}" for s, _ in setups) + " s); "
          f"host steal {100.0 * stolen / max(total, 1):.1f}% of CPU time")
    print(f"not bounded: classify_mean_ms {statistics.fmean(latencies):.4f}, "
          f"classify_p50_ms {statistics.median(latencies):.4f} over {len(latencies)} requests; "
          f"wall-clock classify_p50_ms {statistics.median(wall):.4f}, "
          f"classify_p99_ms {percentile(wall, 0.99):.4f}")
    print(f"failed_ops_pct: {100.0 * failed_ops / ops:.4f} % "
          f"({failed_ops} failed of {ops}: {commands} CLI commands "
          f"+ {ops - commands} SVM machines; {command_failures} command failures)")
    return {
        "problems": problems,
        "attempted": commands + server.requests,
        "failed": command_failures + server.errors,
        "metrics": metrics,
    }


def traced(wlclass, name: str, workload: Workload, seed: int, threads: int) -> dict:
    from tracer import Tracer, layer_metrics

    work = WORK / name
    tracer = Tracer()
    tracer.install()
    try:
        (work / "setup").mkdir(parents=True)
        with tracer.request("setup"):
            input_path = write_inputs(workload.corpus, seed, work / "setup")
    finally:
        tracer.uninstall()

    warm = run_sequence(wlclass, workload, input_path, work / "pass0")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    plain = run_sequence(wlclass, workload, input_path, work / "pass1")
    after = resource.getrusage(resource.RUSAGE_SELF)
    fmt = {"input": input_path, "out": work / "pass2"}
    server = None
    tracer.install()
    try:
        spanned = run_sequence(wlclass, workload, input_path, fmt["out"], tracer=tracer)
        if all(code == 0 for code in spanned.exit_codes):
            with tracer.request("serve-load"):
                server = Server(wlclass, workload, fmt, seed)
            server.block(SERVED, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(work / "spans.jsonl")

    sequences = (warm, plain, spanned)
    failures = sum(code != 0 for p in sequences for code in p.exit_codes)
    if failures:
        problems = [f"{failures} CLI command(s) exited non-zero"]
    else:
        problems = check_outputs(wlclass, workload, fmt) + serving_problems(server)
        problems += determinism_problems([p.directory for p in sequences])

    layers = layer_metrics(tracer)
    layers.update({
        "process.cpu_s": (after.ru_utime + after.ru_stime) - (usage.ru_utime + usage.ru_stime),
        "process.wall_s": plain.wall_s,
        "process.threads": threads,
        "trace.overhead_s": spanned.wall_s - plain.wall_s,
        "trace.missing_hooks": len(tracer.missing),
        "trace.spans": len(tracer.spans),
    })
    for target in tracer.missing:
        print(f"missing hook target: {target}", file=sys.stderr)
    top = sorted(((v, k) for k, v in layers.items()
                  if k.endswith("_s") and not k.startswith(("process.", "trace."))),
                 reverse=True)[:8]
    print("busiest: " + ", ".join(f"{k} {v:.3f}s" for v, k in top))
    return {
        "problems": problems,
        "attempted": sum(len(p.exit_codes) for p in sequences) + SERVED,
        "failed": failures + (server.errors if server else SERVED),
        "metrics": {k: (v, _unit(k)) for k, v in layers.items()},
    }


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        wlclass = import_package()
        threads = load_guard(wlclass)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = traced(wlclass, args.workload, workload, args.seed, threads)
    else:
        result = end_to_end(wlclass, args.workload, workload, args.seed, args.seconds)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for metric, (value, unit) in result["metrics"].items():
        print(f"{metric}: {value} {unit}")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
