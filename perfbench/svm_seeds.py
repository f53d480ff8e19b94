"""The staged-svm workload on seeded training sets instead of its fixed one.

    python3 perfbench/svm_seeds.py 1 2 3 4

Run from the root of a checkout. For each seed, it draws the training
jobs from that seed (the `staged-svm` workload pins them to
`corpus.TAXONOMY_SEED`), runs the workload's command sequence once and
prints the wall time, the test accuracy and the non-converged machines.
It shows the SMO solver's sensitivity to its training set, which the
benchmark's fixed training set keeps out of `run_s`. It checks nothing
and prints no benchmark result.
"""

import dataclasses
import shutil
import sys
from pathlib import Path

import run
from corpus import write_inputs


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [1, 2, 3, 4]
    wlclass = run.import_package()
    workload = run.WORKLOADS["staged-svm"]
    params = dataclasses.replace(workload.corpus, fixed_train=False)
    work = run.WORK / "svm_seeds"
    for seed in seeds:
        shutil.rmtree(work / str(seed), ignore_errors=True)
        (work / str(seed) / "setup").mkdir(parents=True)
        input_path = write_inputs(params, seed, work / str(seed) / "setup")
        done = run.run_sequence(wlclass, workload, input_path, work / str(seed) / "pass")
        machines, nonconverged = run.machine_counts(wlclass, done.directory)
        report = run.read_jsonl(done.directory / "report.jsonl")
        print(f"seed {seed}: {done.wall_s:.1f} s, test accuracy {report[0]['accuracy']:.1f}%, "
              f"{nonconverged} of {machines} machines not converged, "
              f"exit codes {done.exit_codes}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
