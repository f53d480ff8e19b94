"""Every demo runs to completion from an empty working directory: each
demos/*.py with this checkout's package, each demos/*.sh with a `wlclass`
command that runs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SHELL_DEMOS = sorted((ROOT / "demos").glob("*.sh"))


def run_demo(argv, tmp_path, **env):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        argv, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_demos_found():
    assert len(DEMOS) >= 5
    assert SHELL_DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    run_demo([sys.executable, str(demo)], tmp_path)


@pytest.mark.parametrize("demo", SHELL_DEMOS, ids=lambda path: path.stem)
def test_shell_demo_runs(demo, tmp_path):
    """A shim first on PATH stands in for the installed `wlclass` command,
    and TMPDIR keeps the demo's mktemp -d inside tmp_path."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "wlclass"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m wlclass.cli "$@"\n')
    shim.chmod(0o755)
    run_demo(["sh", str(demo)], tmp_path, TMPDIR=str(tmp_path),
             PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))
