"""Byte-for-byte CLI snapshots: every file-taking subcommand on every sample.

``data/cli_snapshots.json`` holds the exit code, stdout and stderr of each
run below, in both output formats.  A change to the library that should not
change what the CLI prints must leave every entry as it is.  The runs call
``main`` in this process; one run of each subcommand also starts
``python -m postrb.cli`` as a fresh process, so the entry point is covered
too.  Regenerate the
file deliberately, after reviewing the new output, with

    PYTHONPATH=src python tests/test_cli_snapshots.py

run from the repository root.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest

from postrb.cli import _COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "cli_snapshots.json"
SAMPLES = sorted(p.name for p in (ROOT / "samples").iterdir())
OPERATOR_SAMPLES = [name for name in SAMPLES if name.endswith((".rb", ".rbgrp"))]
FORMATS = ("text", "machine")


def _invocations() -> list[list[str]]:
    runs = []
    for fmt in FORMATS:
        for command in _COMMANDS:
            if command == "diff-cocycle":
                continue
            for name in SAMPLES:
                runs.append([command, "--input", f"samples/{name}", "--format", fmt])
        for a, b in product(OPERATOR_SAMPLES, repeat=2):
            runs.append(
                ["diff-cocycle", "--a", f"samples/{a}", "--b", f"samples/{b}", "--format", fmt]
            )
    return runs


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def snapshots() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_snapshot_covers_every_invocation(snapshots):
    assert sorted(snapshots) == sorted(" ".join(argv) for argv in _invocations())


@pytest.mark.parametrize("argv", _invocations(), ids=" ".join)
def test_cli_output_matches_snapshot(argv, snapshots, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _run(argv) == snapshots[" ".join(argv)]


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_entry_point_matches_snapshot(command, snapshots):
    # The last text-format run of ``command`` that exits 0: for
    # ``obstruction`` that is the sample with a supplied witness.
    argv = [
        argv
        for argv in _invocations()
        if argv[0] == command
        and argv[-1] == "text"
        and snapshots[" ".join(argv)]["exit"] == 0
    ][-1]
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "postrb.cli", *argv],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    expected = snapshots[" ".join(argv)]
    assert (done.returncode, done.stdout) == (expected["exit"], expected["stdout"])


if __name__ == "__main__":
    os.chdir(ROOT)
    DATA.parent.mkdir(exist_ok=True)
    table = {" ".join(argv): _run(argv) for argv in _invocations()}
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
