"""Digest what the CLI prints, so that a refactor can show its outputs unchanged.

For each seed, the requests of one ``lie-cli`` and one ``group-cli`` batch of
the benchmark (``bench/workloads.py``, imported read-only) are written into a
temporary directory and sent through ``postrb.cli.main`` in both output
formats.  One SHA-256 is printed per workload and seed, over (request index,
format, exit code, stdout, stderr) of every run, with the temporary
directory replaced by a fixed placeholder.  Equal digests at two commits mean
byte-identical outputs.  The CLI runs on ``samples/`` need no digest: the
tests compare them byte for byte with ``tests/data/cli_snapshots.json``.

Run from the root of a checkout: ``python tools/outputs.py [SEED ...]``
(seeds 1 to 3 by default).
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("text", "machine")
PLACEHOLDER = "<tmp>"

sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from postrb.cli import main as cli_main  # noqa: E402


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(runs: list[list[str]], directory: str) -> str:
    """The SHA-256 over every run of ``runs`` in each format, with
    ``directory`` replaced by the placeholder in what they print."""
    sha = hashlib.sha256()
    for index, argv in enumerate(runs):
        for fmt in FORMATS:
            code, out, err = _run([*argv, "--format", fmt])
            out, err = out.replace(directory, PLACEHOLDER), err.replace(directory, PLACEHOLDER)
            sha.update(repr((index, fmt, code, out, err)).encode("utf-8"))
    return sha.hexdigest()


def main(argv: list[str]) -> int:
    seeds = [int(x) for x in argv] or [1, 2, 3]
    batches = (("lie-cli", workloads.lie_cli_batch), ("group-cli", workloads.group_cli_batch))
    for name, make in batches:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as directory:
                batch = make(random.Random(seed), workloads.Writer(Path(directory)))
                runs = [request.argv for request in batch.requests]
                print(f"{name} seed {seed}: {digest(runs, directory)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
