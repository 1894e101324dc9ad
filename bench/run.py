#!/usr/bin/env python3
"""Benchmark of postrb: seeded request streams through the CLI, and the scan.

    python3 bench/run.py --workload lie-cli --seed 1 --seconds 30 --trace 0

Workloads (see RECORD.md for why each was chosen):

* ``lie-scan``  -- ``postrb.search.scan_algebra`` over every catalog algebra,
  each in a seeded signed-permutation basis;
* ``lie-cli``   -- Lie-side documents through ``postrb.cli.main``;
* ``group-cli`` -- Cayley-table documents through ``postrb.cli.main``.

One run imports ``postrb`` from ``src/`` and builds the seeded inputs several
times (``setup_s`` is the median), then sends the batch of requests in a
closed loop, one at a time in this process, until ``--seconds`` have passed
and every request has run at least once.  Times are scaled to a reference
host speed that a probe measures during the run (``HostSpeed``; RECORD.md,
"Host speed").  Every output is checked by the
benchmark's own code (``checker.py``), and the run refuses to report when a
frozen checksum (``checksums.json``) differs.  With ``--trace 1`` one more
pass over the batch runs with every listed library function wrapped
(``tracer.py``) and the per-layer metrics are printed instead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHECKSUMS = HERE / "checksums.json"
SETUPS = 5
SAMPLE_INTERVAL_S = 0.1
MIN_REPEATS = 5
PROBE_REFERENCE_S = 0.001
GATED = ("setup_s", "wall_s", "request_p50_ms", "request_tail_ms", "peak_rss_mb")
CLI_COMMANDS = {
    "lie-cli": ("check-postlie", "innerness", "obstruction", "tower"),
    "group-cli": ("group-obstruction", "group-tower", "enumerate-rb", "check-postgroup"),
}

sys.path.insert(0, str(HERE))
import checker  # noqa: E402
import qi  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class ChecksumMismatch(Exception):
    pass


def load_postrb():
    """Import ``postrb`` afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "postrb" or m.startswith("postrb.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("postrb")
    if Path(package.__file__).resolve().parent != (SRC / "postrb").resolve():
        raise ImportError(f"postrb was imported from {package.__file__}, not from {SRC}")
    return (importlib.import_module("postrb.cli"), importlib.import_module("postrb.documents"),
            importlib.import_module("postrb.search"))


class CliJob:
    """A batch of documents sent through ``postrb.cli.main``."""

    def __init__(self, batch: workloads.Batch, cli) -> None:
        self.requests = batch.requests
        self.sorts = batch.sorts
        self.argv = [r.argv + ["--format", "machine"] for r in batch.requests]
        self.commands = [r.command for r in batch.requests]
        self.cli = cli  # ``main`` is looked up per call, so a traced run sees the wrapper

    def run(self, i: int):
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.cli.main(self.argv[i])
        except SystemExit as exc:
            code = exc.code
        return code, out.getvalue()

    def check(self, i: int, outcome) -> str | None:
        request, (code, text) = self.requests[i], outcome
        if code not in request.expect:
            return f"exit {code}, expected {sorted(request.expect)}"
        if request.check is None or (code != 0 and not text):
            return None
        if not text:
            return "no report on standard output"
        return request.check(json.loads(text))

    def tally(self, i: int, outcome, tallies: dict) -> None:
        request, (code, text) = self.requests[i], outcome
        if request.tally is None:
            return
        kind, name = request.tally
        if kind == "enumerate":
            tallies.setdefault("enumerate", {})[name] = int(json.loads(text)["data"]["count"]) if code == 0 else -1
        else:
            counts = tallies.setdefault("census", {}).setdefault(name, {})
            counts[str(code)] = counts.get(str(code), 0) + 1


class ScanJob:
    """``scan_algebra`` over the catalog, each algebra in a seeded basis."""

    def __init__(self, inputs, search) -> None:
        self.inputs = inputs  # (name, LieAlgebra, basis)
        self.commands = ["scan_algebra"] * len(inputs)
        self.sorts = {name: 1 for name, _, _ in inputs}
        self.search = search

    def run(self, i: int):
        name, algebra, _ = self.inputs[i]
        return self.search.scan_algebra(name, algebra)

    def check(self, i: int, summary) -> str | None:
        """Nontrivial Heisenberg findings satisfy the closed form, read in the
        original basis: c_ij = coefficient of e3 in [w(e_i), e_j]."""
        name, _, basis = self.inputs[i]
        if name != "heisenberg":
            return None
        sc = qi.table_from_brackets(3, {(0, 1): [0, 0, 1]})
        back = qi.inverse(basis)
        for finding in summary.nontrivial_examples:
            moved = [[qi.parse(str(x)) for x in row] for row in finding.witness.matrix.entries]
            w = qi.matmul(basis, qi.matmul(moved, back))
            c = [[qi.evaluate(sc, qi.column(w, a), qi.unit(3, b))[2][0] for b in range(2)] for a in range(2)]
            if not checker.heisenberg_class_nonzero(c):
                return f"nontrivial finding {c} contradicts the closed form"
        return None

    def tally(self, i: int, summary, tallies: dict) -> None:
        tallies.setdefault("scan", {})[self.inputs[i][0]] = [
            summary.candidates, summary.valid_post_lie, summary.nontrivial_class]


def setup(workload: str, seed: int, workdir: Path):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cli, documents, search = load_postrb()
    rng = random.Random(seed)
    write = workloads.Writer(workdir)
    if workload == "lie-scan":
        catalog = [(name, [[tuple(qi.parse(str(x)) for x in v) for v in row] for row in algebra.sc])
                   for name, algebra in search.default_catalog()]
        inputs = [(name, documents.parse_document(Path(path).read_text(encoding="utf-8")).lie_algebra, basis)
                  for name, path, basis in workloads.lie_scan_inputs(rng, write, catalog)]
        return ScanJob(inputs, search)
    make = workloads.lie_cli_batch if workload == "lie-cli" else workloads.group_cli_batch
    return CliJob(make(rng, write), cli)


def probe() -> float:
    """Time a fixed piece of Fraction arithmetic, the library's staple work."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, 200):
        total += Fraction(1, k % 97 + 1) * Fraction(k % 13 + 1, 7)
    return perf_counter() - start


class HostSpeed:
    """Samples the host's speed every SAMPLE_INTERVAL_S from a SIGALRM handler,
    also while a request runs (RECORD.md, "Host speed").

    ``scale(start, end)`` turns a measured interval into seconds at the
    reference speed: the interval without the probes that ran inside it,
    divided by the median slowdown of the samples taken inside it or in the
    SAMPLE_INTERVAL_S before it, and of the last sample before those.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.samples: list[tuple[float, float]] = []  # (end, slowdown)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        slowdown = probe() / PROBE_REFERENCE_S
        self.starts.append(start)
        self.samples.append((perf_counter(), slowdown))

    def __enter__(self) -> "HostSpeed":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(seconds spent outside probes, the same at reference speed)."""
        busy = end - start
        k = bisect.bisect_left(self.starts, start - SAMPLE_INTERVAL_S)
        slowdowns = [self.samples[k - 1][1]] if k else []  # the last one before the window
        while k < len(self.starts) and self.starts[k] <= end:
            sample_end, slowdown = self.samples[k]
            if start <= self.starts[k]:
                busy -= sample_end - self.starts[k]
            slowdowns.append(slowdown)
            k += 1
        return busy, busy / statistics.median(slowdowns)

    def median(self) -> float:
        return statistics.median(s for _, s in self.samples)


def run_once(job, i: int):
    """(start, end, outcome, error); a crash is a failed request, not a crashed benchmark."""
    start = perf_counter()
    try:
        outcome, error = job.run(i), None
    except Exception as exc:
        outcome, error = None, f"raised {type(exc).__name__}: {exc}"
    return start, perf_counter(), outcome, error


class Measurement:
    """Latencies and verdicts of every request over a run."""

    def __init__(self, job, speed) -> None:
        self.job = job
        self.speed = speed  # scale(start, end) -> (measured, reference) seconds
        self.samples: list[list[float]] = [[] for _ in job.commands]  # measured seconds
        self.scaled: list[list[float]] = [[] for _ in job.commands]  # seconds at reference speed
        self.first: list = [None] * len(job.commands)
        self.verdicts: list[str | None] = [None] * len(job.commands)
        self.attempted = 0
        self.failures: list[str] = []
        self.tallies: dict = {}

    def run(self, i: int) -> None:
        start, end, outcome, error = run_once(self.job, i)
        measured, scaled = self.speed(start, end)
        self.samples[i].append(measured)
        self.scaled[i].append(scaled)
        self.record(i, outcome, error)

    def record(self, i: int, outcome, error: str | None) -> None:
        """Check a request's first output in full; later repeats must match it."""
        self.attempted += 1
        if len(self.samples[i]) == 1:
            self.first[i] = outcome
            if error is None:
                error = self.job.check(i, outcome)
                self.job.tally(i, outcome, self.tallies)
            self.verdicts[i] = reason = error
        else:
            reason = error or self.verdicts[i] or (None if outcome == self.first[i] else "output differs from its first run")
        if reason:
            self.failures.append(f"request {i} ({self.job.commands[i]}): {reason}")

    def latencies(self) -> list[float]:
        """Each request's median scaled run."""
        return [statistics.median(s) for s in self.scaled]


def measure(job, seconds: float, speed: HostSpeed) -> Measurement:
    """Cycle through the batch until ``seconds`` have passed and every request
    has run once; then top up to MIN_REPEATS runs each request whose first
    run took less than a tenth of ``seconds``."""
    m = Measurement(job, speed.scale)
    size = len(job.commands)
    start = perf_counter()
    i = rounds = 0
    while rounds == 0 or perf_counter() - start < seconds:
        # After the first round, skip a request that would overrun the run.
        if rounds == 0 or m.samples[i][0] < seconds - (perf_counter() - start):
            m.run(i)
        i += 1
        if i == size:
            i, rounds = 0, rounds + 1
    for i, samples in enumerate(m.samples):
        while len(samples) < MIN_REPEATS and samples[0] < seconds / 10:
            m.run(i)
    return m


def verify_checksums(tallies: dict, frozen: dict) -> None:
    for kind, observed in tallies.items():
        for name, value in observed.items():
            if frozen[kind].get(name) != value:
                raise ChecksumMismatch(f"{kind} checksum for {name}: got {value}, frozen {frozen[kind].get(name)}")


def tail(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten values beyond it, i.e. the
    eleventh largest value, or the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return "max", ordered[-1]
    return f"p{100 * (n - 10) / n:.4g}", ordered[n - 11]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(args, job, m: Measurement) -> dict:
    repeats = [len(s) for s in m.samples]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "batch": len(job.commands),
        "batch_sorts": job.sorts,
        "repeats_min_max": [min(repeats), max(repeats)],
    }


def main(argv: list[str] | None = None, checksums: Path = CHECKSUMS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("lie-scan", "lie-cli", "group-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "postrb" / "__init__.py").is_file():
        print(f"error: no postrb sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    frozen = json.loads(checksums.read_text(encoding="utf-8"))
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        with HostSpeed() as speed:
            setup_times = []  # (measured, reference) seconds
            for _ in range(SETUPS):
                start = perf_counter()
                job = setup(args.workload, args.seed, workdir)
                setup_times.append(speed.scale(start, perf_counter()))
            m = measure(job, args.seconds, speed)
        slowdown = speed.median()
        if args.trace:
            # No sampling here, since a probe would land in some wrapped call's
            # self time: scale as the untraced runs were scaled on average.
            ratio = sum(map(sum, m.scaled)) / sum(map(sum, m.samples))
            tracer = Tracer()
            traced = Measurement(job, lambda start, end: (end - start, (end - start) * ratio))
            with tracer:
                for i in range(len(job.commands)):
                    traced.run(i)
        verify_checksums(m.tallies, frozen)
        if args.trace:
            verify_checksums(traced.tallies, frozen)
    except ChecksumMismatch as exc:
        print(f"error: refusing to report: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = m.latencies()
    wall = sum(latencies)
    label, tail_value = tail(latencies)
    n = len(latencies)
    print(f"workload {args.workload}, seed {args.seed}: batch of {n} requests, {m.attempted} runs, "
          f"one closed-loop client; host {slowdown:.4g} x slower than the reference "
          f"(median of {len(speed.samples)} probes)")
    end_to_end = {
        "setup_s": (statistics.median(r for _, r in setup_times), "s",
                    f"median of {SETUPS} set-ups; {statistics.median(t for t, _ in setup_times):.6g} unscaled"),
        "wall_s": (wall, "s", f"batch of {n} requests, each at its median run; "
                           f"{sum(statistics.median(x) for x in m.samples):.6g} unscaled"),
        "request_p50_ms": (statistics.median(latencies) * 1000, "ms", f"median over {n} requests"),
        "request_tail_ms": (tail_value * 1000, "ms", f"{label} over {n} requests"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "whole process"),
    }
    for command in CLI_COMMANDS.get(args.workload, ()):
        mine = [t for t, c in zip(latencies, job.commands) if c == command]
        end_to_end[f"cmd.{command}_p50_ms"] = (statistics.median(mine) * 1000, "ms", f"median over {len(mine)} requests")
    for name, (value, unit, note) in end_to_end.items():
        print(f"{name} {value:.6g} {unit}  ({note})")
    failed = len(m.failures)
    print(f"failed_ratio {failed / m.attempted:.6g}  ({failed} of {m.attempted})")
    for failure in m.failures[:10]:
        print(f"failure: {failure}", file=sys.stderr)
    print("env " + json.dumps(environment(args, job, m), sort_keys=True))

    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (sum(traced.latencies()) - wall, "s")
        out = HERE / "_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(out)
        print(f"traced pass: {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
        failed += len(traced.failures)
        attempted = m.attempted + traced.attempted
    else:
        metrics = {name: end_to_end[name][:2] for name in GATED}
        attempted = m.attempted
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
