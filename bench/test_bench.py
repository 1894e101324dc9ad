"""Fast tests of the benchmark itself: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

import checker
import qi
import run
import workloads
from cayley import GROUPS, Group, permutation, rename_rows
from tracer import Tracer, metric_names

SAMPLES = run.ROOT / "samples"


def _documents(make, seed: int, directory: Path) -> list[tuple[list[str], frozenset, str]]:
    directory.mkdir()
    batch = make(random.Random(seed), workloads.Writer(directory))
    return [(r.argv[:1] + r.argv[3:], r.expect, Path(r.argv[2]).read_text()) for r in batch.requests]


@pytest.mark.parametrize("make", [workloads.lie_cli_batch, workloads.group_cli_batch])
def test_generators_are_deterministic_per_seed(make, tmp_path):
    first = _documents(make, 3, tmp_path / "a")
    assert first == _documents(make, 3, tmp_path / "b")
    assert first != _documents(make, 4, tmp_path / "c")


def test_scan_inputs_are_deterministic_per_seed(tmp_path):
    catalog = [("heisenberg", qi.table_from_brackets(3, {(0, 1): [0, 0, 1]}))]
    texts = []
    for seed, name in ((1, "a"), (1, "b"), (2, "c")):
        (tmp_path / name).mkdir()
        [(_, path, _)] = workloads.lie_scan_inputs(random.Random(seed), workloads.Writer(tmp_path / name), catalog)
        texts.append(Path(path).read_text())
    assert texts[0] == texts[1] != texts[2]


def _report(**data) -> dict:
    return {"verdicts": [{"name": "x", "passed": True, "detail": ""}], "data": data}


def test_checker_rejects_a_corrupted_lie_operator():
    sc, r = workloads.moved_pair(random.Random(1), "affine", 1)
    tc = qi.induced_products(sc, r)
    rows = ["row " + " ".join(qi.fmt(x) for x in row) for row in r]
    assert checker.lie_operator(sc, tc, _report(operator=rows)) is None
    bad = [list(row) for row in r]
    bad[0][0] = qi.add(bad[0][0], qi.ONE)
    bad_rows = ["row " + " ".join(qi.fmt(x) for x in row) for row in bad]
    assert checker.lie_operator(sc, tc, _report(operator=bad_rows)) is not None


def test_checker_rejects_a_corrupted_group_operator():
    group = Group(rename_rows(permutation(random.Random(2), 6), GROUPS["S3"]()))
    op = group.rota_baxter_operators()[3]
    tri = group.induced(op)
    lines = [f"{a} -> {b}" for a, b in enumerate(op)]
    assert checker.group_operator(group, tri, _report(operator=lines)) is None
    wrong = list(op)
    wrong[1] = (wrong[1] + 1) % group.n
    lines = [f"{a} -> {b}" for a, b in enumerate(wrong)]
    assert checker.group_operator(group, tri, _report(operator=lines)) is not None


def test_checker_rejects_a_wrong_exit_code():
    request = workloads.Request("obstruction", ["obstruction", "--input", "x"], frozenset({5}))
    job = run.CliJob(workloads.Batch([request]), cli=None)
    assert job.check(0, (5, "")) is None
    assert job.check(0, (0, json.dumps(_report()))) is not None


def test_heisenberg_closed_form():
    assert checker.heisenberg_class_nonzero([[1, 0], [1, 1]])
    assert not checker.heisenberg_class_nonzero([[0, 0], [1, 0]])  # det 0
    assert not checker.heisenberg_class_nonzero([[1, 0], [0, 1]])  # c21 - c12 = 0


def test_checksum_mismatch_raises():
    frozen = {"census": {"D4": {"0": 12, "5": 4}}}
    run.verify_checksums({"census": {"D4": {"0": 12, "5": 4}}}, frozen)
    with pytest.raises(run.ChecksumMismatch):
        run.verify_checksums({"census": {"D4": {"0": 13, "5": 3}}}, frozen)


def test_checksum_mismatch_stops_the_report(tmp_path, capsys):
    frozen = json.loads(run.CHECKSUMS.read_text())
    frozen["census"]["Q8"] = {"0": 3, "5": 13}
    tampered = tmp_path / "checksums.json"
    tampered.write_text(json.dumps(frozen))
    code = run.main(["--workload", "group-cli", "--seed", "1", "--seconds", "0"], checksums=tampered)
    out, err = capsys.readouterr()
    assert code != 0
    assert "refusing to report" in err
    assert '"correct"' not in out


@pytest.mark.parametrize("workload", ["lie-cli", "group-cli"])
def test_one_batch_passes_the_checker(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.GATED)


def _attributes() -> dict[tuple[str, str], object]:
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "postrb" or name.startswith("postrb."):
            for key, value in vars(module).items():
                seen[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        seen[(f"{name}.{key}", attr)] = member
    return seen


def test_traced_run_restores_every_attribute():
    cli, _, _ = run.load_postrb()
    before = _attributes()
    tracer = Tracer()
    with tracer:
        assert _attributes() != before
        assert cli.main(["obstruction", "--input", str(SAMPLES / "solvable_beta1.post"), "--format", "machine"]) == 0
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["lie_obstruction.construct_rb_from_obstruction.calls"][0] == 1
    assert metrics["scalars.GaussianRational.ops"][0] > 0
    assert all(parent < span_id for span_id, parent, *_ in tracer.spans)


def test_tail_needs_ten_values_beyond():
    assert run.tail([float(x) for x in range(7)]) == ("max", 6.0)
    label, value = run.tail([float(x) for x in range(1, 101)])
    assert (label, value) == ("p90", 90.0)
    assert run.tail([float(x) for x in range(11)]) == ("p9.091", 0.0)


def test_benchmark_json_lists_what_a_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(m["name"] for m in spec["end_to_end"]) == set(run.GATED)
    assert [m["name"] for m in spec["per_layer"]] == metric_names() + ["trace.overhead_s"]
