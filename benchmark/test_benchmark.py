"""Self-tests of the benchmark harness.

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

# small groups that still reach every certificate kind: n-clique, the
# module-by-clique hunt, a hyperplane witness and a complete union
SMALL = [(k, "classify") for k in ("S3", "F20", "PGL(2,5)", "PGL(2,7)", "PGL(3,2)", "PSL(3,3)")]


def _row(marks: str) -> list[str]:
    return ["10", "G", "720", *marks.split(",")]


@pytest.mark.parametrize(
    "old, new, ok",
    [
        ("Y,?,Y,N,?,Y,?", "Y,Y,Y,N,?,Y,Y", True),  # ? -> Y
        ("Y,?,Y,N,?,Y,?", "Y,N,Y,N,?,Y,N", True),  # ? -> N
        ("Y,Y,Y,N,?,Y,?", "Y,Y,Y,N,--,Y,Y", True),  # mbc settled elsewhere
        ("Y,Y,Y,N,Y,Y,Y", "Y,Y,Y,N,Y,N,Y", False),  # Y -> N
        ("Y,Y,Y,N,Y,Y,Y", "Y,Y,Y,N,Y,?,Y", False),  # Y -> ?
        ("Y,?,Y,N,?,Y,?", "Y,?,Y,N,?,Y,--", False),  # ? -> -- outside mbc
        ("Y,?,?,N,?,Y,?", "Y,?,?,N,--,Y,?", False),  # mbc dropped without EKR
    ],
)
def test_verdict_rule(old, new, ok):
    assert (workloads.row_problems(_row(old), _row(new)) == []) is ok
    if ok:  # a change the rule allows never lowers decided_cells
        assert workloads.decided_cells([_row(new)]) >= workloads.decided_cells([_row(old)])


def test_decided_cells_counts_every_mark_but_undecided():
    rows = [_row("Y,?,Y,N,--,Y,?"), _row("NA,N,Y,Y,?,?,?")]
    assert workloads.undecided_cells(rows) == 5
    assert workloads.decided_cells(rows) == 9


def test_verdict_rule_checks_identity_columns():
    assert workloads.row_problems(_row("Y,Y,Y,Y,--,Y,Y"), ["10", "G", "721", *"Y,Y,Y,Y,--,Y,Y".split(",")])


def test_every_workload_group_has_an_expected_row():
    expected = workloads.load_expected()
    keys = {k for items in workloads.WORKLOADS.values() for k, _ in items}
    assert keys == set(expected)


def test_seed_permutes_group_order_only():
    base = workloads.WORKLOADS["survey"]
    orders = {tuple(workloads.order("survey", s, 0)) for s in range(5)}
    assert len(orders) == 5
    assert all(sorted(o) == sorted(base) for o in orders)
    assert workloads.order("survey", 3, 1) == workloads.order("survey", 3, 1)


def test_traced_pass_restores_entry_points_and_keeps_rows():
    plain, errors, _ = worker.run_pass(SMALL)
    assert not errors
    rec = tracing.Recorder()
    patches = tracing.install(rec)
    try:
        traced, errors, wall = worker.run_pass(SMALL, rec)
    finally:
        tracing.restore(patches)
    assert not errors
    assert tracing.unrestored(patches) == []
    assert {k: r.csv_row() for k, r in traced.items()} == {k: r.csv_row() for k, r in plain.items()}
    assert all(worker.certificate_problem(r) is None for r in traced.values())

    assert rec.stack == [] and all(end is not None for _, _, end, _, _ in rec.spans)
    assert rec.trace_id == len(SMALL)
    root = rec.spans[0]
    assert math.isclose(sum(rec.self_times().values()), root[2] - root[1], rel_tol=1e-9)
    assert rec.counters["cliques.module_by_clique.targets"] > 0
    assert rec.counters["cyclo.is_zero.calls"] > 0


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "large",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_those_of_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
