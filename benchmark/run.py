"""ekrcheck benchmark runner.

    python3 benchmark/run.py --workload survey --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  Every measured pass runs in a fresh
single-threaded interpreter (worker.py) with default `Caps()` and no table
cache, which is what `ekr table` users pay.  The seed permutes the order of
groups within the workload; the verdicts must not depend on it.

--trace 0 prints the end-to-end metrics.  It runs whole passes of the
workload for --seconds: at least one, and another only if it should end
within --seconds.  Set-up is timed in every pass process and in probe
processes before each pass and after the last.  It reports medians.  --trace 1 prints the per-layer metrics: one untraced and one
traced pass, where the difference of their wall times is the tracing
overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "ekrcheck" / "__init__.py"

PROBES_PER_PASS = 5
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "decided_cells": "count",
    "verified_share": "ratio",
    "peak_rss_mb": "MB",
}

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str]) -> tuple[float, dict | None]:
    """Run worker.py; returns (seconds until it reported ready, result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=child_env(),
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def pass_args(workload: str, seed: int, pass_no: int, trace: bool) -> list[str]:
    args = ["--workload", workload, "--seed", str(seed), "--pass-no", str(pass_no)]
    return args + ["--trace"] if trace else args


def check_pass(workload: str, result: dict, expected: dict) -> list[str]:
    """One line per group that failed to run, failed a certificate
    re-check, or broke the verdict rule."""
    problems = []
    for key, _ in workloads.WORKLOADS[workload]:
        if key in result["errors"]:
            problems.append(f"{key}: {result['errors'][key]}")
        elif key not in result["rows"]:
            problems.append(f"{key}: no report")
        elif key not in expected:
            problems.append(f"{key}: no expected row")
        else:
            broken = workloads.row_problems(expected[key], result["rows"][key])
            if broken:
                problems.append(f"{key}: {'; '.join(broken)}")
    return problems


def layer_metrics(trace: dict, overhead_s: float, rows) -> dict[str, tuple[float, str]]:
    metrics = tracing.layer_metrics(trace["self_s"], trace["counters"], trace["maxima"])
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["undecided_cells"] = (workloads.undecided_cells(rows), "count")
    return metrics


def probe_setups() -> list[float]:
    return [spawn(["--probe"])[0] for _ in range(PROBES_PER_PASS)]


def measure_end_to_end(workload: str, seed: int, seconds: int):
    spawn(["--probe"])  # a fresh checkout compiles its bytecode here
    # Set-up time wanders with the machine over seconds, so the probes are
    # spread over the run: a few before each pass and a few after the last.
    setups, passes = [], []
    end = time.perf_counter() + seconds
    took = 0.0
    # a further pass starts only if, judging by the last one, it ends in time
    while not passes or time.perf_counter() + took <= end:
        t = time.perf_counter()
        setups += probe_setups()
        setup, result = spawn(pass_args(workload, seed, len(passes), False))
        took = time.perf_counter() - t
        setups.append(setup)
        passes.append(result)
    setups += probe_setups()
    for i, p in enumerate(passes):
        print(f"pass {i}: wall {p['wall_s']:.3f} s, peak rss {p['rss_mb']:.1f} MB")
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "decided_cells": workloads.decided_cells(passes[0]["rows"].values()),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return passes, {m: (v, END_TO_END[m]) for m, v in values.items()}, []


def measure_layers(workload: str, seed: int):
    _, plain = spawn(pass_args(workload, seed, 0, False))
    _, traced = spawn(pass_args(workload, seed, 0, True))
    trace = traced["trace"]
    overhead = traced["wall_s"] - plain["wall_s"]
    print(f"untraced wall {plain['wall_s']:.3f} s, traced wall {traced['wall_s']:.3f} s, "
          f"{trace['spans']} spans in {trace['traces']} traces")
    problems = []
    if trace["unrestored"]:
        problems.append(f"entry points left wrapped: {trace['unrestored']}")
    if traced["rows"] != plain["rows"]:
        problems.append("traced rows differ from untraced rows")
    return [plain, traced], layer_metrics(trace, overhead, plain["rows"].values()), problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # on SIGTERM, still kill and reap the worker (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not PACKAGE.is_file():
        print(f"no ekrcheck sources at {PACKAGE.parent}; run from a checkout", file=sys.stderr)
        return 2
    expected = workloads.load_expected()

    if args.trace:
        passes, metrics, problems = measure_layers(args.workload, args.seed)
    else:
        passes, metrics, problems = measure_end_to_end(args.workload, args.seed, args.seconds)
    attempted = failed = 0
    for i, p in enumerate(passes):
        found = check_pass(args.workload, p, expected)
        attempted += len(workloads.WORKLOADS[args.workload])
        failed += len(found)
        problems += [f"pass {i}: {line}" for line in found]
        if p["rows"] != passes[0]["rows"]:
            problems.append(f"pass {i}: rows differ from pass 0")
    if not args.trace:
        metrics["verified_share"] = ((attempted - failed) / attempted, END_TO_END["verified_share"])
    for row in passes[0]["rows"].values():
        print(",".join(row))
    for line in problems:
        print(f"FAIL {line}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
