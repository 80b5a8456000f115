"""Run every workload over several seeds and record the results.

    python3 benchmark/record.py benchmark/baseline.json

Per workload of BENCHMARK.json: one untraced run for each seed 1..10
and one traced run (seed 1), each through run.py with the run length of
BENCHMARK.json.
Prints, per end-to-end metric, the median and the spread between the
first and third quartiles as a share of the median; writes every run to
the output file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """run.py's result, with the run's own duration in `run_s`."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - t0
    return result


def spread(values: list[float]) -> float:
    """Distance between the first and third quartiles, over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path)
    args = ap.parse_args()

    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(bench_run(workload, seed, spec["run_seconds"], 0))
            print(workload, seed, f"{runs[-1]['run_s']:.1f} s", json.dumps(runs[-1]["metrics"]),
                  flush=True)
        traced = bench_run(workload, 1, spec["run_seconds"], 1)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            summary[metric["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": metric["bound"],
            }
            print(f"{workload:13s} {metric['name']:15s} median {summary[metric['name']]['median']:.4f} "
                  f"spread {summary[metric['name']]['spread']:.4f} bound {metric['bound']}")
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "summary": summary,
            "runs": runs,
            "layers": traced["metrics"],
            "traced_run_s": traced["run_s"],
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
