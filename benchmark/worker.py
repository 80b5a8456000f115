"""One pass of a benchmark workload, in a fresh interpreter.

run.py starts this script.  It prints `ready` once the interpreter is
up, `ekrcheck` is imported and the catalog is loaded, so that the parent
can time set-up.  It then runs the workload, re-checks every certificate
outside the timed region, and prints one JSON line.

    python3 benchmark/worker.py --probe
    python3 benchmark/worker.py --workload survey --seed 1 --pass-no 0 [--trace]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import ekrcheck  # noqa: E402
from ekrcheck import library, pipeline  # noqa: E402
from ekrcheck.cliques import verify_clique  # noqa: E402
from ekrcheck.perm import Permutation  # noqa: E402

if not Path(ekrcheck.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"ekrcheck was imported from {ekrcheck.__file__}, not from {SRC}")
library.load_catalog()

import tracing  # noqa: E402
import workloads  # noqa: E402


def _streamed(key: str):
    """The route `ekr mathieu` takes for a group over the enumeration cap,
    without a supplied character table: the streamed class-Gram rank."""
    spec = library.get_spec(key)
    group = pipeline.build_group(spec)
    report = pipeline.EkrReport(key=key, degree=spec.degree, order=group.order())
    pipeline.mathieu_class_rank(report, group)
    return report


ROUTES = {
    # looked up on the module at call time, so a traced run sees wrappers
    "classify": lambda key: pipeline.classify(key),
    "streamed": _streamed,
}


def run_pass(items, rec: tracing.Recorder | None = None):
    """Reports and errors per group, and the seconds from the first call
    to the last verdict.  With a recorder, the pass is one root span and
    each group one span with its own trace id."""
    reports, errors = {}, {}
    t0 = time.perf_counter()
    root = rec.open(tracing.WORKLOAD_SPAN) if rec else None
    for key, route in items:
        span = rec.open(tracing.WORKLOAD_SPAN, new_trace=True) if rec else None
        try:
            reports[key] = ROUTES[route](key)
        except Exception as exc:  # a failing group is counted, not fatal
            errors[key] = f"{type(exc).__name__}: {exc}"
        finally:
            if rec:
                rec.close(span)
    if rec:
        rec.close(root)
    return reports, errors, time.perf_counter() - t0


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def certificate_problem(report) -> str | None:
    """Re-check a report's n-clique and witness certificates with code
    that did not produce them, then run the report's own validation."""
    report.validate()
    spec = library.get_spec(report.key)
    kinds = {c["kind"] for c in report.certificates}
    if report.n_clique == "yes" and "n-clique" not in kinds:
        return "n-clique column is Y without a certificate"
    if report.strict_reason == "witness" and "witness" not in kinds:
        return "strict column is N by witness without a certificate"
    group = None
    for cert in report.certificates:
        if cert["kind"] not in ("n-clique", "witness"):
            continue
        group = group or library.build_group(spec)
        if cert["kind"] == "n-clique":
            els = [Permutation(row) for row in cert["elements"]]
            if len(els) != spec.degree or not verify_clique(group, els):
                return "n-clique certificate is not an n-clique"
        else:
            W = cert["hyperplane"]
            E = group.elements_array()
            rows = E[np.isin(E[:, W], np.array(W, dtype=np.int8)).all(axis=1)]
            els = [Permutation(int(x) for x in row) for row in rows]
            if len(els) != cert["size"] or _digest(sorted(p.images for p in els)) != cert["digest"]:
                return "witness does not match the hyperplane stabilizer"
            inter, maximum, canonical = pipeline.verify_witness(
                group, els, ekr_established=report.ekr == "yes"
            )
            if not (inter and maximum and not canonical):
                return f"witness check gave {(inter, maximum, canonical)}"
    return None


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pass-no", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    print("ready", flush=True)
    if args.probe:
        return

    items = workloads.order(args.workload, args.seed, args.pass_no)
    rec = patches = None
    if args.trace:
        rec = tracing.Recorder()
        patches = tracing.install(rec)
    try:
        reports, errors, wall = run_pass(items, rec)
    finally:
        if patches:
            tracing.restore(patches)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for key, report in reports.items():
        try:
            problem = certificate_problem(report)
        except Exception as exc:  # a check that raises is a failed check
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            errors[key] = problem

    out = {
        "wall_s": wall,
        "rss_mb": rss_mb,
        "rows": {k: r.csv_row() for k, r in reports.items()},
        "errors": errors,
    }
    if rec:
        out["trace"] = {
            "self_s": rec.self_times(),
            "counters": rec.counters,
            "maxima": rec.maxima,
            "spans": len(rec.spans),
            "traces": rec.trace_id,
            "unrestored": tracing.unrestored(patches),
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
