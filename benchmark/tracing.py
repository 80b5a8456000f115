"""Spans and counters recorded from outside the ekrcheck package.

`install` replaces each layer entry point with a wrapper at the place
where its caller looks it up: `ekrcheck.pipeline` for the layers that
`classify` calls, and the `chartab`, `cliques` and `cyclo.Cyc` namespaces
for calls inside those layers.  `restore` puts every original back.
A span is (name, start, end, parent span, trace id); the caller opens
one span with a new trace id per group, and the spans inside it share
that id.

This module does not import ekrcheck until `install`, so run.py can take
the per-layer metric names from it.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from functools import wraps


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, trace]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.trace_id = 0

    def open(self, name: str, new_trace: bool = False) -> int:
        if new_trace:
            self.trace_id += 1
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.trace_id])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def maximum(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def self_times(self) -> Counter:
        """Per span name, its duration minus the part its children cover."""
        own = Counter()
        for name, start, end, _, _ in self.spans:
            own[name] += end - start
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return own


# The layer entry points, one table each for spans, the counters and maxima
# taken from a span's call, and counted calls.  An owner is a module of
# ekrcheck or a class in one, such as "cyclo.Cyc".
# (owner, attribute, span name)
SPANS = [
    ("pipeline", "classify", "pipeline.classify"),
    ("pipeline", "build_group", "library.build_group"),
    ("pipeline", "conjugacy_classes", "group.conjugacy_classes"),
    ("pipeline", "character_table_for", "chartab.character_table_for"),
    ("chartab", "character_table", "chartab.character_table"),
    ("chartab", "class_constants", "chartab.class_constants"),
    ("pipeline", "spectrum", "dergraph.spectrum"),
    ("pipeline", "least_analysis", "dergraph.least_analysis"),
    ("pipeline", "find_n_clique", "cliques.find_n_clique"),
    ("pipeline", "module_by_clique", "cliques.module_by_clique"),
    ("pipeline", "gram_M", "modrank.gram_M"),
    ("pipeline", "rank_certificate", "modrank.rank_certificate"),
    ("pipeline", "hyperplane_witness", "pipeline.hyperplane_witness"),
    ("pipeline", "verify_witness", "pipeline.verify_witness"),
    ("pipeline", "mathieu_class_rank", "pipeline.mathieu_class_rank"),
    ("pipeline", "conjugation_orbit", "group.conjugation_orbit"),
    ("pipeline", "class_gram", "modrank.class_gram"),
]
# the span the harness opens around a pass and around each group in it
WORKLOAD_SPAN = "workload"
# spans whose total would cover their children: their metric says self_s
SELF_ONLY = {"pipeline.classify", WORKLOAD_SPAN}

# counter name -> (span, amount added per call from (args, result))
SPAN_COUNTERS = {
    "group.elements": ("group.conjugacy_classes", lambda args, eg: len(eg.E)),
    "group.classes": ("group.conjugacy_classes", lambda args, eg: eg.n_classes),
    "group.conjugation_orbit.rows": ("group.conjugation_orbit", lambda args, rows: len(rows)),
    "cliques.find_n_clique.found": ("cliques.find_n_clique", lambda args, c: int(c is not None)),
    "cliques.module_by_clique.targets": ("cliques.module_by_clique", lambda args, wits: len(wits)),
    "cliques.module_by_clique.witnessed": (
        "cliques.module_by_clique",
        lambda args, wits: sum(w.witnessed for w in wits.values()),
    ),
    "modrank.gram_M.rows": (
        "modrank.gram_M",
        lambda args, _: int((args[0].fix_counts_all == 0).sum()),
    ),
    "modrank.rank_certificate.primes": (
        "modrank.rank_certificate",
        lambda args, cert: len(cert.primes),
    ),
}
# maximum name -> (span, value per call from (args, result))
SPAN_MAXIMA = {
    "chartab.conductor.max": ("chartab.character_table_for", lambda args, table: table.e),
}
# (owner, attribute, counter name, "calls" or "yields")
COUNTED = [
    ("cliques", "iter_n_cliques", "cliques.iter_n_cliques.yielded", "yields"),
    ("cliques", "projection_norm", "cliques.projection_norm.calls", "calls"),
    ("cyclo.Cyc", "is_zero", "cyclo.is_zero.calls", "calls"),
    ("cyclo.Cyc", "canonical", "cyclo.canonical.calls", "calls"),
    ("cyclo.Cyc", "sign_real", "cyclo.sign_real.calls", "calls"),
]


def layer_metrics(self_s: dict, counters: dict, maxima: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a recorder's self times, counters and
    maxima, as (value, unit).  A layer that never ran reads 0."""
    metrics = {}
    for span in [name for _, _, name in SPANS] + [WORKLOAD_SPAN]:
        metric = f"{span}.self_s" if span in SELF_ONLY else f"{span}.s"
        metrics[metric] = (self_s.get(span, 0.0), "s")
    for name in [*SPAN_COUNTERS, *(name for _, _, name, _ in COUNTED)]:
        metrics[name] = (counters.get(name, 0), "count")
    for name in SPAN_MAXIMA:
        metrics[name] = (maxima.get(name, 0), "int")
    return metrics


def _owner(path: str):
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"ekrcheck.{module}")
    return getattr(owner, cls) if cls else owner


def _spanned(rec: Recorder, fn, name: str):
    counters = [(c, f) for c, (span, f) in SPAN_COUNTERS.items() if span == name]
    maxima = [(m, f) for m, (span, f) in SPAN_MAXIMA.items() if span == name]

    @wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        for counter, amount in counters:
            rec.counters[counter] += amount(args, result)
        for maximum, value in maxima:
            rec.maximum(maximum, value(args, result))
        return result

    return wrapper


def _counted(rec: Recorder, fn, name: str):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counters[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _yield_counted(rec: Recorder, fn, name: str):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            rec.counters[name] += 1
            yield item

    return wrapper


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every entry point; returns (namespace, attribute, original)."""
    patches = []
    points = [(owner, attr, _spanned, name) for owner, attr, name in SPANS]
    points += [
        (owner, attr, _yield_counted if mode == "yields" else _counted, name)
        for owner, attr, name, mode in COUNTED
    ]
    for path, attr, wrap, name in points:
        owner = _owner(path)
        original = vars(owner)[attr]
        setattr(owner, attr, wrap(rec, original, name))
        patches.append((owner, attr, original))
    return patches


def restore(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def unrestored(patches) -> list[str]:
    """Names of entry points that do not hold their original object."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in patches
        if vars(owner)[attr] is not original
    ]
