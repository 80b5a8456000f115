"""End-to-end classification of a 2-transitive group.

The decision sequence per group: exact spectrum of the derangement graph,
least-eigenvalue analysis, the ratio bound (least = -d/(n-1) settles the
EKR property), otherwise an n-clique and the clique-coclique bound; then
condition (b) from the spectrum alone: the standard character attains the
least eigenvalue by itself, or a weighted ratio certificate holds; an exact
rank certificate for the pair-incidence matrix, and finally the strict
verdict.
A group over the enumeration cap gets only the columns that the Gram
matrix of one derangement class, counted from a single class
representative, and a supplied character table decide.

Strict = yes is only emitted when all three module-method conditions are
certified here.  Strict = no is only emitted constructively: either the
derangement graph is a disjoint union of complete graphs on more than
three vertices (counted exactly), or a verified maximum intersecting set
that is not a point-to-point coset exists.  Everything else stays
unknown; a report never asserts what was not derived in this process.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .chartab import CharacterTable, character_table_for, parse_table
from .cliques import DEFAULT_NODE_BUDGET, SearchStats, find_n_clique
from .dergraph import (
    DerangementSpectrum,
    complete_union_detect,
    least_analysis,
    spectrum,
)
from .errors import CapExceeded
from .group import (
    ENUMERATION_CAP,
    EnumeratedGroup,
    PermutationGroup,
    centralizer_order,
    conjugacy_classes,
)
from .library import GroupSpec, ProjectiveModel, build_group, get_spec
from .modrank import gram_M, gram_pattern, quadruple_orbit_gram, rank_certificate

# classify no longer calls these three; the traced benchmark
# (benchmark/tracing.py) wraps them by name in this namespace until the
# benchmark change that trims its entry points (ROADMAP item 1)
from .cliques import module_by_clique  # noqa: F401
from .group import conjugation_orbit  # noqa: F401
from .modrank import class_gram  # noqa: F401
from .perm import Permutation
from .weighted import weighted_ratio_certificate, weighted_ratio_holds

ORACLE_CAP = 2000
COUNT_CAP = 200

CSV_COLUMNS = [
    "n",
    "Group",
    "size",
    "least",
    "n-clique",
    "EKR",
    "unique",
    "module-by-clique",
    "rank",
    "strict",
]

_CSV_MARK = {
    "yes": "Y",
    "no": "N",
    "not-applicable": "NA",
    "unknown": "?",
    "not-tried": "--",
}


@dataclass
class Caps:
    """Resource limits; exceeding one yields a partial report, never a
    wrong verdict."""

    enumeration: int = ENUMERATION_CAP
    clique_budget: int = DEFAULT_NODE_BUDGET
    oracle: int = ORACLE_CAP
    count: int = COUNT_CAP


@dataclass
class EkrReport:
    key: str
    degree: int
    order: int
    d: int | None = None
    least_standard: str = "unknown"  # yes | no | unknown
    n_clique: str = "not-tried"  # yes | no | unknown | not-tried
    ekr: str = "unknown"  # yes | unknown
    ekr_reason: str | None = None  # ratio | clique-coclique
    unique: str = "unknown"  # yes | no | not-applicable | unknown
    module_by_clique: str = "not-tried"  # (b) is read off the spectrum instead
    rank_full: str = "unknown"  # yes | no | unknown
    rank_mode: str | None = None
    strict: str = "unknown"  # yes | no | unknown
    strict_reason: str = "external-unproven"
    certificates: list[dict] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def condition_b(self) -> bool:
        """Maximum intersecting sets lie in trivial + standard: the standard
        character alone attains the least eigenvalue, or a weighted-ratio
        certificate holds."""
        return (
            self.unique == "yes"
            or any(
                c["kind"] == "weighted-ratio"
                and weighted_ratio_holds(c["eta_by_row"], self.degree)
                for c in self.certificates
            )
        )

    def validate(self) -> None:
        if self.strict == "yes":
            ok = self.ekr == "yes" and self.rank_full == "yes" and self.condition_b
            if not ok:
                raise AssertionError(f"{self.key}: strict=yes without all three conditions")
        if self.strict == "no" and self.strict_reason not in ("complete-union", "witness"):
            raise AssertionError(f"{self.key}: strict=no without a constructive reason")
        if self.ekr == "yes" and self.ekr_reason not in ("ratio", "clique-coclique"):
            raise AssertionError(f"{self.key}: ekr=yes without a reason")
        kinds = {c["kind"] for c in self.certificates}
        if self.n_clique == "yes" and "n-clique" not in kinds:
            raise AssertionError(f"{self.key}: n-clique=yes without a clique")
        if self.n_clique == "no" and "n-clique-exhausted" not in kinds:
            raise AssertionError(f"{self.key}: n-clique=no without an exhausted search")
        if self.least_standard == "yes" and self.ekr != "yes":
            raise AssertionError(f"{self.key}: standard least eigenvalue forces EKR")
        if (self.unique in ("yes", "no")) != (self.least_standard == "yes"):
            raise AssertionError(f"{self.key}: unique column inconsistent with least")

    @property
    def partial(self) -> bool:
        """True when a resource cap left a core column undecided."""
        return (
            self.least_standard == "unknown"
            or self.ekr == "unknown"
            or self.rank_full == "unknown"
        )

    def to_json_dict(self) -> dict:
        return {
            "key": self.key,
            "degree": self.degree,
            "order": self.order,
            "d": self.d,
            "least_standard": self.least_standard,
            "n_clique": self.n_clique,
            "ekr": {"verdict": self.ekr, "reason": self.ekr_reason},
            "unique": self.unique,
            "module_by_clique": self.module_by_clique,
            "rank": {"full": self.rank_full, "mode": self.rank_mode},
            "strict": {"verdict": self.strict, "reason": self.strict_reason},
            "certificates": self.certificates,
            "timings": self.timings,
            "notes": self.notes,
        }

    def csv_row(self) -> list[str]:
        m = _CSV_MARK
        return [
            str(self.degree),
            self.key,
            str(self.order),
            m[self.least_standard],
            m[self.n_clique],
            m[self.ekr],
            m[self.unique],
            m[self.module_by_clique],
            m[self.rank_full],
            m[self.strict],
        ]


def _digest(obj) -> str:
    blob = repr(obj).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---- witnesses ----


def verify_witness(
    group: PermutationGroup, elements, ekr_established: bool = True
) -> tuple[bool, bool, bool]:
    """(intersecting, maximum, canonical) for a candidate intersecting set.

    intersecting: no pairwise quotient is a derangement.  maximum: the set
    has the size every point-to-point coset has, and the EKR bound is
    known to hold so nothing larger exists.  canonical: all elements share
    an image pair, i.e. the set sits inside one of those cosets.
    """
    els = list(elements)
    for x in els:
        if x not in group:
            raise ValueError("witness element not in the group")
    n = group.degree
    rows = np.array([x.images for x in els], dtype=np.int8)
    if len({r.tobytes() for r in rows}) != len(els):
        raise ValueError("witness contains repeated elements")
    pts = np.arange(n, dtype=np.intp)
    intersecting = True
    for i in range(len(els)):
        inv = np.empty(n, dtype=np.intp)
        inv[rows[i].astype(np.intp)] = pts
        # (x y^-1)(t) = x(y^-1(t)); fixed points of all quotients against row i
        fixes = (rows[:, inv] == pts[None, :]).sum(axis=1)
        if (fixes == 0).any():
            intersecting = False
            break
    maximum = bool(ekr_established and len(els) * n == group.order())
    canonical = bool((rows == rows[0]).all(axis=0).any())
    return intersecting, maximum, canonical


def hyperplane_witness(spec: GroupSpec, eg: EnumeratedGroup):
    """Stabilizer of one hyperplane, for groups catalogued with a
    projective-space model of projective dimension at least 2.

    Every element stabilizing a hyperplane scales its defining functional,
    so it has an eigenvector and fixes a projective point; the stabilizer
    is therefore intersecting.  In projective dimension 1 hyperplanes are
    points and the construction only reproduces canonical sets, so those
    models are skipped.  Returns (elements, hyperplane) or None.
    """
    model = spec.model()
    if model is None or model[0] != "PG" or model[2] < 3:
        return None
    _, q, dim = model
    pm = ProjectiveModel(q, dim)
    if pm.n_points != spec.degree:
        return None
    W = sorted(pm.hyperplanes()[0])
    mask = np.isin(eg.E[:, W], np.array(W, dtype=np.int8)).all(axis=1)
    idx = np.nonzero(mask)[0]
    if len(idx) * spec.degree != eg.group.order():
        return None  # labeling mismatch; never guess
    return [eg.element(int(i)) for i in idx], W


# ---- brute-force oracle ----


def _bitsets(bools: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bools, bitorder="little").tobytes(), "little")


def _agreement_bitsets(E: np.ndarray) -> list[int]:
    """adj[i] = bitset of j sharing at least one image with i (j != i)."""
    N = len(E)
    adj = []
    for i in range(N):
        share = (E == E[i]).any(axis=1)
        share[i] = False
        adj.append(_bitsets(share))
    return adj


def _greedy_color(adj: list[int], P: int) -> tuple[list[int], list[int]]:
    """Color the candidate set; returns vertices in color order with their
    color numbers (the standard clique-size bound per prefix)."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    rest = P
    while rest:
        color += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            order.append(v)
            bounds.append(color)
            rest &= ~(1 << v)
            avail &= ~(1 << v) & ~adj[v]
    return order, bounds


def _max_clique(adj: list[int], P: int, seed: int) -> int:
    """Largest clique inside candidate bitset P, branch-and-bound with a
    greedy coloring bound; `seed` is a known clique used as the incumbent."""
    best = seed
    best_size = seed.bit_count()

    def expand(r_size: int, r_bits: int, cand: int) -> None:
        nonlocal best, best_size
        order, bounds = _greedy_color(adj, cand)
        P_local = cand
        for i in range(len(order) - 1, -1, -1):
            if r_size + bounds[i] <= best_size:
                return  # bounds are nondecreasing along the order
            v = order[i]
            bit = 1 << v
            nxt = P_local & adj[v]
            if r_size + 1 > best_size:
                best = r_bits | bit
                best_size = r_size + 1
            if nxt:
                expand(r_size + 1, r_bits | bit, nxt)
            P_local &= ~bit

    expand(0, 0, P)
    return best


def _count_max_cliques(adj: list[int], P: int, target: int) -> int:
    """Number of cliques of exactly `target` vertices inside P (all of them
    maximum ones, when target is the clique number)."""
    count = 0

    def expand(r_size: int, cand: int) -> None:
        nonlocal count
        if r_size == target:
            count += 1
            return
        order, bounds = _greedy_color(adj, cand)
        P_local = cand
        for i in range(len(order) - 1, -1, -1):
            if r_size + bounds[i] < target:
                return
            v = order[i]
            nxt = P_local & adj[v]
            if r_size + 1 == target:
                count += 1
            elif nxt:
                expand(r_size + 1, nxt)
            P_local &= ~(1 << v)

    expand(0, P)
    return count


def _union_of_complete_components(E: np.ndarray, adj: list[int]) -> int | None:
    """Component count when the derangement graph is a disjoint union of
    complete graphs on n vertices, else None.  adj is the agreement graph;
    the derangement graph is its complement."""
    N, n = E.shape
    if N % n:
        return None
    full = (1 << N) - 1
    seen = 0
    comps = 0
    for v in range(N):
        bit = 1 << v
        if seen & bit:
            continue
        comp = (~adj[v]) & full & ~seen  # derangement-neighbors of v, plus v
        if comp.bit_count() != n:
            return None
        w = comp
        while w:
            u = (w & -w).bit_length() - 1
            if ((~adj[u]) & full) != comp:
                return None  # u's closed derangement neighborhood must match
            w &= w - 1
        seen |= comp
        comps += 1
    return comps


def brute_alpha(
    group: PermutationGroup, cap: int = ORACLE_CAP, count_cap: int = COUNT_CAP
) -> tuple[int, list[Permutation], int | None]:
    """(alpha, one maximum intersecting set, exact count or None).

    Exhaustive branch-and-bound over the agreement graph, fixing the
    identity (left translation is an automorphism of the derangement
    graph, so some maximum independent set contains it).  The count is
    attempted only for orders up to `count_cap`: structurally when the
    graph is a union of complete components, otherwise by enumerating the
    identity-containing maxima and rescaling by order/alpha.
    """
    if group.order() > cap:
        raise CapExceeded("brute-force oracle", group.order(), cap)
    E = group.elements_array()
    N, n = E.shape
    adj = _agreement_bitsets(E)

    # a point-to-point coset through the identity seeds the incumbent
    seed_idx = np.nonzero(E[:, 0] == 0)[0]
    seed = 0
    for i in seed_idx:
        seed |= 1 << int(i)
    for i in seed_idx:
        if (seed & ~(1 << int(i))) & ~adj[int(i)]:
            raise AssertionError("stabilizer coset is not an agreement clique")

    cand = adj[0] | 1  # identity plus everything agreeing with it
    best = _max_clique(adj, cand, seed)
    alpha = best.bit_count()
    members = []
    w = best
    while w:
        i = (w & -w).bit_length() - 1
        members.append(Permutation(tuple(int(x) for x in E[i])))
        w &= w - 1

    count: int | None = None
    if N <= count_cap:
        comps = _union_of_complete_components(E, adj)
        if comps is not None:
            if alpha != comps:
                raise AssertionError("component count disagrees with alpha")
            count = n**comps
        else:
            with_id = _count_max_cliques(adj, adj[0], alpha - 1)
            if (with_id * N) % alpha:
                raise AssertionError("orbit counting must divide evenly")
            count = with_id * N // alpha
    return alpha, members, count


# ---- classification ----


def _spectral_columns(report: EkrReport, table: CharacterTable) -> DerangementSpectrum:
    """Fill d, least, unique, and EKR when the ratio bound settles it."""
    spc = spectrum(table)
    report.d = spc.d
    _, least_std, least_unique = least_analysis(spc, table)
    report.least_standard = "yes" if least_std else "no"
    if least_std:
        report.ekr, report.ekr_reason = "yes", "ratio"
        report.unique = "yes" if least_unique else "no"
    else:
        report.unique = "not-applicable"
    return spc


def _decide_strict(
    report: EkrReport,
    spc: DerangementSpectrum | None,
    witness_ok: bool,
) -> None:
    mm = report.ekr == "yes" and report.rank_full == "yes" and report.condition_b
    cu_no = False
    if spc is not None:
        flag, verdict, count = complete_union_detect(spc)
        if flag:
            report.notes.append(
                f"derangement graph is {spc.order // spc.n} complete components; "
                f"{count} maximum intersecting sets vs {spc.n ** 2} canonical"
            )
            report.certificates.append(
                {"kind": "complete-union", "components": spc.order // spc.n, "count": count}
            )
            cu_no = verdict == "no"
    if mm and (cu_no or witness_ok):
        raise AssertionError(f"{report.key}: strict certified yes and refuted at once")
    if mm:
        report.strict, report.strict_reason = "yes", "module-method"
    elif cu_no:
        report.strict, report.strict_reason = "no", "complete-union"
    elif witness_ok:
        report.strict, report.strict_reason = "no", "witness"
    else:
        report.strict, report.strict_reason = "unknown", "external-unproven"


@contextmanager
def _timed(report: EkrReport, key: str):
    """Record the wall time of the block as `report.timings[key]`; a block
    that raises records nothing."""
    t = time.perf_counter()
    yield
    report.timings[key] = time.perf_counter() - t


# ---- groups over the enumeration cap ----

_CLASS_SHAPE = {
    # catalog key: (element order, cycle type) of the certifying class
    "M23": (23, (23,)),
    "M24": (12, (12, 12)),
}


def _find_class_rep(group: PermutationGroup, order: int, shape: tuple, seed: int = 11):
    rng = random.Random(seed)
    for _ in range(20000):
        g = group.random_element(rng)
        if g.order() == order and g.cycle_type() == shape:
            return g
    raise RuntimeError(f"no element of order {order} with cycle type {shape} found")


def imported_table_report(
    report: EkrReport, group: PermutationGroup, table_path
) -> DerangementSpectrum:
    """Fill the spectral columns of a partial report from a supplied table.

    The file is re-verified on parse (orthogonality, degree sums); the
    eigenvalue computations on it are exact.  Columns that rest on the
    supplied data are flagged in the notes, and the strict verdict is
    never assembled from them.
    """
    table = parse_table(table_path.read_text())
    if table.order != group.order() or table.degree != group.degree:
        raise ValueError(f"{report.key}: supplied table order/degree mismatch")
    spc = _spectral_columns(report, table)
    report.notes.append(
        "least/EKR/unique columns rest on a supplied character table "
        "(re-verified internally, externally sourced)"
    )
    return spc


def mathieu_class_rank(report: EkrReport, group: PermutationGroup) -> None:
    """Rank certification for a group too large to enumerate: the Gram
    matrix of one derangement class, counted over quadruple orbits from
    one representative z, and its positive-definite pattern.  The class
    size |G|/|C_G(z)| comes from the sifted centraliser.  The three steps
    are timed as `rank.class_size`, `rank.orbit_gram` and `rank.pattern`."""
    order, shape = _CLASS_SHAPE[report.key]
    with _timed(report, "rank.class_size"):
        rep = _find_class_rep(group, order, shape)
        size = group.order() // centralizer_order(group, rep)
    with _timed(report, "rank.orbit_gram"):
        N = quadruple_orbit_gram(group, rep, size)
    with _timed(report, "rank.pattern"):
        cg = gram_pattern(N, report.degree, size)
    if not cg.psd_certified:
        report.notes.append("class Gram pattern did not certify positive-definiteness")
        return
    report.rank_full = "yes"
    report.rank_mode = f"class gram, order-{order} class of {size}"
    report.certificates.append(
        {
            "kind": "class-gram",
            "class_size": int(size),
            "lam": int(cg.lam),
            "mu": int(cg.mu),
            "least_bound": int(cg.least_bound),
        }
    )


def _over_cap_route(report: EkrReport, group: PermutationGroup, tables_dir) -> None:
    """Spectral columns from `<tables_dir>/<key>.ct` when that file exists,
    and rank from a class Gram when a class is registered for the group.
    Strict stays unknown: it is never assembled from a supplied table."""
    path = Path(tables_dir, f"{report.key}.ct") if tables_dir is not None else None
    if path is not None and path.exists():
        with _timed(report, "table"):
            imported_table_report(report, group, path)
    if report.key not in _CLASS_SHAPE:
        report.notes.append("no streamed-class route registered for this group")
        return
    with _timed(report, "rank"):
        mathieu_class_rank(report, group)


def classify(key_or_spec, caps: Caps | None = None, tables_dir=None) -> EkrReport:
    """Full decision sequence for one catalogued group.

    A group over the enumeration cap takes the over-cap route instead
    (`tables_dir` holds the tables it may read).  Resource caps produce
    partial reports with unknown columns; no column is ever filled with
    an unverified value.
    """
    caps = caps or Caps()
    spec = get_spec(key_or_spec) if isinstance(key_or_spec, str) else key_or_spec
    group = build_group(spec)
    report = EkrReport(key=spec.name, degree=spec.degree, order=group.order())
    with _timed(report, "total"):
        try:
            with _timed(report, "enumerate"):
                eg = conjugacy_classes(group, caps.enumeration)
        except CapExceeded as exc:
            report.notes.append(f"enumeration cap: {exc}")
            _over_cap_route(report, group, tables_dir)
        else:
            with _timed(report, "table"):
                table = character_table_for(group, eg=eg)

            with _timed(report, "spectrum"):
                spc = _spectral_columns(report, table)

            with _timed(report, "clique"):
                search = SearchStats()
                clique = find_n_clique(eg, caps.clique_budget, search)
            if clique is not None:
                report.n_clique = "yes"
                report.certificates.append(
                    {"kind": "n-clique", "elements": [list(p.images) for p in clique.elements]}
                )
            elif search.exhausted:
                report.n_clique = "no"
                report.certificates.append({"kind": "n-clique-exhausted", "nodes": search.nodes})
            else:
                report.n_clique = "unknown"
                report.notes.append(
                    f"n-clique search stopped at the node budget: {search.nodes} of "
                    f"{caps.clique_budget} nodes"
                )

            if report.least_standard == "no":
                if clique is not None:
                    report.ekr, report.ekr_reason = "yes", "clique-coclique"
                else:
                    report.notes.append("no n-clique for the clique-coclique bound; EKR undecided")

            if report.ekr == "yes" and report.unique != "yes":
                with _timed(report, "weighted"):
                    weighted = weighted_ratio_certificate(eg, table)
                if weighted is not None:
                    report.certificates.append(weighted)

            with _timed(report, "rank"):
                cert = rank_certificate(gram_M(eg))
            report.rank_full = "yes" if cert.full else "no"
            report.rank_mode = cert.mode
            report.certificates.append(
                {
                    "kind": "rank",
                    "columns": cert.columns,
                    "claimed_rank": cert.claimed_rank,
                    "mode": cert.mode,
                    "primes": list(cert.primes),
                    "kernel_digest": _digest(cert.kernel) if cert.kernel else None,
                }
            )

            witness_ok = False
            built = hyperplane_witness(spec, eg)
            if built is not None:
                els, W = built
                with _timed(report, "witness"):
                    inter, maximum, canonical = verify_witness(
                        group, els, ekr_established=report.ekr == "yes"
                    )
                witness_ok = inter and maximum and not canonical
                if witness_ok:
                    report.certificates.append(
                        {
                            "kind": "witness",
                            "size": len(els),
                            "hyperplane": [int(x) for x in W],
                            "digest": _digest(sorted(p.images for p in els)),
                        }
                    )
                    report.notes.append(
                        f"hyperplane stabilizer of size {len(els)} is a maximum "
                        "intersecting set sharing no image pair"
                    )

            _decide_strict(report, spc, witness_ok)
    report.validate()
    return report


def table_order(report: EkrReport) -> tuple:
    """Sort key of a report table: degree, then order descending, then key."""
    return (report.degree, -report.order, report.key)


def classify_many(keys, caps: Caps | None = None, tables_dir=None) -> list[EkrReport]:
    """Classify each key; reports in `table_order`."""
    return sorted((classify(k, caps, tables_dir) for k in keys), key=table_order)


# ---- report emission ----


def emit_json(reports: list[EkrReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2, sort_keys=True)


def emit_csv(reports: list[EkrReport]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        lines.append(",".join(r.csv_row()))
    return "\n".join(lines) + "\n"


def strip_timings(json_text: str):
    """Parsed report list with timing data removed, for determinism checks."""
    data = json.loads(json_text)
    for row in data:
        row.pop("timings", None)
    return data
