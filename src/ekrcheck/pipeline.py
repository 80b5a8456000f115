"""End-to-end classification of a 2-transitive group.

`classify` only appends evidence to `report.certificates`: the
derangement graph's exact spectrum as a `ratio` record, an n-clique
search, a weighted ratio certificate when the ratio bound leaves
condition (b) open, an exact rank certificate, the stabilizer of a
symmetric design's block as a witness, and the complete-union count.
Over the enumeration cap only a `class-gram` rank record is made, from
the class of the first derangement drawn.
`derive_columns` fills every column from the list and the degree n
alone:

    d, least, unique  `ratio` (weight 1 on each derangement class): d is
                      its largest eta, least is Y when the smallest is
                      -d/(n-1), unique is Y when that occurs once
    n-clique          `n-clique` Y, `n-clique-exhausted` N,
                      `n-clique-budget` ?, none --
    EKR               least Y (ratio), else an `n-clique` (clique-coclique)
    module-by-clique  -- always: condition (b) is read off the spectrum
    rank              `rank`: N when rows < columns, else Y exactly when
                      claimed_rank = columns; or Y by a `class-gram` whose
                      Gram is invertible in the pairs algebra
    strict            Y: EKR, rank Y and a `ratio` or `weighted-ratio` record
                      passing `weighted_ratio_holds` (condition (b)); N: a
                      `complete-union` count above n^2, or a `witness` and EKR

A module-method Y beside a refutation raises.  `EkrReport.validate`
re-derives the columns and raises on any stored difference.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .chartab import character_table_for
from .cliques import DEFAULT_NODE_BUDGET, SearchStats, find_n_clique
from .dergraph import complete_union_detect, least_analysis, spectrum
from .errors import CapExceeded
from .group import (
    ENUMERATION_CAP,
    EnumeratedGroup,
    PermutationGroup,
    agreeing_rows,
    conjugacy_classes,
    member_rows,
)
from .library import build_group, get_spec
from .modrank import (
    gram_M,
    pairs_algebra_rank,
    quadruple_orbit_gram,
    rank_certificate,
)

# classify no longer calls these three; the traced benchmark
# (benchmark/tracing.py) wraps them by name in this namespace until the
# benchmark change that trims its entry points (ROADMAP item 1)
from .cliques import module_by_clique  # noqa: F401
from .group import conjugation_orbit  # noqa: F401
from .modrank import class_gram  # noqa: F401
from .perm import Permutation
from .weighted import weighted_etas, weighted_ratio_certificate, weighted_ratio_holds

ORACLE_CAP = 2000
COUNT_CAP = 200

CSV_COLUMNS = "n,Group,size,least,n-clique,EKR,unique,module-by-clique,rank,strict".split(",")

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


@dataclass
class EkrReport:
    key: str
    degree: int
    order: int
    # the verdict columns, filled by `derive_columns` from `certificates`
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

    def validate(self) -> None:
        """Raise unless the arithmetic inside every record holds and every
        column is what `derive_columns` gives from the records."""
        n = self.degree
        for c in self.certificates:
            kind, bad = c["kind"], None
            if kind in ("ratio", "weighted-ratio"):
                if not max(map(Fraction, c["eta_by_row"]), default=0) > 0:
                    bad = "the largest eigenvalue is not positive"
            elif kind == "n-clique" and [len(row) for row in c["elements"]] != [n] * n:
                bad = f"not {n} rows of length {n}"
            elif kind == "rank":
                claimed = c.get("claimed_rank", 0)
                bad = (
                    # M has a row per derangement; the column check below
                    # holds d to the ratio record
                    "rows is not d, the number of derangements" if c["rows"] != self.d
                    else "claimed rank exceeds the column count" if claimed > c["columns"]
                    else "claimed rank exceeds the row count" if claimed > c["rows"]
                    else "no claimed rank, yet no fewer rows than columns"
                    if "claimed_rank" not in c and c["rows"] >= c["columns"]
                    else None
                )
            elif kind == "complete-union" and c["count"] != n ** c["components"]:
                bad = "count is not degree ** components"
            elif kind == "witness":
                B, k = c["hyperplane"], len(c["hyperplane"])
                bad = (
                    "size times degree is not the order" if c["size"] * n != self.order
                    else f"the block is not {k} distinct points of 0..n-1"
                    if len(set(B)) != k or not set(B) <= set(range(n))
                    else f"no symmetric 2-({n},{k},lambda) design has 1 < k < n-1"
                    if not (1 < k < n - 1 and k * (k - 1) % (n - 1) == 0)
                    else None
                )
            elif kind == "class-gram":
                z, values = c["representative"], c["values"]
                bad = (
                    "the representative is not a permutation of 0..n-1"
                    if sorted(z) != list(range(n))
                    else "the representative fixes a point"
                    if any(x == i for i, x in enumerate(z))
                    # seven pair classes for n >= 5, the degrees quadruple_orbit_gram serves
                    else "values are not one per pair class" if len(values) != 7
                    else "a value is negative, so it counts no elements" if min(values) < 0
                    # G_i is transitive on the other points: g z g^-1 maps i
                    # to j for |G|/(n-1) of the g in G
                    else "the diagonal value is not |G| / (n-1)"
                    if values[0] * (n - 1) != self.order
                    else "the class Gram is singular in the pairs algebra"
                    if not pairs_algebra_rank(values, range(7), n)[1]
                    else None
                )
            if bad:
                raise AssertionError(f"{self.key}: {kind} record: {bad}")
        stored, derived = self.to_json_dict(), derive_columns(replace(self)).to_json_dict()
        wrong = [
            f"{name}={stored[name]!r} but its certificates give {derived[name]!r}"
            for name in stored
            if stored[name] != derived[name]
        ]
        if wrong:
            raise AssertionError(f"{self.key}: " + "; ".join(wrong))

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


# ---- verdict columns from the certificate list ----

# the first of these records decides the n-clique column
_N_CLIQUE = (("n-clique", "yes"), ("n-clique-exhausted", "no"), ("n-clique-budget", "unknown"))


def derive_columns(report: EkrReport) -> EkrReport:
    """Fill every verdict column of `report` from its certificate list
    and its degree alone, by the table in the module docstring, and
    return it.  A module-method yes beside a refutation raises."""
    certs, n = report.certificates, report.degree
    first = {}  # the first record of each kind
    for c in reversed(certs):
        first[c["kind"]] = c

    ratio = first.get("ratio")
    if ratio is None:
        report.d, report.least_standard, report.unique = None, "unknown", "unknown"
    else:
        report.d = max(ratio["eta_by_row"])
        least = min(ratio["eta_by_row"]) == Fraction(-report.d, n - 1)
        report.least_standard = "yes" if least else "no"
        holds = weighted_ratio_holds(ratio["eta_by_row"], n)
        report.unique = ("yes" if holds else "no") if least else "not-applicable"

    report.n_clique = next((mark for kind, mark in _N_CLIQUE if kind in first), "not-tried")
    report.module_by_clique = "not-tried"
    if report.least_standard == "yes":
        report.ekr, report.ekr_reason = "yes", "ratio"
    elif "n-clique" in first:
        report.ekr, report.ekr_reason = "yes", "clique-coclique"
    else:
        report.ekr, report.ekr_reason = "unknown", None

    rank, gram = first.get("rank"), first.get("class-gram")
    if rank is not None:
        # fewer rows than columns settle rank N with no claimed rank
        full = rank["rows"] >= rank["columns"] and rank["claimed_rank"] == rank["columns"]
        report.rank_full = "yes" if full else "no"
        report.rank_mode = rank["mode"]
    elif gram is not None:
        report.rank_full = "yes"
        shape = ",".join(map(str, Permutation(gram["representative"]).cycle_type()))
        report.rank_mode = f"class gram, cycle type ({shape})"
    else:
        report.rank_full, report.rank_mode = "unknown", None

    condition_b = any(
        c["kind"] in ("ratio", "weighted-ratio") and weighted_ratio_holds(c["eta_by_row"], n)
        for c in certs
    )
    mm = report.ekr == "yes" and report.rank_full == "yes" and condition_b
    cu_no = any(c["kind"] == "complete-union" and c["count"] > n**2 for c in certs)
    witness = report.ekr == "yes" and "witness" in first
    if mm and (cu_no or witness):
        raise AssertionError(f"{report.key}: strict certified yes and refuted at once")
    report.strict, report.strict_reason = (
        ("yes", "module-method") if mm
        else ("no", "complete-union") if cu_no
        else ("no", "witness") if witness
        else ("unknown", "external-unproven")
    )
    return report


def _digest(obj) -> str:
    blob = repr(obj).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _kernel_digest(kernel: np.ndarray) -> str:
    """sha256 of an integer kernel's shape and its little-endian int64
    bytes, row by row."""
    W = np.ascontiguousarray(kernel, dtype="<i8")
    return hashlib.sha256(repr(W.shape).encode() + W.tobytes()).hexdigest()[:16]


# ---- witnesses ----


def verify_witness(
    group: PermutationGroup, elements, ekr_established: bool = True
) -> tuple[bool, bool, bool]:
    """(intersecting, maximum, canonical) for a candidate intersecting set.

    intersecting: no pairwise quotient is a derangement.  maximum: the set
    has the size every point-to-point coset has, and the EKR bound is
    known to hold so nothing larger exists.  canonical: all elements share
    an image pair, i.e. the set sits inside one of those cosets.  An empty
    set raises ValueError.
    """
    rows = member_rows(group, elements, "witness")
    if not len(rows):
        raise ValueError("witness is empty")
    if len({r.tobytes() for r in rows}) != len(rows):
        raise ValueError("witness contains repeated elements")
    intersecting = bool((agreeing_rows(rows) == len(rows)).all())
    maximum = bool(ekr_established and len(rows) * group.degree == group.order())
    canonical = bool((rows == rows[0]).all(axis=0).any())
    return intersecting, maximum, canonical


def hyperplane_witness(eg: EnumeratedGroup):
    """Stabilizer of a block of a symmetric 2-(n,k,lambda) design with
    1 < k < n-1 that the group preserves, found from the group alone; the
    hyperplanes of PG(d-1,q) are the blocks of one such design.

    The design's incidence matrix A is invertible and P_g A = A Q_g, so
    every g fixes as many blocks as points.  The group is transitive on
    the n blocks, so a block stabilizer G_B has |G|/n elements, and each
    of them fixes a block, hence a point: G_B is intersecting.  An element
    with a fixed point fixes a block, a union of its cycles.  So the
    unions of the cycles of one such element, the class representative
    with the fewest cycles, are tried in `itertools.combinations` order
    where their size k <= n/2 has (n-1) | k(k-1); the first whose
    stabilizer has |G|/n elements is returned as (elements, block).  None
    means the group preserves no such design.
    """
    n = eg.group.degree
    sizes = {k for k in range(2, n // 2 + 1) if k * (k - 1) % (n - 1) == 0}
    if not sizes:
        return None
    rep = min(
        (eg.class_rep(c) for c in range(1, eg.n_classes) if eg.class_fix[c]),
        key=lambda p: len(p.cycles()),
    )
    cycles = rep.cycles()
    for r in range(1, len(cycles) + 1):
        for chosen in itertools.combinations(cycles, r):
            B = sorted(x for cyc in chosen for x in cyc)
            if len(B) not in sizes:
                continue
            inside = np.zeros(n, dtype=bool)
            inside[B] = True
            idx = np.flatnonzero(inside[eg.E[:, B]].all(axis=1))
            if len(idx) * n == len(eg.E):
                return [eg.element(int(i)) for i in idx], B
    return None


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


@contextmanager
def _timed(report: EkrReport, key: str):
    """Record the wall time of the block as `report.timings[key]`; a block
    that raises records nothing."""
    t = time.perf_counter()
    yield
    report.timings[key] = time.perf_counter() - t


# ---- groups over the enumeration cap ----


def mathieu_class_rank(report: EkrReport, group: PermutationGroup) -> None:
    """Rank certification for a group too large to enumerate, from the
    first derangement z that a fixed-seed draw gives.  The Gram of its
    conjugates g z g^-1 over g in G is |C_G(z)| times the Gram of z's
    class, so it has that Gram's rank and, when invertible, gives M full
    column rank.  It is counted over quadruple orbits from z alone, and
    its invertibility is read in the pairs algebra from one value per
    orbit; no matrix of the Gram's size is built.  The two steps are
    timed as `rank.orbit_gram` and `rank.algebra`.  A degree below 5,
    where quadruple orbits miss Gram entries, gets a note instead."""
    if report.degree < 5:
        report.notes.append("the class Gram route needs degree >= 5")
        derive_columns(report)
        return
    rng = random.Random(11)
    # a transitive group of degree n > 1 holds a derangement (Jordan), so
    # the draw ends
    z = group.random_element(rng)
    while not z.is_derangement():
        z = group.random_element(rng)
    with _timed(report, "rank.orbit_gram"):
        orbits = quadruple_orbit_gram(group, z)
    with _timed(report, "rank.algebra"):
        algebra = pairs_algebra_rank(orbits.values, orbits.classes, report.degree)
    if algebra is None or not algebra[1]:
        report.notes.append("the class Gram is not certified invertible in the pairs algebra")
    else:
        report.certificates.append(
            {"kind": "class-gram", "representative": list(z.images), "values": algebra[0]}
        )
    derive_columns(report)


def classify(key_or_spec, caps: Caps | None = None) -> EkrReport:
    """Full decision sequence for one catalogued group.

    A group over the enumeration cap gets its rank from the class Gram of
    one derangement, by `mathieu_class_rank`, and no other column.
    Resource caps produce partial reports with unknown columns; no column
    is ever filled with an unverified value.
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
            with _timed(report, "rank"):
                mathieu_class_rank(report, group)
        else:
            with _timed(report, "table"):
                table = character_table_for(group, eg=eg)

            with _timed(report, "spectrum"):
                spc = spectrum(table)
                _, least_std, least_unique = least_analysis(spc, table)
                if weighted_etas(table, dict.fromkeys(table.der, Fraction(1))) != spc.eta_by_row:
                    raise AssertionError(f"{report.key}: the spectrum disagrees with the table")
            report.certificates.append({"kind": "ratio", "eta_by_row": spc.eta_by_row})

            with _timed(report, "clique"):
                search = SearchStats()
                clique = find_n_clique(eg, caps.clique_budget, search)
            if clique is not None:
                report.certificates.append(
                    {"kind": "n-clique", "elements": [list(p.images) for p in clique.elements]}
                )
            elif search.exhausted:
                report.certificates.append({"kind": "n-clique-exhausted", "nodes": search.nodes})
            else:
                report.certificates.append(
                    {"kind": "n-clique-budget", "nodes": search.nodes, "budget": caps.clique_budget}
                )
                report.notes.append(
                    f"n-clique search stopped at the node budget: {search.nodes} of "
                    f"{caps.clique_budget} nodes"
                )

            derive_columns(report)
            derived = (report.least_standard == "yes", report.unique == "yes")
            if derived != (least_std, least_unique):
                raise AssertionError(f"{report.key}: least_analysis and the ratio record differ")
            if report.ekr != "yes":
                report.notes.append("no n-clique for the clique-coclique bound; EKR undecided")

            if report.ekr == "yes" and report.unique != "yes":
                with _timed(report, "weighted"):
                    weighted = weighted_ratio_certificate(table)
                if weighted is not None:
                    report.certificates.append(weighted)

            with _timed(report, "rank"):
                rows = int((eg.fix_counts_all == 0).sum())
                columns = (spec.degree - 1) * (spec.degree - 2)
                record = {"kind": "rank", "columns": columns, "rows": rows}
                if rows < columns:
                    record["mode"] = "deficient: fewer rows than columns"
                else:
                    cert = rank_certificate(gram_M(eg))
                    digest = _kernel_digest(cert.kernel) if len(cert.kernel) else None
                    record.update(claimed_rank=cert.claimed_rank, mode=cert.mode,
                                  primes=list(cert.primes), kernel_digest=digest)
            report.certificates.append(record)

            built = hyperplane_witness(eg)
            if built is not None:
                els, W = built
                with _timed(report, "witness"):
                    inter, maximum, canonical = verify_witness(
                        group, els, ekr_established=report.ekr == "yes"
                    )
                if inter and maximum and not canonical:
                    digest = _digest(sorted(p.images for p in els))
                    report.certificates.append(
                        {"kind": "witness", "size": len(els),
                         "hyperplane": [int(x) for x in W], "digest": digest}
                    )
                    k = len(W)
                    report.notes.append(
                        f"stabilizer of a block of a symmetric 2-({spec.degree},{k},"
                        f"{k * (k - 1) // (spec.degree - 1)}) design, size {len(els)}, "
                        "is a maximum intersecting set sharing no image pair"
                    )

            count = complete_union_detect(spc)
            if count is not None:
                components = spc.order // spc.n
                report.notes.append(
                    f"derangement graph is {components} complete components; "
                    f"{count} maximum intersecting sets vs {spc.n ** 2} canonical"
                )
                report.certificates.append(
                    {"kind": "complete-union", "components": components, "count": count}
                )
    derive_columns(report)
    report.validate()
    return report


def table_order(report: EkrReport) -> tuple:
    """Sort key of a report table: degree, then order descending, then key."""
    return (report.degree, -report.order, report.key)


def classify_many(keys, caps: Caps | None = None) -> list[EkrReport]:
    """Classify each key; reports in `table_order`."""
    return sorted((classify(k, caps) for k in keys), key=table_order)


# ---- report emission ----


def emit_json(reports: list[EkrReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2, sort_keys=True)


def emit_csv(reports: list[EkrReport]) -> str:
    """The header and one row per report, quoted where a field holds a
    comma, as in the group name PGL(2,5)."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([CSV_COLUMNS] + [r.csv_row() for r in reports])
    return out.getvalue()


def strip_timings(json_text: str):
    """Parsed report list with timing data removed, for determinism checks."""
    data = json.loads(json_text)
    for row in data:
        row.pop("timings", None)
    return data
