"""End-to-end classification: verdicts, reports, witnesses, oracles."""

import copy
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ekrcheck.cyclo import Cyc
from ekrcheck.errors import CapExceeded
from ekrcheck.group import EnumeratedGroup
from ekrcheck.library import GroupSpec, catalog_keys, format_catalog, get_group, get_spec
from ekrcheck.perm import Permutation
from ekrcheck import library, pipeline as pl
from ekrcheck.weighted import verify_weighted_ratio, weighted_etas
from design_reference import block_sizes, hyperplanes, scanned_block, set_orbit
from survey import BENCHMARK_ROWS, SURVEY, SURVEY_ROWS, row_problems


@pytest.fixture(scope="module")
def reports():
    cache = {}

    def load(key):
        if key not in cache:
            cache[key] = pl.classify(key)
        return cache[key]

    return load


# ---- whole-group verdicts ----


def test_s3_strict_yes_by_module_method(reports):
    r = reports("S3")
    assert r.ekr == "yes" and r.ekr_reason == "ratio"
    assert r.least_standard == "yes" and r.unique == "yes"
    assert r.rank_full == "yes"
    assert r.strict == "yes" and r.strict_reason == "module-method"


def test_f20_complete_union_strict_no(reports):
    r = reports("F20")
    assert r.ekr == "yes"
    assert r.strict == "no" and r.strict_reason == "complete-union"
    cert = next(c for c in r.certificates if c["kind"] == "complete-union")
    assert cert["components"] == 4 and cert["count"] == 625


def test_a4_complete_union_strict_no(reports):
    r = reports("A4")
    assert r.strict == "no" and r.strict_reason == "complete-union"
    cert = next(c for c in r.certificates if c["kind"] == "complete-union")
    assert cert["components"] == 3 and cert["count"] == 64


def test_pgl32_witness_strict_no(reports):
    r = reports("PGL(3,2)")
    assert r.ekr == "yes"
    assert r.rank_full == "no"
    assert r.strict == "no" and r.strict_reason == "witness"
    cert = next(c for c in r.certificates if c["kind"] == "witness")
    assert cert["size"] == 24


def test_pgl25_strict_stays_unknown(reports):
    # The name records a former gap: rank is full but the least eigenvalue
    # is shared and no clique witnesses every module, so condition (b) had
    # no route and strict stayed unknown.  A weighted ratio certificate
    # now meets (b), and the brute-force count confirms strict EKR.
    r = reports("PGL(2,5)")
    assert r.ekr == "yes" and r.unique == "no" and r.rank_full == "yes"
    assert r.strict == "yes" and r.strict_reason == "module-method"
    assert r.module_by_clique == "not-tried"
    _, g = get_group("PGL(2,5)")
    table = pl.character_table_for(g)
    (cert,) = [c for c in r.certificates if c["kind"] == "weighted-ratio"]
    assert verify_weighted_ratio(table, cert)
    alpha, _, count = pl.brute_alpha(g)
    assert alpha == 20 and count == 36 == 6**2


@pytest.mark.parametrize("key", SURVEY)
def test_survey_rows_need_no_sign_test_or_canonical_form(key, monkeypatch):
    # every spectral verdict rests on the integers of the rational table:
    # classify constructs no cyclotomic number at all, so in particular it
    # runs no interval sign test and no reduction to the power basis; and
    # its witness reads the group alone, so it builds no finite field
    def refuse(self, *args, **kwargs):
        raise AssertionError("classify constructed a Cyc")

    def no_field(q):
        raise AssertionError("classify built a finite field")

    monkeypatch.setattr(Cyc, "__init__", refuse)
    monkeypatch.setattr(library, "gf", no_field)
    row = pl.classify(key).csv_row()
    assert row == SURVEY_ROWS[key]
    assert row_problems(BENCHMARK_ROWS[key], row) == []


def test_classify_rejects_low_transitivity():
    c5 = GroupSpec(name="C5", degree=5, expected_order=5, generators=("(1,2,3,4,5)",))
    with pytest.raises(ValueError, match="2-transitive"):
        pl.classify(c5)


def test_caps_give_partial_report_not_wrong_verdict():
    caps = pl.Caps(enumeration=100)
    r = pl.classify("M11", caps=caps)
    assert r.partial
    assert r.least_standard == "unknown" and r.ekr == "unknown"
    assert r.strict == "unknown"
    r.validate()


def test_m10_n_clique_no_by_exhaustion_and_unknown_at_the_budget(reports):
    r = reports("M10")
    assert r.n_clique == "no" and r.csv_row()[4] == "N"
    (cert,) = [c for c in r.certificates if c["kind"] == "n-clique-exhausted"]
    assert cert["nodes"] > 1
    short = pl.classify("M10", caps=pl.Caps(clique_budget=1))
    assert short.n_clique == "unknown" and short.csv_row()[4] == "?"
    assert "n-clique search stopped at the node budget: 1 of 1 nodes" in short.notes
    (budget,) = [c for c in short.certificates if c["kind"].startswith("n-clique")]
    assert budget == {"kind": "n-clique-budget", "nodes": 1, "budget": 1}
    short.validate()


def test_m10_budget_report_is_deterministic():
    runs = [pl.classify("M10", caps=pl.Caps(clique_budget=1)) for _ in range(2)]
    a, b = (pl.strip_timings(pl.emit_json([r])) for r in runs)
    assert a == b


@pytest.mark.parametrize(
    "key, kind, match, derived",
    [
        ("S3", "n-clique", "n_clique='yes'", {"n_clique": "not-tried", "strict": "yes"}),
        ("M10", "n-clique-exhausted", "n_clique='no'", {"n_clique": "not-tried"}),
        ("AGammaL(1,8)", "n-clique", "clique-coclique", {"ekr": "unknown", "strict": "unknown"}),
        ("S3", "rank", "rank=", {"rank_full": "unknown", "strict": "unknown"}),
    ],
    ids=["S3-n-clique", "M10-n-clique-exhausted", "AGammaL(1,8)-clique-coclique", "S3-rank"],
)
def test_validate_rejects_n_clique_verdict_without_certificate(
    reports, key, kind, match, derived
):
    # a dropped record leaves the stored columns without their evidence;
    # derivation from what is left decides them again
    r = copy.deepcopy(reports(key))
    r.validate()
    r.certificates = [c for c in r.certificates if c["kind"] != kind]
    with pytest.raises(AssertionError, match=match):
        r.validate()
    pl.derive_columns(r).validate()
    assert {name: getattr(r, name) for name in derived} == derived


def test_every_report_validates(reports):
    for key in ("S3", "A4", "F20", "PGL(2,5)", "PGL(3,2)"):
        reports(key).validate()


@pytest.mark.parametrize(
    "key, kind, forge, match",
    [
        ("F20", "complete-union", lambda c: dict(c, count=c["count"] + 1), "count is not degree"),
        ("S3", "n-clique", lambda c: dict(c, elements=c["elements"][:2]), "not 3 rows"),
        ("S3", "rank", lambda c: dict(c, claimed_rank=c["columns"] + 1), "exceeds the column"),
        ("S3", "ratio", lambda c: dict(c, eta_by_row=[0] * len(c["eta_by_row"])), "not positive"),
        (
            "PGL(2,5)",
            "weighted-ratio",
            lambda c: dict(c, eta_by_row=["-1"] * len(c["eta_by_row"])),
            "not positive",
        ),
        ("PSL(2,11)@11", "witness", lambda c: dict(c, size=c["size"] + 1), "size times degree"),
        (
            "PSL(2,11)@11",
            "witness",
            lambda c: dict(c, hyperplane=c["hyperplane"][:4]),
            r"no symmetric 2-\(11,4,lambda\)",
        ),
        (
            "PSL(2,11)@11",
            "witness",
            lambda c: dict(c, hyperplane=c["hyperplane"][:4] + c["hyperplane"][:1]),
            "not 5 distinct points",
        ),
    ],
    ids=[
        "complete-union", "n-clique", "rank", "ratio", "weighted-ratio",
        "witness-size", "witness-block-size", "witness-repeated-point",
    ],
)
def test_validate_rejects_forged_record_arithmetic(reports, key, kind, forge, match):
    r = copy.deepcopy(reports(key))
    r.certificates = [forge(c) if c["kind"] == kind else c for c in r.certificates]
    with pytest.raises(AssertionError, match=match):
        r.validate()


def _as_row_side(c):
    """A column-side rank record cut to the fields of a row-side one."""
    mode = "deficient: fewer rows than columns"
    return {"kind": "rank", "columns": c["columns"], "rows": c["rows"], "mode": mode}


@pytest.mark.parametrize(
    "key, forge, match",
    [
        # S3 has d = 2 = c, so a record without a claimed rank proves nothing
        ("S3", _as_row_side, "no fewer rows than columns"),
        ("A4", lambda c: dict(c, rows=c["rows"] + 1), "rows is not d"),
        ("A4", lambda c: dict(c, rows=c["columns"]), "rows is not d"),
        # 3 rows give rank at most 3 of 6 columns
        ("A4", lambda c: dict(c, claimed_rank=c["columns"]), "exceeds the row count"),
    ],
    ids=["rows-not-fewer", "rows-not-d", "rows-as-columns", "row-side-full"],
)
def test_validate_rejects_a_forged_row_side_rank_record(reports, key, forge, match):
    r = copy.deepcopy(reports(key))
    r.certificates = [forge(c) if c["kind"] == "rank" else c for c in r.certificates]
    with pytest.raises(AssertionError, match=match):
        r.validate()


def test_survey_ratio_records_are_the_weight_one_etas(reports):
    # the ratio bound is the weighted ratio bound with weight 1 on every
    # derangement rational class
    for key in SURVEY:
        r = reports(key)
        (ratio,) = [c for c in r.certificates if c["kind"] == "ratio"]
        _, g = get_group(key)
        table = pl.character_table_for(g)
        etas = weighted_etas(table, dict.fromkeys(table.der, Fraction(1)))
        assert etas == ratio["eta_by_row"], key
        tampered = copy.deepcopy(r)
        (forged,) = [c for c in tampered.certificates if c["kind"] == "ratio"]
        forged["eta_by_row"][table.trivial] += 1
        assert etas != forged["eta_by_row"]
        with pytest.raises(AssertionError, match="d="):
            tampered.validate()


def test_classify_raises_when_least_analysis_disagrees(monkeypatch):
    # least_analysis stays a second opinion on the ratio record
    real = pl.least_analysis

    def flipped(spc, table):
        tau, least, unique = real(spc, table)
        return tau, least, not unique

    monkeypatch.setattr(pl, "least_analysis", flipped)
    with pytest.raises(AssertionError, match="least_analysis"):
        pl.classify("S3")


# ---- report invariants ----


def test_validate_rejects_unsupported_strict_yes():
    r = pl.EkrReport(key="x", degree=5, order=20)
    pl.derive_columns(r).validate()
    r.strict = "yes"
    with pytest.raises(AssertionError, match="strict="):
        r.validate()


def _rank_record(columns, rows, claimed_rank):
    return {
        "kind": "rank", "columns": columns, "rows": rows, "claimed_rank": claimed_rank,
        "mode": "full-rank via prime 7", "primes": [7], "kernel_digest": None,
    }


def test_validate_rejects_strict_yes_without_condition_b():
    # EKR by the ratio bound and full rank, but the least eigenvalue is
    # shared and the only weighted certificate ties a second row with the
    # standard eigenvalue: no condition (b), so strict stays unknown
    ratio = {"kind": "ratio", "eta_by_row": [324, -36, -36, 0]}
    tie = {"kind": "weighted-ratio", "weights": [], "eta_by_row": ["324", "-36", "-36", "0"]}
    certificates = [ratio, tie, _rank_record(72, 324, 72)]
    r = pl.EkrReport(key="x", degree=10, order=720, certificates=certificates)
    pl.derive_columns(r)
    assert (r.ekr, r.unique, r.rank_full, r.strict) == ("yes", "no", "yes", "unknown")
    r.strict, r.strict_reason = "yes", "module-method"
    with pytest.raises(AssertionError, match="strict="):
        r.validate()
    r.certificates[1] = dict(tie, eta_by_row=["9", "0", "-1", "9/32"])
    r.validate()
    r.certificates[2] = _rank_record(72, 324, 71)
    assert pl.derive_columns(r).strict == "unknown" and r.rank_full == "no"


def test_validate_rejects_strict_no_without_reason():
    r = pl.EkrReport(key="x", degree=5, order=20)
    r.strict = "no"
    with pytest.raises(AssertionError, match="strict="):
        r.validate()
    # a complete union of 4 components has 5^4 > 5^2 maximum sets
    r.certificates.append({"kind": "complete-union", "components": 4, "count": 5**4})
    pl.derive_columns(r).validate()
    assert (r.strict, r.strict_reason) == ("no", "complete-union")


def test_validate_rejects_unique_without_least():
    r = pl.EkrReport(key="x", degree=5, order=20)
    r.unique = "yes"
    with pytest.raises(AssertionError, match="unique="):
        r.validate()
    # least eigenvalue -2 below -4/(5-1): unique does not apply
    r.certificates.append({"kind": "ratio", "eta_by_row": [4, -1, -2]})
    pl.derive_columns(r).validate()
    assert (r.d, r.least_standard, r.unique, r.ekr) == (4, "no", "not-applicable", "unknown")


# ---- witness checking ----


def test_witness_canonical_coset(reports):
    _, g = get_group("PGL(2,5)")
    eg = EnumeratedGroup(g)
    members = [eg.element(i) for i in range(len(eg.E)) if eg.E[i, 0] == 2]
    inter, maximum, canonical = pl.verify_witness(g, members)
    assert inter and maximum and canonical


def test_witness_identity_plus_derangement_not_intersecting():
    _, g = get_group("S3")
    eg = EnumeratedGroup(g)
    der = next(eg.element(i) for i in range(6) if eg.fix_counts_all[i] == 0)
    inter, _, _ = pl.verify_witness(g, [Permutation.identity(3), der])
    assert not inter


def test_witness_rejects_foreign_element():
    _, g = get_group("A4")
    outsider = Permutation((1, 0, 2, 3))  # odd, not in A4
    with pytest.raises(ValueError, match="not in the group"):
        pl.verify_witness(g, [outsider])


def test_witness_rejects_an_outsider_with_a_members_base_images():
    # an element is fixed by its base images, so a sift of the base
    # columns alone would take this outsider for the member it copies
    _, g = get_group("PGL(3,2)")
    elements, _ = pl.hyperplane_witness(EnumeratedGroup(g))
    images = list(elements[1].images)
    a, b = [p for p in range(g.degree) if p not in g.base()][:2]
    images[a], images[b] = images[b], images[a]
    outsider = Permutation(tuple(images))
    assert outsider not in g
    assert g.element_index(np.array([images])) == g.element_index(np.array([elements[1].images]))
    with pytest.raises(ValueError, match="not in the group"):
        pl.verify_witness(g, elements[:1] + [outsider] + elements[2:])


def _intersecting_by_quotients(rows):
    """Whether every quotient x y^-1 of two rows fixes a point, one row y
    at a time."""
    n = rows.shape[1]
    pts = np.arange(n)
    for y in rows:
        inv = np.empty(n, dtype=np.intp)
        inv[y.astype(np.intp)] = pts
        if ((rows[:, inv] == pts).sum(axis=1) == 0).any():
            return False
    return True


@pytest.mark.parametrize("key, seed", [("PGL(3,2)", 1), ("PSL(3,3)", 2), ("PSL(3,3)", 3)])
def test_witness_intersecting_matches_the_quotient_loop(key, seed):
    # the hyperplane stabilizer with some members swapped for other group
    # elements; PSL(3,3)'s 432 rows span two agreement blocks
    _, g = get_group(key)
    eg = EnumeratedGroup(g)
    elements, _ = pl.hyperplane_witness(eg)
    rng = np.random.default_rng(seed)
    sets = [elements]
    for swaps in (1, 3):
        inside = {p.images for p in elements}
        outside = [i for i in range(len(eg.E)) if tuple(int(x) for x in eg.E[i]) not in inside]
        picked = list(elements)
        for at, i in zip(rng.choice(len(picked), swaps, replace=False),
                         rng.choice(outside, swaps, replace=False)):
            picked[at] = eg.element(int(i))
        sets.append(picked)
    verdicts = []
    for els in sets:
        rows = np.array([p.images for p in els], dtype=np.int8)
        inter, _, _ = pl.verify_witness(g, els)
        assert inter == _intersecting_by_quotients(rows)
        verdicts.append(inter)
    assert verdicts[0]


def test_witness_rejects_duplicates():
    _, g = get_group("S3")
    e = Permutation.identity(3)
    with pytest.raises(ValueError, match="repeated"):
        pl.verify_witness(g, [e, e])


def test_witness_rejects_an_empty_set():
    _, g = get_group("A4")
    with pytest.raises(ValueError, match="witness is empty"):
        pl.verify_witness(g, [])
    with pytest.raises(ValueError, match="witness is empty"):
        pl.verify_witness(g, iter(()))


# the catalog groups of degree <= 21 that preserve a symmetric design,
# with the projective ones' PG(d-1,q) as (q, d)
DESIGN_GROUPS = {
    "PGL(3,2)": (2, 3), "PSL(2,11)@11": None, "PSL(3,3)": (3, 3), "A8@15": (2, 4),
    "A7@15": (2, 4), "2^4:S6": None, "2^4:A6": None, "ASigmaL(2,4)": None,
    "ASL(2,4)": None, "M21": (4, 3),
}


@pytest.fixture(scope="module")
def design_witness():
    cache = {}

    def load(key):
        if key not in cache:
            _, g = get_group(key)
            cache[key] = g, pl.hyperplane_witness(EnumeratedGroup(g))
        return cache[key]

    return load


def test_hyperplane_witness_registered_groups(design_witness):
    for key in DESIGN_GROUPS:
        g, found = design_witness(key)
        assert found is not None, key
        elements, _ = found
        assert len(elements) * g.degree == g.order()
        inter, maximum, canonical = pl.verify_witness(g, elements)
        assert inter and maximum and not canonical


@pytest.mark.parametrize("key", DESIGN_GROUPS)
def test_design_witness_block_orbit_is_a_symmetric_design(key, design_witness):
    # the block's images under the generators are n sets with every pair
    # of points in lambda of them, and the witness is all of B's stabilizer
    g, (elements, B) = design_witness(key)
    n, k = g.degree, len(B)
    blocks = set_orbit(g.generators, B)
    assert len(blocks) == n
    lam = k * (k - 1) // (n - 1)
    for i, j in itertools.combinations(range(n), 2):
        assert sum(1 for S in blocks if i in S and j in S) == lam
    rows = g.elements_array().tolist()
    stabilizer = sorted(tuple(r) for r in rows if {r[x] for x in B} == set(B))
    assert sorted(p.images for p in elements) == stabilizer


def test_design_witness_found_exactly_when_a_subset_scan_finds_a_block():
    degree = {k: get_spec(k).degree for k in catalog_keys()}
    keys = [k for k, n in degree.items() if n <= 16 and block_sizes(n)]
    assert len(keys) == 20
    for key in keys:
        _, g = get_group(key)
        found = pl.hyperplane_witness(EnumeratedGroup(g))
        assert (found is None) == (scanned_block(g.generators, g.degree) is None), key
        assert (found is not None) == (key in DESIGN_GROUPS), key


@pytest.mark.parametrize("key", [k for k, model in DESIGN_GROUPS.items() if model])
def test_design_witness_projective_block_is_the_hyperplane(key, design_witness):
    # the first hyperplane of the catalog's PG(d-1,q) model, x_{d-1} = 0
    q, d = DESIGN_GROUPS[key]
    assert f"model=PG({d - 1},{q})" in get_spec(key).notes
    _, (_, B) = design_witness(key)
    assert B == sorted(hyperplanes(q, d)[0])


def test_hyperplane_witness_absent_for_non_projective():
    _, g = get_group("S3")
    assert pl.hyperplane_witness(EnumeratedGroup(g)) is None


# ---- brute-force oracle ----


@pytest.mark.parametrize(
    "key,alpha,count",
    [("S3", 2, 9), ("A4", 3, 64), ("F20", 4, 625), ("A5@6", 10, 36)],
)
def test_brute_alpha_small(key, alpha, count):
    _, g = get_group(key)
    a, members, cnt = pl.brute_alpha(g)
    assert a == alpha
    assert len(members) == alpha
    assert cnt == count
    inter, _, _ = pl.verify_witness(g, members)
    assert inter


def test_brute_alpha_respects_cap():
    _, g = get_group("M11")
    with pytest.raises(CapExceeded):
        pl.brute_alpha(g, cap=2000)


# ---- emission ----


def test_csv_columns_and_marks(reports):
    text = pl.emit_csv([reports("S3"), reports("F20")])
    lines = text.strip().split("\n")
    assert lines[0] == "n,Group,size,least,n-clique,EKR,unique,module-by-clique,rank,strict"
    assert lines[1] == "3,S3,6,Y,Y,Y,Y,--,Y,Y"
    assert lines[2] == "5,F20,20,Y,Y,Y,Y,--,N,N"


def test_csv_empty_reports_is_header_only():
    assert pl.emit_csv([]) == "n,Group,size,least,n-clique,EKR,unique,module-by-clique,rank,strict\n"


def test_csv_quotes_a_group_name_with_a_comma(reports):
    r = reports("PGL(2,5)")
    text = pl.emit_csv([r])
    assert text.split("\n")[1].startswith('6,"PGL(2,5)",120,')
    assert list(csv.reader(io.StringIO(text))) == [pl.CSV_COLUMNS, r.csv_row()]


def test_csv_partial_marks():
    # over the cap only the rank is decided, by the class Gram route
    r = pl.classify("M11", caps=pl.Caps(enumeration=100))
    row = pl.emit_csv([r]).strip().split("\n")[1]
    assert row == "11,M11,7920,?,--,?,?,--,Y,?"


def test_json_schema_fields(reports):
    data = json.loads(pl.emit_json([reports("S3")]))
    (obj,) = data
    assert set(obj) == {
        "key", "degree", "order", "d", "least_standard", "n_clique", "ekr",
        "unique", "module_by_clique", "rank", "strict", "certificates",
        "timings", "notes",
    }
    assert obj["ekr"] == {"verdict": "yes", "reason": "ratio"}
    assert obj["strict"] == {"verdict": "yes", "reason": "module-method"}
    assert obj["d"] == 2


def test_json_deterministic_modulo_timings():
    a = pl.classify("PGL(2,5)")
    b = pl.classify("PGL(2,5)")
    ja = pl.strip_timings(pl.emit_json([a]))
    jb = pl.strip_timings(pl.emit_json([b]))
    assert ja == jb


def test_classify_many_table_order():
    reports = pl.classify_many(["F20", "PGL(2,5)", "S3", "A4"])
    assert [r.key for r in reports] == ["S3", "A4", "F20", "PGL(2,5)"]
    degrees = [r.degree for r in reports]
    assert degrees == sorted(degrees)


# ---- group-file classification ----


def test_classify_from_spec_matches_key():
    spec = get_spec("F20")
    text = format_catalog([spec])
    reparsed = pl.classify(spec)
    direct = pl.classify("F20")
    assert pl.strip_timings(pl.emit_json([reparsed])) == pl.strip_timings(
        pl.emit_json([direct])
    )
    assert "F20" in text


# ---- groups over the enumeration cap ----

# the first derangement that the route's seeded draw gives, of cycle type
# (14,7,2) in M23 and (10,10,2,2) in M24, and the values of the Gram of
# its conjugates g z g^-1 over the group, the diagonal one |G|/(n-1)
M23_GRAM = {
    "kind": "class-gram",
    "representative": [21, 4, 6, 7, 1, 10, 12, 18, 0, 19, 11, 20, 13, 16, 17, 14, 3, 8, 15,
                       22, 9, 2, 5],
    "values": [463680, 40320, 0, 0, 20160, 20160, 22176],
}
M24_GRAM = {
    "kind": "class-gram",
    "representative": [16, 18, 4, 23, 6, 14, 8, 13, 17, 20, 7, 5, 1, 15, 2, 19, 10, 3, 0, 12,
                       9, 22, 21, 11],
    "values": [10644480, 1774080, 0, 0, 403200, 403200, 487680],
}


@pytest.mark.m23
def test_m23_rank_by_streamed_class_gram(reports):
    r = reports("M23")
    assert r.rank_full == "yes"
    assert r.rank_mode == "class gram, cycle type (14,7,2)"
    (cert,) = [c for c in r.certificates if c["kind"] == "class-gram"]
    assert cert == M23_GRAM
    assert cert["values"][0] * 22 == r.order
    assert r.least_standard == "unknown" and r.strict == "unknown"
    assert r.strict_reason == "external-unproven"


def _over_cap_report(key, degree, order, certificate, mode):
    """The JSON report, without timings, of a group over the enumeration
    cap whose rank is certified by a class Gram."""
    return {
        "certificates": [certificate],
        "d": None,
        "degree": degree,
        "ekr": {"reason": None, "verdict": "unknown"},
        "key": key,
        "least_standard": "unknown",
        "module_by_clique": "not-tried",
        "n_clique": "not-tried",
        "notes": [
            f"enumeration cap: element enumeration needs {order} which exceeds "
            "the cap 2000000; raise the cap explicitly to proceed"
        ],
        "order": order,
        "rank": {"full": "yes", "mode": mode},
        "strict": {"reason": "external-unproven", "verdict": "unknown"},
        "unique": "unknown",
    }


@pytest.mark.m23
@pytest.mark.parametrize("key, expected", [
    ("M23", _over_cap_report(
        "M23", 23, 10200960, M23_GRAM, "class gram, cycle type (14,7,2)")),
    ("M24", _over_cap_report(
        "M24", 24, 244823040, M24_GRAM, "class gram, cycle type (10,10,2,2)")),
])
def test_over_cap_json_report(reports, key, expected):
    assert pl.strip_timings(pl.emit_json([reports(key)])) == [expected]


@pytest.mark.m23
def test_class_rank_times_its_steps(reports):
    r = reports("M23")
    steps = {"rank.orbit_gram", "rank.algebra"}
    assert {k for k in r.timings if k.startswith("rank.")} == steps
    assert all(r.timings[k] >= 0 for k in steps)
    assert "timings" not in pl.strip_timings(pl.emit_json([r]))[0]


def test_class_rank_reads_the_group_not_its_name():
    r = pl.classify(dataclasses.replace(get_spec("M23"), name="X"))
    assert (r.key, r.rank_full) == ("X", "yes")


def test_class_rank_counts_past_int64():
    # |G| = 21! exceeds int64, and so does |G| f_O for S21's orbits
    cycle = "(" + ",".join(map(str, range(1, 22))) + ")"
    r = pl.classify(GroupSpec("S21", 21, math.factorial(21), ("(1,2)", cycle)))
    (cert,) = [c for c in r.certificates if c["kind"] == "class-gram"]
    assert r.rank_full == "yes" and cert["values"][0] * 20 == math.factorial(21)


# every catalog group of degree <= 21 enumerates under the default cap
SMALL_KEYS = [k for k in catalog_keys() if get_spec(k).degree <= 21]


@pytest.fixture(scope="module")
def over_cap_reports():
    """The report of every SMALL_KEYS group with enumeration capped at 0,
    so each takes the over-cap rank route."""
    return {key: pl.classify(key, pl.Caps(enumeration=0)) for key in SMALL_KEYS}


def test_class_rank_route_is_sound_on_the_catalog(over_cap_reports, reports):
    assert all(r.partial for r in over_cap_reports.values())
    for key in ("S3", "A4"):
        assert "the class Gram route needs degree >= 5" in over_cap_reports[key].notes
        assert over_cap_reports[key].rank_full == "unknown"
    certified = sorted(k for k, r in over_cap_reports.items() if r.rank_full != "unknown")
    assert certified == sorted(["AGL(3,2)", "M11", "M12", "M11@12", "AGL(4,2)", "2^4:A7"])
    assert {over_cap_reports[k].rank_full for k in certified} == {"yes"}
    assert all(reports(k).rank_full == "yes" for k in certified)


def test_m24_rank_by_orbit_counted_class_gram():
    t0 = time.perf_counter()
    r = pl.classify("M24")
    assert time.perf_counter() - t0 < 2
    assert r.rank_full == "yes"
    assert r.rank_mode == "class gram, cycle type (10,10,2,2)"
    (cert,) = [c for c in r.certificates if c["kind"] == "class-gram"]
    assert cert == M24_GRAM
    assert r.least_standard == "unknown" and r.strict == "unknown"


def test_class_rank_streams_no_class(monkeypatch):
    def no_stream(*args, **kwargs):
        raise AssertionError("streamed a class")

    monkeypatch.setattr(pl, "conjugation_orbit", no_stream)
    spec, g = get_group("M23")
    r = pl.EkrReport(key="M23", degree=spec.degree, order=spec.expected_order)
    pl.mathieu_class_rank(r, g)
    assert r.rank_full == "yes"
    (cert,) = [c for c in r.certificates if c["kind"] == "class-gram"]
    assert cert == M23_GRAM


def _swapped_equals_diagonal(values):
    """Values of N = lam (I + S) for the swap S, which kills
    (0,1) - (1,0): lam on the same and the swapped class, 0 elsewhere."""
    return [values[0], values[0]] + [0] * (len(values) - 2)


def _adjacent(values, mu):
    """Values of lam I + mu A for the pairs graph's adjacency A, lam the
    diagonal value: mu on its three classes, 0 on the swapped class and
    the two of a shared point.  Its least eigenvalue is lam - 21 mu."""
    return [values[0], 0, 0, 0] + [mu] * 3


def _fixing_zero(z):
    """z with the images of 0 and of z^-1(0) swapped, so 0 is fixed."""
    z = list(z)
    back = z.index(0)
    z[0], z[back] = 0, z[0]
    return z


# M24: n = 24, seven pair classes, the diagonal value lam = |G|/23
@pytest.mark.parametrize(
    "forge, match",
    [
        (lambda c: dict(c, values=_swapped_equals_diagonal(c["values"])), "singular in the pairs algebra"),
        (lambda c: dict(c, values=_adjacent(c["values"], c["values"][0] // 21)), "singular in the pairs algebra"),
        (lambda c: dict(c, values=_adjacent(c["values"], -1)), "a value is negative"),
        (lambda c: dict(c, values=[20 * c["values"][4]] + c["values"][1:]), "diagonal value is not"),
        (lambda c: dict(c, values=c["values"][:-1]), "not one per pair class"),
        (lambda c: dict(c, values=c["values"] + [0]), "not one per pair class"),
        (lambda c: dict(c, representative=_fixing_zero(c["representative"])), "fixes a point"),
        (lambda c: dict(c, representative=c["representative"][:-1] + [c["representative"][0]]),
         "not a permutation"),
    ],
    ids=["singular", "zero-bound", "negative-mu", "negative-bound", "short-values", "long-values",
         "fixed-point", "not-permutation"],
)
def test_validate_rejects_a_forged_class_gram_record(forge, match):
    r = pl.classify("M24")
    r.validate()
    r.certificates = [forge(c) if c["kind"] == "class-gram" else c for c in r.certificates]
    with pytest.raises(AssertionError, match=match):
        r.validate()


def _recounted(record, key):
    """A class-gram record's values counted again from its representative
    alone, with the group rebuilt from the catalog; None when that Gram
    is not in the pairs algebra."""
    group = pl.build_group(get_spec(key))
    orbits = pl.quadruple_orbit_gram(group, Permutation(record["representative"]))
    algebra = pl.pairs_algebra_rank(orbits.values, orbits.classes, group.degree)
    return algebra and algebra[0]


def test_a_class_gram_record_is_recounted_from_its_representative():
    r = pl.classify("M24")
    (report,) = json.loads(pl.emit_json([r]))
    (record,) = [c for c in report["certificates"] if c["kind"] == "class-gram"]
    assert _recounted(record, "M24") == record["values"]
    # lam I + mu A with lam - 21 mu < 0 keeps the diagonal and is
    # invertible but indefinite, so it is no Gram: validate, which holds
    # no group, passes it, and only a recount from the representative
    # tells it apart
    lam = record["values"][0]
    forged = dict(record, values=_adjacent(record["values"], lam // 20))
    assert lam - 21 * forged["values"][-1] < 0
    r.certificates = [forged if c["kind"] == "class-gram" else c for c in r.certificates]
    r.validate()
    assert _recounted(forged, "M24") != forged["values"]


@pytest.mark.m23
@pytest.mark.parametrize("sign", [1, -1], ids=["swapped-equals-diagonal", "swapped-negates-diagonal"])
def test_tampered_orbit_value_leaves_the_rank_unknown(monkeypatch, sign):
    # N = lam (I + sign S) for the swap S is singular; M23 has one
    # quadruple orbit per pair class
    real = pl.quadruple_orbit_gram

    def tampered(*args):
        orbits = real(*args)
        assert len(orbits.values) == 7
        lam = orbits.values[orbits.classes == 0][0]
        orbits.values[:] = lam * ((orbits.classes == 0) + sign * (orbits.classes == 1))
        return orbits

    monkeypatch.setattr(pl, "quadruple_orbit_gram", tampered)
    spec, g = get_group("M23")
    r = pl.EkrReport(key="M23", degree=spec.degree, order=spec.expected_order)
    pl.mathieu_class_rank(r, g)
    assert not [c for c in r.certificates if c["kind"] == "class-gram"]
    assert r.rank_full == "unknown" and r.csv_row()[pl.CSV_COLUMNS.index("rank")] == "?"
    assert r.notes == ["the class Gram is not certified invertible in the pairs algebra"]
    r.validate()


@pytest.mark.m23
def test_class_rank_builds_no_gram_sized_array():
    # a c x c int64 Gram for M23 (c = 462) alone takes 1.7 MB; the route's
    # peak stays below 1 MB
    spec, g = get_group("M23")
    r = pl.EkrReport(key="M23", degree=spec.degree, order=spec.expected_order)
    tracemalloc.start()
    try:
        pl.mathieu_class_rank(r, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.rank_full == "yes"
    assert peak < 1_000_000, peak


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run `script` in a new interpreter that imports this checkout's ekrcheck."""
    src = pathlib.Path(pl.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)


@pytest.mark.m23
def test_classify_never_loads_numpy_random():
    script = (
        "import sys\n"
        "from ekrcheck.pipeline import classify\n"
        "for key in ('S3', 'M23'):\n"
        "    assert classify(key).rank_full == 'yes', key\n"
        "sys.exit('numpy.random' in sys.modules)\n"
    )
    done = _run_fresh(script)
    assert done.returncode == 0, done.stderr


@pytest.mark.m23
def test_classify_loads_only_what_it_runs():
    # the cyclotomic layer and mpmath serve the tests' oracle only, and
    # numpy.ma and numpy.random serve no step of classify; A4 runs the
    # clique search, PGL(3,2) the rank kernel and M23 the over-cap route
    script = (
        "import sys\n"
        "import ekrcheck\n"
        "from ekrcheck import cliques\n"
        "from ekrcheck.pipeline import classify\n"
        "def loaded(names):\n"
        "    return [m for m in names if m in sys.modules]\n"
        "assert not loaded(['mpmath', 'ekrcheck.cyclo']), loaded(['mpmath', 'ekrcheck.cyclo'])\n"
        "searched = []\n"
        "search = cliques.iter_n_cliques\n"
        "def counted(*args, **kwargs):\n"
        "    searched.append(1)\n"
        "    return search(*args, **kwargs)\n"
        "cliques.iter_n_cliques = counted\n"
        "assert classify('A4').n_clique == 'yes'\n"
        "assert searched, 'A4 did not reach the clique search'\n"
        "assert classify('PGL(3,2)').rank_full == 'no'\n"
        "assert classify('M23').rank_full == 'yes'\n"
        "print(loaded(['mpmath', 'ekrcheck.cyclo', 'numpy.ma', 'numpy.random']))\n"
    )
    done = _run_fresh(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
