"""End-to-end classification: verdicts, reports, witnesses, oracles."""

import copy
import json
import pathlib
import time

import pytest

from ekrcheck.chartab import export_table
from ekrcheck.cyclo import Cyc
from ekrcheck.errors import CapExceeded
from ekrcheck.group import EnumeratedGroup
from ekrcheck.library import GroupSpec, format_catalog, get_group, get_spec
from ekrcheck.perm import Permutation
from ekrcheck import pipeline as pl
from ekrcheck.weighted import verify_weighted_ratio
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
    # every spectral verdict rests on integer eigenvalues: no interval sign
    # test and no reduction to the power basis
    def refuse(self):
        raise AssertionError("classify called Cyc.sign_real or Cyc.canonical")

    monkeypatch.setattr(Cyc, "sign_real", refuse)
    monkeypatch.setattr(Cyc, "canonical", refuse)
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
    assert not any(c["kind"].startswith("n-clique") for c in short.certificates)
    short.validate()


@pytest.mark.parametrize("key, kind", [("S3", "n-clique"), ("M10", "n-clique-exhausted")])
def test_validate_rejects_n_clique_verdict_without_certificate(reports, key, kind):
    r = copy.deepcopy(reports(key))
    r.validate()
    r.certificates = [c for c in r.certificates if c["kind"] != kind]
    with pytest.raises(AssertionError, match="n-clique"):
        r.validate()


def test_every_report_validates(reports):
    for key in ("S3", "A4", "F20", "PGL(2,5)", "PGL(3,2)"):
        reports(key).validate()


# ---- report invariants ----


def test_validate_rejects_unsupported_strict_yes():
    r = pl.EkrReport(key="x", degree=5, order=20)
    r.strict = "yes"
    with pytest.raises(AssertionError, match="three conditions"):
        r.validate()


def test_validate_rejects_strict_yes_without_condition_b():
    # EKR and full rank, but unique = no, no clique witnesses, and the only
    # weighted certificate ties a second row with the standard eigenvalue
    r = pl.EkrReport(key="x", degree=10, order=720)
    r.ekr, r.ekr_reason, r.least_standard = "yes", "ratio", "yes"
    r.unique, r.module_by_clique, r.rank_full = "no", "unknown", "yes"
    r.strict, r.strict_reason = "yes", "module-method"
    tie = {"kind": "weighted-ratio", "weights": [], "eta_by_row": ["324", "-36", "-36", "0"]}
    r.certificates.append(tie)
    with pytest.raises(AssertionError, match="three conditions"):
        r.validate()
    r.certificates[0] = dict(tie, eta_by_row=["9", "0", "-1", "9/32"])
    r.validate()


def test_validate_rejects_strict_no_without_reason():
    r = pl.EkrReport(key="x", degree=5, order=20)
    r.strict = "no"
    with pytest.raises(AssertionError, match="constructive"):
        r.validate()


def test_validate_rejects_unique_without_least():
    r = pl.EkrReport(key="x", degree=5, order=20)
    r.unique = "yes"
    with pytest.raises(AssertionError, match="unique"):
        r.validate()


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


def test_witness_rejects_duplicates():
    _, g = get_group("S3")
    e = Permutation.identity(3)
    with pytest.raises(ValueError, match="repeated"):
        pl.verify_witness(g, [e, e])


def test_hyperplane_witness_registered_groups():
    for key in ("PGL(3,2)", "PSL(3,3)", "A8@15", "A7@15", "M21"):
        spec, g = get_group(key)
        eg = EnumeratedGroup(g)
        found = pl.hyperplane_witness(spec, eg)
        assert found is not None
        elements, _ = found
        assert len(elements) * spec.degree == spec.expected_order
        inter, maximum, canonical = pl.verify_witness(g, elements)
        assert inter and maximum and not canonical


def test_hyperplane_witness_absent_for_non_projective():
    spec, g = get_group("S3")
    assert pl.hyperplane_witness(spec, EnumeratedGroup(g)) is None


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


def test_csv_partial_marks():
    r = pl.classify("M11", caps=pl.Caps(enumeration=100))
    row = pl.emit_csv([r]).strip().split("\n")[1]
    assert row == "11,M11,7920,?,--,?,?,--,?,?"


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


# ---- imported character tables ----


def test_imported_table_round_trip(tmp_path):
    spec, g = get_group("PGL(2,5)")
    eg = EnumeratedGroup(g)
    table = pl.character_table_for(g, eg=eg)
    path = tmp_path / "pgl25.ct"
    path.write_text(export_table(table))

    r = pl.EkrReport(key="PGL(2,5)", degree=spec.degree, order=spec.expected_order)
    pl.imported_table_report(r, g, path)
    assert r.least_standard == "yes" and r.ekr == "yes" and r.unique == "no"
    assert any("supplied character table" in note for note in r.notes)
    assert r.strict == "unknown"


def test_imported_table_rejects_wrong_group(tmp_path):
    _, g3 = get_group("S3")
    table = pl.character_table_for(g3)
    path = tmp_path / "s3.ct"
    path.write_text(export_table(table))
    _, g4 = get_group("A4")
    r = pl.EkrReport(key="A4", degree=4, order=12)
    with pytest.raises(ValueError, match="mismatch"):
        pl.imported_table_report(r, g4, path)


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


@pytest.mark.m23
def test_m23_rank_by_streamed_class_gram(reports):
    r = reports("M23")
    assert r.rank_full == "yes"
    assert r.rank_mode == "class gram, order-23 class of 443520"
    (cert,) = [c for c in r.certificates if c["kind"] == "class-gram"]
    assert cert == {
        "kind": "class-gram",
        "class_size": 443520,
        "lam": 20160,
        "mu": 960,
        "least_bound": 960,
    }
    assert cert["class_size"] == r.order // 23
    assert r.least_standard == "unknown" and r.strict == "unknown"
    assert r.strict_reason == "external-unproven"


def _over_cap_report(key, degree, order, certificate, mode):
    """The JSON report, without timings, of a group over the enumeration
    cap whose rank is certified by a class Gram."""
    return {
        "certificates": [{"kind": "class-gram", **certificate}],
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
        "M23", 23, 10200960,
        {"class_size": 443520, "lam": 20160, "mu": 960, "least_bound": 960},
        "class gram, order-23 class of 443520")),
    ("M24", _over_cap_report(
        "M24", 24, 244823040,
        {"class_size": 20401920, "lam": 887040, "mu": 40320, "least_bound": 40320},
        "class gram, order-12 class of 20401920")),
])
def test_over_cap_json_report(reports, key, expected):
    assert pl.strip_timings(pl.emit_json([reports(key)])) == [expected]


@pytest.mark.m23
def test_class_rank_times_its_steps(reports):
    r = reports("M23")
    steps = {"rank.class_size", "rank.orbit_gram", "rank.pattern"}
    assert steps <= r.timings.keys()
    assert all(r.timings[k] >= 0 for k in steps)
    assert "timings" not in pl.strip_timings(pl.emit_json([r]))[0]


def test_m24_rank_by_orbit_counted_class_gram():
    t0 = time.perf_counter()
    r = pl.classify("M24")
    assert time.perf_counter() - t0 < 2
    assert r.rank_full == "yes"
    assert r.rank_mode == "class gram, order-12 class of 20401920"
    (cert,) = [c for c in r.certificates if c["kind"] == "class-gram"]
    assert cert == {
        "kind": "class-gram",
        "class_size": 20401920,
        "lam": 887040,
        "mu": 40320,
        "least_bound": 40320,
    }
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
    assert cert["class_size"] == 443520


def test_over_cap_group_reads_a_supplied_table(tmp_path):
    _, g = get_group("PGL(2,5)")
    table = pl.character_table_for(g)
    (tmp_path / "PGL(2,5).ct").write_text(export_table(table))
    r = pl.classify("PGL(2,5)", pl.Caps(enumeration=10), tables_dir=tmp_path)
    assert r.csv_row()[3:] == ["Y", "--", "Y", "N", "--", "?", "?"]
    assert r.ekr_reason == "ratio"
    assert any("supplied character table" in note for note in r.notes)
    assert any("no streamed-class route" in note for note in r.notes)
    assert r.strict_reason == "external-unproven"
