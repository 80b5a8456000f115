"""Acceptance gate: eight exact criteria over the whole catalog.

The frozen reference rows in `reference_rows.py` are the published
record and are never edited.  Where exact computation contradicts a cell,
the gate asserts the corrected value from `CORRECTIONS` below, and each
correction names a check that proves it without the character table or
the pipeline's verdict:

* the "unique" column of the two degree-10 groups of order 720 is
  transposed in the reference.  M10's nontrivial linear character (of
  the quotient by its index-2 subgroup A6) gives the derangement graph
  the eigenvalue 144 - 90 - 90 = -36 = -d/9, the standard one, so the
  least eigenvalue has multiplicity 82 = 81 + 1 and M10 is unique = N.
  PSigmaL(2,9)'s least eigenvalue -26 has multiplicity exactly
  81 = 9^2, so the standard character attains it alone: unique = Y.

The Mathieu core tests carry per-key expectations for the same reason:

* M10 strict is Y by the module method, with condition (b) met by a
  weighted ratio certificate (M10 has no 10-clique, so the clique
  projections cannot be searched).
* M21 = PSL(3,4) is not strict EKR: the stabilizer of a line (order
  960) is a maximum intersecting set that is not a point-to-point
  coset.  Its least eigenvalue is attained by the standard character
  alone, so a full-rank M would prove strict EKR by the module method;
  the witness therefore forces rank deficiency, and the exact rank
  certificate finds rank 360 of 380 with 20 integer kernel vectors.
"""

import csv
import hashlib
import pathlib
import random
import time

import numpy as np
import pytest

from ekrcheck.chartab import character_table_for
from ekrcheck.cliques import verify_clique
from ekrcheck.dergraph import (
    brute_adjacency,
    brute_spectrum_matches,
    least_analysis,
    spectrum,
)
from ekrcheck.group import EnumeratedGroup, PermutationGroup, conjugation_orbit
from ekrcheck.library import build_group, catalog_keys, get_group, get_spec
from ekrcheck import modrank as mr
from ekrcheck import pipeline as pl
from ekrcheck.perm import Permutation
from ekrcheck.weighted import verify_weighted_ratio
from gram_reference import dense_pairs_graph
from reference_rows import ROWS
import lemma_reference as lr

SMALL_DEGREE_MAX = 20
SURVEY_KEYS = [k for k in catalog_keys() if get_spec(k).degree <= SMALL_DEGREE_MAX]
ORACLE_KEYS = [k for k in catalog_keys() if get_spec(k).expected_order <= 2000]
MATHIEU_CORE = ("M10", "M11", "M12", "M21")

_oracle_seconds: list[float] = []


@pytest.fixture(scope="module")
def survey():
    """Classify every catalog group of degree <= 20, once."""
    out = {}
    for key in SURVEY_KEYS:
        t0 = time.perf_counter()
        out[key] = (pl.classify(key), time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def mathieu_core(survey):
    out = {k: survey[k] for k in ("M10", "M11", "M12")}
    t0 = time.perf_counter()
    out["M21"] = (pl.classify("M21"), time.perf_counter() - t0)
    return out


def _mark(value: str) -> str:
    return {"yes": "Y", "no": "N", "not-applicable": "NA", "unknown": "?",
            "not-tried": "--"}[value]


# ---- corrected reference cells and their proofs ----


def _elements(g) -> tuple[np.ndarray, np.ndarray]:
    """The element array and the fix count of every element."""
    E = g.elements_array()
    return E, (E == np.arange(g.degree, dtype=E.dtype)).sum(axis=1)


def _m10_linear_character_ties_standard() -> None:
    """M10 unique = N, from fix counts and an index-2 subgroup.

    The squares of M10 generate a normal subgroup H of index 2 (A6), so
    the map g -> +1 on H, -1 off H is a linear character.  Its
    derangement-graph eigenvalue is the +-1 sum over the derangements,
    and it equals the standard eigenvalue -d/(n-1): a second character
    attains the least eigenvalue."""
    _, g = get_group("M10")
    n = g.degree
    E, fix = _elements(g)
    gens: list[Permutation] = []
    H = PermutationGroup([], degree=n)
    for row in E:
        x = Permutation(int(v) for v in row)
        if x * x not in H:
            gens.append(x * x)
            H = PermutationGroup(gens, degree=n)
    assert H.order() * 2 == g.order()
    signs = [1 if Permutation(int(v) for v in row) in H else -1 for row in E[fix == 0]]
    d = len(signs)
    assert d == 324 and signs.count(1) == 144
    assert sum(signs) * (n - 1) == -d


def _psigmal29_least_has_multiplicity_81() -> None:
    """PSigmaL(2,9) unique = Y, from the explicit derangement graph.

    The standard character alone gives the eigenvalue -d/(n-1) with
    multiplicity (n-1)^2 = 81.  The brute-force eigendecomposition puts
    exactly 81 eigenvalues at the least value -d/(n-1) = -26, so no other
    character attains it."""
    _, g = get_group("PSigmaL(2,9)")
    n = g.degree
    E, fix = _elements(g)
    d = int((fix == 0).sum())
    assert d == 234
    eig = np.linalg.eigvalsh(brute_adjacency(E).astype(np.float64))
    least = -d / (n - 1)
    assert abs(eig.min() - least) < 1e-6 * d
    assert int((np.abs(eig - least) < 1e-6 * d).sum()) == 81 == (n - 1) ** 2


# (key, column) -> (corrected mark, the check that proves it).  ROWS keeps
# the published values; the gate asserts these instead.
CORRECTIONS = {
    ("M10", "unique"): ("N", _m10_linear_character_ties_standard),
    ("PSigmaL(2,9)", "unique"): ("Y", _psigmal29_least_has_multiplicity_81),
}


def _expected(key: str, column: str) -> str:
    fix = CORRECTIONS.get((key, column))
    return getattr(ROWS[key], column) if fix is None else fix[0]


@pytest.mark.parametrize("cell", sorted(CORRECTIONS), ids=lambda c: f"{c[0]}-{c[1]}")
def test_reference_correction_proof(cell):
    _, proof = CORRECTIONS[cell]
    proof()


# ---- criterion 1: the degree-5..20 reference table, exact ----


@pytest.mark.parametrize("key", sorted(ROWS))
def test_small_degree_reference_rows(key, survey):
    row = ROWS[key]
    rep, _ = survey[key]
    assert rep.degree == row.degree and rep.order == row.order
    assert _mark(rep.least_standard) == _expected(key, "least")
    # M10 and PSigmaL(2,9) read their corrected cells, see CORRECTIONS
    assert _mark(rep.unique) == _expected(key, "unique")
    assert _mark(rep.rank_full) == _expected(key, "rank")
    assert rep.ekr == "yes"
    if row.n_clique == "Y":
        assert rep.n_clique == "yes"
    rep.validate()


def test_small_degree_runtime(survey):
    times = [t for _, t in survey.values()]
    assert sum(times) < 3600
    assert max(times) < 600


# ---- criterion 2: the Mathieu core, all four properties exact ----

# per-key expectations where the reference is contradicted; see the
# module docstring for the proofs
MATHIEU_RANK_FULL = {"M10": "yes", "M11": "yes", "M12": "yes", "M21": "no"}
MATHIEU_STRICT = {
    "M10": ("yes", "module-method"),
    "M11": ("yes", "module-method"),
    "M12": ("yes", "module-method"),
    "M21": ("no", "witness"),
}


@pytest.fixture(scope="module")
def m21_enumerated():
    spec, g = get_group("M21")
    return spec, g, EnumeratedGroup(g)


@pytest.mark.parametrize("key", MATHIEU_CORE)
def test_mathieu_core_least_value(key, mathieu_core):
    rep, _ = mathieu_core[key]
    table = character_table_for(build_group(get_spec(key)))
    spc = spectrum(table)
    tau, is_least, _ = least_analysis(spc, table)
    assert is_least
    assert tau == spc.eta_standard
    assert rep.least_standard == "yes"


@pytest.mark.parametrize("key", MATHIEU_CORE)
def test_mathieu_core_least_attained_only_by_standard(key, mathieu_core):
    rep, _ = mathieu_core[key]
    table = character_table_for(build_group(get_spec(key)))
    spc = spectrum(table)
    _, _, is_unique = least_analysis(spc, table)
    if key == "M10":
        # corrected: the nontrivial linear character of M10/A6 also
        # reaches -36 (144 - 90 - 90), see _m10_linear_character_ties_standard;
        # it is rational, so its row of the rational table has dimension 1
        linear = [r for r in range(table.r) if table.dims[r] == 1 and r != table.trivial]
        assert len(linear) == 1
        assert set(spc.least.rows) == {table.standard, linear[0]}
        assert spc.least.multiplicity == 82
        assert not is_unique and rep.unique == "no"
    else:
        assert is_unique and rep.unique == "yes"


@pytest.mark.parametrize("key", MATHIEU_CORE)
def test_mathieu_core_rank_full(key, mathieu_core, request):
    rep, _ = mathieu_core[key]
    assert rep.rank_full == MATHIEU_RANK_FULL[key]
    if rep.rank_full == "no":
        # corrected for M21: re-derive the kernel and check it exactly
        _, _, eg = request.getfixturevalue("m21_enumerated")
        N = mr.gram_M(eg)
        cert = mr.rank_certificate(N)
        assert cert.reverify(N)
        assert not cert.full and cert.claimed_rank == 360
        assert cert.kernel.shape == (20, 380) and cert.kernel.dtype == np.int64
        (recorded,) = [c for c in rep.certificates if c["kind"] == "rank"]
        assert recorded["claimed_rank"] == 360 and recorded["rows"] == rep.d >= 380
        W = np.ascontiguousarray(cert.kernel, dtype="<i8")
        blob = repr(W.shape).encode() + W.tobytes()
        assert recorded["kernel_digest"] == hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("key", MATHIEU_CORE)
def test_mathieu_core_strict_yes(key, mathieu_core, request):
    rep, _ = mathieu_core[key]
    assert (rep.strict, rep.strict_reason) == MATHIEU_STRICT[key]
    if rep.strict == "yes" and rep.unique != "yes":
        # M10: condition (b) by the weighted ratio certificate
        table = character_table_for(build_group(get_spec(key)))
        (cert,) = [c for c in rep.certificates if c["kind"] == "weighted-ratio"]
        assert verify_weighted_ratio(table, cert)
    if rep.strict == "no":
        # corrected for M21: the line stabilizer, re-checked element by element
        spec, g, eg = request.getfixturevalue("m21_enumerated")
        elements, _ = pl.hyperplane_witness(eg)
        assert len(elements) == 960 == g.order() // spec.degree
        inter, maximum, canonical = pl.verify_witness(g, elements)
        assert inter and maximum and not canonical


def test_mathieu_core_runtime(mathieu_core):
    assert sum(t for _, t in mathieu_core.values()) < 900


def test_n_clique_decided_up_to_degree_21(survey, mathieu_core):
    """Under default caps the clique search ends on every group of degree
    <= 21 and order <= 100,000: a checked clique or an exhausted tree."""
    reports = {k: rep for k, (rep, _) in {**survey, **mathieu_core}.items()}
    keys = [k for k in reports if get_spec(k).expected_order <= 100_000]
    assert len(keys) == 57
    undecided = [k for k in keys if reports[k].n_clique not in ("yes", "no")]
    assert undecided == []
    (cert,) = [c for c in reports["M12"].certificates if c["kind"] == "n-clique"]
    elements = [Permutation(row) for row in cert["elements"]]
    assert len(elements) == 12 and verify_clique(build_group(get_spec("M12")), elements)
    for key in ("M21", "PSL(2,17)"):
        assert reports[key].n_clique == "no"
        assert any(c["kind"] == "n-clique-exhausted" for c in reports[key].certificates)


# ---- the rank records ----

# classify's rank record of each survey and Mathieu core group: rows,
# columns, claimed rank, mode and kernel digest.  A record with fewer rows
# than columns holds no claimed rank and no digest
RANK_RECORDS = pathlib.Path(__file__).resolve().parent / "rank_records.csv"
RANK_FIELDS = ("rows", "columns", "claimed_rank", "mode", "kernel_digest")


def _rank_records() -> dict[str, dict[str, str]]:
    with RANK_RECORDS.open(newline="") as fh:
        return {row.pop("key"): row for row in csv.DictReader(fh)}


def _rank_fields(record: dict) -> dict[str, str]:
    return {f: "" if record.get(f) is None else str(record[f]) for f in RANK_FIELDS}


def test_rank_records_match_the_committed_table(survey, mathieu_core):
    reports = {k: rep for k, (rep, _) in {**survey, **mathieu_core}.items()}
    found = {}
    for key, rep in reports.items():
        (record,) = [c for c in rep.certificates if c["kind"] == "rank"]
        found[key] = _rank_fields(record)
    assert found == _rank_records()


@pytest.mark.parametrize("key", list(_rank_records()))
def test_rank_record_reverifies_on_the_whole_gram(key):
    # the certificate behind each committed record, re-checked by plain
    # elimination of the whole Gram, not of its two halves; a record with
    # fewer rows than columns is re-checked by counting the derangements
    _, g = get_group(key)
    eg = EnumeratedGroup(g)
    n = g.degree
    record = {"rows": int((eg.fix_counts_all == 0).sum()), "columns": (n - 1) * (n - 2)}
    if record["rows"] < record["columns"]:
        record["mode"] = "deficient: fewer rows than columns"
    else:
        N = mr.gram_M(eg)
        cert = mr.rank_certificate(N)
        assert cert.reverify(N)
        digest = pl._kernel_digest(cert.kernel) if len(cert.kernel) else None
        record.update(claimed_rank=cert.claimed_rank, mode=cert.mode, kernel_digest=digest)
    assert _rank_fields(record) == _rank_records()[key]


# ---- criterion 3: the degree-22 double-11-cycle class Gram identity ----


def test_double_11_cycle_class_gram_identity():
    t0 = time.perf_counter()
    _, g = get_group("M22")
    rng = random.Random(3)
    rep = None
    while rep is None:
        h = g.random_element(rng)
        if h.order() == 11:
            rep = h
    assert rep.cycle_type() == (11, 11)
    rows = conjugation_orbit(g, rep, cap=100_000)
    assert rows.shape[0] == 40320

    N, algebra = mr.class_gram(rows, 22)
    assert algebra == ([1920, 0, 0, 0, 96, 96, 96], True)
    A = dense_pairs_graph(22)[0].astype(np.int64)
    expected = 1920 * np.eye(A.shape[0], dtype=np.int64) + 96 * A
    assert np.array_equal(N, expected)
    assert time.perf_counter() - t0 < 1200


# ---- criterion 4: the degree-23 class pattern ----


@pytest.mark.m23
def test_degree_23_class_gram_pattern():
    spec = get_spec("M23")
    g = build_group(spec)
    rng = random.Random(3)
    rep = None
    while rep is None:
        h = g.random_element(rng)
        if h.order() == 23:
            rep = h
    rows = conjugation_orbit(g, rep, cap=1_000_000)
    t = rows.shape[0]
    assert t == 443520

    N, algebra = mr.class_gram(rows, 23)
    lam, mu = t // 22, t // (22 * 21)
    assert algebra == ([lam, 0, 0, 0, mu, mu, mu], True)
    # a 23-cycle has no 2-cycle, so the ((1,2),(2,1)) entry vanishes
    pairs = mr.offdiag_pairs(23)
    assert N[pairs.index((0, 1)), pairs.index((1, 0))] == 0
    A = dense_pairs_graph(23)[0].astype(np.int64)
    expected = lam * np.eye(A.shape[0], dtype=np.int64) + mu * A
    assert np.array_equal(N, expected)


# ---- criterion 5: spectral identities on every processed group ----


@pytest.mark.parametrize("key", SURVEY_KEYS + ["M21"])
def test_spectral_identities(key, survey, mathieu_core):
    table = character_table_for(build_group(get_spec(key)))
    spc = spectrum(table)
    n, order, d = spc.n, spc.order, spc.d

    assert sum(e.multiplicity for e in spc.entries) == order
    assert sum(e.value * e.multiplicity for e in spc.entries) == 0
    assert sum(e.value**2 * e.multiplicity for e in spc.entries) == order * d
    assert spc.eta_by_row[table.standard] == spc.eta_standard
    std_entry = next(e for e in spc.entries if table.standard in e.rows)
    assert std_entry.multiplicity >= (n - 1) ** 2


# ---- criterion 6: brute-force oracle equivalence, |G| <= 2000 ----


@pytest.mark.parametrize("key", ORACLE_KEYS)
def test_oracle_equivalence(key):
    t0 = time.perf_counter()
    spec, g = get_group(key)
    eg = EnumeratedGroup(g)
    table = character_table_for(g, eg=eg)
    assert brute_spectrum_matches(eg.E, spectrum(table))
    alpha, members, _ = pl.brute_alpha(g)
    assert alpha * spec.degree == spec.expected_order
    inter, maximum, _ = pl.verify_witness(g, members)
    assert inter and maximum
    _oracle_seconds.append(time.perf_counter() - t0)


def test_oracle_runtime():
    assert len(_oracle_seconds) == len(ORACLE_KEYS)
    assert sum(_oracle_seconds) < 600


# ---- criterion 7: constructive strictness refutations ----


def test_f20_union_refutation(survey):
    rep, _ = survey["F20"]
    assert rep.strict == "no" and rep.strict_reason == "complete-union"
    cert = next(c for c in rep.certificates if c["kind"] == "complete-union")
    assert cert["count"] == 5**4 == 625
    _, g = get_group("F20")
    alpha, _, count = pl.brute_alpha(g)
    assert alpha == 4 and count == 625


def test_a4_union_refutation(survey):
    rep, _ = survey["A4"]
    assert rep.strict == "no" and rep.strict_reason == "complete-union"
    cert = next(c for c in rep.certificates if c["kind"] == "complete-union")
    assert cert["count"] == 4**3 == 64
    _, g = get_group("A4")
    alpha, _, count = pl.brute_alpha(g)
    assert alpha == 3 and count == 64


def test_fano_line_stabilizer_refutation(survey):
    rep, _ = survey["PGL(3,2)"]
    assert rep.strict == "no" and rep.strict_reason == "witness"
    spec, g = get_group("PGL(3,2)")
    eg = EnumeratedGroup(g)
    elements, _ = pl.hyperplane_witness(eg)
    assert len(elements) == 24 == 168 // 7
    inter, maximum, canonical = pl.verify_witness(g, elements)
    assert inter and maximum and not canonical


# ---- criterion 8: standard-module linear algebra at small scale ----


@pytest.mark.parametrize("key", ("S3", "F20", "PGL(2,5)"))
def test_standard_module_lemmas(key):
    _, g = get_group(key)
    eg = EnumeratedGroup(g)
    n = g.degree
    assert lr.rank_H_exact(eg) == (n - 1) ** 2 + 1
    assert lr.rank_Hbar(eg) == (n - 1) ** 2 + 1
    # projection fixes v_{i,j} - (1/n) * all-ones for every pair
    for i, j in ((0, 1), (1, 0), (n - 1, 0)):
        assert lr.standard_projection_check(eg, i, j)
    lr.gram_L(eg)  # raises unless the Gram has the two-constant form
    assert np.array_equal(lr.b_identity_submatrix(eg), np.eye(n, dtype=np.int8))
