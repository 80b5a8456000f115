"""Catalog integrity and point-model tests.

Every shipped catalog row is rebuilt and checked against its recorded order,
degree and exact transitivity degree; small rows are additionally cross-checked
against brute-force closure.  The projective models are checked against
counting identities that do not depend on the implementation.
"""

import importlib.util
import itertools
import pathlib

import pytest

from catalog_models import Model as AffineModel, projective_points, restriction
from ekrcheck.errors import CatalogError
from ekrcheck.library import (
    build_group,
    catalog_keys,
    get_group,
    get_spec,
    load_catalog,
    parse_catalog,
)
from ekrcheck.perm import Permutation

from design_reference import hyperplanes
from perm_reference import fixed_points
from reference_rows import MATHIEU, ROWS


def brute_closure(perms):
    elems = {Permutation.identity(perms[0].degree)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for x in frontier:
            for g in perms:
                y = g * x
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return elems


# ---- full catalog validation ----

def test_catalog_has_all_expected_keys():
    keys = set(catalog_keys())
    assert set(ROWS) <= keys
    assert set(MATHIEU) <= keys
    assert {"S3", "A4"} <= keys
    assert len(keys) == len(ROWS) + 4 + 2  # M21-M24 plus the two extras


@pytest.mark.parametrize("key", sorted(load_catalog()))
def test_catalog_row_builds_and_validates(key):
    spec, group = get_group(key)
    assert group.degree == spec.degree
    assert group.order() == spec.expected_order
    t = group.transitivity_degree()
    assert t == int(spec.note_tokens()["trans"])
    assert t >= 2


def test_rows_match_published_degree_and_order():
    for key, row in ROWS.items():
        spec = get_spec(key)
        assert spec.degree == row.degree, key
        assert spec.expected_order == row.order, key
        assert spec.in_set("smalldeg"), key


def test_mathieu_rows_match_published_facts():
    for key, (order, degree, trans) in MATHIEU.items():
        spec = get_spec(key)
        assert spec.expected_order == order
        assert spec.degree == degree
        assert int(spec.note_tokens()["trans"]) == trans
        assert spec.in_set("mathieu")


@pytest.mark.parametrize("key", ["F20", "AGL(1,7)", "3^2:Q8", "S3", "A4"])
def test_small_rows_against_brute_closure(key):
    spec, group = get_group(key)
    assert len(brute_closure(spec.generator_perms())) == group.order()


def test_shipped_catalog_is_what_the_generator_writes(tmp_path, monkeypatch):
    # tools/make_catalog.py rebuilt into a scratch file, never the shipped one
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("make_catalog", root / "tools" / "make_catalog.py")
    make_catalog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_catalog)
    shipped = root / "src" / "ekrcheck" / "data" / "catalog.txt"
    written = tmp_path / "catalog.txt"
    monkeypatch.setattr(make_catalog, "OUT", written)
    make_catalog.main()
    assert written.read_bytes() == shipped.read_bytes()


# ---- point models ----

def test_projective_point_counts():
    assert len(projective_points(5, 2)) == 6
    assert len(projective_points(9, 2)) == 10
    assert len(projective_points(2, 3)) == 7
    assert len(projective_points(4, 3)) == 21
    assert len(projective_points(2, 4)) == 15


def test_projective_points_are_normalized_and_sorted():
    pts = projective_points(4, 3)
    assert pts == sorted(pts)
    for v in pts:
        lead = next(c for c in v if c != 0)
        assert lead == 1


def test_pg24_line_structure():
    lines = hyperplanes(4, 3)
    assert len(lines) == 21
    assert all(len(L) == 5 for L in lines)
    # two distinct points lie on exactly one common line
    for i, j in itertools.combinations(range(21), 2):
        assert sum(1 for L in lines if i in L and j in L) == 1


def test_pg32_hyperplanes():
    planes = hyperplanes(2, 4)
    assert len(planes) == 15
    assert all(len(H) == 7 for H in planes)


def test_affine_model_roundtrip():
    model = AffineModel(4, 2)
    for idx in range(16):
        v = model.vector(idx)
        assert len(v) == 2
        assert all(0 <= c < 4 for c in v)
    # translations are fixed-point-free and commute
    t0, t1 = model.translation_perms()
    assert t0.is_derangement() and t1.is_derangement()
    assert t0 * t1 == t1 * t0


def test_m21_line_stabilizer_is_intersecting():
    """Setwise line stabilizers in PSL(3,4) have size |G|/21 and consist of
    permutations with a fixed point, pairwise-intersecting as a family."""
    spec, group = get_group("M21")
    line = hyperplanes(4, 3)[0]
    stab = [g for g in group.elements() if {g(p) for p in line} == line]
    assert len(stab) == group.order() // 21
    assert all(fixed_points(g) for g in stab)
    # not a point stabilizer: no point fixed by the whole set
    common = set(range(21))
    for g in stab:
        common &= set(fixed_points(g))
    assert not common


# ---- helpers and error paths ----

def test_restriction_requires_invariance():
    g = Permutation((1, 0, 2))
    assert restriction([g], [0, 1])[0] == Permutation((1, 0))
    with pytest.raises(ValueError):
        restriction([g], [0, 2])


def test_parse_catalog_rejects_bad_rows():
    with pytest.raises(CatalogError):
        parse_catalog("only | four | fields | here")
    with pytest.raises(CatalogError):
        parse_catalog("X | deg | 6 | (1,2) | ")
    with pytest.raises(CatalogError):
        parse_catalog("X | 3 | 6 | (1,2) | \nX | 3 | 6 | (1,2) | ")
    with pytest.raises(CatalogError):
        parse_catalog("X | 3 | 6 |  | ")


def test_build_group_checks_order():
    spec = parse_catalog("X | 3 | 5 | (1,2); (1,2,3) | ")["X"]
    with pytest.raises(CatalogError):
        build_group(spec)


def test_unknown_key():
    with pytest.raises(CatalogError):
        get_spec("M25")

