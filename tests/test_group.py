import csv
import itertools
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ekrcheck.errors import CapExceeded
from ekrcheck.group import (
    ENUMERATION_CAP,
    EnumeratedGroup,
    PermutationGroup,
    conjugacy_classes,
    conjugation_orbit,
)
from ekrcheck.library import build_group, catalog_keys, get_group, get_spec
from ekrcheck.perm import Permutation, parse_cycles

from chartab_reference import enumerated
from class_reference import bfs_class_labels, bfs_conjugation_orbit, find_class_rep
from group_reference import RECORD_FIELDS, ReferenceChain, chain_record, library_levels
from perm_reference import power


# ---------------------------------------------------------------------------
# independent oracles (naive closure / naive class partition, no group.py code)

def naive_closure(gens):
    """BFS closure under composition, tuples only."""
    n = len(gens[0])
    elems = {tuple(range(n))}
    frontier = list(elems)
    gens = [tuple(g) for g in gens]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                w = tuple(e[g[i]] for i in range(n))
                if w not in elems:
                    elems.add(w)
                    nxt.append(w)
        frontier = nxt
    return elems


def naive_classes(elems):
    """Partition a full element set into conjugacy classes."""
    elems = set(elems)
    n = len(next(iter(elems)))
    inv = {}
    for e in elems:
        iv = [0] * n
        for i, ei in enumerate(e):
            iv[ei] = i
        inv[e] = tuple(iv)
    out = []
    seen = set()
    for e in elems:
        if e in seen:
            continue
        cls = {tuple(g[e[inv[g][i]]] for i in range(n)) for g in elems}
        seen |= cls
        out.append(cls)
    return out


def gens_of(*texts, degree):
    return [parse_cycles(t, degree) for t in texts]


S3 = gens_of("(1,2)", "(1,2,3)", degree=3)
A4 = gens_of("(1,2,3)", "(2,3,4)", degree=4)
S4 = gens_of("(1,2)", "(1,2,3,4)", degree=4)
F20 = gens_of("(1,2,3,4,5)", "(2,3,5,4)", degree=5)
A5_6 = gens_of("(1,2,3,4,5)", "(1,4)(5,6)", degree=6)  # PSL(2,5) on 6 points
M11 = gens_of("(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)", degree=11)


@pytest.mark.parametrize(
    "gens,order",
    [(S3, 6), (A4, 12), (S4, 24), (F20, 20), (A5_6, 60), (M11, 7920)],
)
def test_order(gens, order):
    assert PermutationGroup(gens).order() == order


@pytest.mark.parametrize("gens", [S3, A4, S4, F20])
def test_order_matches_naive_closure(gens):
    g = PermutationGroup(gens)
    assert g.order() == len(naive_closure([p.images for p in gens]))


def test_membership():
    g = PermutationGroup(A4)
    assert parse_cycles("(1,2)(3,4)", 4) in g
    assert parse_cycles("(1,2)", 4) not in g
    assert Permutation((0, 1, 2, 3)) in g


@pytest.mark.parametrize(
    "gens,tdeg",
    [(S3, 3), (A4, 2), (S4, 4), (F20, 2), (A5_6, 2), (M11, 4)],
)
def test_transitivity_degree(gens, tdeg):
    assert PermutationGroup(gens).transitivity_degree() == tdeg


def test_transitivity_degree_intransitive():
    g = PermutationGroup(gens_of("(1,2)", degree=4))
    assert not g.is_transitive()
    assert g.transitivity_degree() == 0


def test_point_stabilizer():
    g = PermutationGroup(M11)
    h = g.point_stabilizer(0)
    assert h.order() == 720
    for p in h.generators:
        assert p(0) == 0
    # stabilizer of a second point inside h
    hh = h.point_stabilizer(1)
    assert hh.order() == 72


def test_elements_array_shape_and_rows():
    g = PermutationGroup(F20)
    E = g.elements_array()
    assert E.shape == (20, 5)
    assert (E[0] == np.arange(5)).all()          # identity first
    assert len({bytes(r) for r in E}) == 20      # distinct
    # every row is a permutation of 0..4
    assert (np.sort(E, axis=1) == np.arange(5)).all()
    # rows closed under the group: row composed with a generator stays inside
    rows = {bytes(r) for r in E}
    gen = np.array(F20[0].images)
    for r in E:
        assert bytes(r[gen]) in rows


def test_elements_array_deterministic():
    a = PermutationGroup(A4).elements_array()
    b = PermutationGroup(A4).elements_array()
    assert (a == b).all()


def test_elements_cap():
    with pytest.raises(CapExceeded):
        PermutationGroup(M11).elements_array(cap=100)


def test_enumerated_indexing():
    eg = EnumeratedGroup(PermutationGroup(A4))
    E = eg.E
    for i in range(len(E)):
        assert eg.index_of(eg.element(i)) == i
    assert (eg.fix_counts_all == (E == np.arange(4)).sum(axis=1)).all()


def test_index_of_rejects_nonmembers():
    eg = EnumeratedGroup(PermutationGroup(A4))
    with pytest.raises(ValueError):
        eg.index_of(parse_cycles("(1,2)", 4))
    # a row whose base image leaves the first orbit, and a wrong degree
    c3 = EnumeratedGroup(PermutationGroup(gens_of("(1,2,3)", degree=4)))
    with pytest.raises(ValueError):
        c3.index_of(parse_cycles("(1,4)", 4))
    with pytest.raises(ValueError):
        eg.index_of(parse_cycles("(1,2,3)", 5))


@pytest.mark.parametrize(
    "gens,sizes",
    [
        (S3, [1, 2, 3]),
        (A4, [1, 3, 4, 4]),
        (S4, [1, 3, 6, 6, 8]),
        (F20, [1, 4, 5, 5, 5]),
    ],
)
def test_class_sizes(gens, sizes):
    eg = conjugacy_classes(PermutationGroup(gens))
    assert sorted(eg.class_sizes) == sorted(sizes)
    assert eg.class_sizes[0] == 1 and eg.class_of[0] == 0
    assert sum(eg.class_sizes) == eg.group.order()


@pytest.mark.parametrize("gens", [S3, A4, S4, F20])
def test_classes_match_naive_partition(gens):
    eg = conjugacy_classes(PermutationGroup(gens))
    elems = naive_closure([p.images for p in gens])
    want = {frozenset(c) for c in naive_classes(elems)}
    got = {}
    for i in range(len(eg.E)):
        got.setdefault(eg.class_of[i], set()).add(tuple(int(v) for v in eg.E[i]))
    assert {frozenset(c) for c in got.values()} == want


@pytest.mark.parametrize("key", ["2^4:A7", "M11", "PGammaL(2,16)", "PSL(2,19)"])
def test_class_labels_match_the_bfs_reference(key):
    eg = conjugacy_classes(get_group(key)[1])
    class_of, seeds, sizes, orders = bfs_class_labels(eg)
    assert np.array_equal(eg.class_of, class_of)
    assert eg.class_seeds == seeds
    assert eg.class_sizes == sizes
    assert eg.class_orders == orders


@pytest.mark.parametrize("key", ["S3", "PGL(2,5)", "M11"])
def test_power_indices_are_the_powers_of_each_class_representative(key):
    _, g = get_group(key)
    eg = conjugacy_classes(g)
    powers = eg.power_indices()
    assert eg.power_indices() is powers
    for c, idx in enumerate(powers):
        rep = eg.class_rep(c)
        assert idx.tolist() == [eg.index_of(power(rep, t)) for t in range(eg.class_orders[c])]


def test_conjugation_orbit_covers_whole_class():
    g = PermutationGroup(S4)
    rep = parse_cycles("(1,2,3,4)", 4)
    cls = conjugation_orbit(g, rep)
    assert cls.shape == (6, 4)
    assert tuple(int(v) for v in cls[0]) == rep.images
    eg = conjugacy_classes(g)
    c = eg.class_of[eg.index_of(rep)]
    want = {tuple(int(v) for v in eg.E[i]) for i in range(len(eg.E)) if eg.class_of[i] == c}
    assert {tuple(int(v) for v in row) for row in cls} == want


def test_conjugation_orbit_cap():
    g = PermutationGroup(S4)
    rep = parse_cycles("(1,2,3,4)", 4)
    with pytest.raises(CapExceeded):
        conjugation_orbit(g, rep, cap=3)
    # the class has 6 elements: a cap of 6 holds it, one of 5 does not
    assert conjugation_orbit(g, rep, cap=6).shape == (6, 4)
    with pytest.raises(CapExceeded) as exc:
        conjugation_orbit(g, rep, cap=5)
    assert exc.value.needed > exc.value.cap == 5


@pytest.mark.parametrize(
    "key, order, cycle_type",
    [("M11", 11, (11,)), ("PSL(2,19)", 19, (19, 1)), ("M22", 11, (11, 11))],
    ids=["M11", "PSL(2,19)", "M22"],
)
def test_conjugation_orbit_matches_the_bfs_reference(key, order, cycle_type):
    _, g = get_group(key)
    rep = find_class_rep(g, order, cycle_type)
    rows = conjugation_orbit(g, rep)
    want = bfs_conjugation_orbit(g, rep)
    assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()


def test_conjugation_orbit_matches_the_bfs_reference_on_s4():
    g = PermutationGroup(S4)
    rep = parse_cycles("(1,2,3,4)", 4)
    assert conjugation_orbit(g, rep).tobytes() == bfs_conjugation_orbit(g, rep).tobytes()


@pytest.mark.parametrize("key", ["S3", "M11", "2^4:A7", "AGL(4,2)"])
def test_element_index_is_the_enumeration_order(key):
    _, g = get_group(key)
    E = g.elements_array()
    assert np.array_equal(g.element_index(E), np.arange(len(E)))


@pytest.mark.parametrize("key", ["A4", "PGL(3,2)", "M11", "M22"])
def test_contains_rows_matches_the_sift(key):
    # random permutations, members, and members with the images of two
    # non-base points swapped, which keep a member's base images
    _, g = get_group(key)
    rng = np.random.default_rng(4)
    pick = random.Random(4)
    members = np.array([g.random_element(pick).images for _ in range(30)])
    swapped = members.copy()
    a, b = [p for p in range(g.degree) if p not in g.base()][:2]
    swapped[:, [a, b]] = swapped[:, [b, a]]
    shuffled = np.array([rng.permutation(g.degree) for _ in range(30)])
    rows = np.concatenate([members, swapped, shuffled])
    want = [Permutation(tuple(int(x) for x in r)) in g for r in rows]
    assert g.contains_rows(rows).tolist() == want
    assert all(want[:30]) and not any(want[30:60])


def test_element_index_refuses_orders_past_int64():
    cycle = "(" + ",".join(str(i) for i in range(1, 22)) + ")"
    s21 = PermutationGroup(gens_of(cycle, "(1,2)", degree=21))
    assert s21.order() >= 2**63
    with pytest.raises(ValueError, match="int64"):
        s21.element_index(np.arange(21, dtype=np.int8)[None, :])
    with pytest.raises(ValueError, match="int64"):
        conjugation_orbit(s21, parse_cycles(cycle, 21), cap=1)


ENUMERABLE = [
    key for key in catalog_keys()
    if get_spec(key).degree <= 21 and get_spec(key).expected_order <= ENUMERATION_CAP
]


def _assert_base_index_is_the_sift(eg, seed):
    E = eg.E
    assert np.array_equal(eg.base_index(E[:, eg.base]), eg.group.element_index(E))
    # (x * y)(t) = x(y(t)) for seeded pairs of elements
    rng = random.Random(seed)
    x = E[[rng.randrange(len(E)) for _ in range(300)]]
    y = E[[rng.randrange(len(E)) for _ in range(300)]].astype(np.intp)
    prod = x[np.arange(len(x))[:, None], y]
    assert np.array_equal(eg.base_index(prod[:, eg.base]), eg.group.element_index(prod))


@pytest.mark.parametrize("key", ENUMERABLE)
def test_base_index_matches_the_chain_sift(key):
    eg = enumerated(key)
    _assert_base_index_is_the_sift(eg, 24)
    n, levels = eg.group.degree, len(eg.base)
    assert len(eg._table) == n ** (levels - len(eg._prefix)) <= len(eg.E) * n


@pytest.mark.parametrize("key", ["A5@6", "PSigmaL(2,9)"])
def test_base_index_rejects_base_images_of_no_element(key):
    # A5@6 looks every base image up in the table; PSigmaL(2,9) sifts its
    # first one through the chain
    eg = enumerated(key)
    n, levels = eg.group.degree, len(eg.base)
    members = {tuple(row) for row in eg.E[:, eg.base].tolist()}
    for images in itertools.islice(itertools.product(range(n), repeat=levels), 3000):
        B = np.array([images])
        if images in members:
            assert eg.E[eg.base_index(B)[0], eg.base].tolist() == list(images)
        else:
            with pytest.raises(ValueError, match="no element"):
                eg.base_index(B)
    assert len(members) == len(eg.E)


def test_base_index_sifts_a_prefix_when_the_base_is_long():
    # A9 has base length 7, and 9^7 entries would exceed the 9 |G| cells
    # of its element array
    a9 = PermutationGroup(gens_of("(1,2,3)", "(1,2,3,4,5,6,7,8,9)", degree=9))
    eg = EnumeratedGroup(a9)
    assert a9.order() == 181_440 and len(eg.base) == 7
    assert len(eg._prefix) >= 1
    assert len(eg._table) == 9 ** (7 - len(eg._prefix)) <= len(eg.E) * 9
    _assert_base_index_is_the_sift(eg, 9)


def test_rejects_nonmember_conjugation_seed():
    with pytest.raises(ValueError):
        conjugation_orbit(PermutationGroup(A4), parse_cycles("(1,2)", 4))


def test_orbit():
    g = PermutationGroup(gens_of("(1,2)", "(3,4,5)", degree=5))
    assert sorted(g.orbit(0)) == [0, 1]
    assert sorted(g.orbit(2)) == [2, 3, 4]


# ---------------------------------------------------------------------------
# the stabilizer chain against the scalar reference and the committed records

CHAIN_RECORDS = pathlib.Path(__file__).with_name("chain_records.csv")


def _chain_records():
    with CHAIN_RECORDS.open(newline="") as fh:
        return {row["key"]: row for row in csv.DictReader(fh)}


def test_chain_records_cover_the_catalog():
    assert sorted(_chain_records()) == sorted(catalog_keys())


@pytest.mark.parametrize("key", catalog_keys())
def test_chain_matches_the_committed_record(key):
    # the records were written from the chains of the scalar builder
    # before the level arrays replaced it
    record = _chain_records()[key]
    g = build_group(get_spec(key))
    assert g.order() == int(record["order"])
    assert chain_record(library_levels(g)) == {f: record[f] for f in RECORD_FIELDS}


@st.composite
def generator_sets(draw):
    """Generators of degree <= 9: random permutations, or permutations of
    two blocks apart (an intransitive set), with the identity and repeats
    mixed in, possibly none at all (the trivial group), and a base hint."""
    n = draw(st.integers(1, 9))
    cut = draw(st.integers(0, n)) if draw(st.booleans()) else n
    block = st.tuples(st.permutations(range(cut)), st.permutations(range(cut, n)))
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["perm", "perm", "identity", "repeat"]))
        if kind == "identity":
            gens.append(Permutation.identity(n))
        elif kind == "repeat" and gens:
            gens.append(draw(st.sampled_from(gens)))
        else:
            low, high = draw(block)
            gens.append(Permutation(tuple(low) + tuple(high)))
    hint = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    return n, gens, hint


@settings(max_examples=200, deadline=None)
@given(generator_sets(), st.randoms(use_true_random=False))
def test_chain_and_sifts_match_the_reference_builder(case, rnd):
    n, gens, hint = case
    g = PermutationGroup(gens, n, base_hint=hint)
    ref = ReferenceChain(gens, n, base_hint=hint)
    assert library_levels(g) == ref.level_records()
    assert g.order() == ref.order()
    members = [g.random_element(rnd) for _ in range(6)]
    others = [Permutation(tuple(rnd.sample(range(n), n))) for _ in range(6)]
    rows = np.array([x.images for x in members + others], dtype=np.int8)
    assert g.contains_rows(rows).tolist() == [ref.contains(x) for x in members + others]
    assert all(ref.contains(x) for x in members)
    index = g.element_index(rows).tolist()
    for x, i in zip(members + others, index):
        residue, stop = ref.sift_from(0, x)
        if residue is None:
            assert i == ref.index(x)
        elif stop < len(ref.levels):
            # the sift left an orbit at a base point
            assert i == -1
    if g.order() <= 2000:
        E = g.elements_array()
        assert [ref.index(Permutation(tuple(int(v) for v in row))) for row in E] == list(range(len(E)))


def test_contains_rows_rejects_images_outside_the_points():
    # the identity spelled with negative images, and an image past the
    # last point: numpy would wrap the first and fail on the second
    g = PermutationGroup(S3)
    rows = np.array([[0, 1, 2], [-3, -2, -1], [1, 2, 0], [0, 1, 5]])
    assert g.contains_rows(rows).tolist() == [True, False, True, False]
