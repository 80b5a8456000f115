"""Character table tests.

Degree multisets for the small groups are frozen from standard references
and double-checked by the sum-of-squares identity; structure constants are
cross-checked against a brute-force product count that shares no code with
the vectorized path, and against the one-sift-per-class-pair oracle with
the sift block cut below a class size.  The batched split must give the
same table, value for value in canonical form, as the
one-eigenvalue-at-a-time oracle in `chartab_reference`.
"""

import dataclasses

import numpy as np
import pytest

import ekrcheck.chartab as chartab_mod
from ekrcheck.chartab import character_table, class_constants
from ekrcheck.cyclo import Cyc
from ekrcheck.group import PermutationGroup, conjugacy_classes
from ekrcheck.library import catalog_keys, get_group, get_spec
from ekrcheck.perm import Permutation

import chartab_reference
from chartab_reference import inner_product


@pytest.fixture(scope="module")
def tables():
    cache = {}

    def get(key):
        if key not in cache:
            _, g = get_group(key)
            eg = conjugacy_classes(g)
            cache[key] = (eg, character_table(eg))
        return cache[key]

    return get


EXPECTED_DEGREES = {
    "S3": [1, 1, 2],
    "A4": [1, 1, 1, 3],
    "F20": [1, 1, 1, 1, 4],
    "PGL(2,5)": [1, 1, 4, 4, 5, 5, 6],
    "PSL(3,2)": [1, 3, 3, 6, 7, 8],
    "M11": [1, 10, 10, 10, 11, 16, 16, 44, 45, 55],
}


@pytest.mark.parametrize("key", sorted(EXPECTED_DEGREES))
def test_degree_lists(tables, key):
    _, t = tables(key)
    assert t.degrees == EXPECTED_DEGREES[key]
    assert sum(d * d for d in t.degrees) == t.order


def test_m12_degrees(tables):
    _, t = tables("M12")
    assert t.degrees == [1, 11, 11, 16, 16, 45, 54, 55, 55, 55, 66, 99, 120, 144, 176]


def test_s3_exact_values(tables):
    _, t = tables("S3")
    # classes: identity, transpositions (order 2), 3-cycles (order 3)
    assert t.class_sizes == [1, 3, 2]
    expected = ([1, 1, 1], [1, -1, 1], [2, 0, -1])
    for want in expected:
        hits = [
            row
            for row in t.values
            if all((v - x).is_zero() for v, x in zip(row, want))
        ]
        assert len(hits) == 1


def test_a4_exact_values(tables):
    _, t = tables("A4")
    assert t.class_sizes == [1, 3, 4, 4]
    w, w2 = Cyc.zeta(3, 1), Cyc.zeta(3, 2)
    one = Cyc.integer(1, 1)
    linear = [row for r, row in enumerate(t.values) if t.degrees[r] == 1]
    assert any(all((a - b).is_zero() for a, b in zip(row, [one, one, w, w2])) for row in linear)
    assert any(all((a - b).is_zero() for a, b in zip(row, [one, one, w2, w])) for row in linear)
    std = t.values[t.standard]
    assert [v.approx().real for v in std] == pytest.approx([3, -1, 0, 0])


def test_trivial_and_standard_rows(tables):
    for key in ("F20", "PGL(2,5)", "M11"):
        _, t = tables(key)
        assert t.degrees[t.trivial] == 1
        assert all((v - 1).is_zero() for v in t.values[t.trivial])
        assert t.degrees[t.standard] == t.degree - 1
        std = t.values[t.standard]
        assert all((v - (f - 1)).is_zero() for v, f in zip(std, t.class_fix))


# ---- class constants ----


def brute_partition(group):
    """Conjugacy classes by exhaustive conjugation; independent oracle."""
    elems = list(group.elements())
    classes = []
    seen = set()
    for x in elems:
        if x in seen:
            continue
        cls = {g.inverse() * x * g for g in elems}
        seen |= cls
        classes.append(cls)
    return classes


@pytest.mark.parametrize("key", ["S3", "A4"])
def test_class_constants_bruteforce(tables, key):
    eg, _ = tables(key)
    mats = class_constants(eg)
    classes = brute_partition(eg.group)
    label = {}
    for cls in classes:
        member = next(iter(cls))
        lab = int(eg.class_of[eg.index_of(member)])
        label[lab] = cls
    k = eg.n_classes
    for i in range(k):
        for l in range(k):
            z = eg.class_rep(l)
            for j in range(k):
                count = sum(1 for x in label[i] if x.inverse() * z in label[j])
                assert mats[i, j, l] == count


def test_s3_three_cycle_constant(tables):
    eg, _ = tables("S3")
    mats = class_constants(eg)
    c3 = next(c for c in range(eg.n_classes) if eg.class_orders[c] == 3)
    # both 3-cycles invert into the same class, landing on the identity
    assert mats[c3, c3, 0] == 2


def _scalar_round_order(values, degrees):
    """Row order by (degree, shadow rounded one numpy scalar at a time)."""
    shadow = chartab_mod._shadow(values)

    def key(r):
        return (degrees[r], [(round(z.real, 9), round(z.imag, 9)) for z in shadow[r]])

    return sorted(range(len(values)), key=key)


@pytest.mark.parametrize("key", [k for k in catalog_keys() if get_spec(k).degree <= 21])
def test_sort_rows_matches_the_scalar_round_order(tables, key):
    # the rows of the finished table, shuffled, so ties keep a nontrivial order
    _, t = tables(key)
    perm = np.random.default_rng(t.k).permutation(t.k)
    values = [t.values[r] for r in perm]
    degrees = [t.degrees[r] for r in perm]
    want = _scalar_round_order(values, degrees)
    got_values, got_degrees, shadow = chartab_mod._sort_rows(values, degrees)
    assert all(a is values[r] for a, r in zip(got_values, want, strict=True))
    assert got_degrees == [degrees[r] for r in want]
    assert np.array_equal(shadow, chartab_mod._shadow(values)[want])


def test_identity_class_matrix(tables):
    eg, _ = tables("F20")
    mats = class_constants(eg)
    assert np.array_equal(mats[0], np.eye(eg.n_classes, dtype=np.int64))


def test_class_constant_row_sums(tables):
    eg, _ = tables("PGL(2,5)")
    mats = class_constants(eg)
    for i in range(eg.n_classes):
        for l in range(eg.n_classes):
            assert mats[i, :, l].sum() == eg.class_sizes[i]


@pytest.mark.parametrize("key", ["PGL(2,5)", "M11"])
def test_blocked_class_constants_match_reference(tables, key, monkeypatch):
    eg, _ = tables(key)
    want = chartab_reference.class_constants(eg)
    assert np.array_equal(class_constants(eg), want)
    # a block smaller than the smallest nontrivial class splits every
    # class, and with |G| not a multiple of it a block spans two classes l
    block = min(eg.class_sizes[1:]) - 1
    monkeypatch.setattr(chartab_mod, "SIFT_BLOCK", block)
    assert len(eg.E) % block
    assert np.array_equal(class_constants(eg), want)


# ---- the split ----

SMALL_DEGREE = [key for key in catalog_keys() if get_spec(key).degree <= 12]


def _canonical(t):
    """The header and class data of a table, and every value in canonical
    power-basis coordinates over Q(zeta_e)."""
    values = [[v.embed(t.e).canonical() for v in row] for row in t.values]
    return t.k, t.e, t.order, t.class_sizes, t.class_fix, values


@pytest.mark.parametrize("seed", [1, 99])
@pytest.mark.parametrize("key", SMALL_DEGREE)
def test_split_matches_reference(tables, key, seed):
    eg, t = tables(key)
    new = t if seed == 1 else character_table(eg, seed=seed)
    assert _canonical(new) == _canonical(chartab_reference.character_table(eg, seed))


def test_int64_guard_rejects_a_large_prime(monkeypatch):
    _, g = get_group("S3")
    eg = conjugacy_classes(g)

    def boom(*a, **kw):
        raise AssertionError("class constants computed before the guard")

    monkeypatch.setattr(chartab_mod, "prime_one_mod", lambda e, lower: 2**31 - 1)
    monkeypatch.setattr(chartab_mod, "class_constants", boom)
    with pytest.raises(AssertionError, match=r"\(p-1\)\^2 must stay below 2\^63"):
        character_table(eg)


# ---- inner products ----


@pytest.mark.parametrize("key", ["S3", "F20", "PGL(2,5)", "M11"])
def test_permutation_character_norm(tables, key):
    _, t = tables(key)
    fix = t.permutation_character()
    assert (inner_product(t, fix, fix) - 2).is_zero()
    assert (inner_product(t, fix, t.values[t.trivial]) - 1).is_zero()
    assert (inner_product(t, fix, t.values[t.standard]) - 1).is_zero()


def test_row_orthonormality(tables):
    _, t = tables("A4")
    for a in range(t.k):
        for b in range(t.k):
            want = 1 if a == b else 0
            assert (inner_product(t, t.values[a], t.values[b]) - want).is_zero()


# ---- determinism ----


@pytest.mark.parametrize("key", ["A4", "F20"])
def test_cross_prime_determinism(tables, key, monkeypatch):
    eg, t1 = tables(key)
    orig = chartab_mod.prime_one_mod

    def next_prime_up(e, lower):
        return orig(e, orig(e, lower))

    monkeypatch.setattr(chartab_mod, "prime_one_mod", next_prime_up)
    t2 = character_table(eg, seed=99)
    assert t1.degrees == t2.degrees
    for r1, r2 in zip(t1.values, t2.values):
        assert all((a - b).is_zero() for a, b in zip(r1, r2))


# ---- verification ----


def test_corrupted_tables_rejected(tables):
    _, t = tables("F20")
    chartab_mod._verify_table(t)
    # a first class of two elements
    bad = [dataclasses.replace(t, class_sizes=[2, *t.class_sizes[1:]])]
    # the first row replaced by a copy of the second
    bad.append(dataclasses.replace(t, values=[t.values[1], *t.values[1:]]))
    # two values inside a row swapped
    values = [list(row) for row in t.values]
    values[1][0], values[1][1] = values[1][1], values[1][0]
    bad.append(dataclasses.replace(t, values=values))
    for case in bad:
        with pytest.raises(ValueError):
            chartab_mod._verify_table(case)


def test_swapped_distinguished_indices_rejected(tables):
    _, t = tables("F20")
    chartab_mod._verify_table(t)
    swapped = dataclasses.replace(t, trivial=t.standard, standard=t.trivial)
    with pytest.raises(ValueError, match="wrong row"):
        chartab_mod._verify_table(swapped)


def test_table_without_a_fix_minus_one_row_rejected():
    # the dihedral group of order 10 is transitive but not 2-transitive on
    # five points, so fix-1 is not irreducible
    dihedral = PermutationGroup([Permutation((1, 2, 3, 4, 0)), Permutation((0, 4, 3, 2, 1))])
    with pytest.raises(ValueError, match="no fix-1"):
        character_table(conjugacy_classes(dihedral))
