"""Character table tests.

The library builds the rational table of `chartab`: the central
characters of the rational class algebra, one row per Galois orbit of
irreducible characters, proposed by a float eigendecomposition of the
symmetrised algebra and certified in integers.  Its rows are checked
against the cyclotomic table of `chartab_reference`, which has its own
class constants, modular split and lift: every omega row must equal
(1/chi(1)) sum_{C in S} |C| chi(C) for each character chi of its orbit,
and every dimension the sum of chi(1)^2 over the orbit.  The algebra
must be self-adjoint for the class sizes, which is what makes the
symmetric eigendecomposition valid.  A tampered table, or a proposal
with a wrong entry, must be rejected.

Degree multisets for the small groups are frozen from standard references
and double-checked by the sum-of-squares identity.  The rational class
algebra is cross-checked against a brute-force count over rational
classes that shares no code with the vectorized path, and against the
conjugacy-class constants of the one-sift-per-class-pair oracle summed
over rational classes, with the sift block cut below a class size.  A
partition that merges two rational classes of A5, or splits one of A4,
must be refused.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

import ekrcheck.chartab as chartab_mod
from ekrcheck.chartab import character_table, class_constants
from ekrcheck.cyclo import Cyc
from ekrcheck.group import PermutationGroup, conjugacy_classes
from ekrcheck.library import catalog_keys, get_spec
from ekrcheck.perm import Permutation

import chartab_reference
from chartab_reference import (
    enumerated,
    inner_product,
    omega_rows,
    oracle_table,
    rational_class_constants,
)
from perm_reference import power
from survey import SURVEY


@pytest.fixture(scope="module")
def tables():
    cache = {}

    def get(key):
        if key not in cache:
            eg = enumerated(key)
            cache[key] = (eg, character_table(eg))
        return cache[key]

    return get


def _fields(t):
    """Every field of a rational table, with omega as nested lists."""
    return {**dataclasses.asdict(t), "omega": t.omega.tolist()}


def _assert_matches_oracle(key, t):
    """Every row of the rational table is the omega row of each character
    of one Galois orbit of the oracle table, and its dimension is the sum
    of chi(1)^2 over them; every character belongs to one row."""
    oracle = oracle_table(key)
    chi_rows = omega_rows(oracle, t.classes)
    rows = [tuple(row) for row in t.omega.tolist()]
    assert set(chi_rows) == set(rows)
    for row, dim in zip(rows, t.dims, strict=True):
        assert dim == sum(d * d for d, got in zip(oracle.degrees, chi_rows) if got == row)
    assert t.classes == chartab_mod.rational_classes(enumerated(key))
    assert t.sizes == [sum(oracle.class_sizes[c] for c in cls) for cls in t.classes]
    assert t.fix == [oracle.class_fix[cls[0]] for cls in t.classes]
    assert t.e == oracle.e


EXPECTED_DEGREES = {
    "S3": [1, 1, 2],
    "A4": [1, 1, 1, 3],
    "F20": [1, 1, 1, 1, 4],
    "PGL(2,5)": [1, 1, 4, 4, 5, 5, 6],
    "PSL(3,2)": [1, 3, 3, 6, 7, 8],
    "M11": [1, 10, 10, 10, 11, 16, 16, 44, 45, 55],
}
# sum of chi(1)^2 over each Galois orbit: A4's two nontrivial linear
# characters, F20's pair taking +-i, PSL(3,2)'s two of degree 3, and
# M11's pairs of degree 10 and 16 are conjugate
EXPECTED_DIMS = {
    "S3": [1, 1, 4],
    "A4": [1, 2, 9],
    "F20": [1, 1, 2, 16],
    "PGL(2,5)": [1, 1, 16, 16, 25, 25, 36],
    "PSL(3,2)": [1, 18, 36, 49, 64],
    "M11": [1, 100, 121, 200, 512, 1936, 2025, 3025],
}


@pytest.mark.parametrize("key", sorted(EXPECTED_DEGREES))
def test_degree_lists(tables, key):
    assert oracle_table(key).degrees == EXPECTED_DEGREES[key]
    _, t = tables(key)
    assert t.dims == EXPECTED_DIMS[key]
    assert sum(t.dims) == t.order


def test_m12_degrees(tables):
    assert oracle_table("M12").degrees == [
        1, 11, 11, 16, 16, 45, 54, 55, 55, 55, 66, 99, 120, 144, 176
    ]
    _, t = tables("M12")
    # the two characters of degree 16 form one orbit
    assert sorted(t.dims) == sorted([1, 121, 121, 512, 2025, 2916, *[3025] * 3,
                                     4356, 9801, 14400, 20736, 30976])


def test_s3_exact_values(tables):
    o = oracle_table("S3")
    # classes: identity, transpositions (order 2), 3-cycles (order 3)
    assert o.class_sizes == [1, 3, 2]
    expected = ([1, 1, 1], [1, -1, 1], [2, 0, -1])
    for want in expected:
        hits = [
            row
            for row in o.values
            if all((v - x).is_zero() for v, x in zip(row, want))
        ]
        assert len(hits) == 1
    _, t = tables("S3")
    assert t.sizes == [1, 3, 2]
    assert t.omega.tolist() == [[1, -3, 2], [1, 3, 2], [1, 0, -1]]


def test_a4_exact_values(tables):
    o = oracle_table("A4")
    assert o.class_sizes == [1, 3, 4, 4]
    w, w2 = Cyc.zeta(3, 1), Cyc.zeta(3, 2)
    one = Cyc.integer(1, 1)
    linear = [row for r, row in enumerate(o.values) if o.degrees[r] == 1]
    assert any(all((a - b).is_zero() for a, b in zip(row, [one, one, w, w2])) for row in linear)
    assert any(all((a - b).is_zero() for a, b in zip(row, [one, one, w2, w])) for row in linear)
    std = o.values[o.standard]
    assert [v.approx().real for v in std] == pytest.approx([3, -1, 0, 0])
    # the two classes of 3-cycles form one rational class, on which the
    # pair of linear characters gives 4w + 4w^2 = -4
    _, t = tables("A4")
    assert t.classes == [[0], [1], [2, 3]] and t.sizes == [1, 3, 8]
    assert t.omega.tolist() == [[1, 3, 8], [1, 3, -4], [1, -1, 0]]


def test_trivial_and_standard_rows(tables):
    for key in ("F20", "PGL(2,5)", "M11"):
        o = oracle_table(key)
        assert o.degrees[o.trivial] == 1
        assert all((v - 1).is_zero() for v in o.values[o.trivial])
        assert o.degrees[o.standard] == o.degree - 1
        std = o.values[o.standard]
        assert all((v - (f - 1)).is_zero() for v, f in zip(std, o.class_fix))
        _, t = tables(key)
        n, sizes, fix = t.degree, np.array(t.sizes), np.array(t.fix)
        assert np.array_equal(t.omega[t.trivial], sizes)
        assert np.array_equal((n - 1) * t.omega[t.standard], sizes * (fix - 1))
        assert t.dims[t.trivial] == 1 and t.dims[t.standard] == (n - 1) ** 2


# ---- class constants ----


def brute_rational_classes(group):
    """Rational classes by exhaustive conjugation and powering: x with its
    conjugates and those of every power x^t, t prime to the order of x.
    An independent oracle."""
    elems = list(group.elements())
    classes = []
    seen = set()
    for x in elems:
        if x in seen:
            continue
        o = x.order()
        powers = [power(x, t) for t in range(1, o + 1) if math.gcd(t, o) == 1]
        cls = {g.inverse() * y * g for g in elems for y in powers}
        seen |= cls
        classes.append(cls)
    return classes


@pytest.mark.parametrize("key", ["S3", "A4"])
def test_class_constants_bruteforce(tables, key):
    eg, t = tables(key)
    A = class_constants(eg, t.classes)
    label = {}
    for cls in brute_rational_classes(eg.group):
        member = next(iter(cls))
        R = next(R for R, c in enumerate(t.classes) if eg.class_of[eg.index_of(member)] in c)
        label[R] = cls
    assert sorted(label) == list(range(t.r))
    for R in range(t.r):
        for T in range(t.r):
            z = eg.class_rep(t.classes[T][0])
            for S in range(t.r):
                count = sum(1 for x in label[R] if x.inverse() * z in label[S])
                assert A[R, S, T] == count


def test_s3_three_cycle_constant(tables):
    eg, t = tables("S3")
    A = class_constants(eg, t.classes)
    c3 = next(R for R, cls in enumerate(t.classes) if eg.class_orders[cls[0]] == 3)
    # both 3-cycles y have y * e in their own class, and of the y * z for
    # the representative z only y = z^-1 gives the identity
    assert A[c3, c3, 0] == 2
    assert A[c3, 0, c3] == 1


def _scalar_round_order(values, degrees):
    """Row order by (degree, shadow rounded one numpy scalar at a time)."""
    shadow = chartab_reference._shadow(values)

    def key(r):
        return (degrees[r], [(round(z.real, 9), round(z.imag, 9)) for z in shadow[r]])

    return sorted(range(len(values)), key=key)


@pytest.mark.parametrize("key", [k for k in catalog_keys() if get_spec(k).degree <= 21])
def test_sort_rows_matches_the_scalar_round_order(key):
    # the rows of the finished oracle table, shuffled, so ties keep a
    # nontrivial order
    t = oracle_table(key)
    perm = np.random.default_rng(t.k).permutation(t.k)
    values = [t.values[r] for r in perm]
    degrees = [t.degrees[r] for r in perm]
    want = _scalar_round_order(values, degrees)
    got_values, got_degrees, shadow = chartab_reference._sort_rows(values, degrees)
    assert all(a is values[r] for a, r in zip(got_values, want, strict=True))
    assert got_degrees == [degrees[r] for r in want]
    assert np.array_equal(shadow, chartab_reference._shadow(values)[want])


def test_identity_class_matrix(tables):
    eg, t = tables("F20")
    A = class_constants(eg, t.classes)
    assert np.array_equal(A[0], np.eye(t.r, dtype=np.int64))


def test_class_constant_row_sums(tables):
    eg, t = tables("PGL(2,5)")
    A = class_constants(eg, t.classes)
    for R in range(t.r):
        for T in range(t.r):
            assert A[R, :, T].sum() == t.sizes[R]


# the name is kept from when the products were sifted in fixed blocks, so
# the test ids stay the same; it now checks the base-image lookup alone
@pytest.mark.parametrize("key", SURVEY)
def test_blocked_class_constants_match_reference(tables, key):
    eg, t = tables(key)
    want = rational_class_constants(eg, t.classes)
    assert np.array_equal(class_constants(eg, t.classes), want)


# ---- the proposal against the oracle ----

SMALL_DEGREE = [key for key in catalog_keys() if get_spec(key).degree <= 12]


@pytest.mark.parametrize("seed", [1, 99])
@pytest.mark.parametrize("key", SMALL_DEGREE)
def test_split_matches_reference(tables, key, seed):
    eg, t = tables(key)
    new = t if seed == 1 else character_table(eg, seed=seed)
    assert _fields(new) == _fields(t)
    _assert_matches_oracle(key, new)


@pytest.mark.parametrize("key", SURVEY + ["M12", "M21", "PGL(2,19)", "AGL(4,2)"])
def test_rational_table_matches_the_oracle(tables, key):
    _, t = tables(key)
    _assert_matches_oracle(key, t)


@pytest.mark.parametrize("key", SURVEY)
def test_rational_algebra_is_self_adjoint(tables, key):
    # |T| A[R, S, T] == |S| A[R, T, S], exactly: D^-1 A_R D is symmetric
    # for D = diag(sqrt|S|)
    eg, t = tables(key)
    A = class_constants(eg, t.classes)
    sizes = np.array(t.sizes, dtype=np.int64)
    assert np.array_equal(A * sizes, A.transpose(0, 2, 1) * sizes[:, None])


@pytest.mark.parametrize("key", ["F20", "PGL(2,5)", "M11"])
def test_off_by_one_proposal_raises(tables, key, monkeypatch):
    eg, _ = tables(key)
    propose = chartab_mod._propose
    calls = []

    def off_by_one(*args):
        omega = propose(*args)
        omega[-1, -1] += 1
        calls.append(omega)
        return omega

    monkeypatch.setattr(chartab_mod, "_propose", off_by_one)
    with pytest.raises(ValueError):
        character_table(eg)
    assert len(calls) == chartab_mod.MAX_PROPOSALS


# ---- inner products of the oracle ----


@pytest.mark.parametrize("key", ["S3", "F20", "PGL(2,5)", "M11"])
def test_permutation_character_norm(key):
    t = oracle_table(key)
    fix = t.permutation_character()
    assert (inner_product(t, fix, fix) - 2).is_zero()
    assert (inner_product(t, fix, t.values[t.trivial]) - 1).is_zero()
    assert (inner_product(t, fix, t.values[t.standard]) - 1).is_zero()


def test_row_orthonormality():
    t = oracle_table("A4")
    for a in range(t.k):
        for b in range(t.k):
            want = 1 if a == b else 0
            assert (inner_product(t, t.values[a], t.values[b]) - want).is_zero()


# ---- determinism ----


def test_proposal_with_a_vanishing_identity_entry_raises(tables, monkeypatch):
    # the unit vectors as eigenvectors: every row but the identity's is 0
    # at the identity, so scaling it to 1 there is no finite row
    eg, t = tables("F20")
    A = class_constants(eg, t.classes)
    monkeypatch.setattr(np.linalg, "eigh", lambda M: (np.zeros(len(M)), np.eye(len(M))))
    with pytest.raises(ValueError, match="not bounded by the group order"):
        chartab_mod._propose(A, t.sizes, t.order, random.Random(1))


@pytest.mark.parametrize("key", ["M12", "AGL(4,2)"])
def test_seed_determinism(tables, key):
    # AGL(4,2) has the largest entry (46,080) and the worst float rounding
    # among the catalog groups of degree <= 21
    eg, t = tables(key)
    assert _fields(character_table(eg, seed=99)) == _fields(t)


# ---- verification ----


def _with_omega(t, edit):
    omega = t.omega.copy()
    edit(omega)
    return dataclasses.replace(t, omega=omega)


def test_corrupted_tables_rejected(tables):
    eg, t = tables("F20")
    A = class_constants(eg, t.classes)
    chartab_mod._verify_table(t, A)
    # a first class of two elements
    bad = [dataclasses.replace(t, sizes=[2, *t.sizes[1:]])]
    # the first row replaced by a copy of the second
    bad.append(_with_omega(t, lambda w: w.__setitem__(0, w[1])))
    # two unequal values inside the last row swapped
    last = t.r - 1
    i, j = next(
        (i, j) for i in range(1, t.r) for j in range(i + 1, t.r)
        if t.omega[last, i] != t.omega[last, j]
    )

    def swap(w):
        w[last, i], w[last, j] = w[last, j], w[last, i]

    bad.append(_with_omega(t, swap))
    for case in bad:
        with pytest.raises(ValueError):
            chartab_mod._verify_table(case, A)


TAMPERS = {
    "omega entry plus one": lambda t: _with_omega(
        t, lambda w: w.__setitem__((t.r - 1, t.r - 1), w[t.r - 1, t.r - 1] + 1)
    ),
    "row dropped": lambda t: dataclasses.replace(
        t, omega=t.omega[:-1], dims=t.dims[:-1]
    ),
    "trivial and standard swapped": lambda t: dataclasses.replace(
        t, trivial=t.standard, standard=t.trivial
    ),
    "dimension changed": lambda t: dataclasses.replace(
        t, dims=[t.dims[0] + 1, *t.dims[1:]]
    ),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
@pytest.mark.parametrize("key", ["PGL(2,5)", "M10", "PSL(3,2)"])
def test_tampered_rational_table_rejected(tables, key, tamper):
    eg, t = tables(key)
    A = class_constants(eg, t.classes)
    chartab_mod._verify_table(t, A)
    with pytest.raises(ValueError):
        chartab_mod._verify_table(TAMPERS[tamper](t), A)


def _negate_one_entry(t):
    """A nontrivial, nonstandard row with one nonzero entry negated: its
    dimension, the other rows and the distinguished rows are unchanged,
    so only the omega identity can reject it."""
    O = next(O for O in range(t.r) if O not in (t.trivial, t.standard))
    S = next(S for S in range(1, t.r) if t.omega[O, S])
    return _with_omega(t, lambda w: w.__setitem__((O, S), -w[O, S]))


@pytest.mark.parametrize("key", ["PGL(2,5)", "M10", "PSL(3,2)", "M11"])
def test_negated_omega_entry_rejected_by_the_omega_identity(tables, key):
    eg, t = tables(key)
    tampered = _negate_one_entry(t)
    assert chartab_mod._dimensions(tampered.omega, t.sizes, t.order) == t.dims
    with pytest.raises(ValueError, match="not a central character"):
        chartab_mod._verify_table(tampered, class_constants(eg, t.classes))


def test_omega_identity_refuses_entries_past_the_int64_guard(tables):
    eg, t = tables("F20")
    O = next(O for O in range(t.r) if O not in (t.trivial, t.standard))
    huge = _with_omega(t, lambda w: w.__setitem__((O, 1), 2**40))
    with pytest.raises(ValueError, match="overflow int64"):
        chartab_mod._verify_table(huge, class_constants(eg, t.classes))


def test_duplicated_row_rejected(tables):
    # PGL(2,5) = S5 has two rows of dimension 16, neither trivial nor
    # standard: a copy of one over the other keeps every other check true
    eg, t = tables("PGL(2,5)")
    a, b = [O for O in range(t.r) if t.dims[O] == 16]
    tampered = _with_omega(t, lambda w: w.__setitem__(a, w[b]))
    with pytest.raises(ValueError, match="two rows are equal"):
        chartab_mod._verify_table(tampered, class_constants(eg, t.classes))


def test_class_constants_reject_a_merged_partition(tables):
    # A5's involutions and 3-cycles taken as one class: the sums of the
    # parts are no basis of an algebra, and the counts neither commute
    # nor are self-adjoint for the sizes
    eg, t = tables("A5@6")
    orders = [eg.class_orders[cls[0]] for cls in t.classes]
    assert orders[:3] == [1, 2, 3]
    merged = [t.classes[0], t.classes[1] + t.classes[2], *t.classes[3:]]
    A = rational_class_constants(eg, merged)
    sizes = np.array([t.sizes[0], t.sizes[1] + t.sizes[2], *t.sizes[3:]])
    products = np.matmul(A[:, None], A[None, :])
    assert not np.array_equal(products, products.transpose(1, 0, 2, 3))
    assert not np.array_equal(A * sizes, A.transpose(0, 2, 1) * sizes[:, None])
    with pytest.raises(ValueError, match="do not commute"):
        class_constants(eg, merged)


def test_class_constants_reject_a_split_rational_class(tables):
    # A4's two classes of 3-cycles are inverse to each other, so either
    # one alone counts the products of the other: not self-adjoint
    eg, t = tables("A4")
    assert t.classes[2] == [2, 3]
    with pytest.raises(ValueError, match="not self-adjoint"):
        class_constants(eg, [[0], [1], [2], [3]])


def test_swapped_distinguished_indices_rejected(tables):
    eg, t = tables("F20")
    A = class_constants(eg, t.classes)
    chartab_mod._verify_table(t, A)
    swapped = dataclasses.replace(t, trivial=t.standard, standard=t.trivial)
    with pytest.raises(ValueError, match="wrong row"):
        chartab_mod._verify_table(swapped, A)


def test_table_without_a_fix_minus_one_row_rejected():
    # the dihedral group of order 10 is transitive but not 2-transitive on
    # five points, so fix-1 is not irreducible: the orbit of the two
    # characters of degree 2 has the omega row of fix-1, but dimension 8
    dihedral = PermutationGroup([Permutation((1, 2, 3, 4, 0)), Permutation((0, 4, 3, 2, 1))])
    with pytest.raises(ValueError, match="no fix-1"):
        character_table(conjugacy_classes(dihedral))
