"""Coset-incidence matrices, rank certificates, and the pairs graph."""

import dataclasses
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ekrcheck import modrank as mr
from ekrcheck.group import (
    EnumeratedGroup,
    PermutationGroup,
    centralizer_order,
    conjugation_orbit,
)
from ekrcheck.library import get_group
from ekrcheck.perm import Permutation
from ekrcheck.pipeline import _find_class_rep

from gram_reference import (
    dense_gram,
    dense_pair_classes,
    dense_pairs_graph,
    derangement_block,
    expand_orbit_values,
    fraction_charpoly,
    min_label_quadruple_orbit_gram,
)
from lemma_reference import (
    b_identity_submatrix,
    build_M,
    gram_L,
    rank_H_exact,
    rank_Hbar,
    standard_projection_check,
    std_apply,
    unique_fixed_point_element,
)


@pytest.fixture(scope="module")
def groups():
    cache = {}

    def load(key):
        if key not in cache:
            _, g = get_group(key)
            eg = EnumeratedGroup(g)
            eg.compute_classes()
            cache[key] = eg
        return cache[key]

    return load


# ---- column order and blocks ----


def test_offdiag_pair_order():
    assert mr.offdiag_pairs(4) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    for n in (4, 7, 12):
        assert len(mr.offdiag_pairs(n)) == (n - 1) * (n - 2)


def test_s3_M_is_identity(groups):
    mm = build_M(groups("S3"))
    assert mm.M.shape == (2, 2)
    assert {tuple(r) for r in mm.M} == {(1, 0), (0, 1)}
    # block display: identity row all-ones on diagonal columns, derangement
    # rows zero there
    assert mm.Hbar[0].tolist() == [1, 1, 1, 0, 0]
    assert mm.der_count == 2


def test_hbar_blocks_f20(groups):
    eg = groups("F20")
    mm = build_M(eg)
    n = 5
    assert mm.Hbar.shape == (20, (n - 1) ** 2 + 1)
    assert mm.M.shape == (4, 12)
    assert (mm.M.sum(axis=1) == n - 2).all()
    # B rows all have a fixed point among the n diagonal columns
    assert (mm.B.sum(axis=1) >= 1).all()
    # sampled entry law: H-bar[r, (i,j)] = 1 iff row maps i to j
    Eo = eg.E[mm.row_order]
    for r in (0, 3, 7, 19):
        for c, (i, j) in enumerate(mr.offdiag_pairs(n)):
            assert mm.Hbar[r, n + c] == (Eo[r, i] == j)


def test_derangement_block_rejects_fixed_points(groups):
    eg = groups("S3")
    with pytest.raises(ValueError):
        derangement_block(eg.E[:1], 3)
    with pytest.raises(ValueError):
        mr.gram_offdiag(eg.E[:1], 3)


@pytest.mark.parametrize("key", ["S3", "F20", "M11", "2^4:A7", "M22"])
def test_gram_offdiag_matches_the_dense_reference(key):
    _, g = get_group(key)
    E = g.elements_array()
    der = E[(E != np.arange(g.degree, dtype=E.dtype)).all(axis=1)]
    N = mr.gram_offdiag(der, g.degree)
    assert N.dtype == np.int64
    assert np.array_equal(N, dense_gram(der, g.degree))


# ---- rank certificates ----


def test_s3_full_rank(groups):
    N = mr.gram_M(groups("S3"))
    cert = mr.rank_certificate(N)
    assert cert.full and cert.claimed_rank == 2 == cert.columns
    assert cert.mode.startswith("full-rank via prime")
    assert cert.reverify(N)


def test_f20_deficient(groups):
    eg = groups("F20")
    der = eg.E[eg.fix_counts_all == 0]
    N = mr.gram_offdiag(der, 5)
    cert = mr.rank_certificate(N)
    assert not cert.full and cert.gram == "column"
    assert cert.mode == "deficient via exact kernel"
    assert cert.columns == 12 and cert.claimed_rank == 4
    assert cert.kernel.shape == (8, 12) and cert.kernel.dtype == np.int64
    assert cert.reverify(N)
    # kernel vectors kill M itself, not just the Gram matrix
    M = derangement_block(der, 5).astype(np.int64)
    assert not (M @ cert.kernel.T).any()
    assert np.linalg.matrix_rank(M.astype(float)) == 4
    # four derangements: gram_M takes the 4 x 4 row Gram, of the same rank
    A = mr.gram_M(eg)
    assert np.array_equal(A, M @ M.T)
    row = mr.rank_certificate(A, 12)
    assert row.gram == "row" and row.mode == "deficient: fewer rows than columns"
    assert (row.columns, row.claimed_rank, row.full) == (12, 4, False)
    assert row.kernel.shape == (0, 4) and row.reverify(A)


@pytest.mark.parametrize("key", ["A4", "F20", "AGL(1,8)", "AGammaL(1,9)", "ASL(2,4)"])
def test_gram_rows_matches_the_dense_reference(key):
    _, g = get_group(key)
    E = g.elements_array()
    der = E[(E != np.arange(g.degree, dtype=E.dtype)).all(axis=1)]
    M = derangement_block(der, g.degree).astype(np.int64)
    A = mr.gram_rows(der, g.degree)
    assert A.dtype == np.int64 and np.array_equal(A, M @ M.T)


def test_gram_rows_rejects_fixed_points(groups):
    eg = groups("S3")
    with pytest.raises(ValueError, match="non-derangement"):
        mr.gram_rows(eg.E[:1], 3)


def test_reverify_holds_a_row_certificate_to_the_column_count(groups):
    eg = groups("F20")
    A = mr.gram_M(eg)
    row = mr.rank_certificate(A, 12)
    # rank 4 of 12 columns: neither full, nor a Gram wider than M
    assert not dataclasses.replace(row, full=True).reverify(A)
    assert not dataclasses.replace(row, claimed_rank=5).reverify(A)
    assert not dataclasses.replace(row, columns=3).reverify(A)
    with pytest.raises(ValueError):
        mr.rank_certificate(A, 3)
    # the same Gram read as a column Gram is a claim about a 4-column M
    assert dataclasses.replace(row, columns=4, full=True).gram == "column"


def test_m11_full_column_rank(groups):
    N = mr.gram_M(groups("M11"))
    cert = mr.rank_certificate(N)
    assert cert.columns == 90 and cert.full
    assert cert.reverify(N)


def test_rank_certificate_matches_float_oracle():
    rng = np.random.default_rng(5)
    for _ in range(12):
        rows = rng.integers(2, 7)
        cols = rng.integers(rows + 1, 12)
        B = rng.integers(-3, 4, size=(rows, cols))
        N = (B.T @ B).astype(np.int64)
        cert = mr.rank_certificate(N)
        assert cert.claimed_rank == np.linalg.matrix_rank(B.astype(float))
        assert not cert.full
        assert cert.reverify(N)
        assert cert.kernel.dtype == np.int64
        assert not (B @ cert.kernel.T).any()


def test_reverify_rejects_wrong_matrix(groups):
    N = mr.gram_M(groups("S3"))
    cert = mr.rank_certificate(N)
    other = np.zeros_like(N)
    assert not cert.reverify(other)


def test_reverify_rejects_a_zero_kernel_vector(groups):
    eg = groups("F20")
    N = mr.gram_offdiag(eg.E[eg.fix_counts_all == 0], 5)
    cert = mr.rank_certificate(N)
    zeroed = cert.kernel.copy()
    zeroed[0] = 0
    assert not dataclasses.replace(cert, kernel=zeroed).reverify(N)
    altered = cert.kernel.copy()
    altered[0, np.flatnonzero(altered[0])[0]] += 1
    assert not dataclasses.replace(cert, kernel=altered).reverify(N)


# ---- pairs graph ----


def test_pairs_graph_x5():
    pg = mr.pairs_graph(5)
    A = dense_pairs_graph(5)[0]
    assert len(mr.offdiag_pairs(5)) == 12
    assert (A.sum(axis=1) == 6).all()
    assert pg.least_lower_bound == -2
    # float oracle: least eigenvalue really is >= -2
    assert np.linalg.eigvalsh(A.astype(float))[0] >= -2 - 1e-9


def test_pairs_graph_x22():
    pg = mr.pairs_graph(22)
    assert len(mr.offdiag_pairs(22)) == 420
    assert (dense_pairs_graph(22)[0].sum(axis=1) == 380).all()
    assert pg.least_lower_bound == -19


def test_pairs_graph_adjacency_cases():
    vi = {v: k for k, v in enumerate(mr.offdiag_pairs(6))}
    A = dense_pairs_graph(6)[0]
    for w, adjacent in [
        ((2, 3), True),  # disjoint
        ((1, 0), False),  # swapped, never adjacent
        ((2, 0), True),  # first equals second's image
        ((1, 2), True),  # second equals first's image
        ((0, 2), False),  # shared first coordinate
        ((2, 1), False),  # shared second coordinate
    ]:
        assert A[vi[(0, 1)], vi[w]] == adjacent
        # adjacency is classes 4 to 6 of the class table
        assert (mr._pair_classes(0, 1, *np.array(w)) >= 4) == adjacent


def test_pairs_graph_charpoly_roots_cover_float_spectrum():
    pg = mr.pairs_graph(7)
    eigs = np.linalg.eigvalsh(dense_pairs_graph(7)[0].astype(float))

    def horner(x):
        acc = 0
        for c in reversed(pg.charpoly):
            acc = acc * x + c
        return acc

    for lam in {round(float(e), 6) for e in eigs}:
        if lam == round(lam):
            assert horner(round(lam)) == 0


@pytest.mark.parametrize("n", range(4, 25))
def test_pairs_graph_matches_the_dense_reference(n):
    pg = mr.pairs_graph(n)
    A, orbital, charpoly = dense_pairs_graph(n)
    # the class table behind the orbital rows is the reference's, entry
    # by entry, and so is its adjacency
    I, J = np.array(mr.offdiag_pairs(n)).T
    classes = mr._pair_classes(I[:, None], J[:, None], I, J)
    assert np.array_equal(classes, dense_pair_classes(n))
    assert np.array_equal(classes >= 4, A.astype(bool))
    if orbital is None:
        assert pg.orbital is None
    else:
        assert [list(row) for row in pg.orbital] == orbital
    assert list(pg.charpoly) == charpoly
    # the certified bound -(n-3) is the least eigenvalue: one above fails
    assert pg.least_lower_bound == -(n - 3)
    assert not mr._no_root_below(list(pg.charpoly), -(n - 4))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=10), st.integers(-30, 30))
def test_sign_test_decides_integer_rooted_polynomials(roots, a):
    coeffs = [1]
    for r in roots:
        # multiply by x - r, lowest degree first
        coeffs = [lo - r * c for lo, c in zip([0] + coeffs, coeffs + [0])]
    assert mr._no_root_below(coeffs, a) == (min(roots) >= a)


def test_pairs_graph_checks_survive_python_O():
    # x^6 (x + 5) has the root -5 below the bound -4 of X_7; under -O an
    # assert would be stripped and the bound accepted
    script = (
        "import sys\n"
        "from ekrcheck import modrank as mr\n"
        "if __debug__:\n"
        "    sys.exit('not optimized')\n"
        "mr._charpoly_exact = lambda A: [0] * 6 + [5, 1]\n"
        "mr.pairs_graph(7)\n"
    )
    src = pathlib.Path(mr.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 1
    assert "least eigenvalue of X_7 not certified >= -4" in done.stderr


def test_charpoly_exact_matches_the_fraction_reference():
    rng = np.random.default_rng(3)
    for k in range(1, 9):
        A = rng.integers(-50, 50, size=(k, k)).tolist()
        assert mr._charpoly_exact(A) == fraction_charpoly(A)
    assert mr._charpoly_exact([[0, 1], [1, 0]]) == [-1, 0, 1]


def test_pairs_graph_rejects_small_n():
    with pytest.raises(ValueError):
        mr.pairs_graph(3)


def test_pairs_graph_rejects_an_irregular_class_table(monkeypatch):
    # disjoint vertex pairs read as class 5 leave every class vector with
    # too few class-6 partners
    table = mr._PAIR_CLASS.copy()
    table[0] = 5
    monkeypatch.setattr(mr, "_PAIR_CLASS", table)
    monkeypatch.setattr(mr, "_pairs_cache", {})
    with pytest.raises(AssertionError, match="X_9 is not the pairs graph"):
        mr.pairs_graph(9)


# ---- class Gram matrices ----


def test_class_gram_s3(groups):
    eg = groups("S3")
    cg = mr.class_gram(eg.E[eg.fix_counts_all == 0], 3)
    assert cg.pattern and cg.lam == 1 and cg.mu == 0
    assert cg.psd_certified and cg.least_bound == 1
    assert np.array_equal(cg.N, np.eye(2, dtype=np.int64))


def test_class_gram_f20_matches_brute(groups):
    eg = groups("F20")
    der = eg.E[eg.fix_counts_all == 0]
    cg = mr.class_gram(der, 5)
    blk = derangement_block(der, 5).astype(np.int64)
    assert np.array_equal(cg.N, blk.T @ blk)
    # sharply 2-transitive: 0/1 entries, no lambda*I + mu*A structure
    assert not cg.pattern and not cg.psd_certified


def test_class_gram_m11_pattern(groups):
    eg = groups("M11")
    orders = eg.class_orders
    sel = np.isin(
        eg.class_of, [c for c in range(eg.n_classes) if orders[c] == 11]
    )
    rows = eg.E[sel]
    t = rows.shape[0]
    cg = mr.class_gram(rows, 11)
    assert cg.pattern
    assert cg.lam == t // 10 and cg.mu == t // (10 * 9)
    assert cg.psd_certified and cg.least_bound == cg.lam - cg.mu * 8
    # a full-rank verdict from the class rows implies one for all of M
    assert mr.rank_certificate(cg.N).full
    assert mr.rank_certificate(mr.gram_M(eg)).full


def test_class_gram_no_two_cycles_entry(groups):
    eg = groups("M11")
    orders = eg.class_orders
    sel = np.isin(
        eg.class_of, [c for c in range(eg.n_classes) if orders[c] == 11]
    )
    cg = mr.class_gram(eg.E[sel], 11)
    pairs = mr.offdiag_pairs(11)
    assert cg.N[pairs.index((0, 1)), pairs.index((1, 0))] == 0


# ---- class Gram matrices by quadruple orbits ----


def _pattern_fields(cg):
    return cg.pattern, cg.lam, cg.mu, cg.least_bound, cg.psd_certified


def _check_orbit_gram(group, rep, rows):
    """The per-orbit result for the class `rows` of rep against the n^4
    reference: laid out densely it is the min-label Gram and
    `gram_offdiag` of the rows, its classes are the reference classes of
    the entries, and the per-orbit pattern test gives what the dense
    test gives.  Returns the per-orbit pattern result."""
    n, size = group.degree, len(rows)
    orbits = mr.quadruple_orbit_gram(group, rep, size)
    want = min_label_quadruple_orbit_gram(group, rep, size)
    N = expand_orbit_values(group, orbits, orbits.values)
    assert N.dtype == want.dtype and N.tobytes() == want.tobytes()
    assert N.tobytes() == mr.gram_offdiag(rows, n).tobytes()
    classes = dense_pair_classes(n)
    assert np.array_equal(expand_orbit_values(group, orbits, orbits.classes), classes)
    per_orbit = mr.gram_pattern(orbits.values, orbits.classes, n, size)
    assert per_orbit.N is None
    assert _pattern_fields(per_orbit) == _pattern_fields(mr.gram_pattern(want, classes, n, size))
    return per_orbit


@pytest.mark.m23
@pytest.mark.parametrize("key, order, cycle_type", [("M23", 23, (23,)), ("M22", 11, (11, 11))])
def test_quadruple_orbit_gram_matches_the_streamed_class(key, order, cycle_type):
    _, g = get_group(key)
    rep = _find_class_rep(g, order, cycle_type)
    rows = conjugation_orbit(g, rep)
    assert g.order() // centralizer_order(g, rep) == len(rows)
    cg = _check_orbit_gram(g, rep, rows)
    assert cg.psd_certified
    if key == "M23":
        assert (cg.lam, cg.mu, cg.least_bound) == (20160, 960, 960)


def _symmetric_centralizer_order(cycle_type):
    lengths = [(k, cycle_type.count(k)) for k in set(cycle_type)]
    return math.prod(k**m * math.factorial(m) for k, m in lengths)


# AGL(1,8) is sharply 2-transitive (no level-2 stabilizer); the base of
# M11 starts 0, 2
@pytest.mark.parametrize("key", ["M11", "PSL(2,19)", "2^4:A7", "AGL(1,8)"])
def test_quadruple_orbit_gram_matches_every_derangement_class(groups, key):
    eg = groups(key)
    classes = [c for c in range(eg.n_classes) if eg.class_fix[c] == 0]
    assert classes
    for c in classes:
        rows = eg.E[eg.class_of == c]
        rep = eg.class_rep(c)
        _check_orbit_gram(eg.group, rep, rows)
        if _symmetric_centralizer_order(rep.cycle_type()) <= 5000:
            assert eg.group.order() // centralizer_order(eg.group, rep) == len(rows)


@pytest.mark.parametrize("tamper", ["class-4 plus one", "class-2 nonzero"])
def test_a_tampered_orbit_value_breaks_both_pattern_tests(groups, tamper):
    eg = groups("M11")
    c = eg.class_orders.index(11)
    size = eg.class_sizes[c]
    orbits = mr.quadruple_orbit_gram(eg.group, eg.class_rep(c), size)
    assert mr.gram_pattern(orbits.values, orbits.classes, 11, size).psd_certified
    values = orbits.values.copy()
    target = 4 if tamper == "class-4 plus one" else 2
    values[np.flatnonzero(orbits.classes == target)[0]] += 1
    assert not mr.gram_pattern(values, orbits.classes, 11, size).pattern
    N = expand_orbit_values(eg.group, orbits, values)
    assert not mr.gram_pattern(N, dense_pair_classes(11), 11, size).pattern


def test_quadruple_orbit_gram_rejects_a_wrong_class_size(groups):
    eg = groups("M11")
    c = eg.class_orders.index(11)
    with pytest.raises(AssertionError, match="does not divide"):
        mr.quadruple_orbit_gram(eg.group, eg.class_rep(c), eg.class_sizes[c] + 1)
    with pytest.raises(ValueError, match="non-derangement"):
        mr.quadruple_orbit_gram(eg.group, eg.element(0), 1)


def test_quadruple_orbit_gram_rejects_a_degree_below_5():
    # A4's double transpositions are derangements, but degree 4 leaves no
    # point outside a quadruple to carry it onto the Gram's columns
    _, g = get_group("A4")
    z = Permutation((1, 0, 3, 2))
    assert z in g
    with pytest.raises(ValueError, match="degree >= 5"):
        mr.quadruple_orbit_gram(g, z, 3)


def test_quadruple_orbit_gram_rejects_a_group_that_is_not_2_transitive():
    z = Permutation((1, 2, 3, 4, 0))
    dihedral = PermutationGroup([z, Permutation((0, 4, 3, 2, 1))])
    assert dihedral.transitivity_degree() == 1
    with pytest.raises(ValueError, match="2-transitive"):
        mr.quadruple_orbit_gram(dihedral, z, 2)


# ---- standard-module checks ----


def test_standard_projection_s3(groups):
    assert standard_projection_check(groups("S3"), 0, 0)


def test_standard_projection_f20(groups):
    assert standard_projection_check(groups("F20"), 1, 3)


def test_standard_projection_pgl25(groups):
    assert standard_projection_check(groups("PGL(2,5)"), 0, 2)


def test_std_apply_pattern(groups):
    eg = groups("S3")
    v = (eg.E[:, 0] == 0).astype(np.int64)
    out = std_apply(eg, v)
    for r, val in enumerate(out):
        assert val == (Fraction(2, 3) if eg.E[r, 0] == 0 else Fraction(-1, 3))
    # trivial-module image is the constant 1/n
    assert Fraction(int(v.sum()), eg.E.shape[0]) == Fraction(1, 3)


def test_rank_H_values(groups):
    assert rank_H_exact(groups("S3")) == 5
    assert rank_Hbar(groups("S3")) == 5
    assert rank_H_exact(groups("PGL(2,5)")) == 26
    assert rank_Hbar(groups("PGL(2,5)")) == 26


def test_unique_fixed_point_elements(groups):
    p = unique_fixed_point_element(groups("S3").group, 0)
    assert p.images == (0, 2, 1)
    q = unique_fixed_point_element(groups("F20").group, 0)
    assert sum(1 for y in range(5) if q.images[y] == y) == 1
    assert q.order() == 4
    g11 = groups("M11").group
    for x in (0, 5, 10):
        u = unique_fixed_point_element(g11, x)
        assert [y for y in range(11) if u.images[y] == y] == [x]


def test_b_identity_submatrix(groups):
    for key in ("S3", "F20", "PGL(2,5)", "M11"):
        sel = b_identity_submatrix(groups(key))
        assert np.array_equal(sel, np.eye(groups(key).group.degree, dtype=np.int8))


def test_gram_L_s3(groups):
    G = gram_L(groups("S3"))
    expected = 2 * np.eye(4, dtype=np.int64) + np.kron(
        np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]])
    )
    assert np.array_equal(G, expected)


def test_gram_L_structure(groups):
    for key in ("F20", "PGL(2,5)", "M11"):
        eg = groups(key)
        o, n = eg.E.shape
        G = gram_L(eg)
        assert (np.diag(G) == o // n).all()
        # one image per point: v_{i,j} and v_{i,l} never overlap
        m = n - 1
        for i in (0, m - 1):
            for j in range(m - 1):
                assert G[i * m + j, i * m + j + 1] == 0
