"""Coset-incidence matrices, rank certificates, and the pairs algebra."""

import dataclasses
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from ekrcheck import modrank as mr
from ekrcheck.group import EnumeratedGroup, PermutationGroup, conjugation_orbit
from ekrcheck.library import catalog_keys, get_group, get_spec
from ekrcheck.perm import Permutation

from class_reference import find_class_rep
from gram_reference import (
    dense_gram,
    dense_pair_classes,
    dense_pairs_graph,
    derangement_block,
    expand_orbit_values,
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
            cache[key] = EnumeratedGroup(g)
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
    assert not cert.full and cert.mode == "deficient via exact kernel"
    assert cert.columns == 12 and cert.claimed_rank == 4
    assert cert.kernel.shape == (8, 12) and cert.kernel.dtype == np.int64
    assert cert.reverify(N)
    # kernel vectors kill M itself, not just the Gram matrix
    M = derangement_block(der, 5).astype(np.int64)
    assert not (M @ cert.kernel.T).any()
    assert np.linalg.matrix_rank(M.astype(float)) == 4


def test_gram_offdiag_rejects_fixed_points(groups):
    eg = groups("S3")
    with pytest.raises(ValueError, match="non-derangement"):
        mr.gram_offdiag(eg.E[:1], 3)
    # no row of a permutation sends two points to the last point
    with pytest.raises(ValueError, match="exactly one point"):
        mr.gram_offdiag(np.array([[2, 2, 0]], dtype=np.int8), 3)


def test_m11_full_column_rank(groups):
    N = mr.gram_M(groups("M11"))
    cert = mr.rank_certificate(N)
    assert cert.columns == 90 and cert.full
    assert cert.reverify(N)


def test_rank_certificate_matches_float_oracle():
    # pair-indexed Grams S + S[pi][:, pi] of S = B^T B over the 12 pairs
    # of 4 points: their kernel is that of B and of B with flipped columns
    rng = np.random.default_rng(5)
    flip = mr._pair_flip(12)
    for _ in range(12):
        B = rng.integers(-3, 4, size=(rng.integers(1, 6), 12))
        both = np.concatenate([B, B[:, flip]]).astype(np.int64)
        N = both.T @ both
        cert = mr.rank_certificate(N)
        assert cert.claimed_rank == np.linalg.matrix_rank(both.astype(float))
        assert not cert.full
        assert cert.reverify(N)
        assert cert.kernel.dtype == np.int64
        assert not (both @ cert.kernel.T).any()


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


# ---- pairs graph and pairs algebra ----


def _graph_matrix(n):
    """The pairs algebra's matrix of multiplication by the adjacency A of
    the pairs graph X_n, which is 1 on classes 4 to 6 (degree 4 has no
    class 6)."""
    return mr._pairs_algebra_matrix([0, 0, 0, 0, 1, 1, 1][: 6 if n == 4 else 7], n)


def _same_spectrum(L, A):
    """Whether L and the symmetric A have the same eigenvalues, ignoring
    multiplicities, in floats."""
    ev = np.linalg.eigvals(np.array(L, dtype=float))
    close = np.abs(ev[:, None] - np.linalg.eigvalsh(A.astype(float))[None, :]) < 1e-6
    return bool(close.any(axis=1).all() and close.any(axis=0).all())


def test_pairs_graph_x5():
    L = _graph_matrix(5)
    A = dense_pairs_graph(5)[0]
    assert len(mr.offdiag_pairs(5)) == 12
    assert (A.sum(axis=1) == 6).all()
    # A J = 6 J read in the algebra, J being the sum of the class matrices
    assert [sum(row) for row in L] == [6] * 7
    # the faithful representation keeps A's least eigenvalue, -(n-3)
    assert _same_spectrum(L, A)
    assert abs(min(np.linalg.eigvals(np.array(L, dtype=float)).real) + 2) < 1e-9


def test_pairs_graph_x22():
    L = _graph_matrix(22)
    assert len(mr.offdiag_pairs(22)) == 420
    assert (dense_pairs_graph(22)[0].sum(axis=1) == 380).all()
    assert [sum(row) for row in L] == [380] * 7


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
    # L and A share their minimal polynomial, so every eigenvalue of
    # X_7 is one of L's and the other way round
    assert _same_spectrum(_graph_matrix(7), dense_pairs_graph(7)[0])


@pytest.mark.parametrize("n", range(4, 25))
def test_pairs_graph_matches_the_dense_reference(n):
    A, orbital = dense_pairs_graph(n)
    # the class table behind the algebra is the reference's, entry by
    # entry, and so is its adjacency
    I, J = np.array(mr.offdiag_pairs(n)).T
    classes = mr._pair_classes(I[:, None], J[:, None], I, J)
    assert np.array_equal(classes, dense_pair_classes(n))
    assert np.array_equal(classes >= 4, A.astype(bool))
    if orbital is None:
        assert _same_spectrum(_graph_matrix(n), A)
    else:
        assert _graph_matrix(n) == orbital


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_pairs_algebra_matrix_multiplies_like_the_dense_classes(n):
    # N B_t = sum_s L[s][t] B_s for N = sum_r x[r] B_r, on dense 0/1
    # class matrices B and values x that no pattern ties together
    classes = dense_pair_classes(n)
    B = [(classes == t).astype(np.int64) for t in range(int(classes.max()) + 1)]
    x = [3, -1, 4, 1, -5, 9, 2][: len(B)]
    N = sum(v * b for v, b in zip(x, B))
    L = mr._pairs_algebra_matrix(x, n)
    for t, b in enumerate(B):
        assert np.array_equal(N @ b, sum(L[s][t] * B[s] for s in range(len(B))))


def test_pairs_graph_checks_survive_python_O():
    # disjoint vertex pairs read as class 5 break the class counts; under
    # -O an assert would be stripped and the labelling accepted
    script = (
        "import sys\n"
        "from ekrcheck import modrank as mr\n"
        "if __debug__:\n"
        "    sys.exit('not optimized')\n"
        "mr._PAIR_CLASS[0] = 5\n"
        "mr.pairs_algebra_rank([1, 0, 0, 0, 0, 0, 0], range(7), 7)\n"
    )
    src = pathlib.Path(mr.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 1
    assert "the pair classes of degree 7 are not the pairs algebra's" in done.stderr


def test_pairs_graph_rejects_small_n():
    with pytest.raises(ValueError, match="degree >= 3"):
        mr._pairs_algebra_matrix([1], 2)
    with pytest.raises(ValueError, match="degree 9 has 7 pair classes, not 6"):
        mr._pairs_algebra_matrix([1, 0, 0, 0, 0, 0], 9)
    with pytest.raises(ValueError, match="no value in pair class 1"):
        mr.pairs_algebra_rank([1, 2], [0, 2], 9)


def test_pairs_graph_rejects_an_irregular_class_table(monkeypatch):
    # disjoint vertex pairs read as class 5 leave every class vector with
    # too few class-6 partners
    table = mr._PAIR_CLASS.copy()
    table[0] = 5
    monkeypatch.setattr(mr, "_PAIR_CLASS", table)
    with pytest.raises(AssertionError, match="the pair classes of degree 9 are not the pairs algebra's"):
        mr._pairs_algebra_matrix([1, 0, 0, 0, 0, 0, 0], 9)


def test_pairs_algebra_rejects_a_labelling_that_varies_along_a_class(monkeypatch):
    # each column vector rotated by its vertex's first point keeps its
    # class counts, but the counts p then differ between two positions
    # of one class
    real = mr._pair_classes

    def rotated(u0, u1, w0, w1):
        classes = real(u0, u1, w0, w1)
        return np.roll(classes, int(w0)) if np.ndim(w0) == 0 else classes

    monkeypatch.setattr(mr, "_pair_classes", rotated)
    with pytest.raises(AssertionError, match="of the pairs algebra of degree 9 varies"):
        mr._pairs_algebra_matrix([1, 0, 0, 0, 0, 0, 0], 9)


# ---- class Gram matrices ----


def test_class_gram_s3(groups):
    eg = groups("S3")
    N, algebra = mr.class_gram(eg.E[eg.fix_counts_all == 0], 3)
    # degree 3 has two pair classes, same and swapped
    assert algebra == ([1, 0], True)
    assert np.array_equal(N, np.eye(2, dtype=np.int64))


def test_class_gram_f20_matches_brute(groups):
    eg = groups("F20")
    der = eg.E[eg.fix_counts_all == 0]
    N, algebra = mr.class_gram(der, 5)
    blk = derangement_block(der, 5).astype(np.int64)
    assert np.array_equal(N, blk.T @ blk)
    # sharply 2-transitive: 0/1 entries that vary inside a pair class,
    # so N is not in the pairs algebra
    assert algebra is None


def test_class_gram_m11_pattern(groups):
    eg = groups("M11")
    orders = eg.class_orders
    sel = np.isin(
        eg.class_of, [c for c in range(eg.n_classes) if orders[c] == 11]
    )
    rows = eg.E[sel]
    t = rows.shape[0]
    N, algebra = mr.class_gram(rows, 11)
    lam, mu = t // 10, t // (10 * 9)
    assert algebra == ([lam, 0, 0, 0, mu, mu, mu], True)
    A = dense_pairs_graph(11)[0].astype(np.int64)
    assert np.array_equal(N, lam * np.eye(len(A), dtype=np.int64) + mu * A)
    # a full-rank verdict from the class rows implies one for all of M
    assert mr.rank_certificate(N).full
    assert mr.rank_certificate(mr.gram_M(eg)).full


def test_class_gram_no_two_cycles_entry(groups):
    eg = groups("M11")
    orders = eg.class_orders
    sel = np.isin(
        eg.class_of, [c for c in range(eg.n_classes) if orders[c] == 11]
    )
    N, _ = mr.class_gram(eg.E[sel], 11)
    pairs = mr.offdiag_pairs(11)
    assert N[pairs.index((0, 1)), pairs.index((1, 0))] == 0


ALGEBRA_KEYS = [k for k in catalog_keys() if 5 <= get_spec(k).degree <= 12]


@pytest.mark.parametrize("key", ALGEBRA_KEYS)
def test_pairs_algebra_agrees_with_the_rank_certificate(groups, key):
    # every derangement class: the per-entry and the per-orbit reading
    # agree, the Gram is in the algebra exactly when each dense pair
    # class holds one value, and then the verdict is the dense one
    eg = groups(key)
    n = eg.group.degree
    classes = dense_pair_classes(n)
    for c in range(eg.n_classes):
        if eg.class_fix[c]:
            continue
        rows = eg.E[eg.class_of == c]
        N, algebra = mr.class_gram(rows, n)
        orbits = mr.quadruple_orbit_gram(eg.group, eg.class_rep(c))
        per_orbit = mr.pairs_algebra_rank(orbits.values, orbits.classes, n)
        # the per-orbit Gram counts each class element |G|/|C| times
        scale = eg.group.order() // len(rows)
        assert per_orbit == (algebra and ([scale * v for v in algebra[0]], algebra[1]))
        in_algebra = all(len(set(N[classes == t].tolist())) == 1 for t in range(7))
        assert (algebra is not None) == in_algebra
        if algebra is not None:
            assert algebra[1] == mr.rank_certificate(N).full


@pytest.mark.parametrize("key", ["M11", "M12"])
def test_pairs_algebra_holds_every_mathieu_class_gram(groups, key):
    eg = groups(key)
    verdicts = {
        eg.class_orders[c]: mr.class_gram(eg.E[eg.class_of == c], eg.group.degree)[1]
        for c in range(eg.n_classes) if eg.class_fix[c] == 0
    }
    assert None not in verdicts.values()
    # M12's involutions alone leave M short of full rank
    assert [order for order, (_, full) in verdicts.items() if not full] == ([2] if key == "M12" else [])


def test_pairs_algebra_leaves_out_every_pgl27_class_gram(groups):
    eg = groups("PGL(2,7)")
    ders = [c for c in range(eg.n_classes) if eg.class_fix[c] == 0]
    assert ders
    assert all(mr.class_gram(eg.E[eg.class_of == c], 8)[1] is None for c in ders)


# ---- class Gram matrices by quadruple orbits ----


def _check_orbit_gram(group, rep, rows):
    """The per-orbit result for the class `rows` of rep against the n^4
    reference: its values are Python ints, laid out densely they are the
    min-label Gram and |G|/|C| times `gram_offdiag` of the rows, its
    classes are the reference classes of the entries, and the per-orbit
    algebra verdict is the dense one.  Returns the per-orbit verdict."""
    n, order = group.degree, group.order()
    assert order % len(rows) == 0
    orbits = mr.quadruple_orbit_gram(group, rep)
    assert all(type(v) is int for v in orbits.values)
    want = min_label_quadruple_orbit_gram(group, rep)
    N = expand_orbit_values(group, orbits, orbits.values).astype(np.int64)
    assert N.tobytes() == want.astype(np.int64).tobytes()
    assert np.array_equal(N, order // len(rows) * mr.gram_offdiag(rows, n))
    classes = dense_pair_classes(n)
    assert np.array_equal(expand_orbit_values(group, orbits, orbits.classes), classes)
    per_orbit = mr.pairs_algebra_rank(orbits.values, orbits.classes, n)
    assert per_orbit == mr.pairs_algebra_rank(want, classes, n)
    return per_orbit


@pytest.mark.m23
@pytest.mark.parametrize("key, order, cycle_type", [("M23", 23, (23,)), ("M22", 11, (11, 11))])
def test_quadruple_orbit_gram_matches_the_streamed_class(key, order, cycle_type):
    _, g = get_group(key)
    rep = find_class_rep(g, order, cycle_type)
    rows = conjugation_orbit(g, rep)
    values, full = _check_orbit_gram(g, rep, rows)
    assert full
    if key == "M23":
        # the 23-cycle's class Gram, counted 23 times by its centraliser
        assert values == [23 * v for v in [20160, 0, 0, 0, 960, 960, 960]]


# AGL(1,8) is sharply 2-transitive (no level-2 stabilizer); the base of
# M11 starts 0, 2
@pytest.mark.parametrize("key", ["M11", "PSL(2,19)", "2^4:A7", "AGL(1,8)"])
def test_quadruple_orbit_gram_matches_every_derangement_class(groups, key):
    eg = groups(key)
    classes = [c for c in range(eg.n_classes) if eg.class_fix[c] == 0]
    assert classes
    for c in classes:
        _check_orbit_gram(eg.group, eg.class_rep(c), eg.E[eg.class_of == c])


# M11's two-point stabilizer is transitive on each pair class, M11@12's
# is not on the disjoint pairs
@pytest.mark.parametrize(
    "key, order, tamper, expected",
    [("M11", 11, "swapped", False), ("M11@12", 8, "disjoint", None)],
    ids=["swapped-equals-diagonal", "one-disjoint-orbit-plus-one"],
)
def test_a_tampered_orbit_value_gives_both_readings_one_verdict(groups, key, order, tamper, expected):
    eg = groups(key)
    n = eg.group.degree
    c = eg.class_orders.index(order)
    orbits = mr.quadruple_orbit_gram(eg.group, eg.class_rep(c))
    assert mr.pairs_algebra_rank(orbits.values, orbits.classes, n)[1]
    values = orbits.values.copy()
    if tamper == "swapped":
        # N = lam (I + S) for the swap S, which kills (0,1) - (1,0)
        values[orbits.classes >= 2] = 0
        values[orbits.classes == 1] = values[orbits.classes == 0]
    else:
        values[np.flatnonzero(orbits.classes == 6)[0]] += 1
    per_orbit = mr.pairs_algebra_rank(values, orbits.classes, n)
    N = expand_orbit_values(eg.group, orbits, values)
    assert mr.pairs_algebra_rank(N, dense_pair_classes(n), n) == per_orbit
    assert (per_orbit if expected is None else per_orbit[1]) is expected
    if expected is not None:
        assert not mr.rank_certificate(N).full


def test_quadruple_orbit_gram_rejects_a_non_derangement(groups):
    eg = groups("M11")
    with pytest.raises(ValueError, match="non-derangement"):
        mr.quadruple_orbit_gram(eg.group, eg.element(0))


def test_quadruple_orbit_gram_rejects_a_wrong_orbit_labelling(groups, monkeypatch):
    # M11's two-point stabilizer has order 72 and one regular suborbit;
    # moving one of its pairs to a suborbit of its own leaves an orbit of
    # 110 * 71 quadruples, which does not divide |G| f_O
    eg = groups("M11")
    real = mr.orbit_labels

    def split(size, maps):
        labels = real(size, maps).copy()
        labels[np.flatnonzero(labels == np.bincount(labels).argmax())[-1]] = size
        return labels

    rep = eg.class_rep(eg.class_orders.index(11))
    mr.quadruple_orbit_gram(eg.group, rep)
    monkeypatch.setattr(mr, "orbit_labels", split)
    with pytest.raises(AssertionError, match="does not divide"):
        mr.quadruple_orbit_gram(eg.group, rep)


def test_quadruple_orbit_gram_rejects_a_degree_below_5():
    # A4's double transpositions are derangements, but degree 4 leaves no
    # point outside a quadruple to carry it onto the Gram's columns
    _, g = get_group("A4")
    z = Permutation((1, 0, 3, 2))
    assert z in g
    with pytest.raises(ValueError, match="degree >= 5"):
        mr.quadruple_orbit_gram(g, z)


def test_quadruple_orbit_gram_rejects_a_group_that_is_not_2_transitive():
    z = Permutation((1, 2, 3, 4, 0))
    dihedral = PermutationGroup([z, Permutation((0, 4, 3, 2, 1))])
    assert dihedral.transitivity_degree() == 1
    with pytest.raises(ValueError, match="2-transitive"):
        mr.quadruple_orbit_gram(dihedral, z)


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
