"""Forward elimination mod p, finished to the RREF and read off as a kernel
basis, against the Gauss-Jordan oracle in `modmath_reference`, and the
rank certificate, eliminated in two halves under the flip (i,j) <-> (j,i)
with a batched kernel lift, against the two-elimination one of the whole
matrix with a per-vector lift, on random matrices, on planted
pair-indexed Grams and on the column Grams of every catalog group of
degree <= 21."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ekrcheck import modrank as mr
from ekrcheck import pipeline as pl
from ekrcheck.group import EnumeratedGroup
from ekrcheck.library import catalog_keys, get_group, load_catalog
from ekrcheck.modmath import echelon_mod, finish_rref, is_prime, kernel_from_rref, prime_one_mod, rank_mod

import modmath_reference as ref
from survey import SURVEY

P1 = mr._RANK_PRIME


@st.composite
def planted(draw):
    """A matrix mod p of up to 40 x 40 whose rows and columns include
    planted combinations of others, and sometimes a zero column.  Besides
    the rank prime and 101, p = 2 and p = 2^31 - 1 bound how many steps the
    forward pass may leave unreduced."""
    p = draw(st.sampled_from([P1, 101, 2, 2**31 - 1]))
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    coef = lambda: int(rng.integers(0, p))  # noqa: E731
    for _ in range(draw(st.integers(0, rows - 1))):
        i, j, t = rng.integers(0, rows, size=3)
        A[i] = (coef() * A[j] % p + coef() * A[t] % p) % p
    for _ in range(draw(st.integers(0, cols - 1))):
        i, j, t = rng.integers(0, cols, size=3)
        A[:, i] = (coef() * A[:, j] % p + coef() * A[:, t] % p) % p
    if draw(st.booleans()):
        A[:, rng.integers(0, cols)] = 0
    return A, p


@settings(max_examples=200, deadline=None)
@given(planted())
def test_elimination_matches_gauss_jordan(case):
    A, p = case
    R_ref, piv_ref = ref.rref_mod(A, p)
    assert rank_mod(A, p) == len(piv_ref)
    E, piv = echelon_mod(A, p)
    assert piv == piv_ref
    # forward elimination leaves zero rows past the rank and leading ones
    assert not E[len(piv_ref) :].any()
    assert all(E[r, c] == 1 and not E[r, :c].any() for r, c in enumerate(piv))
    R = finish_rref(E, piv, p)
    assert np.array_equal(R, R_ref)
    assert np.array_equal(kernel_from_rref(R, piv, p), ref.nullspace_mod(A, p))


@pytest.mark.parametrize("e, lower", [(2, 12), (2, 13), (6, 6), (6, 7), (4, 1), (1, 10)])
def test_prime_one_mod_is_the_smallest(e, lower):
    # lower + 1 is a candidate too, also when e divides lower (2*6+1 = 13,
    # 6+1 = 7): the first prime of the progression past lower, by a scan
    p = prime_one_mod(e, lower)
    assert p == next(q for q in range(lower + 1, 10 * lower + 100) if q % e == 1 % e and is_prime(q))


def test_echelon_does_not_modify_its_input():
    A = np.array([[0, 2, 4], [3, 1, 0], [3, 3, 4]], dtype=np.int64)
    before = A.copy()
    echelon_mod(A, 7)
    assert np.array_equal(A, before)


# the survey groups and the catalog groups of degree <= 21 left out of it:
# M12, M21, AGL(4,2), PGL(2,q) for q = 13, 17, 19 and PSL(2,q) for q = 13, 17
DEGREE_21 = SURVEY + [k for k in catalog_keys() if load_catalog()[k].degree <= 21 and k not in SURVEY]


def _column_gram(key):
    eg = EnumeratedGroup(get_group(key)[1])
    return eg, mr.gram_M(eg)


@pytest.mark.parametrize("key", DEGREE_21)
def test_rank_certificate_matches_reference_on_grams(key):
    # the column Gram of every group, also of the 14 with fewer
    # derangements than columns, which classify settles with no Gram; the
    # kernels of PSL(2,11)@11, A7@15, A8@15 and AGammaL(1,16) need a
    # multiplier past 1; M21 has rank 360 of 380.  The halves give the
    # rank, mode and kernel space of eliminating N whole
    _, N = _column_gram(key)
    cert = mr.rank_certificate(N)
    assert ref.same_certificate(cert, ref.rank_certificate(N), N)
    assert cert.kernel.dtype == np.int64 and cert.columns == len(N)


def _few_derangement_candidates() -> list[str]:
    """Catalog groups of degree <= 21 that may have fewer derangements d
    than M has columns c = (n-1)(n-2).  A transitive group of degree n has
    at least |G|/n derangements (Cameron and Cohen), so d < c needs
    |G| < n c."""
    specs = [load_catalog()[k] for k in catalog_keys()]
    return [
        s.name for s in specs
        if s.degree <= 21 and s.expected_order < s.degree * (s.degree - 1) * (s.degree - 2)
    ]


@pytest.mark.parametrize("key", _few_derangement_candidates())
def test_row_gram_certificate_matches_the_column_gram(key):
    # 14 of these groups have d < c: A4, F20, AGL(1,q) for q = 7, 8, 9,
    # 11, 13, 16, 17, 19, 3^2:Q8, AGammaL(1,9), ASL(2,4) and ASigmaL(1,16).
    # Their rank record holds the row count alone, and the certificate of
    # the column Gram, which classify does not build, agrees: rank <= d
    rep = pl.classify(key)
    (record,) = [c for c in rep.certificates if c["kind"] == "rank"]
    eg, N = _column_gram(key)
    cert = mr.rank_certificate(N)
    assert cert.reverify(N)
    assert (record["rows"], record["columns"]) == (int((eg.fix_counts_all == 0).sum()), len(N))
    if record["rows"] >= record["columns"]:
        assert (record["claimed_rank"], record["mode"]) == (cert.claimed_rank, cert.mode)
        return
    assert set(record) == {"kind", "columns", "rows", "mode"}
    assert record["mode"] == "deficient: fewer rows than columns" and rep.rank_full == "no"
    assert not cert.full and cert.claimed_rank <= record["rows"]


def _pair_gram(B, m):
    """S + S[pi][:, pi] for the Gram S = B^T B of integer rows B over the
    m(m-1) pairs of m points, pi the flip (i,j) <-> (j,i)."""
    flip = mr._pair_flip(m * (m - 1))
    S = np.asarray(B, dtype=np.int64).T @ np.asarray(B, dtype=np.int64)
    return S + S[flip][:, flip]


def test_rank_certificate_matches_reference_on_fallback():
    # the half N+ is 4 C^T C for C = [[1, 2, 3], [100003, 7, 11]], whose
    # kernel vector -(1, 299998, -199999) has no small residue multiple at
    # the rank prime; N's own RREF kernel has none either, so both
    # certificates fall back to exact elimination
    C = np.array([[1, 2, 3], [100003, 7, 11]], dtype=np.int64)
    B = np.zeros((2, 6), dtype=np.int64)
    # pairs (0,1), (0,2), (1,2) and their flips (1,0), (2,0), (2,1)
    B[:, [0, 1, 3]] = B[:, [2, 4, 5]] = C
    N = _pair_gram(B, 3)
    cert = mr.rank_certificate(N)
    assert ref.same_certificate(cert, ref.rank_certificate(N), N)
    assert cert.mode == "exact elimination" and cert.claimed_rank == 2


def test_unlucky_prime_falls_back_to_exact_elimination():
    # [[a, b], [b, a]] with a + b = p^2 and a - b = 1 has determinant p^2:
    # the half N+ = p^2 vanishes at the rank prime p, but N has a zero
    # kernel over Q, so no kernel vector lifts and rational elimination
    # proves full rank
    a = (P1 * P1 + 1) // 2
    N = np.array([[a, a - 1], [a - 1, a]], dtype=np.int64)
    cert = mr.rank_certificate(N)
    assert ref.same_certificate(cert, ref.rank_certificate(N), N)
    assert cert.full and cert.mode == "exact elimination" and cert.claimed_rank == 2
    assert cert.primes == (P1,) and cert.kernel.shape == (0, 2)
    # the same claim made at the prime alone does not re-verify
    assert not dataclasses.replace(cert, mode=f"full-rank via prime {P1}").reverify(N)


def test_reverify_rejects_dependent_kernel_vectors():
    # the pair-indexed diag(0, 1, 0, p^2, 1, p^2) has rank 4 but rank 2 at
    # p; a kernel that repeats e_0 and e_2 would pinch the rank at 2
    # unless its vectors are checked independent
    N = np.diag([0, 1, 0, P1 * P1, 1, P1 * P1]).astype(np.int64)
    cert = mr.rank_certificate(N)
    assert cert.mode == "exact elimination" and cert.claimed_rank == 4
    assert cert.reverify(N)
    e0, e2 = np.eye(6, dtype=np.int64)[[0, 2]]
    forged = mr.RankCertificate(2, "deficient via exact kernel", (P1,), np.array([e0, e0, e2, e2]))
    assert not forged.reverify(N)


def _int64_tampers(cert):
    """Copies of a certificate whose int64 kernel has one vector zeroed,
    one entry altered, or one vector replaced by a copy of another."""
    zeroed, altered, repeated = (cert.kernel.copy() for _ in range(3))
    zeroed[0] = 0
    altered[0, np.flatnonzero(altered[0])[0]] += 1
    repeated[-1] = repeated[0]
    return [dataclasses.replace(cert, kernel=W) for W in (zeroed, altered, repeated)]


@pytest.mark.parametrize("key", ["F20", "PGL(3,2)", "AGammaL(1,9)", "A8@15"])
def test_reverify_rejects_tampered_int64_kernels(key):
    _, N = _column_gram(key)
    cert = mr.rank_certificate(N)
    assert len(cert.kernel) and cert.kernel.dtype == np.int64 and cert.reverify(N)
    for forged in _int64_tampers(cert):
        assert not forged.reverify(N)
    # an object-dtype or Fraction kernel is not a certificate
    assert not dataclasses.replace(cert, kernel=cert.kernel.astype(object)).reverify(N)


@st.composite
def pair_grams(draw):
    """A pair-indexed Gram N = S + S[pi][:, pi] over the m(m-1) pairs of
    m <= 5 points, empty for m = 1, for the Gram S of a few small integer rows,
    some of them combinations of others, so the rank falls short of the
    size and the kernel is planted."""
    m = draw(st.integers(1, 5))
    size = m * (m - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.integers(-3, 4, size=(draw(st.integers(0, size)), size), dtype=np.int64)
    for _ in range(draw(st.integers(0, len(B)))):
        i, j, t = rng.integers(0, len(B), size=3)
        B[i] = rng.integers(-2, 3) * B[j] + rng.integers(-2, 3) * B[t]
    return _pair_gram(B, m)


@settings(max_examples=150, deadline=None)
@given(pair_grams())
def test_rank_certificate_halves_match_reference_on_planted_flips(N):
    cert, expected = mr.rank_certificate(N), ref.rank_certificate(N)
    if cert.mode != expected.mode:
        # a kernel vector may need a multiplier past 64 in one basis and
        # not in the other, so the two routes may trade these two modes;
        # rank, kernel space and re-verification still agree
        assert {cert.mode, expected.mode} == {"deficient via exact kernel", "exact elimination"}
        expected = dataclasses.replace(expected, mode=cert.mode)
    assert ref.same_certificate(cert, expected, N)


def test_rank_certificate_rejects_a_flip_that_is_not_an_involution_fixing_n():
    # the flip (i,j) <-> (j,i) is computed from N's size: it must fix N,
    # and the size must be m(m-1) for some m
    N = np.array([[2, 1], [1, 2]], dtype=np.int64)
    assert mr.rank_certificate(N).full
    with pytest.raises(ValueError, match="does not fix"):
        mr.rank_certificate(np.array([[2, 1], [1, 3]], dtype=np.int64))
    with pytest.raises(ValueError, match="pair indices"):
        mr.rank_certificate(np.eye(3, dtype=np.int64))
    with pytest.raises(ValueError, match="not square"):
        mr.rank_certificate(np.eye(6, dtype=np.int64)[:2])


@pytest.mark.parametrize("key", ["AGL(1,7)", "F20", "AGammaL(1,9)", "PGL(2,5)", "M11"])
def test_gram_flip_maps_each_index_to_its_inverse(key):
    # the column Gram of every group: the first three have fewer
    # derangements than columns, which classify settles with no Gram
    eg, N = _column_gram(key)
    flip = mr._pair_flip(len(N))
    assert sorted(flip.tolist()) == list(range(len(N))) and np.array_equal(flip[flip], np.arange(len(N)))
    pairs = mr.offdiag_pairs(eg.group.degree)
    assert [pairs[a] for a in flip] == [(j, i) for i, j in pairs]
    assert [a < flip[a] for a in range(len(N))] == [i < j for i, j in pairs]
    assert np.array_equal(N[flip][:, flip], N)


def test_reverify_accepts_the_empty_gram_of_degree_two():
    # a degree-2 group has no column pairs, so M and its Gram are empty
    N = np.zeros((0, 0), dtype=np.int64)
    cert = mr.rank_certificate(N)
    assert cert.full and cert.claimed_rank == 0 and cert.kernel.shape == (0, 0)
    assert cert.reverify(N)
    assert ref.same_certificate(cert, ref.rank_certificate(N), N)
