"""Forward elimination mod p, finished to the RREF and read off as a kernel
basis, against the Gauss-Jordan oracle in `modmath_reference`, and the
one-elimination rank certificate with its batched kernel lift against the
two-elimination one with a per-vector lift, on random matrices and on
survey Gram matrices."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ekrcheck import modrank as mr
from ekrcheck.group import EnumeratedGroup
from ekrcheck.library import get_group
from ekrcheck.modmath import echelon_mod, finish_rref, kernel_from_rref, rank_mod

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


def test_echelon_does_not_modify_its_input():
    A = np.array([[0, 2, 4], [3, 1, 0], [3, 3, 4]], dtype=np.int64)
    before = A.copy()
    echelon_mod(A, 7)
    assert np.array_equal(A, before)


@pytest.mark.parametrize("key", SURVEY)
def test_rank_certificate_matches_reference_on_grams(key):
    # 24 of the survey Grams are deficient; the kernels of PSL(2,11)@11,
    # A7@15, A8@15, AGammaL(1,16), ASL(2,4) and ASigmaL(1,16) need the
    # multipliers 2 to 4 that the batched lift tries after 1
    _, g = get_group(key)
    eg = EnumeratedGroup(g)
    eg.compute_classes()
    N = mr.gram_M(eg)
    assert mr.rank_certificate(N) == ref.rank_certificate(N)


def test_rank_certificate_matches_reference_on_fallback():
    # the kernel vector (1, 299998, -199999) has no small residue multiple
    # at the rank prime, so both certificates fall back to exact elimination
    B = np.array([[1, 2, 3], [100003, 7, 11]], dtype=np.int64)
    N = B.T @ B
    cert = mr.rank_certificate(N)
    assert cert == ref.rank_certificate(N)
    assert cert.mode == "exact elimination" and cert.claimed_rank == 2
    assert cert.reverify(N)


def test_unlucky_prime_falls_back_to_exact_elimination():
    # diag(1, p^2) has rank 1 at the rank prime p but a zero kernel over Q,
    # so no kernel vector lifts and rational elimination proves full rank
    N = np.diag([1, P1 * P1]).astype(np.int64)
    cert = mr.rank_certificate(N)
    assert cert == ref.rank_certificate(N)
    assert cert.full and cert.mode == "exact elimination" and cert.claimed_rank == 2
    assert cert.primes == (P1,) and cert.kernel == ()
    assert cert.reverify(N)
    # the same claim made at the prime alone does not re-verify
    assert not dataclasses.replace(cert, mode=f"full-rank via prime {P1}").reverify(N)


def test_reverify_rejects_dependent_kernel_vectors():
    # diag(0, 1, p^2) has rank 2 but rank 1 at p; a kernel that repeats e_0
    # would pinch the rank at 1 unless its vectors are checked independent
    N = np.diag([0, 1, P1 * P1]).astype(np.int64)
    cert = mr.rank_certificate(N)
    assert cert.mode == "exact elimination" and cert.claimed_rank == 2
    assert cert.reverify(N)
    e0 = (Fraction(1), Fraction(0), Fraction(0))
    forged = mr.RankCertificate(3, 1, False, "deficient via exact kernel", (P1,), (e0, e0))
    assert not forged.reverify(N)
