"""Modular linear algebra shared by the character-table and rank modules.

Everything works on int64 numpy matrices with a prime modulus small enough
that a*b never overflows (p < 2^31), which covers the 29-bit rank
certification prime and the split primes of `cyclo`.

A rank needs only forward elimination (`echelon_mod`), which touches the
rows below each pivot and the columns from the pivot on.  The reduced row
echelon form, and with it a kernel basis, is needed only where a kernel is
wanted: `finish_rref` clears the entries above each pivot of a forward
echelon form, so a caller that already holds one pays no second pass.
"""

from __future__ import annotations

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_one_mod(e: int, lower: int) -> int:
    """Smallest prime p with p ≡ 1 (mod e) and p > lower."""
    m = max(1, lower // e)
    while True:
        p = m * e + 1
        if p > lower and is_prime(p):
            return p
        m += 1


def element_of_order(p: int, e: int, prime_divisors: list[int]) -> int:
    """Element of exact multiplicative order e in F_p (requires e | p-1)."""
    if (p - 1) % e:
        raise ValueError(f"{e} does not divide {p} - 1")
    q = (p - 1) // e
    for x in range(2, p):
        z = pow(x, q, p)
        if z != 1 and all(pow(z, e // r, p) != 1 for r in prime_divisors):
            return z
    raise AssertionError("no element of the requested order")


def echelon_mod(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form mod p by forward elimination; returns (R, pivots).

    Each pivot row is scaled to a leading 1 and cleared below; nothing
    above a pivot is touched, so R is the RREF only once `finish_rref` has
    run.  The rows past len(pivots) are zero, and every entry of R is
    reduced to [0, p).

    The trailing block is reduced mod p only every `slack` steps: a step
    subtracts less than p^2 from an entry, so `slack` unreduced steps stay
    inside int64.  The column about to give a pivot, and the pivot row,
    are reduced before they are used."""
    R = np.array(A, dtype=np.int64) % p
    rows, cols = R.shape
    slack = (2**63 - 1 - p) // (p - 1) ** 2
    pending = 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = R[r:, c]
        col %= p
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            # row r is zero in column c, so it lands among the cleared rows
            R[[r, i], c:] = R[[i, r], c:]
        piv = R[r, c:]
        piv %= p
        piv *= pow(int(piv[0]), -1, p)
        piv %= p
        if nz.size > 1:
            if pending == slack:
                R[r + 1 :, c + 1 :] %= p
                pending = 0
            # rows that are zero in column c lose 0 times the pivot row
            below = R[r + 1 :, c:]
            below -= below[:, :1] * piv
            pending += 1
        pivots.append(c)
        r += 1
    return R, pivots


def finish_rref(R: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Turn a forward echelon form from `echelon_mod` into the reduced row
    echelon form in place, and return it.

    The pivot columns become the identity.  The free columns F of the pivot
    rows become U^-1 F for the unit upper triangle U of the pivot columns,
    by back substitution from the last pivot row: clearing column
    pivots[i] above row i leaves the earlier pivot columns unchanged."""
    rank = len(pivots)
    free = np.delete(np.arange(R.shape[1]), pivots)
    if free.size:
        U = R[:rank, pivots]
        F = R[:rank, free]
        for i in range(rank - 1, 0, -1):
            F[:i] = (F[:i] - np.outer(U[:i, i], F[i])) % p
        R[:rank, free] = F
    R[:rank, pivots] = np.eye(rank, dtype=np.int64)
    return R


def rank_mod(A: np.ndarray, p: int) -> int:
    return len(echelon_mod(A, p)[1])


def kernel_from_rref(R: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Basis of the right kernel mod p from a reduced row echelon form, one
    vector per free column, with a 1 in that column."""
    cols = R.shape[1]
    free = np.delete(np.arange(cols), pivots)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[: len(pivots)][:, free].T) % p
    return basis
