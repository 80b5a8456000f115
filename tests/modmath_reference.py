"""Gauss-Jordan elimination mod p and the two-pass rank certificate built
on it: the oracles for `modmath`'s forward elimination and for
`modrank.rank_certificate`, which eliminates the two halves of a
pair-indexed Gram N under the flip (i,j) <-> (j,i) and maps their
kernels back.

`rref_mod` clears above and below each pivot in one sweep; `rank_certificate`
eliminates afresh for the rank at the rank prime and again for the kernel,
and lifts one kernel vector at a time.
"""

import numpy as np

from ekrcheck.modrank import _KERNEL_MULTIPLIERS, _RANK_PRIME, RankCertificate, _fraction_kernel


def rref_mod(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (R, pivot_columns)."""
    R = np.array(A, dtype=np.int64) % p
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, p) % p
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        if others.size:
            R[others] = (R[others] - np.outer(R[others, c], R[r])) % p
        pivots.append(c)
        r += 1
    return R, pivots


def rank_mod(A: np.ndarray, p: int) -> int:
    return len(rref_mod(A, p)[1])


def nullspace_mod(A: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel mod p, one vector per row."""
    R, pivots = rref_mod(A, p)
    cols = R.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for bi, fc in enumerate(free):
        basis[bi, fc] = 1
        for r, pc in enumerate(pivots):
            basis[bi, pc] = (-int(R[r, fc])) % p
    return basis


def _verify_integer_kernel(N: np.ndarray, w: np.ndarray) -> bool:
    bound = N.shape[0] * int(np.abs(N).max()) * int(np.abs(w).max(initial=1))
    if bound < 2**62:
        return not (N @ w.astype(np.int64)).any()
    return not (np.asarray(N, dtype=object) @ w.astype(object)).any()


def rank_certificate(N: np.ndarray) -> RankCertificate:
    """The rank certificate as two separate eliminations of the whole
    Gram N at one prime produce it: the rank, then N's RREF kernel basis,
    lifted one vector at a time."""
    N = np.asarray(N, dtype=np.int64)
    size = N.shape[1]
    p = _RANK_PRIME
    rank = rank_mod(N % p, p)
    mode = f"full-rank via prime {p}" if rank == size else "deficient via exact kernel"

    basis = nullspace_mod(N % p, p)
    verified = []
    for b in basis:
        b = np.asarray(b, dtype=np.int64) % p
        for k in range(1, _KERNEL_MULTIPLIERS + 1):
            w = (b * k) % p
            w = np.where(w > p // 2, w - p, w)
            if _verify_integer_kernel(N, w):
                verified.append(w)
                break
        else:
            break
    if len(verified) == len(basis):
        kernel = np.array(verified, dtype=np.int64).reshape(len(verified), size)
        return RankCertificate(rank, mode, (p,), kernel)

    rank, kernel = _fraction_kernel(N)
    return RankCertificate(rank, "exact elimination", (p,), kernel)


def same_certificate(a: RankCertificate, b: RankCertificate, N: np.ndarray) -> bool:
    """Whether two certificates of the Gram N agree: equal rank, `full`,
    mode and primes, both re-verify on N, and their kernels span one
    space mod p.  The kernel arrays themselves may differ, since the
    kernel of N's two halves is not the basis of N's RREF."""
    fields = ("claimed_rank", "full", "mode", "primes")
    if not all(getattr(a, f) == getattr(b, f) for f in fields):
        return False
    if not (a.reverify(N) and b.reverify(N)):
        return False
    p = a.primes[0]
    both = np.concatenate([a.kernel, b.kernel]) % p
    return rank_mod(both, p) == len(a.kernel) == len(b.kernel)
