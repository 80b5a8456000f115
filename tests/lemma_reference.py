"""The standard-module lemmas of the module method, checked at small scale.

For a 2-transitive group of degree n the indicator vectors v_{i,j} of the
canonical sets {g : g(i) = j} are the columns of the incidence matrix H
(all n^2 pairs (i,j)).  The reduced H-bar keeps the n diagonal columns
(i,i) followed by the off-diagonal pairs over the first n-1 points, with
rows ordered identity, derangements, then the remaining elements.  Its
blocks are M (derangement rows, off-diagonal columns: the matrix whose
rank `modrank.rank_certificate` decides) and B (non-identity rows with
fixed points, diagonal columns).

The lemmas: rank H = rank H-bar = (n-1)^2 + 1; v_{i,j} - (1/n) 1 lies in
the standard module; B contains the n x n identity; and the Gram matrix of
the v_{i,j} over the first n-1 points is positive definite.  Every check
works on dense matrices of the whole group, so it suits small groups only.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ekrcheck.group import EnumeratedGroup, PermutationGroup
from ekrcheck.modmath import is_prime, rank_mod
from ekrcheck.modrank import _RANK_PRIME, offdiag_pairs
from ekrcheck.perm import Permutation

# the lower bounds here take the larger rank at two primes: the library's
# rank prime and the next prime above it
P1 = _RANK_PRIME
P2 = next(p for p in range(P1 + 1, 2 * P1) if is_prime(p))


def build_H(eg: EnumeratedGroup) -> np.ndarray:
    """Full incidence matrix: all n^2 columns (i,j) in lexicographic order,
    rows in enumeration order."""
    o, n = eg.E.shape
    H = np.zeros((o, n * n), dtype=np.int8)
    H[np.arange(o)[:, None], np.arange(n) * n + eg.E] = 1
    return H


@dataclass
class ModuleMatrices:
    """H-bar with the canonical row and column order, plus its blocks."""

    n: int
    der_count: int
    row_order: np.ndarray
    Hbar: np.ndarray

    @property
    def M(self) -> np.ndarray:
        return self.Hbar[1 : 1 + self.der_count, self.n :]

    @property
    def B(self) -> np.ndarray:
        return self.Hbar[1 + self.der_count :, : self.n]


def build_M(eg: EnumeratedGroup) -> ModuleMatrices:
    """H-bar as a row and column selection of H."""
    n = eg.group.degree
    fix = eg.fix_counts_all
    der = np.nonzero(fix == 0)[0]
    rest = np.nonzero(fix[1:] > 0)[0] + 1
    row_order = np.concatenate(([0], der, rest))
    cols = [i * (n + 1) for i in range(n)] + [i * n + j for i, j in offdiag_pairs(n)]
    mm = ModuleMatrices(n, len(der), row_order, build_H(eg)[row_order][:, cols])
    # block display: identity row is all-ones on the diagonal columns and
    # zero elsewhere; derangement rows are zero on every diagonal column
    assert (mm.Hbar[0, :n] == 1).all() and (mm.Hbar[0, n:] == 0).all()
    assert not mm.Hbar[1 : 1 + len(der), :n].any()
    assert (mm.M.sum(axis=1) == n - 2).all()
    return mm


def _fix_product_matrix(eg: EnumeratedGroup) -> np.ndarray:
    """F[r, s] = number of fixed points of element_r * element_s^{-1}."""
    o, n = eg.E.shape
    F = np.empty((o, o), dtype=np.int64)
    pts = np.arange(n, dtype=eg.E.dtype)
    for s in range(o):
        inv_row = np.argsort(eg.E[s])
        F[:, s] = (eg.E[:, inv_row] == pts).sum(axis=1)
    return F


def std_apply(eg: EnumeratedGroup, vec: np.ndarray) -> list[Fraction]:
    """Image of an integer vector under the projection onto the module of
    the standard character (degree n-1, values fix-1)."""
    n = eg.group.degree
    W = _fix_product_matrix(eg) - 1
    img = W @ np.asarray(vec, dtype=np.int64)
    return [Fraction(int(x) * (n - 1), eg.E.shape[0]) for x in img]


def rank_H_exact(eg: EnumeratedGroup) -> int:
    """Exact rational rank of H, certified on both sides: a modular rank
    lower bound and 2n-2 explicit kernel vectors for the upper bound."""
    n = eg.group.degree
    H = build_H(eg)
    lower = max(rank_mod(H.astype(np.int64) % p, p) for p in (P1, P2))

    # kernel vectors: all row-sum columns (i,*) share the all-ones image,
    # and so do all column-sum families (*,j)
    K = np.zeros((2 * n - 2, n * n), dtype=np.int64)
    for i in range(1, n):
        K[i - 1, i * n : (i + 1) * n] = 1
        K[i - 1, 0:n] = -1
    for j in range(1, n):
        K[n - 2 + j, j::n] = 1
        K[n - 2 + j, 0::n] = -1
    assert not (H.astype(np.int64) @ K.T).any()
    assert rank_mod(K % P1, P1) == 2 * n - 2
    upper = n * n - (2 * n - 2)
    if lower != upper:
        raise ArithmeticError(f"rank of H not pinched: {lower} < {upper}")
    return lower


def rank_Hbar(eg: EnumeratedGroup) -> int:
    mm = build_M(eg)
    r = max(rank_mod(mm.Hbar.astype(np.int64) % p, p) for p in (P1, P2))
    cols = mm.Hbar.shape[1]
    if r != cols:
        raise ArithmeticError(f"H-bar rank {r} below column count {cols}")
    return r


def standard_projection_check(eg: EnumeratedGroup, i: int, j: int) -> bool:
    """Verify that v_{i,j} - (1/n)*1 is fixed by the standard-module
    projection, and that rank(H) = rank(H-bar) = (n-1)^2 + 1."""
    o, n = eg.E.shape
    v = (eg.E[:, i] == j).astype(np.int64)
    X = n * v - 1
    W = _fix_product_matrix(eg) - 1
    # E_std x = x cleared of denominators: (n-1) W X = |G| X
    assert np.array_equal((n - 1) * (W @ X), o * X)
    target = (n - 1) ** 2 + 1
    assert rank_H_exact(eg) == target
    assert rank_Hbar(eg) == target
    return True


def unique_fixed_point_element(group: PermutationGroup, x: int) -> Permutation:
    """An element whose only fixed point is x, found by scanning the point
    stabilizer.  2-transitivity guarantees one exists."""
    stab = group.point_stabilizer(x)
    for p in stab.elements():
        fixed = [y for y in range(group.degree) if p.images[y] == y]
        if fixed == [x]:
            return p
    raise ValueError(f"no element fixes only point {x}; group is not 2-transitive")


def b_identity_submatrix(eg: EnumeratedGroup) -> np.ndarray:
    """Rows of the B block, one per point, forming the n x n identity on
    the diagonal columns."""
    n = eg.group.degree
    sel = np.zeros((n, n), dtype=np.int8)
    for x in range(n):
        u = unique_fixed_point_element(eg.group, x)
        row = np.fromiter(u.images, dtype=np.int8, count=n)
        assert 0 < (row == np.arange(n)).sum() < n
        sel[x] = row == np.arange(n)
    assert np.array_equal(sel, np.eye(n, dtype=np.int8))
    return sel


def gram_L(eg: EnumeratedGroup) -> np.ndarray:
    """Exact Gram matrix of all (n-1)^2 vectors v_{i,j} over the first n-1
    points, verified to equal (|G|/n) I + |G|/(n(n-1)) (A(K) (x) A(K)).

    The Kronecker factor has least eigenvalue -(n-2), so the Gram matrix
    is positive definite and the v_{i,j} are linearly independent."""
    o, n = eg.E.shape
    m = n - 1
    masks = np.empty((m * m, o), dtype=np.float64)
    for i in range(m):
        for j in range(m):
            masks[i * m + j] = eg.E[:, i] == j
    G = np.rint(masks @ masks.T).astype(np.int64)
    assert o % (n * (n - 1)) == 0
    AK = np.ones((m, m), dtype=np.int64) - np.eye(m, dtype=np.int64)
    expected = (o // n) * np.eye(m * m, dtype=np.int64) + (
        o // (n * (n - 1))
    ) * np.kron(AK, AK)
    if not np.array_equal(G, expected):
        raise ArithmeticError("Gram matrix of the v_{i,j} has unexpected structure")
    return G
