"""Exact rank certification of the derangement block M.

For a 2-transitive group of degree n, M has one row per derangement and
one column per off-diagonal pair (i,j), i != j, over the first n-1 points;
entry 1 records that the derangement maps i to j.  M is the derangement
block of the module method's coset-incidence matrix; the standard-module
lemmas about that matrix are checked in the tests.  The question that
decides strictness is whether M has full column rank c = (n-1)(n-2) over
the rationals.

When M has fewer rows d than columns, its rank is at most d < c, so the
shape alone answers the question and no Gram is built.  Otherwise rank
is certified at one prime on the column Gram N = M^T M, which has the
rank of M over Q, since w^T M^T M w = |Mw|^2 gives ker M^T M = ker M.  A
rank r mod p proves rank >= r, and exact integer kernel vectors of N
prove rank <= r.  N is counted exactly in int64, one point pair at a
time.

Inversion maps the derangements onto themselves, and x maps i to j and
k to l exactly when x^-1 maps j to i and l to k, so the involution
pi: (i,j) <-> (j,i) of the column pairs fixes N; it has no fixed points.
The basis e_a + e_pi(a), e_a - e_pi(a), over the pairs a = (i,j) with
i < j, splits N into two halves N+ and N-, whose ranks add up to N's at
every odd prime and whose kernels, mapped back, span N's;
`rank_certificate` eliminates the halves, a quarter of the arithmetic of
eliminating N.

The Gram of the conjugates g z g^-1 of one derangement z, over g in G,
is |C_G(z)| times the Gram of z's class and has its rank, so no class
size is needed.  It is counted from z by orbit counting, one value per
G-orbit of quadruples, and never laid out as a c x c matrix.  Its
invertibility is read in the pairs algebra: the seven classes of vertex
pairs are the orbitals of S_{n-1} on the column pairs, their 0/1
matrices span an algebra that holds I, and a Gram constant on each
class lies in it and is invertible exactly when its 7x7 matrix of
multiplication is, counted from a few class vectors of c entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .group import EnumeratedGroup, PermutationGroup, orbit_labels
from .modmath import echelon_mod, finish_rref, is_prime, kernel_from_rref, rank_mod
from .perm import Permutation

_KERNEL_MULTIPLIERS = 64


def offdiag_pairs(n: int) -> list[tuple[int, int]]:
    """Column order of M: pairs (i,j), i != j, over the first n-1 points,
    lexicographic."""
    m = n - 1
    return [(i, j) for i in range(m) for j in range(m) if i != j]


def _derangement_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The image rows as an array, after checking that each is a
    derangement with n-2 ones in M: exactly one of the first n-1 points
    lands on the last point, whose column is cut."""
    rows = np.asarray(rows)
    if (rows == np.arange(n, dtype=rows.dtype)).any():
        raise ValueError("non-derangement row passed to a Gram of M")
    if not ((rows[:, : n - 1] == n - 1).sum(axis=1) == 1).all():
        raise ValueError("a row does not send exactly one point to the last point")
    return rows


def gram_offdiag(rows: np.ndarray, n: int) -> np.ndarray:
    """Exact N = M^T M for the derangement rows, counted by point pairs.

    N[(i,j),(k,l)] = #{x : x(i) = j, x(k) = l}: for i < k one bincount of
    x(i)*n + x(k) fills block (i,k) and its transpose, and a diagonal
    block (i,i) is diagonal with the counts of x(i) = j."""
    rows = _derangement_rows(rows, n)
    m = n - 1
    X = np.ascontiguousarray(rows[:, :m].T, dtype=np.int16)
    Xn = X * np.int16(n)
    # keep[i]: the images j != i among the first n-1 points, in column order
    keep = [np.array([j for j in range(m) if j != i], dtype=np.intp) for i in range(m)]
    N = np.zeros((m * (m - 1), m * (m - 1)), dtype=np.int64)
    for i in range(m):
        bi = slice(i * (m - 1), (i + 1) * (m - 1))
        N[bi, bi] = np.diag(np.bincount(X[i], minlength=n)[keep[i]])
        for k in range(i + 1, m):
            bk = slice(k * (m - 1), (k + 1) * (m - 1))
            C = np.bincount(Xn[i] + X[k], minlength=n * n).reshape(n, n)
            N[bi, bk] = C[keep[i][:, None], keep[k]]
            N[bk, bi] = N[bi, bk].T
    return N


@dataclass(frozen=True, eq=False)
class QuadrupleOrbits:
    """The Gram N of `gram_offdiag` for the conjugates of one derangement,
    one entry per G-orbit of its column quadruples.

    Orbit O holds the quadruple (b0, b1, c, d), c != d, where (b0, b1) is
    the group's base pair and `pairs` holds the least (c, d) of O;
    `values` is N_O and `classes` the `_PAIR_CLASS` of the vertex pair
    ((b0, b1), (c, d)), which every quadruple of O shares."""

    base: tuple[int, int]
    pairs: np.ndarray
    values: np.ndarray
    classes: np.ndarray


def quadruple_orbit_gram(group: PermutationGroup, z: Permutation) -> QuadrupleOrbits:
    """The N of `gram_offdiag` for the multiset {g z g^-1 : g in G} of
    conjugates of the derangement z, counted from z alone, one value per
    G-orbit of quadruples.  The multiset holds each element of z's class
    |C_G(z)| times, so N is |C_G(z)| times the class Gram and has its
    rank; no class size is needed.

    N[(i,j),(k,l)] = #{g in G : g z g^-1 maps i to j and k to l} is
    constant on each G-orbit O of quadruples, because x maps i to j
    exactly when h x h^-1 maps h(i) to h(j).  Counting the pairs (g, q), q =
    (i, j, k, l) in O with g z g^-1 mapping i to j and k to l, once by q
    and once by g gives N_O |O| = |G| f_O, where
    f_O = #{(i,k) : (i, z i, k, z k) in O}.  Every orbit is checked for
    |O| dividing |G| f_O, a check on the orbit labelling.  The values are
    Python ints, since |G| f_O may leave int64.

    Only quadruples (a, b, c, d) with a != b occur, since z moves every
    point.  The group is 2-transitive, so an element of the stabilizer
    chain carries (a, b) to the base pair (b0, b1), and the quadruple's
    orbit is the orbit of the image (c', d') under the pointwise
    stabilizer G_{b0,b1}, of size n(n-1) times that suborbit's size.
    The suborbits are labelled on the n^2 pairs, never on the n^4
    quadruples.

    The orbits with c != d are exactly those of N's entries: for n >= 5
    a point y outside {a, b, c, d} exists, and an element mapping y to
    n-1 carries the quadruple onto the first n-1 points.  Smaller
    degrees raise ValueError."""
    n = group.degree
    if n < 5:
        raise ValueError(f"quadruple orbits cover the Gram entries only for degree >= 5, not {n}")
    zi = np.array(z.images, dtype=np.intp)
    if (zi == np.arange(n)).any():
        raise ValueError("non-derangement passed to quadruple_orbit_gram")
    carry, stab = group.pair_carriers()
    # pair (c, d) has index c n + d; orbit[c n + d] numbers its suborbit,
    # whose least pair index is least[orbit]
    least, orbit, count = np.unique(
        orbit_labels(n * n, [(g[:, None] * n + g[None, :]).ravel() for g in stab]),
        return_inverse=True, return_counts=True)
    orbit_size = n * (n - 1) * count
    # (i, z i, k, z k) is carried to (b0, b1, hz[i, k], hz[i, z k])
    hz = carry[np.arange(n), zi]
    f = np.bincount(orbit[hz * n + hz[:, zi]].ravel(), minlength=len(count))
    total = group.order() * f.astype(object)
    if (total % orbit_size).any():
        raise AssertionError("a quadruple orbit size does not divide |G| f_O")
    b0, b1 = group.base()[:2]
    c, d = np.divmod(least, n)
    column = c != d
    return QuadrupleOrbits(
        (b0, b1), np.stack([c, d], axis=1)[column], (total // orbit_size)[column],
        _pair_classes(b0, b1, c, d)[column])


def gram_M(eg: EnumeratedGroup) -> np.ndarray:
    """The column Gram M^T M of the full derangement block M; the
    enumeration cap already bounds the rows."""
    return gram_offdiag(eg.E[eg.fix_counts_all == 0], eg.group.degree)


# ---- rank certification ----


@dataclass(frozen=True, eq=False)
class RankCertificate:
    """The rank of M, certified on its column Gram N at a prime.

    `kernel` holds integer vectors that N kills, one int64 row of N's size
    each, so `claimed_rank` is that size, `columns`, less their number,
    and `full` means rank `columns`.  `mode` says how the rank was proven:
    at the prime in `primes`, with the kernel as the upper bound
    ("full-rank via prime p" or "deficient via exact kernel"), or by
    rational elimination ("exact elimination")."""

    claimed_rank: int
    mode: str
    primes: tuple[int, ...]
    kernel: np.ndarray

    @property
    def columns(self) -> int:
        return self.kernel.shape[1]

    @property
    def full(self) -> bool:
        return self.claimed_rank == self.columns

    def reverify(self, N: np.ndarray) -> bool:
        """Re-check the certificate against the Gram matrix, independently
        of the computation that produced it.  The kernel vectors, when
        nonzero, killed by N in exact integer arithmetic and independent
        mod p, bound the rank from above and the rank at p bounds it from
        below; an exact-elimination certificate, whose p may be unlucky,
        is checked by rational elimination instead."""
        N = np.asarray(N, dtype=np.int64)
        W = np.asarray(self.kernel)
        size = N.shape[1]
        shape_ok = N.shape == (size, size) and W.dtype == np.int64 and W.shape == (len(W), size)
        if not shape_ok or self.claimed_rank != size - len(W):
            return False
        if not W.any(axis=1).all() or not _killed(N, W).all():
            return False
        if self.mode == "exact elimination":
            return len(_fraction_rref(N)[1]) == self.claimed_rank
        p = self.primes[0]
        return rank_mod(N % p, p) == self.claimed_rank and rank_mod(W % p, p) == len(W)


_RANK_PRIME = next(p for p in range(2**29, 2**30) if is_prime(p))


def _killed(N: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Whether N w = 0 exactly, for each integer row w of W.  The product
    runs in int64 when the entry bound fits, in Python ints otherwise."""
    bound = N.shape[0] * int(np.abs(N).max(initial=0)) * int(np.abs(W).max(initial=1))
    if bound < 2**62:
        return ~(N @ W.T.astype(np.int64)).any(axis=0)
    return ~(np.asarray(N, dtype=object) @ W.T.astype(object)).any(axis=0)


def _lift_kernel(N: np.ndarray, basis: np.ndarray, p: int) -> np.ndarray | None:
    """Integer kernel vectors of N from a kernel basis mod p, as the int64
    rows of one array, or None.

    Vector i becomes the centred residues of k*basis[i] for the least k in
    1..64 that N kills; each multiplier is tried in one product over the
    vectors that every smaller multiplier failed."""

    def centred(W):
        return np.where(W > p // 2, W - p, W)

    W = np.zeros_like(basis)
    failing = np.arange(len(basis))
    for k in range(1, _KERNEL_MULTIPLIERS + 1):
        if not failing.size:
            break
        Wk = centred(basis[failing] * k % p)
        killed = _killed(N, Wk)
        W[failing[killed]] = Wk[killed]
        failing = failing[~killed]
    return None if failing.size else W


def _fraction_rref(N: np.ndarray) -> tuple[list[list[Fraction]], list[int]]:
    """Plain rational row reduction of an integer matrix: its reduced row
    echelon form and pivot columns.  Quadratic memory, cubic time in the
    column count."""
    rows = [[Fraction(int(x)) for x in row] for row in N]
    pivots: list[int] = []
    r = 0
    for c in range(N.shape[1]):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _fraction_kernel(N: np.ndarray) -> tuple[int, np.ndarray]:
    """The correctness backstop when modular reconstruction fails: the
    rank and a kernel basis by `_fraction_rref`, each vector scaled to
    integers by the lcm of its denominators, as int64 rows; a vector
    whose integers leave int64 raises OverflowError."""
    rows, pivots = _fraction_rref(N)
    cols = N.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    W = np.zeros((len(free), cols), dtype=np.int64)
    for w, f in zip(W, free):
        scale = math.lcm(*(rows[i][f].denominator for i in range(len(pivots))))
        w[f] = scale
        for i, c in enumerate(pivots):
            w[c] = int(-rows[i][f] * scale)
    return len(pivots), W


def _pair_flip(size: int) -> np.ndarray:
    """The index of (j,i) at the index of each pair (i,j) of `offdiag_pairs`
    order, for the m(m-1) = `size` pairs of m points; a size that no m
    gives raises ValueError.  The index of (i,j) is below that of (j,i)
    exactly when i < j."""
    m = (1 + math.isqrt(1 + 4 * size)) // 2
    if m * (m - 1) != size:
        raise ValueError(f"no m has m(m-1) = {size}, so a Gram of size {size} has no pair indices")
    I, J = np.array(offdiag_pairs(m + 1), dtype=np.intp).reshape(-1, 2).T
    return J * (m - 1) + I - (I > J)


def rank_certificate(N: np.ndarray) -> RankCertificate:
    """Certify the rational rank of the column Gram N of M at one prime p.

    N is indexed by the pairs (i,j), i != j, of m points in
    `offdiag_pairs` order, so its size is m(m-1).  The flip
    pi: (i,j) <-> (j,i) must fix N, or ValueError is raised.  With R the
    pairs i < j, the columns e_a + e_pi(a) and e_a - e_pi(a), a in R,
    form a matrix Q = [Q+ Q-] that is invertible over Q and mod every odd
    p, and Q^T N Q = 2 diag(N+, N-) with N+- = N[R,R] +- N[R,pi(R)].  So
    rank N = rank N+ + rank N- at p, which proves rank >= that over Q.
    Each half's RREF kernel basis lifts to integer vectors that the half
    kills exactly; mapped back by Q+ or Q-, they are killed by N (Q^T N
    Q+ w = 0 and Q is invertible), independent, and prove the rank at p
    is the rank.  When a vector does not lift, exact rational elimination
    of N decides."""
    N = np.asarray(N, dtype=np.int64)
    size = N.shape[1]
    if N.shape != (size, size):
        raise ValueError(f"a Gram matrix of shape {N.shape} is not square")
    flip = _pair_flip(size)
    if (N[np.ix_(flip, flip)] != N).any():
        raise ValueError("the flip (i,j) <-> (j,i) does not fix the Gram matrix")
    p = _RANK_PRIME
    R = np.flatnonzero(np.arange(size) < flip)
    halves = []
    for sign in (1, -1):
        H = N[np.ix_(R, R)] + sign * N[np.ix_(R, flip[R])]
        E, pivots = echelon_mod(H, p)
        if len(pivots) < len(R):
            half = _lift_kernel(H, kernel_from_rref(finish_rref(E, pivots, p), pivots, p), p)
            if half is None:
                halves = None
                break
            K = np.zeros((len(half), size), dtype=np.int64)
            K[:, R], K[:, flip[R]] = half, sign * half
            halves.append(K)
    if halves is None:
        _, kernel = _fraction_kernel(N)
        if not _killed(N, kernel).all():
            raise AssertionError("rational elimination gave a vector outside the kernel")
        mode = "exact elimination"
    else:
        kernel = np.concatenate([np.zeros((0, size), dtype=np.int64), *halves])
        mode = "deficient via exact kernel" if len(kernel) else f"full-rank via prime {p}"
    return RankCertificate(size - len(kernel), mode, (p,), kernel)


# ---- the pairs algebra ----

# class of a vertex pair (u, w), indexed by the coincidence code
# [u0 = w0] + 2 [u1 = w1] + 4 [u0 = w1] + 8 [u1 = w0]: 0 same, 1 swapped,
# 2 shared first point, 3 shared second point, 4 u0 = w1 only, 5 u1 = w0
# only, 6 disjoint; -1 marks codes that no two vertices have.  The pairs
# graph X_n joins classes 4, 5 and 6.
_PAIR_CLASS = np.array([6, 2, 3, 0, 4, -1, -1, -1, 5, -1, -1, -1, 1, -1, -1, -1], dtype=np.int8)


def _pair_classes(u0, u1, w0, w1) -> np.ndarray:
    """The `_PAIR_CLASS` of the vertex pairs ((u0, u1), (w0, w1)),
    elementwise over the broadcast coordinates."""
    # uint8 weights keep the code one byte wide
    two, four, eight = np.uint8(2), np.uint8(4), np.uint8(8)
    return _PAIR_CLASS[(u0 == w0) + two * (u1 == w1) + four * (u0 == w1) + eight * (u1 == w0)]


def _pairs_algebra_matrix(x: list[int], n: int) -> list[list[int]]:
    """The matrix L of multiplication by N = sum_t x[t] B_t, where B_t is
    the 0/1 matrix of the vertex pairs of class t: N B_t = sum_s L[s][t] B_s.

    At a position (u, w) of class s, L[s][t] = sum_v N[u, v] [class(v, w) = t]
    = sum_r x[r] p[r][t], where p[r][t] counts the vertices v with
    class(u, v) = r and class(v, w) = t, read off u's row and w's column
    of c = (n-1)(n-2) classes.  u is the vertex (0, 1), and p is counted
    at its first and its last partner w in class s and must agree there;
    every class vector read must hold each class as often as a vertex has
    partners in it.  Both checks raise, so neither is lost under
    `python -O`."""
    if n < 3:
        raise ValueError(f"the pairs algebra needs degree >= 3, not {n}")
    m = n - 1
    # partners of one vertex with the code -1 and in classes 0 to 6: none,
    # one same, one swapped, m-2 in each of classes 2 to 5, (m-2)(m-3) disjoint
    partners = [0, 1, 1] + [m - 2] * 4 + [(m - 2) * (m - 3)]
    k = sum(p > 0 for p in partners)
    if len(x) != k:
        raise ValueError(f"degree {n} has {k} pair classes, not {len(x)}")
    I, J = np.array(offdiag_pairs(n), dtype=np.intp).T

    def checked(classes: np.ndarray) -> np.ndarray:
        if np.bincount(classes + 1, minlength=8).tolist() != partners:
            raise AssertionError(f"the pair classes of degree {n} are not the pairs algebra's")
        return classes

    row = checked(_pair_classes(I[0], J[0], I, J))
    L = []
    for s in range(k):
        first, last = (
            np.bincount(row * 7 + checked(_pair_classes(I, J, I[w], J[w])), minlength=49)
            for w in np.flatnonzero(row == s)[[0, -1]]
        )
        if (first != last).any():
            raise AssertionError(f"row {s} of the pairs algebra of degree {n} varies")
        p = first.reshape(7, 7).tolist()
        L.append([sum(x[r] * p[r][t] for r in range(k)) for t in range(k)])
    return L


def pairs_algebra_rank(values, classes, n: int) -> tuple[list[int], bool] | None:
    """Whether the Gram N of a class of derangements is invertible, read
    in the pairs algebra: None when N is not in it, else (x, full), x[t]
    being N's value on pair class t.

    `values` and `classes` are N's entries beside the `_PAIR_CLASS` of
    their vertex pair, or one value and class per quadruple orbit
    (`quadruple_orbit_gram`).  The classes are the orbitals of S_{n-1} on
    vertex pairs, so their 0/1 matrices B_t span an algebra that holds I.
    When each class holds one value, N = sum_t x[t] B_t lies in it and is
    invertible exactly when the L of `_pairs_algebra_matrix` is, because
    X -> N X is faithful and an inverse of N is a polynomial in N.  Full
    rank of L at `_RANK_PRIME` proves it over Q; short of it, rational
    elimination decides.  An invertible N gives the class's rows of M,
    and so M, full column rank.  A class of the algebra without a value,
    or one outside it, raises ValueError."""
    values, classes = np.asarray(values), np.asarray(classes)
    if values.shape != classes.shape or classes.min() < 0:
        raise ValueError("every value needs a pair class")
    x = []
    for t in range(int(classes.max()) + 1):
        held = values[classes == t]
        if not held.size:
            raise ValueError(f"no value in pair class {t}")
        if (held != held[0]).any():
            return None
        x.append(int(held[0]))
    L, p = np.array(_pairs_algebra_matrix(x, n), dtype=object), _RANK_PRIME
    return x, rank_mod(L % p, p) == len(x) or len(_fraction_rref(L)[1]) == len(x)


def class_gram(rows: np.ndarray, n: int) -> tuple[np.ndarray, tuple[list[int], bool] | None]:
    """The Gram N of the M-block rows of a conjugation-closed set of
    derangements, beside `pairs_algebra_rank` read entry by entry.  It
    builds N and the class of every entry densely; the over-cap rank
    route reads one entry per quadruple orbit instead."""
    N = gram_offdiag(rows, n)
    I, J = np.array(offdiag_pairs(n), dtype=np.intp).reshape(-1, 2).T
    return N, pairs_algebra_rank(N, _pair_classes(I[:, None], J[:, None], I, J), n)
