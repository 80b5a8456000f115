"""Exact rank certification of the derangement block M.

For a 2-transitive group of degree n, M has one row per derangement and
one column per off-diagonal pair (i,j), i != j, over the first n-1 points;
entry 1 records that the derangement maps i to j.  M is the derangement
block of the module method's coset-incidence matrix; the standard-module
lemmas about that matrix are checked in the tests.  The question that
decides strictness is whether M has full column rank c = (n-1)(n-2) over
the rationals.

Rank is certified at one prime on the smaller of M's two Gram matrices:
the column Gram M^T M, or the row Gram M M^T when M has fewer rows d than
columns.  Over Q each has the rank of M, since w^T M^T M w = |Mw|^2 and
w^T M M^T w = |M^T w|^2 give ker M^T M = ker M and ker M M^T = ker M^T.
A rank r mod p proves rank >= r, and exact integer kernel vectors of the
Gram prove rank <= r.  Full column rank needs rank c, so a row Gram
(d < c) always certifies deficiency; its certificate adds the exact rank.
The column Gram is counted exactly in int64, one point pair at a time.

The Gram of one conjugacy class is counted from a single representative
by orbit counting, one value per G-orbit of quadruples, and never laid
out as a c x c matrix.  Its positive-definiteness shortcut tests the
pattern lambda*I + mu*A(X_n) on those values, each beside the class of
its vertex pair, and uses the pairs graph X_n: its least eigenvalue is
bounded below by -(n-3) exactly, via the integer characteristic
polynomial of the 7-dimensional regular representation of the orbital
algebra, counted from a few rows of c entries, and a sign test on its
Taylor shift.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
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
    """The Gram N of `gram_offdiag` for one conjugacy class, one entry per
    G-orbit of its column quadruples.

    Orbit O holds the quadruple (b0, b1, c, d), c != d, where (b0, b1) is
    the group's base pair and `pairs` holds the least (c, d) of O;
    `values` is N_O and `classes` the `_PAIR_CLASS` of the vertex pair
    ((b0, b1), (c, d)), which every quadruple of O shares."""

    base: tuple[int, int]
    pairs: np.ndarray
    values: np.ndarray
    classes: np.ndarray


def quadruple_orbit_gram(group: PermutationGroup, z: Permutation, class_size: int) -> QuadrupleOrbits:
    """The N of `gram_offdiag` for the conjugacy class C of the derangement
    z, which has `class_size` elements, counted from z alone, one value
    per G-orbit of quadruples.

    N[(i,j),(k,l)] = #{x in C : x(i) = j, x(k) = l} is constant on each
    G-orbit O of quadruples, because x(i) = j exactly when g x g^-1 maps
    g(i) to g(j).  Counting the pairs (x, q) with x in C and q in O twice
    gives N_O |O| = |C| f_O, where f_O = #{(i,k) : (i, z i, k, z k) in O}
    is the same for every x in C.  Every orbit is checked for |O|
    dividing |C| f_O, which rejects many wrong class sizes but not all:
    a multiple of every |O|/gcd(|O|, f_O) passes.

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
    total = class_size * f
    if (total % orbit_size).any():
        raise AssertionError(f"a quadruple orbit size does not divide {class_size} * f_O")
    b0, b1 = group.base()[:2]
    c, d = np.divmod(least, n)
    column = c != d
    return QuadrupleOrbits(
        (b0, b1), np.stack([c, d], axis=1)[column], (total // orbit_size)[column],
        _pair_classes(b0, b1, c, d)[column])


def gram_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Exact M M^T for the derangement rows: entry (x, y) counts the points
    i < n-1 with x(i) = y(i) < n-1, the columns (i, x(i)) that rows x and y
    share.  It takes d x d x (n-1) bytes for d rows."""
    X = _derangement_rows(rows, n)[:, : n - 1]
    shared = (X[:, None, :] == X[None, :, :]) & (X < n - 1)[:, None, :]
    return shared.sum(axis=2, dtype=np.int64)


def gram_M(eg: EnumeratedGroup) -> np.ndarray:
    """The smaller Gram matrix of the full derangement block M: the row
    Gram when M has fewer rows than columns, else the column Gram.  Both
    have the rank of M; the enumeration cap already bounds the rows."""
    n = eg.group.degree
    rows = eg.E[eg.fix_counts_all == 0]
    if len(rows) < len(offdiag_pairs(n)):
        return gram_rows(rows, n)
    return gram_offdiag(rows, n)


# ---- rank certification ----


@dataclass(frozen=True, eq=False)
class RankCertificate:
    """The rank of M, certified on one of its Gram matrices N at a prime.

    `columns` is the column count c of M.  N is the c x c Gram M^T M, or
    the d x d Gram M M^T when M has d < c rows.  `kernel` holds integer
    vectors that N kills, one int64 row of N's size each, so `claimed_rank`
    is that size less their number, and `full` means rank c, which only a
    column Gram can reach.  `mode` says how the rank was proven: at the
    prime in `primes`, with the kernel as the upper bound ("full-rank via
    prime p", "deficient via exact kernel", or, on the row side,
    "deficient: fewer rows than columns"), or by rational elimination
    ("exact elimination")."""

    columns: int
    claimed_rank: int
    full: bool
    mode: str
    primes: tuple[int, ...]
    kernel: np.ndarray

    @property
    def gram(self) -> str:
        """The side of M whose Gram carries the certificate: "row" when
        that Gram is smaller than the column count, else "column"."""
        return "row" if self.kernel.shape[1] < self.columns else "column"

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
        shape_ok = (
            N.shape == (size, size)
            and size <= self.columns
            and W.dtype == np.int64
            and W.shape == (len(W), size)
        )
        if not shape_ok or self.claimed_rank != size - len(W):
            return False
        if self.full != (self.claimed_rank == self.columns):
            return False
        if not W.any(axis=1).all() or not _killed(N, W).all():
            return False
        if self.mode == "exact elimination":
            return _fraction_kernel(N)[0] == self.claimed_rank
        p = self.primes[0]
        return rank_mod(N % p, p) == self.claimed_rank and rank_mod(W % p, p) == len(W)


_RANK_PRIME = next(p for p in range(2**29, 2**30) if is_prime(p))


def _killed(N: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Whether N w = 0 exactly, for each integer row w of W.  The product
    runs in int64 when the entry bound fits, in Python ints otherwise."""
    bound = N.shape[0] * int(np.abs(N).max()) * int(np.abs(W).max(initial=1))
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


def _fraction_kernel(N: np.ndarray) -> tuple[int, np.ndarray]:
    """Plain rational row reduction; the correctness backstop when modular
    reconstruction fails.  Returns the rank and a kernel basis, each vector
    scaled to integers by the lcm of its denominators, as int64 rows; a
    vector whose integers leave int64 raises OverflowError.  Quadratic
    memory, cubic time in the column count."""
    rows = [[Fraction(int(x)) for x in row] for row in N]
    cols = N.shape[1]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
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
    free = [c for c in range(cols) if c not in pivots]
    W = np.zeros((len(free), cols), dtype=np.int64)
    for w, f in zip(W, free):
        scale = math.lcm(*(rows[i][f].denominator for i in range(len(pivots))))
        w[f] = scale
        for i, c in enumerate(pivots):
            w[c] = int(-rows[i][f] * scale)
    return len(pivots), W


def rank_certificate(N: np.ndarray, columns: int | None = None) -> RankCertificate:
    """Certify the rational rank of a Gram matrix N of M at one prime p.

    M has `columns` columns, N.shape[1] by default; a smaller N is the
    row Gram.  Rank mod p never exceeds the rational rank, so r pivots at
    p prove rank >= r, and r = columns proves full rank.  Otherwise the
    echelon form is finished to the RREF, whose kernel basis lifts to
    integer vectors that N kills exactly (N w = 0 forces M w = 0, or
    M^T w = 0 on the row side, over Q); they keep the basis's diagonal
    pattern on the free columns, so they are independent and prove
    rank <= r.  When a vector does not lift, exact rational elimination
    decides."""
    N = np.asarray(N, dtype=np.int64)
    size = N.shape[1]
    columns = size if columns is None else columns
    if size > columns:
        raise ValueError(f"a Gram matrix of size {size} for {columns} columns")
    p = _RANK_PRIME
    R, pivots = echelon_mod(N % p, p)
    if len(pivots) == size:
        kernel = np.zeros((0, size), dtype=np.int64)
    else:
        basis = kernel_from_rref(finish_rref(R, pivots, p), pivots, p)
        kernel = _lift_kernel(N, basis, p)
    if kernel is None:
        _, kernel = _fraction_kernel(N)
        if not _killed(N, kernel).all():
            raise AssertionError("rational elimination gave a vector outside the kernel")
        mode = "exact elimination"
    elif size < columns:
        mode = "deficient: fewer rows than columns"
    elif len(kernel):
        mode = "deficient via exact kernel"
    else:
        mode = f"full-rank via prime {p}"
    rank = size - len(kernel)
    return RankCertificate(columns, rank, rank == columns, mode, (p,), kernel)


# ---- pairs graph and its exact least-eigenvalue bound ----


@dataclass
class PairsGraph:
    """The pairs graph X_n: its 7x7 orbital matrix (None for n = 4), the
    characteristic polynomial that certifies its least eigenvalue, and
    that bound, -(n-3)."""

    n: int
    orbital: tuple[tuple[int, ...], ...] | None
    charpoly: tuple[int, ...]
    least_lower_bound: int


def _charpoly_exact(A: list[list[int]]) -> list[int]:
    """Characteristic polynomial det(xI - A) of an integer matrix, lowest
    degree first, by the Faddeev-LeVerrier recurrence in Python ints:
    M_j = A M_{j-1} + c_{k-j+1} I and c_{k-j} = -tr(A M_j)/j, each
    division exact because the coefficients are integers."""
    k = len(A)
    coeffs = [0] * k + [1]
    AM = [[0] * k for _ in range(k)]
    for j in range(1, k + 1):
        M = [row[:] for row in AM]
        for i in range(k):
            M[i][i] += coeffs[k - j + 1]
        AM = [[sum(A[i][t] * M[t][s] for t in range(k)) for s in range(k)] for i in range(k)]
        trace = sum(AM[i][i] for i in range(k))
        if trace % j:
            raise AssertionError("Faddeev-LeVerrier trace not divisible")
        coeffs[k - j] = -trace // j
    return coeffs


def _no_root_below(coeffs: list[int], a: int) -> bool:
    """True proves that the integer polynomial p (coefficients lowest
    degree first) has no real root below a.

    The Taylor shift q(y) = p(y + a) is taken in Python ints.  If its
    leading coefficient is positive and (-1)^(k-i) b_i >= 0 for its other
    coefficients, every nonzero term of q has the sign (-1)^k for y < 0.
    For a real-rooted p, such as a symmetric matrix's characteristic
    polynomial, the test is exact: the b_i are then signed elementary
    symmetric functions of the shifted roots."""
    b = list(coeffs)
    k = len(b) - 1
    for i in range(k):
        for j in range(k - 1, i - 1, -1):
            b[j] += a * b[j + 1]
    return b[k] > 0 and all((-1) ** (k - i) * b[i] >= 0 for i in range(k))


_pairs_cache: dict[int, PairsGraph] = {}

# class of a vertex pair (u, w), indexed by the coincidence code
# [u0 = w0] + 2 [u1 = w1] + 4 [u0 = w1] + 8 [u1 = w0]: 0 same, 1 swapped,
# 2 shared first point, 3 shared second point, 4 u0 = w1 only, 5 u1 = w0
# only, 6 disjoint; -1 marks codes that no two vertices have.  A joins
# classes 4, 5 and 6.
_PAIR_CLASS = np.array([6, 2, 3, 0, 4, -1, -1, -1, 5, -1, -1, -1, 1, -1, -1, -1], dtype=np.int8)


def _pair_classes(u0, u1, w0, w1) -> np.ndarray:
    """The `_PAIR_CLASS` of the vertex pairs ((u0, u1), (w0, w1)),
    elementwise over the broadcast coordinates."""
    # uint8 weights keep the code one byte wide
    two, four, eight = np.uint8(2), np.uint8(4), np.uint8(8)
    return _PAIR_CLASS[(u0 == w0) + two * (u1 == w1) + four * (u0 == w1) + eight * (u1 == w0)]


def pairs_graph(n: int) -> PairsGraph:
    """The graph X_n on ordered pairs from the first n-1 points, with its
    least eigenvalue certified >= -(n-3) by the `_no_root_below` sign test
    on an exact characteristic polynomial.

    For n > 4 the roots are those of the 7x7 integer matrix L of
    multiplication by A in the orbital algebra, whose basis is the seven
    classes of vertex pairs in `_PAIR_CLASS`.  Entry L[s][t] counts the
    neighbours v of u with (v, w) in class t, for a position (u, w) of
    class s.  Row s is counted from two class vectors of c = (n-1)(n-2)
    entries, those of u and of w, at the first position of the class,
    and checked equal at up to 20 more positions drawn from
    `random.Random(7)`; no c x c matrix is built.  Every class vector
    read is checked to hold each class as often as a vertex of X_n does.
    For n = 4, which has no disjoint pairs, the polynomial is A's own.
    Every check raises, so none is lost under `python -O`."""
    if n <= 3:
        raise ValueError("pairs graph needs n > 3")
    if n in _pairs_cache:
        return _pairs_cache[n]
    m = n - 1
    I, J = np.array(offdiag_pairs(n), dtype=np.intp).T
    c = len(I)
    # partners of each class that a vertex has: one same, one swapped,
    # m-2 in each of classes 2 to 5 and (m-2)(m-3) disjoint
    partners = np.array([1, 1] + [m - 2] * 4 + [(m - 2) * (m - 3)])

    def class_counts(classes: np.ndarray, where=True) -> np.ndarray:
        """How often each class occurs in each row of `classes`, over the
        entries that `where` selects."""
        keys = classes + 7 * np.arange(len(classes))[:, None]
        return np.bincount(keys[where & (classes >= 0)], minlength=7 * len(classes)).reshape(-1, 7)

    def checked(classes: np.ndarray) -> np.ndarray:
        """The class vectors, one per row, once each is seen to hold every
        class as often as a vertex of X_n does (a -1 leaves some short)."""
        if (class_counts(classes) != partners).any():
            raise AssertionError(f"X_{n} is not the pairs graph")
        return classes

    def rows_of(us: np.ndarray) -> np.ndarray:
        """The class of (u, v), for each u in us and every vertex v."""
        return checked(_pair_classes(I[us, None], J[us, None], I, J))

    if n == 4:
        L = None
        cp = _charpoly_exact((rows_of(np.arange(c)) >= 4).astype(int).tolist())
    else:
        rng = random.Random(7)
        rows = []
        for t in range(7):
            # position p of class t is (u, w) for u = p // k and w the
            # (p % k)-th partner of u in class t: the first, and up to 20
            # drawn from the rest
            k = int(partners[t])
            us, ks = np.divmod([0] + rng.sample(range(1, c * k), min(20, c * k - 1)), k)
            R = rows_of(us)
            ws = np.nonzero(R == t)[1].reshape(len(us), k)[np.arange(len(us)), ks]
            # the class of (v, w) for every vertex v, one row per w
            counts = class_counts(checked(_pair_classes(I, J, I[ws, None], J[ws, None])), R >= 4)
            if (counts != counts[0]).any():
                raise AssertionError(f"row {t} of the orbital matrix of X_{n} varies")
            rows.append(tuple(counts[0].tolist()))
        L = tuple(rows)
        cp = _charpoly_exact(L)

    if not _no_root_below(cp, -(n - 3)):
        raise AssertionError(f"least eigenvalue of X_{n} not certified >= {-(n - 3)}")
    pg = PairsGraph(n, L, tuple(cp), -(n - 3))
    _pairs_cache[n] = pg
    return pg


# ---- class Gram matrices ----


@dataclass
class ClassGram:
    n: int
    row_count: int
    N: np.ndarray | None
    pattern: bool
    lam: int | None
    mu: int | None
    least_bound: int | None
    psd_certified: bool


def class_gram(rows: np.ndarray, n: int) -> ClassGram:
    """Gram matrix N of the M-block rows of a conjugation-closed set of
    derangements, with the `gram_pattern` test read entry by entry.  It
    builds N and the class of every entry densely; the over-cap rank
    route reads one entry per quadruple orbit instead."""
    rows = np.asarray(rows)
    N = gram_offdiag(rows, n)
    I, J = np.array(offdiag_pairs(n), dtype=np.intp).reshape(-1, 2).T
    classes = _pair_classes(I[:, None], J[:, None], I, J)
    return replace(gram_pattern(N, classes, n, rows.shape[0]), N=N)


def gram_pattern(values: np.ndarray, classes: np.ndarray, n: int, row_count: int) -> ClassGram:
    """The lambda*I + mu*A(X_n) pattern test on the Gram matrix N of the
    M-block rows of a conjugation-closed set of `row_count` derangements,
    read as (value, class) pairs: the entries of N beside the
    `_PAIR_CLASS` of their vertex pair, or one value and class per
    quadruple orbit (`quadruple_orbit_gram`), which hold the same values
    in the same classes.  The pattern holds when every class-0 value is
    one lambda, every value in classes 1 to 3 is 0, and every value in
    the adjacency classes 4 to 6 is one mu.

    When the pattern holds with mu >= 0, the certified pairs-graph bound
    `least` gives least eigenvalue >= lambda + mu*least; a positive bound
    certifies positive definiteness, hence full column rank of M
    restricted to these rows, hence full column rank of M itself.  The
    result carries no N."""
    values, classes = np.asarray(values), np.asarray(classes)
    if values.shape != classes.shape or (classes < 0).any() or not (classes == 0).any():
        raise ValueError("the pattern needs a valid class for every value and a diagonal one")
    diagonal, adjacent = values[classes == 0], values[classes >= 4]
    lam = int(diagonal[0])
    mu = int(adjacent[0]) if adjacent.size else 0
    pattern = bool(
        (diagonal == lam).all()
        and (adjacent == mu).all()
        and not values[(classes >= 1) & (classes <= 3)].any()
    )
    if not pattern:
        return ClassGram(n, row_count, None, False, None, None, None, False)
    # degree 3 has two column pairs and an edgeless pairs graph
    least = pairs_graph(n).least_lower_bound if n > 3 else 0
    bound = lam + mu * least
    return ClassGram(n, row_count, None, True, lam, mu, bound, mu >= 0 and bound > 0)
