"""Coset-incidence matrices and exact rank certification.

For a 2-transitive group of degree n the indicator vectors v_{i,j} of the
canonical sets {pi : pi(i)=j} span a module whose structure is probed with
four matrices: H (all n^2 columns), the reduced H-bar (n diagonal columns
(i,i) followed by the off-diagonal pairs over the first n-1 points), the
block M of H-bar with rows restricted to derangements and columns to the
off-diagonal pairs, and the block B (non-identity rows with fixed points,
diagonal columns).  The question that decides strictness is whether M has
full column rank over the rationals.

Rank is certified on the Gram matrix N = M^T M: over Q, ker M = ker N
(w^T N w = |Mw|^2), so a full-rank verdict mod p certifies full column
rank of M, and an exact integer kernel vector of N certifies deficiency.
N itself is counted exactly in int64, one point pair at a time, or for
one conjugacy class from a single representative by orbit counting.

The positive-definiteness shortcut for class Gram matrices uses the pairs
graph X_n; its least eigenvalue is bounded below by -(n-3) exactly, via
the characteristic polynomial of the 7-dimensional regular representation
of the orbital algebra and a Sturm-chain root count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .group import EnumeratedGroup, PermutationGroup, orbit_labels
from .modmath import (
    count_roots_strictly_below,
    echelon_mod,
    finish_rref,
    is_prime,
    kernel_from_rref,
    rank_mod,
)
from .perm import Permutation

HBAR_CAP = 250_000
PROJECTION_CAP = 2_000
GRAM_L_CAP = 50_000
_KERNEL_MULTIPLIERS = 64


def offdiag_pairs(n: int) -> list[tuple[int, int]]:
    """Column order of M: pairs (i,j), i != j, over the first n-1 points,
    lexicographic."""
    m = n - 1
    return [(i, j) for i in range(m) for j in range(m) if i != j]


def pair_col_index(n: int, i: int, j: int) -> int:
    m = n - 1
    if not (0 <= i < m and 0 <= j < m and i != j):
        raise ValueError(f"({i},{j}) is not an off-diagonal pair over {m} points")
    return i * (m - 1) + (j if j < i else j - 1)


def gram_offdiag(rows: np.ndarray, n: int) -> np.ndarray:
    """Exact N = M^T M for the derangement rows, counted by point pairs.

    N[(i,j),(k,l)] = #{x : x(i) = j, x(k) = l}: for i < k one bincount of
    x(i)*n + x(k) fills block (i,k) and its transpose, and a diagonal
    block (i,i) is diagonal with the counts of x(i) = j."""
    rows = np.asarray(rows)
    if (rows == np.arange(n, dtype=rows.dtype)).any():
        raise ValueError("non-derangement row passed to gram_offdiag")
    # each row has n-2 ones in M: one of the first n-1 points lands on the
    # last point, whose column is cut
    assert ((rows[:, : n - 1] == n - 1).sum(axis=1) == 1).all()
    m = n - 1
    X = np.ascontiguousarray(rows[:, :m].T, dtype=np.int16)
    Xn = X * np.int16(n)
    # keep[i]: the images j != i among the first n-1 points, in column order
    keep = [np.array([j for j in range(m) if j != i]) for i in range(m)]
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


def quadruple_orbit_gram(group: PermutationGroup, z: Permutation, class_size: int) -> np.ndarray:
    """The N of `gram_offdiag` for the conjugacy class C of the derangement
    z, which has `class_size` elements, counted from z alone.

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
    quadruples."""
    n = group.degree
    zi = np.array(z.images, dtype=np.intp)
    if (zi == np.arange(n)).any():
        raise ValueError("non-derangement passed to quadruple_orbit_gram")
    carry, stab = group.pair_carriers()
    # pair (c, d) has index c n + d; orbit[c n + d] numbers its suborbit
    _, orbit, count = np.unique(
        orbit_labels(n * n, [(g[:, None] * n + g[None, :]).ravel() for g in stab]),
        return_inverse=True, return_counts=True)
    orbit_size = n * (n - 1) * count
    # (i, z i, k, z k) is carried to (b0, b1, hz[i, k], hz[i, z k])
    hz = carry[np.arange(n), zi]
    f = np.bincount(orbit[hz * n + hz[:, zi]].ravel(), minlength=len(count))
    total = class_size * f
    if (total % orbit_size).any():
        raise AssertionError(f"a quadruple orbit size does not divide {class_size} * f_O")
    value = total // orbit_size
    pairs = np.array(offdiag_pairs(n), dtype=np.intp)
    # one carrying map per column pair (i, j), then every (k, l) through it
    h = carry[pairs[:, 0], pairs[:, 1]]
    return value[orbit[h[:, pairs[:, 0]] * n + h[:, pairs[:, 1]]]]


def gram_M(eg: EnumeratedGroup) -> np.ndarray:
    """Gram matrix of the full derangement block M; the enumeration cap
    already bounds its rows."""
    return gram_offdiag(eg.E[eg.fix_counts_all == 0], eg.group.degree)


# ---- module matrices for enumerable groups ----


@dataclass
class ModuleMatrices:
    """H-bar with the canonical row and column order, plus its blocks.

    Columns: n diagonal pairs (i,i), then off-diagonal pairs over the
    first n-1 points.  Rows: identity, derangements in enumeration
    order, then the remaining elements."""

    n: int
    order: int
    der_count: int
    row_order: np.ndarray
    Hbar: np.ndarray

    @property
    def M(self) -> np.ndarray:
        return self.Hbar[1 : 1 + self.der_count, self.n :]

    @property
    def B(self) -> np.ndarray:
        return self.Hbar[1 + self.der_count :, : self.n]

    @property
    def C(self) -> np.ndarray:
        return self.Hbar[1 + self.der_count :, self.n :]


def build_M(eg: EnumeratedGroup, cap: int = HBAR_CAP) -> ModuleMatrices:
    if eg.E.shape[0] > cap:
        raise ValueError(f"group order {eg.E.shape[0]} exceeds the H-bar cap {cap}")
    n = eg.group.degree
    fix = eg.fix_counts_all
    der = np.nonzero(fix == 0)[0]
    rest = np.nonzero((fix > 0) & (np.arange(len(fix)) != 0))[0]
    row_order = np.concatenate(([0], der, rest))
    Eo = eg.E[row_order]

    diag = (Eo == np.arange(n, dtype=Eo.dtype)).astype(np.int8)
    m = n - 1
    pts = np.arange(m, dtype=np.int64)
    J = Eo[:, :m].astype(np.int64)
    valid = (J <= n - 2) & (J != pts[None, :])
    col = pts[None, :] * (m - 1) + J - (J > pts[None, :])
    off = np.zeros((Eo.shape[0], m * (m - 1)), dtype=np.int8)
    r_idx = np.broadcast_to(np.arange(Eo.shape[0])[:, None], J.shape)[valid]
    off[r_idx, col[valid]] = 1

    mm = ModuleMatrices(
        n=n,
        order=eg.E.shape[0],
        der_count=len(der),
        row_order=row_order,
        Hbar=np.hstack([diag, off]),
    )
    # block display: identity row is all-ones on the diagonal columns and
    # zero elsewhere; derangement rows are zero on every diagonal column
    assert (mm.Hbar[0, :n] == 1).all() and (mm.Hbar[0, n:] == 0).all()
    assert not mm.Hbar[1 : 1 + len(der), :n].any()
    assert (mm.M.sum(axis=1) == n - 2).all()
    return mm


def build_H(eg: EnumeratedGroup, cap: int = HBAR_CAP) -> np.ndarray:
    """Full incidence matrix: all n^2 columns (i,j) in lexicographic order,
    rows in enumeration order."""
    if eg.E.shape[0] > cap:
        raise ValueError(f"group order {eg.E.shape[0]} exceeds the H-bar cap {cap}")
    n = eg.group.degree
    H = np.zeros((eg.E.shape[0], n * n), dtype=np.int8)
    r = np.repeat(np.arange(eg.E.shape[0]), n)
    c = (np.arange(n)[None, :] * n + eg.E).ravel()
    H[r, c.astype(np.int64)] = 1
    return H


# ---- rank certification ----


@dataclass(frozen=True)
class RankCertificate:
    columns: int
    claimed_rank: int
    full: bool
    mode: str
    primes: tuple[int, ...]
    kernel: tuple[tuple[Fraction, ...], ...]

    def reverify(self, N: np.ndarray) -> bool:
        """Re-check the certificate against the Gram matrix, independently
        of the computation that produced it."""
        if self.full:
            return (
                self.claimed_rank == self.columns
                and rank_mod(np.asarray(N) % self.primes[0], self.primes[0])
                == self.columns
            )
        if not self.kernel or not _kernel_holds(N, self.kernel):
            return False
        lower = max(rank_mod(np.asarray(N) % p, p) for p in self.primes)
        return self.claimed_rank == self.columns - len(self.kernel) == lower


def _kernel_holds(N: np.ndarray, kernel) -> bool:
    """Whether every rational vector w of `kernel` is nonzero with N w = 0
    exactly: w is scaled to integers by the lcm of its denominators and
    multiplied out in Python ints."""
    No = np.asarray(N, dtype=object)
    for w in kernel:
        scale = 1
        for c in w:
            scale = scale * c.denominator // np.gcd(scale, c.denominator)
        wi = np.array([int(c * scale) for c in w], dtype=object)
        if not any(wi) or any(No @ wi):
            return False
    return True


_rank_prime_cache: list[int] = []


def _rank_primes() -> tuple[int, int]:
    if not _rank_prime_cache:
        p = 2**29
        while len(_rank_prime_cache) < 2:
            if is_prime(p):
                _rank_prime_cache.append(p)
            p += 1
    return _rank_prime_cache[0], _rank_prime_cache[1]


def _killed(N: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Whether N w = 0 exactly, for each integer row w of W.  The product
    runs in int64 when the entry bound fits, in Python ints otherwise."""
    bound = N.shape[0] * int(np.abs(N).max()) * int(np.abs(W).max(initial=1))
    if bound < 2**62:
        return ~(N @ W.T.astype(np.int64)).any(axis=0)
    return ~(np.asarray(N, dtype=object) @ W.T.astype(object)).any(axis=0)


def _lift_kernel(N: np.ndarray, basis: np.ndarray, p: int):
    """Integer kernel vectors of N from a kernel basis mod p, or None.

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
    if failing.size:
        return None
    # one Fraction per distinct entry, shared by every vector
    frac = {x: Fraction(x) for x in np.unique(W).tolist()}
    return tuple(tuple(frac[x] for x in w) for w in W.tolist())


def _fraction_kernel(N: np.ndarray) -> tuple[int, list[list[Fraction]]]:
    """Plain rational row reduction; the correctness backstop when modular
    reconstruction fails.  Quadratic memory, cubic time in the column count."""
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
    basis = []
    for f in free:
        w = [Fraction(0)] * cols
        w[f] = Fraction(1)
        for i, c in enumerate(pivots):
            w[c] = -rows[i][f]
        basis.append(w)
    return len(pivots), basis


def rank_certificate(N: np.ndarray) -> RankCertificate:
    """Certify the rational rank of the Gram matrix N = M^T M.

    Full-rank mode is sound because rank mod p never exceeds the rational
    rank; the deficient mode exhibits kernel vectors re-verified by exact
    multiplication, and N w = 0 already forces M w = 0 over Q.  One forward
    elimination at p1 gives the rank, and when it is deficient the same
    echelon form is finished to the RREF that yields the kernel basis."""
    N = np.asarray(N, dtype=np.int64)
    cols = N.shape[1]
    p1, p2 = _rank_primes()
    R, pivots = echelon_mod(N % p1, p1)
    if len(pivots) == cols:
        return RankCertificate(cols, cols, True, f"full-rank via prime {p1}", (p1,), ())
    r2 = rank_mod(N % p2, p2)
    if r2 == cols:
        return RankCertificate(cols, cols, True, f"full-rank via prime {p2}", (p2,), ())

    lower = max(len(pivots), r2)
    basis = kernel_from_rref(finish_rref(R, pivots, p1), pivots, p1)
    kernel = _lift_kernel(N, basis, p1)
    if kernel is not None and lower == cols - len(basis):
        return RankCertificate(
            cols, lower, False, "deficient via exact kernel", (p1, p2), kernel
        )

    # small-integer reconstruction failed somewhere; fall back to exact
    # rational elimination
    rank, fr_basis = _fraction_kernel(N)
    kernel = tuple(tuple(w) for w in fr_basis)
    assert _kernel_holds(N, kernel)
    return RankCertificate(cols, rank, rank == cols, "exact elimination", (p1, p2), kernel)


# ---- pairs graph and its exact least-eigenvalue bound ----


@dataclass
class PairsGraph:
    n: int
    vertices: list[tuple[int, int]]
    adjacency: np.ndarray
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
        assert trace % j == 0
        coeffs[k - j] = -trace // j
    return coeffs


_pairs_cache: dict[int, PairsGraph] = {}


def pairs_graph(n: int) -> PairsGraph:
    """The graph X_n on ordered pairs from the first n-1 points, with its
    least eigenvalue certified >= -(n-3) by exact root counting.

    For n > 4 the roots are those of the 7x7 integer matrix L of
    multiplication by A in the orbital algebra, whose basis is the seven
    classes of vertex pairs below.  Entry L[s][t] counts the neighbours v
    of u with (v, w) in class t, for a position (u, w) of class s, so row
    s is one bincount; it is checked equal at up to 20 more positions of
    the class."""
    if n <= 3:
        raise ValueError("pairs graph needs n > 3")
    if n in _pairs_cache:
        return _pairs_cache[n]
    m = n - 1
    verts = [(i, j) for i in range(m) for j in range(m) if i != j]
    I = np.array([v[0] for v in verts], dtype=np.int16)
    J = np.array([v[1] for v in verts], dtype=np.int16)
    Iu, Ju, Iw, Jw = I[:, None], J[:, None], I[None, :], J[None, :]
    same = (Iu == Iw) & (Ju == Jw)
    swap = (Iu == Jw) & (Ju == Iw) & ~same
    icom = (Iu == Iw) & (Ju != Jw)
    jcom = (Ju == Jw) & (Iu != Iw)
    ilnk = (Iu == Jw) & (Ju != Iw)
    jlnk = (Ju == Iw) & (Iu != Jw)
    disj = (Iu != Iw) & (Iu != Jw) & (Ju != Iw) & (Ju != Jw)
    types = [same, swap, icom, jcom, ilnk, jlnk, disj]
    T = np.zeros_like(same, dtype=np.int8)
    cover = np.zeros_like(same, dtype=np.int8)
    for t, mask in enumerate(types):
        T[mask] = t
        cover += mask
    assert (cover == 1).all()
    A = (ilnk | jlnk | disj).astype(np.int8)
    assert (A.sum(axis=1) == (n - 2) * (n - 3)).all()
    assert np.array_equal(A, A.T) and not A[swap].any()

    if n == 4:
        # no disjoint pairs among three points: take A's own polynomial
        L = None
        cp = _charpoly_exact(A.astype(int).tolist())
    else:
        nbrs = A.astype(bool)
        # row-major positions of class 0, then of class 1, and so on
        flat = np.argsort(T, axis=None, kind="stable")
        counts = np.bincount(T.ravel(), minlength=7)
        ends = np.cumsum(counts)
        rng = np.random.default_rng(7)
        rows = []
        for t in range(7):
            u, w = np.divmod(flat[ends[t] - counts[t] : ends[t]], len(verts))
            row = np.bincount(T[nbrs[u[0]], w[0]], minlength=7)
            for k in rng.choice(len(u), size=min(20, len(u)), replace=False):
                assert np.array_equal(np.bincount(T[nbrs[u[k]], w[k]], minlength=7), row)
            rows.append(tuple(row.tolist()))
        L = tuple(rows)
        cp = _charpoly_exact(L)

    assert count_roots_strictly_below(cp, Fraction(-(n - 3))) == 0
    if len(verts) <= 200:
        assert np.linalg.eigvalsh(A.astype(np.float64))[0] >= -(n - 3) - 1e-8
    pg = PairsGraph(n, verts, A, L, tuple(cp), -(n - 3))
    _pairs_cache[n] = pg
    return pg


# ---- class Gram matrices ----


@dataclass
class ClassGram:
    n: int
    row_count: int
    N: np.ndarray
    pattern: bool
    lam: int | None
    mu: int | None
    least_bound: int | None
    psd_certified: bool


def class_gram(rows: np.ndarray, n: int) -> ClassGram:
    """Gram matrix of the M-block rows of a conjugation-closed set of
    derangements, with the `gram_pattern` test."""
    rows = np.asarray(rows)
    return gram_pattern(gram_offdiag(rows, n), n, rows.shape[0])


def gram_pattern(N: np.ndarray, n: int, row_count: int) -> ClassGram:
    """The lambda*I + mu*A(X_n) pattern test on the Gram matrix N of the
    M-block rows of a conjugation-closed set of `row_count` derangements.

    When the pattern holds with mu >= 0, the pairs-graph bound gives
    least eigenvalue >= lambda - mu*(n-3); a positive bound certifies
    positive definiteness, hence full column rank of M restricted to
    these rows, hence full column rank of M itself."""
    lam = int(N[0, 0])
    # degree 3 has two column pairs and an edgeless pairs graph
    A = pairs_graph(n).adjacency if n > 3 else np.zeros_like(N, dtype=np.int8)
    off = (A == 0) & ~np.eye(N.shape[0], dtype=bool)
    mu_vals = N[A == 1]
    pattern = (
        (np.diag(N) == lam).all()
        and not N[off].any()
        and (mu_vals.size == 0 or (mu_vals == mu_vals[0]).all())
    )
    mu = int(mu_vals[0]) if pattern and mu_vals.size else (0 if pattern else None)
    if pattern:
        bound = lam - mu * (n - 3)
        return ClassGram(n, row_count, N, True, lam, mu, bound, mu >= 0 and bound > 0)
    return ClassGram(n, row_count, N, False, None, None, None, False)


# ---- the standard-module checks for small groups ----


def _fix_product_matrix(eg: EnumeratedGroup) -> np.ndarray:
    """F[r, s] = number of fixed points of element_r * element_s^{-1}."""
    o, n = eg.E.shape
    F = np.empty((o, o), dtype=np.int64)
    pts = np.arange(n, dtype=eg.E.dtype)
    for s in range(o):
        inv_row = eg.E[eg.inv_index[s]]
        F[:, s] = (eg.E[:, inv_row] == pts).sum(axis=1)
    return F


def std_apply(eg: EnumeratedGroup, vec: np.ndarray) -> list[Fraction]:
    """Image of an integer vector under the projection onto the module of
    the standard character (degree n-1, values fix-1)."""
    if eg.E.shape[0] > PROJECTION_CAP:
        raise ValueError(f"group order exceeds the projection cap {PROJECTION_CAP}")
    n = eg.group.degree
    W = _fix_product_matrix(eg) - 1
    img = W @ np.asarray(vec, dtype=np.int64)
    return [Fraction(int(x) * (n - 1), eg.E.shape[0]) for x in img]


def rank_H_exact(eg: EnumeratedGroup) -> int:
    """Exact rational rank of H, certified on both sides: a modular rank
    lower bound and 2n-2 explicit kernel vectors for the upper bound."""
    n = eg.group.degree
    H = build_H(eg)
    p1, p2 = _rank_primes()
    lower = max(rank_mod(H.astype(np.int64) % p, p) for p in (p1, p2))

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
    assert rank_mod(K % p1, p1) == 2 * n - 2
    upper = n * n - (2 * n - 2)
    if lower != upper:
        raise ArithmeticError(f"rank of H not pinched: {lower} < {upper}")
    return lower


def rank_Hbar(eg: EnumeratedGroup) -> int:
    mm = build_M(eg)
    p1, p2 = _rank_primes()
    r = max(rank_mod(mm.Hbar.astype(np.int64) % p, p) for p in (p1, p2))
    cols = mm.Hbar.shape[1]
    if r != cols:
        raise ArithmeticError(f"H-bar rank {r} below column count {cols}")
    return r


def standard_projection_check(eg: EnumeratedGroup, i: int, j: int) -> bool:
    """Verify that v_{i,j} - (1/n)*1 is fixed by the standard-module
    projection, and that rank(H) = rank(H-bar) = (n-1)^2 + 1."""
    o, n = eg.E.shape
    if o > PROJECTION_CAP:
        raise ValueError(f"group order {o} exceeds the projection cap {PROJECTION_CAP}")
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


def gram_L(eg: EnumeratedGroup, cap: int = GRAM_L_CAP) -> np.ndarray:
    """Exact Gram matrix of all (n-1)^2 vectors v_{i,j} over the first n-1
    points, verified to equal (|G|/n) I + |G|/(n(n-1)) (A(K) (x) A(K)).

    The Kronecker factor has least eigenvalue -(n-2), so the Gram matrix
    is positive definite and the v_{i,j} are linearly independent."""
    o, n = eg.E.shape
    if o > cap:
        raise ValueError(f"group order {o} exceeds the Gram cap {cap}")
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
