"""Certified central characters of the rational class algebra.

Every spectral verdict reads integers that are constant on a Galois orbit
O of irreducible characters: the eigenvalue

    omega_O(S) = (1/chi(1)) sum_{C in S} |C| chi(C),  for any chi in O,

of the sum of a rational class S (the classes of x^t for every t prime to
the order of x) on the chi-isotypic module, and the module dimension
dim_O = sum_{chi in O} chi(1)^2.  The rational class sums span a
commutative algebra, one basis element per rational class, with integer
structure constants A_R[S, T] = #{x in R : x^-1 z_T in S} for a fixed z_T
in T.  Its r characters are the rows omega_O, one per Galois orbit, and
A_R omega_O = omega_O(R) omega_O: Dixon-Schneider over Q with rational
classes (Schneider, J. Symb. Comput. 9, 1990).

The class constants come from sifting every product x * rep(C_l) in fixed
row blocks, and are summed over rational classes.  A random combination
of the A_R with r distinct roots modulo a prime p > 2|G| gives every row
at once: V = K Q, with K the Krylov matrix of the combination on e_0 and
column j of Q the coefficients of charpoly(x)/(x - lambda_j).  Each entry
is its centred residue, exactly, because |omega_O(S)| <= |S| < p/2.

Residues only propose.  The table is certified by exact integer checks:

- A_R v = v[R] v over Z for every R and row, in int64 behind an overflow
  guard.  With v[identity] = 1 such a row is a homomorphism of the
  algebra, which has exactly r of them, so r distinct rows are all of them.
- dim_O = |G| / sum_S omega_O(S)^2/|S|, since the rational character
  psi_O = sum_{chi in O} chi has <psi_O, psi_O> = |O|.  Each must be a
  positive integer, and they must sum to |G|.
- Exactly one row has omega(S) = |S| (the trivial character), and exactly
  one has (n-1) omega(S) = |S| (fix(S) - 1) and dimension (n-1)^2 (the
  standard character, which is rational and so its own orbit).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .group import EnumeratedGroup, PermutationGroup, conjugacy_classes
from .modmath import charpoly_mod, poly_roots_mod, prime_one_mod

MAX_SPLIT_ATTEMPTS = 64
SIFT_BLOCK = 1 << 15


def class_constants(eg: EnumeratedGroup) -> np.ndarray:
    """Structure constants a[i, j, l] = #{x in C_i : x^-1 * rep(C_l) in C_j}.

    As x runs over G so does y = x^-1, of class inverse_class[class(y)].
    The N*k products y * rep(C_l), l-major, are sifted in fixed blocks of
    `SIFT_BLOCK` rows, and each block's triples (class of y^-1, class of
    the product, l) are counted by one bincount.  The fixed block bounds
    the memory of the sift whatever the group order.
    """
    eg.compute_classes()
    k = eg.n_classes
    E = eg.E
    N = len(E)
    class_of = eg.class_of
    inv_class_of = np.array(eg.inverse_class, dtype=np.int64)[class_of]
    reps = [E[s].astype(np.intp) for s in eg.class_seeds]
    counts = np.zeros(k**3, dtype=np.int64)
    block = np.empty((SIFT_BLOCK, E.shape[1]), dtype=E.dtype)
    keys = np.empty(SIFT_BLOCK, dtype=np.int64)
    for start in range(0, N * k, SIFT_BLOCK):
        stop = min(start + SIFT_BLOCK, N * k)
        for l in range(start // N, (stop - 1) // N + 1):
            y0, y1 = max(start - l * N, 0), min(stop - l * N, N)
            at = slice(l * N + y0 - start, l * N + y1 - start)
            # (y * z)(t) = y(z(t)): index each row by z's images
            block[at] = E[y0:y1][:, reps[l]]
            keys[at] = inv_class_of[y0:y1] * k * k + l
        rows = stop - start
        labels = class_of[eg.group.element_index(block[:rows])]
        counts += np.bincount(keys[:rows] + labels * k, minlength=k**3)
    mats = counts.reshape(k, k, k)
    sizes = np.array(eg.class_sizes, dtype=np.int64)
    # each product x^-1 * z_l lands in exactly one class
    if not np.array_equal(mats.sum(axis=1), np.repeat(sizes[:, None], k, axis=1)):
        raise AssertionError("class constant row sums disagree with class sizes")
    if not np.array_equal(mats[0], np.eye(k, dtype=np.int64)):
        raise AssertionError("identity class matrix is not the identity")
    # class sums commute; spot-check one nontrivial pair
    if k > 2:
        a, b = 1, k - 1
        if not np.array_equal(mats[a] @ mats[b], mats[b] @ mats[a]):
            raise AssertionError("class matrices do not commute")
    return mats


def rational_classes(eg: EnumeratedGroup) -> list[list[int]]:
    """The conjugacy classes grouped into rational classes: c and the
    classes of x^t for a representative x of c and every t prime to its
    order, listed by their first class, so the identity's comes first.
    Each group is closed under inversion."""
    powers = eg.power_indices()
    seen: set[int] = set()
    out = []
    for c in range(eg.n_classes):
        if c in seen:
            continue
        o = eg.class_orders[c]
        units = np.array([t for t in range(1, o) if math.gcd(t, o) == 1], dtype=np.intp)
        orbit = sorted(set(eg.class_of[powers[c][units]].tolist()) | {c})
        seen.update(orbit)
        out.append(orbit)
    return out


def rational_algebra(mats: np.ndarray, classes: list[list[int]]) -> np.ndarray:
    """A[R, S, T] = sum over i in R, j in S of mats[i, j, l] for a class l
    of T, from the class constants `mats`.  The sum does not depend on
    which l of T is taken, because the product of two rational class sums
    is fixed by every Galois automorphism; that is checked, and a failure
    raises ValueError."""
    k = mats.shape[0]
    member = np.zeros((k, len(classes)), dtype=np.int64)
    for S, cls in enumerate(classes):
        member[cls, S] = 1
    # full[R, S, l] for every class l
    full = np.einsum("Rjl,jS->RSl", np.einsum("iR,ijl->Rjl", member, mats), member)
    for cls in classes:
        if not (full[:, :, cls] == full[:, :, cls[:1]]).all():
            raise ValueError("rational class sums do not multiply into rational class sums")
    return full[:, :, [cls[0] for cls in classes]]


@dataclass
class RationalTable:
    """The certified central characters of the rational class algebra.

    Columns are the rational classes, the identity's first; rows are the
    Galois orbits of irreducible characters, sorted by (dimension, omega
    row), so the order depends on neither the seed nor the prime.
    """

    order: int
    degree: int
    e: int  # lcm of the class orders
    classes: list[list[int]]  # the conjugacy classes in each rational class
    sizes: list[int]
    fix: list[int]  # points fixed by each element of the class
    omega: np.ndarray  # omega[O, S], int64
    dims: list[int]  # sum of chi(1)^2 over the orbit
    trivial: int
    standard: int

    @property
    def r(self) -> int:
        return len(self.classes)

    @property
    def der(self) -> list[int]:
        """The rational classes of derangements."""
        return [S for S, f in enumerate(self.fix) if f == 0]


def _dimensions(omega: np.ndarray, sizes: list[int], order: int) -> list[int]:
    """dim_O = |G| / sum_S omega_O(S)^2/|S| for every row, over the common
    denominator L = lcm |S|.  Raises ValueError unless each is a positive
    integer and they sum to |G|."""
    L = math.lcm(*sizes)
    weights = [L // s for s in sizes]
    dims = []
    for row in omega.tolist():
        dim, rem = divmod(order * L, sum(w * x * x for w, x in zip(weights, row)))
        if rem or dim < 1:
            raise ValueError("a module dimension is not a positive integer")
        dims.append(dim)
    if sum(dims) != order:
        raise ValueError("module dimensions do not sum to the group order")
    return dims


def _distinguished(
    omega: np.ndarray, dims: list[int], sizes: list[int], fix: list[int], n: int
) -> tuple[int, int]:
    """The one row with omega(S) = |S| and the one with
    (n-1) omega(S) = |S| (fix(S) - 1) and dimension (n-1)^2."""
    sizes_a = np.array(sizes, dtype=np.int64)
    trivial = np.flatnonzero((omega == sizes_a).all(axis=1))
    fits = ((n - 1) * omega == sizes_a * (np.array(fix, dtype=np.int64) - 1)).all(axis=1)
    standard = [int(O) for O in np.flatnonzero(fits) if dims[O] == (n - 1) ** 2]
    if len(trivial) != 1:
        raise ValueError("no single trivial row")
    if len(standard) != 1:
        raise ValueError("no fix-1 row of dimension (n-1)^2 (group not 2-transitive?)")
    return int(trivial[0]), standard[0]


def _verify_table(t: RationalTable, A: np.ndarray) -> None:
    """Certify `t` against the rational class algebra A; every failed
    check raises ValueError."""
    r = t.r
    counts = {len(t.sizes), len(t.fix), len(t.dims), *A.shape, *t.omega.shape}
    if counts != {r}:
        raise ValueError("row or class count mismatch")
    if t.sizes[0] != 1 or t.fix[0] != t.degree:
        raise ValueError("first class is not the identity class")
    if sum(t.sizes) != t.order:
        raise ValueError("class sizes do not sum to the group order")
    omega = np.asarray(t.omega, dtype=np.int64)
    if not (omega[:, 0] == 1).all():
        raise ValueError("a row is not 1 at the identity")
    if len({row.tobytes() for row in omega}) != r:
        raise ValueError("two rows are equal")
    big = int(np.abs(omega).max())
    if max(r * int(np.abs(A).max()), big) * big >= 2**62:
        raise ValueError("the omega identity would overflow int64")
    # (A_R v)[S] = sum_T A[R, S, T] v[T] must be v[R] v[S]
    if not np.array_equal(
        np.einsum("RST,OT->ORS", A, omega), omega[:, :, None] * omega[:, None, :]
    ):
        raise ValueError("a row is not a central character of the rational class algebra")
    if _dimensions(omega, t.sizes, t.order) != t.dims:
        raise ValueError("module dimensions disagree with the omega rows")
    if (t.trivial, t.standard) != _distinguished(omega, t.dims, t.sizes, t.fix, t.degree):
        raise ValueError("trivial or standard index names the wrong row")


def _krylov_eigenvectors(
    combo: np.ndarray, cp: np.ndarray, roots: list[int], p: int
) -> np.ndarray | None:
    """Eigenvectors of `combo` mod p for its r distinct roots, one per row,
    scaled to v[0] = 1; None if some vector has v[0] = 0.

    With K the Krylov matrix whose column t is combo^t e_0, and q_j the
    quotient charpoly(x) / (x - lambda_j), K q_j = q_j(combo) e_0 lies in
    the lambda_j eigenspace (Cayley-Hamilton) and equals a_j q_j(lambda_j)
    v_j, where a_j is the e_0 coefficient along v_j.  For the central
    characters a_j = dim_j/|G|, which is a unit mod p > |G|, and
    q_j(lambda_j) is the product of the root differences, so no vector
    vanishes."""
    k = len(roots)
    K = np.empty((k, k), dtype=np.int64)
    col = np.zeros(k, dtype=np.int64)
    col[0] = 1
    for t in range(k):
        K[:, t] = col
        col = combo @ col % p
    # synthetic division of the monic charpoly by every (x - lambda_j):
    # q_{k-1} = 1, q_{t-1} = c_t + lambda q_t
    lam = np.array(roots, dtype=np.int64)
    Q = np.empty((k, k), dtype=np.int64)
    q = np.ones(k, dtype=np.int64)
    Q[k - 1] = q
    for t in range(k - 1, 0, -1):
        q = (cp[t] + lam * q) % p
        Q[t - 1] = q
    V = (K @ Q % p).T
    lead = V[:, 0]
    if not lead.all():
        return None
    scale = np.array([pow(int(x), -1, p) for x in lead], dtype=np.int64)
    return V * scale[:, None] % p


def character_table(eg: EnumeratedGroup, seed: int = 1) -> RationalTable:
    """The certified rational table of a fully enumerated group."""
    eg.compute_classes()
    order = len(eg.E)
    n = eg.group.degree
    classes = rational_classes(eg)
    r = len(classes)
    # the smallest odd prime above 2|G|; every batched product below sums
    # at most r terms below p^2, and every entry of A is at most |G| < p
    p = prime_one_mod(2, 2 * order)
    if r * (p - 1) ** 2 >= 2**63:
        raise ValueError(
            f"split prime {p} too large: r*(p-1)^2 must stay below 2^63 "
            "for exact int64 products"
        )
    A = rational_algebra(class_constants(eg), classes)

    rng = random.Random(seed * 1000003 + p)
    for _ in range(MAX_SPLIT_ATTEMPTS):
        draws = np.array([rng.randrange(p) for _ in range(r)], dtype=np.int64)
        combo = np.tensordot(draws, A, axes=1) % p
        cp = charpoly_mod(combo, p)
        roots = poly_roots_mod(cp, p)
        vecs = _krylov_eigenvectors(combo, cp, roots, p) if len(roots) == r else None
        if vecs is not None:
            break
    else:
        raise ValueError("rational class algebra failed to split over F_p")

    omega = np.where(vecs > p // 2, vecs - p, vecs)
    sizes = [sum(eg.class_sizes[c] for c in cls) for cls in classes]
    fix = [eg.class_fix[cls[0]] for cls in classes]
    dims = _dimensions(omega, sizes, order)
    rows = sorted(range(r), key=lambda O: (dims[O], omega[O].tolist()))
    omega, dims = omega[rows], [dims[O] for O in rows]
    trivial, standard = _distinguished(omega, dims, sizes, fix, n)
    table = RationalTable(
        order=order,
        degree=n,
        e=math.lcm(*eg.class_orders),
        classes=classes,
        sizes=sizes,
        fix=fix,
        omega=omega,
        dims=dims,
        trivial=trivial,
        standard=standard,
    )
    _verify_table(table, A)
    return table


def character_table_for(
    group: PermutationGroup, eg: EnumeratedGroup | None = None
) -> RationalTable:
    """Table for a group, from its enumeration `eg` when the caller has one."""
    return character_table(eg if eg is not None else conjugacy_classes(group))
