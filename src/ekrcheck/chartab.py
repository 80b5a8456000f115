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

Each rational class is closed under inversion, so A_R[S, T] also counts
the y in R with y z_T in S: `class_constants` looks up the N*r products
y * z_T by their base images alone (`EnumeratedGroup.base_index`), labels
each by its rational class, and checks the result is a commutative
algebra, self-adjoint for the class sizes.  One float eigendecomposition
of a random real combination of the A_R, made symmetric by the class
sizes, proposes every row at once (`_propose`).

Floats only propose.  The table is certified by exact integer checks, and
a proposal they reject is redrawn:

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

MAX_PROPOSALS = 4


def class_constants(eg: EnumeratedGroup, classes: list[list[int]]) -> np.ndarray:
    """The rational class algebra A[R, S, T] = #{y in R : y z_T in S}, for
    the rational classes `classes` and a fixed z_T in T.

    R is closed under inversion, so this is #{x in R : x^-1 z_T in S}.
    For each T, the products y * z_T have base images y(z_T(b)), the
    columns z_T(b) of `E`; `base_index` names them, and one bincount
    counts the pairs (rational class of y, of the product).  Each T
    holds O(N) transient arrays.

    Raises ValueError unless A_1 = I, every sum over S is |R|, the A_R
    commute pairwise, and |T| A[R, S, T] = |S| A[R, T, S] (what makes the
    algebra self-adjoint for the class sizes).  The rational classes pass
    them all; most partitions that merge or split rational classes fail
    one, though one whose class sums also span an algebra passes.
    """
    r = len(classes)
    E = eg.E
    rational = np.empty(eg.n_classes, dtype=np.int64)
    for R, cls in enumerate(classes):
        rational[cls] = R
    rational_of = rational[eg.class_of]
    A = np.empty((r, r, r), dtype=np.int64)
    for T, cls in enumerate(classes):
        # (y * z)(b) = y(z(b)): the products' base images are E's columns z(b)
        z = E[eg.class_seeds[cls[0]]].astype(np.intp)
        labels = rational_of[eg.base_index(E[:, z[eg.base]])]
        A[:, :, T] = np.bincount(rational_of * r + labels, minlength=r * r).reshape(r, r)
    sizes = np.bincount(rational_of, minlength=r)
    if not np.array_equal(A[0], np.eye(r, dtype=np.int64)):
        raise ValueError("the identity's matrix is not the identity")
    if not np.array_equal(A.sum(axis=1), np.repeat(sizes[:, None], r, axis=1)):
        raise ValueError("a sum over product classes is not the class size")
    products = np.matmul(A[:, None], A[None, :])
    if not np.array_equal(products, products.transpose(1, 0, 2, 3)):
        raise ValueError("two rational class matrices do not commute")
    if not np.array_equal(A * sizes, A.transpose(0, 2, 1) * sizes[:, None]):
        raise ValueError("the algebra is not self-adjoint for the class sizes")
    return A


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


@dataclass
class RationalTable:
    """The certified central characters of the rational class algebra.

    Columns are the rational classes, the identity's first; rows are the
    Galois orbits of irreducible characters, sorted by (dimension, omega
    row), so the order does not depend on the seed.
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


def _propose(A: np.ndarray, sizes: list[int], order: int, rng: random.Random) -> np.ndarray:
    """Integer rows proposed by one float eigendecomposition of a random
    real combination L of the A_R, with standard normal weights from rng.

    Rational classes are closed under inversion, so
    |T| A[R, S, T] = |S| A[R, T, S], and with D = diag(sqrt|S|) the matrix
    D^-1 L D is symmetric.  Each of its eigenvectors u gives v = D u, the
    row of one central character up to scale; it is scaled to 1 at the
    identity and rounded.  Since |omega_O(S)| <= |S| <= |G|, an entry past
    |G| (or not finite) comes only from a wrong proposal and raises
    ValueError."""
    scale = np.sqrt(np.array(sizes, dtype=np.float64))
    L = np.tensordot([rng.gauss(0.0, 1.0) for _ in sizes], A, axes=1)
    _, U = np.linalg.eigh(L * scale / scale[:, None])
    V = U.T * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        V = V / V[:, :1]
    if not (np.abs(V) <= order).all():
        raise ValueError("a proposed row is not bounded by the group order")
    return np.rint(V).astype(np.int64)


def character_table(eg: EnumeratedGroup, seed: int = 1) -> RationalTable:
    """The certified rational table of a fully enumerated group.

    Floats only propose the rows; a proposal the exact checks reject is
    redrawn, up to `MAX_PROPOSALS` times, and the last rejection raises."""
    order = len(eg.E)
    n = eg.group.degree
    classes = rational_classes(eg)
    A = class_constants(eg, classes)
    sizes = [sum(eg.class_sizes[c] for c in cls) for cls in classes]
    fix = [eg.class_fix[cls[0]] for cls in classes]
    rng = random.Random(seed)
    for _ in range(MAX_PROPOSALS):
        try:
            omega = _propose(A, sizes, order, rng)
            dims = _dimensions(omega, sizes, order)
            rows = sorted(range(len(classes)), key=lambda O: (dims[O], omega[O].tolist()))
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
        except ValueError as err:
            rejection = err
    raise rejection


def character_table_for(
    group: PermutationGroup, eg: EnumeratedGroup | None = None
) -> RationalTable:
    """Table for a group, from its enumeration `eg` when the caller has one."""
    return character_table(eg if eg is not None else conjugacy_classes(group))
