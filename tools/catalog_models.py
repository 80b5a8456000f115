"""Finite fields and the point models behind the catalog's matrix groups.

`make_catalog.py` builds the catalog's generators from these models, and
the package reads those generators from its catalog alone, so nothing here
is imported by `ekrcheck`.

Field elements are the integers 0..q-1.  For q = p^k the integer encodes
the coefficient vector of a residue polynomial in base p, little-endian, so
0 is zero, 1 is one and p is the class of x.  Every field is checked when
it is built: each nonzero element must have an inverse, which certifies
that its defining polynomial is irreducible.

A model is AG(d, q) or PG(d-1, q).  Affine point i is the vector of the
base-q digits of i, least significant first.  Projective points are the
vectors whose first nonzero coordinate is 1, in lexicographic order.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

from ekrcheck.perm import Permutation

MAX_Q = 32

# q p k, then the monic defining polynomial of F_q, constant term first
POLYNOMIALS = """\
4 2 2 1 1 1
8 2 3 1 1 0 1
9 3 2 2 2 1
16 2 4 1 1 0 0 1
25 5 2 2 4 1
27 3 3 1 2 0 1
32 2 5 1 0 1 0 0 1
"""

Matrix = tuple[tuple[int, ...], ...]


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, or raise."""
    for p in range(2, q + 1):
        if q % p == 0:
            k = 1
            while p**k < q:
                k += 1
            if p**k == q:
                return p, k
            break
    raise ValueError(f"{q} is not a prime power")


def polynomials(text: str = POLYNOMIALS) -> dict[int, list[int]]:
    """q -> the coefficients of F_q's defining polynomial, each line checked."""
    out = {}
    for no, line in enumerate(text.splitlines(), 1):
        try:
            q, p, k, *coeffs = (int(v) for v in line.split())
            ok = q == p**k and len(coeffs) == k + 1 and coeffs[-1] == 1
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(
                f"field polynomial line {no}: {line!r} is not 'q p k' with q = p^k "
                "followed by a monic polynomial of degree k"
            )
        out[q] = coeffs
    return out


def _times(a: list[int], b: list[int], poly: list[int] | None) -> list[int]:
    """The product of two coefficient lists of length k, reduced modulo the
    monic poly of degree k (never read when k = 1); coefficients over Z."""
    k = len(a)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(2 * k - 2, k - 1, -1):
        c = prod.pop()
        for j in range(k):
            prod[i - k + j] -= c * poly[j]
    return prod


class GF:
    """Arithmetic in F_q through q x q tables."""

    def __init__(self, q: int):
        if q > MAX_Q:
            raise ValueError(f"field order {q} exceeds the supported bound {MAX_Q}")
        p, k = prime_power(q)
        poly = polynomials()[q] if k > 1 else None
        digits = [[x // p**i % p for i in range(k)] for x in range(q)]

        def value(coeffs):
            return sum(c % p * p**i for i, c in enumerate(coeffs))

        self.q, self.p, self.k = q, p, k
        self._add = [[value([a + b for a, b in zip(x, y)]) for y in digits] for x in digits]
        self._mul = [[value(_times(x, y, poly)) for y in digits] for x in digits]
        if any(1 not in row for row in self._mul[1:]):
            raise ValueError(f"defining polynomial for q={q} is not irreducible")
        self._neg = [row.index(0) for row in self._add]
        self._inv = [None] + [row.index(1) for row in self._mul[1:]]
        self.primitive = next(
            x for x in range(1, q) if len({self.pow(x, n) for n in range(1, q)}) == q - 1
        )

    def add(self, x: int, y: int) -> int:
        return self._add[x][y]

    def mul(self, x: int, y: int) -> int:
        return self._mul[x][y]

    def neg(self, x: int) -> int:
        return self._neg[x]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[x]

    def pow(self, x: int, n: int) -> int:
        out = 1
        for _ in range(n):
            out = self._mul[out][x]
        return out

    def frob(self, x: int, power: int = 1) -> int:
        """x^(p^power)."""
        return self.pow(x, self.p**power)


@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    return GF(q)


def mat_vec(F: GF, A: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(reduce(F.add, map(F.mul, row, v), 0) for row in A)


# ---------------------------------------------------------------- point models

def projective_points(q: int, d: int) -> list[tuple[int, ...]]:
    """Points of PG(d-1, q): normalized vectors in lexicographic order."""
    return [v for v in itertools.product(range(q), repeat=d) if next((c for c in v if c), 0) == 1]


class Model:
    """The points of AG(d, q), or of PG(d-1, q) when `projective`, and the
    permutations of them that maps of GF(q)^d induce."""

    def __init__(self, q: int, d: int, projective: bool = False):
        self.F = gf(q)
        self.d = d
        self.projective = projective
        if projective:
            self.points = projective_points(q, d)
        else:
            self.points = [v[::-1] for v in itertools.product(range(q), repeat=d)]
        self.index = {v: i for i, v in enumerate(self.points)}

    def vector(self, i: int) -> tuple[int, ...]:
        return self.points[i]

    def perm(self, f) -> Permutation:
        """The permutation that the map f of vectors induces on the points;
        projective images are normalized before they are looked up."""
        F = self.F
        images = []
        for v in self.points:
            w = f(v)
            if self.projective:
                s = F.inv(next(c for c in w if c))
                w = tuple(F.mul(s, c) for c in w)
            images.append(self.index[w])
        return Permutation(tuple(images))

    def matrix_perm(self, M: Matrix) -> Permutation:
        return self.perm(lambda v: mat_vec(self.F, M, v))

    def frobenius_perm(self, power: int = 1) -> Permutation:
        return self.perm(lambda v: tuple(self.F.frob(c, power) for c in v))

    def translation_perms(self) -> list[Permutation]:
        """Translations by the standard basis vectors."""
        return [
            self.perm(lambda v, k=k: tuple(self.F.add(c, int(i == k)) for i, c in enumerate(v)))
            for k in range(self.d)
        ]


# ------------------------------------------------------- generator matrices

def diagonal(d: int, *head: int) -> Matrix:
    """The d x d diagonal matrix with `head` first and then ones."""
    entries = (*head, *[1] * (d - len(head)))
    return tuple(tuple(entries[r] if r == c else 0 for c in range(d)) for r in range(d))


def sl_generator_matrices(q: int, d: int) -> list[Matrix]:
    """Elementary matrices generating SL(d, q)."""
    F = gf(q)
    params = [1] if q <= 3 else [1, F.primitive]
    out = []
    for i, j in itertools.permutations(range(d), 2):
        for a in params:
            M = [list(r) for r in diagonal(d)]
            M[i][j] = a
            out.append(tuple(map(tuple, M)))
    if d == 2:
        # diagonal twist keeps the two-parameter span honest for prime powers
        out.append(diagonal(2, F.primitive, F.inv(F.primitive)))
    return out


def projective_generators(
    q: int, d: int, *, pgl: bool = False, frob_power: int = 0
) -> list[Permutation]:
    """Generators of PSL(d, q) on PG(d-1, q), optionally extended by the
    determinant twist diag(g, 1, ..., 1), g primitive (pgl), and by the
    frob_power-th power of the Frobenius."""
    model = Model(q, d, projective=True)
    matrices = sl_generator_matrices(q, d) + ([diagonal(d, model.F.primitive)] if pgl else [])
    gens = [model.matrix_perm(M) for M in matrices]
    if frob_power:
        gens.append(model.frobenius_perm(frob_power))
    return gens


def one_dim_affine_generators(q: int, frob_power: int = 0) -> list[Permutation]:
    """AGL(1,q) = translations + primitive scaling; optional Galois twist."""
    model = Model(q, 1)
    gens = model.translation_perms() + [model.matrix_perm(diagonal(1, model.F.primitive))]
    if frob_power:
        gens.append(model.frobenius_perm(frob_power))
    return gens


def restriction(perms: list[Permutation], points: list[int]) -> list[Permutation]:
    """Relabel perms onto an invariant point list (ascending relabeling)."""
    pos = {p: i for i, p in enumerate(points)}
    out = []
    for g in perms:
        images = [g(p) for p in points]
        if not pos.keys() >= set(images):
            raise ValueError(f"point set {points} is not invariant under {g.images}")
        out.append(Permutation(tuple(pos[x] for x in images)))
    return out
