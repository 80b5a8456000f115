"""The cyclotomic character table: the oracle for the rational table of
`chartab`, with its own class constants, split and lift, each computed
one item at a time.

`character_table` splits the class algebra over F_p with p = 1 (mod e),
one eigenvalue at a time by a Gauss-Jordan nullspace of combo - lambda*I,
and lifts one (row, class) pair at a time to exact values in Q(zeta_e) by
discrete Fourier inversion of the power map.  `_verify_table` certifies
the result: the degrees, the trivial and fix-1 rows, and orthogonality by
the batched F_p check `_orthogonality_failures`.  `class_constants` sifts
the products of one class pair (i, l) per call, k^2 calls in all, and
`rational_class_constants` sums them over rational classes: the oracle
for the blocked sift of `chartab.class_constants`.

`inner_product` and `first_orthogonality_failure` check orthogonality one
exact inner product at a time, the oracle for the batched check: each
inner product is summed in `Cyc` arithmetic and compared with its
Kronecker delta by `Cyc.is_zero`, which shares no code with the batched
evaluation.

`omega_rows` reads the rational table off the cyclotomic one: the
integer omega_chi(S) = (1/chi(1)) sum_{C in S} |C| chi(C) of every
character on every rational class, by `to_int`.
"""

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ekrcheck.cyclo import _EVAL_BLOCK, Cyc, _split_prime, _units
from ekrcheck.fields import factorize
from ekrcheck.group import EnumeratedGroup, conjugacy_classes
from ekrcheck.library import get_group
from ekrcheck.modmath import element_of_order, prime_one_mod

from modmath_reference import nullspace_mod


MAX_SPLIT_ATTEMPTS = 64


def charpoly_mod(A: np.ndarray, p: int) -> np.ndarray:
    """Characteristic polynomial coefficients mod p (Faddeev-LeVerrier),
    returned lowest degree first with leading coefficient (-1)^k folded out:
    result[j] is the coefficient of x^j of det(xI - A)."""
    A = np.array(A, dtype=np.int64) % p
    k = A.shape[0]
    coeffs = np.zeros(k + 1, dtype=np.int64)
    coeffs[k] = 1
    M = np.zeros_like(A)
    c = 1
    for j in range(1, k + 1):
        M = (A @ M + c * np.eye(k, dtype=np.int64)) % p
        c = (-(np.trace(A @ M) % p) * pow(j, -1, p)) % p
        coeffs[k - j] = c
    return coeffs % p


def poly_roots_mod(coeffs: np.ndarray, p: int) -> list[int]:
    """All roots in F_p of the polynomial with the given coefficients
    (lowest degree first), found by direct evaluation."""
    xs = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        vals = (vals * xs + int(c)) % p
    return [int(x) for x in np.nonzero(vals == 0)[0]]


def to_int(x: Cyc) -> int:
    """The value as an int, when it is a rational integer; anything else
    raises ValueError.  The float value proposes the integer and the exact
    zero test decides, so a wrong int is never returned; an integer too
    large for a float to round exactly (about 2^52) raises."""
    m = round(x.approx().real)
    if not (x - m).is_zero():
        raise ValueError(f"{x!r} is not a rational integer")
    return m


@dataclass
class CharacterTable:
    """Verified exact character table.

    Rows are sorted by (degree, float shadow of the value list); columns
    follow the canonical class order of the source group (identity first,
    then by element order, class size, discovery index).
    """

    order: int
    degree: int
    e: int
    k: int
    class_sizes: list[int]
    class_fix: list[int]
    class_orders: list[int]
    values: list[list[Cyc]]
    degrees: list[int]
    trivial: int
    standard: int

    @property
    def class_der(self) -> list[bool]:
        """Whether each class consists of derangements."""
        return [f == 0 for f in self.class_fix]

    def permutation_character(self) -> list[Cyc]:
        return [Cyc.integer(1, f) for f in self.class_fix]


def _orthogonality_failures(t: CharacterTable) -> np.ndarray:
    """Boolean k x k mask of the row pairs (a, b) with <chi_a, chi_b> != delta_ab.

    With D the common denominator of the values, every relation scaled by
    D^2|G| reads x_ab = sum_l |C_l| D chi_a(l) conj(D chi_b(l)) - D^2|G| delta_ab
    = 0 in Z[zeta_e].  Every conjugate of x_ab is at most
    B = max_ab sum_l |C_l| |D chi_a(l)|_1 |D chi_b(l)|_1 + D^2|G| in absolute
    value (|.|_1 the sum of |coefficients|), so by the norm argument of
    `cyclo` x_ab = 0 exactly when it vanishes at omega^u for every unit u
    modulo split primes whose product exceeds B.  At one prime and unit all
    k^2 values x_ab(omega^u) + D^2|G| delta_ab are the entries of
    X_u diag(|C|) Y_u^T, with X_u the table evaluated at omega^u and Y_u at
    omega^-u.  Since X_-u = Y_u that product at -u is the transpose of the
    one at u, so one unit of each pair {u, -u} is evaluated."""
    e, k = t.e, t.k
    entries = [v for row in t.values for v in row]
    D = math.lcm(*(v.den for v in entries))
    # the terms of the k^2 scaled entries, entry by entry; a zero entry
    # keeps one zero term so that every entry owns a segment
    exps: list[int] = []
    coefs: list[int] = []
    starts: list[int] = []
    norms = np.empty(k * k, dtype=object)
    for idx, v in enumerate(entries):
        v, scale = v.embed(e), D // v.den
        starts.append(len(exps))
        for x, c in v.num.items() or [(0, 0)]:
            exps.append(x)
            coefs.append(c * scale)
        norms[idx] = scale * sum(abs(c) for c in v.num.values())
    norms = norms.reshape(k, k)
    target = D * D * t.order
    bound = int(((norms * np.array(t.class_sizes, dtype=object)) @ norms.T).max()) + target
    exps_arr = np.array(exps, dtype=np.int64)
    starts_arr = np.array(starts, dtype=np.intp)
    units = _units(e)
    half = units[units <= (-units) % e]
    block = max(1, _EVAL_BLOCK // max(len(exps), k * k))
    fail = np.zeros((k, k), dtype=bool)
    modulus, i = 1, 0
    while modulus <= bound:
        p, powers = _split_prime(e, i)
        coef = np.array([c % p for c in coefs], dtype=np.int64)
        sizes = np.array(t.class_sizes, dtype=np.int64) % p
        want = target % p * np.eye(k, dtype=np.int64)

        def evaluate(us):
            terms = powers[np.outer(us, exps_arr) % e] * coef % p
            return (np.add.reduceat(terms, starts_arr, axis=1) % p).reshape(-1, k, k)

        for s in range(0, len(half), block):
            us = half[s : s + block]
            X = evaluate(us) * sizes % p
            Y = evaluate(-us % e)
            acc = np.zeros((len(us), k, k), dtype=np.int64)
            for l in range(k):
                acc += X[:, :, l, None] * Y[:, None, :, l]
                acc %= p
            bad = (acc != want).any(axis=0)
            fail |= bad | bad.T
        modulus *= p
        i += 1
    return fail


def _verify_table(t: CharacterTable) -> None:
    if t.k != len(t.class_sizes) or t.k != len(t.values):
        raise ValueError("class/row count mismatch")
    if t.class_sizes[0] != 1:
        raise ValueError("first class is not the identity class")
    if sum(t.class_sizes) != t.order:
        raise ValueError("class sizes do not sum to the group order")
    if t.class_fix[0] != t.degree:
        raise ValueError("identity fixes fewer points than the degree")
    for r, row in enumerate(t.values):
        if len(row) != t.k:
            raise ValueError("ragged value row")
        if not (row[0] - t.degrees[r]).is_zero():
            raise ValueError("identity column disagrees with the degree list")
        if t.degrees[r] < 1 or t.order % t.degrees[r]:
            raise ValueError("degree does not divide the group order")
    if sum(d * d for d in t.degrees) != t.order:
        raise ValueError("degree squares do not sum to the group order")
    failing = np.argwhere(np.triu(_orthogonality_failures(t)))
    if failing.size:
        a, b = (int(x) for x in failing[0])
        raise ValueError(f"rows {a},{b} violate orthogonality")
    if (t.trivial, t.standard) != _locate_distinguished(t.values, t.class_fix):
        raise ValueError("trivial or standard index names the wrong row")


def _locate_distinguished(values: list[list[Cyc]], class_fix: list[int]) -> tuple[int, int]:
    one = Cyc.integer(1, 1)
    trivial = standard = -1
    for r, row in enumerate(values):
        if all((v - one).is_zero() for v in row):
            if trivial >= 0:
                raise ValueError("two all-ones rows")
            trivial = r
        if all((v - (f - 1)).is_zero() for v, f in zip(row, class_fix)):
            if standard >= 0:
                raise ValueError("two fix-1 rows")
            standard = r
    if trivial < 0:
        raise ValueError("no trivial character row")
    if standard < 0:
        raise ValueError("no fix-1 character row (group not 2-transitive?)")
    return trivial, standard


def _shadow(values: list[list[Cyc]]) -> np.ndarray:
    """The float shadow of a table: every value as a complex128."""
    return np.array([[v.approx() for v in row] for row in values])


def _propose_distinguished(shadow: np.ndarray, class_fix: list[int]) -> tuple[int, int]:
    """The rows whose float shadows lie nearest all-ones and fix-1, a
    proposal that `_verify_table` confirms exactly.  By orthogonality any
    other irreducible row differs from either by at least sqrt(2) at some
    class, far beyond the float error."""
    distance = [np.abs(shadow - target).max(axis=1) for target in (1, np.array(class_fix) - 1)]
    return int(distance[0].argmin()), int(distance[1].argmin())


def _sort_rows(
    values: list[list[Cyc]], degrees: list[int]
) -> tuple[list[list[Cyc]], list[int], np.ndarray]:
    """Rows sorted by (degree, rounded float shadow), with the shadow of
    the sorted table.  The key rounds the whole shadow with `np.round`,
    which is what `round` does on the numpy float64 scalars that
    `Cyc.approx` returns; rounding Python floats could break ties
    differently."""
    shadow = _shadow(values)
    re = np.round(shadow.real, 9).tolist()
    im = np.round(shadow.imag, 9).tolist()

    def key(r: int):
        return (degrees[r], list(zip(re[r], im[r])))

    idx = sorted(range(len(values)), key=key)
    return [values[r] for r in idx], [degrees[r] for r in idx], shadow[idx]


def inner_product(table: CharacterTable, u, v) -> Cyc:
    """Exact <u, v> = (1/|G|) * sum |C_l| u_l conj(v_l) over the classes.

    u and v are class functions given as sequences of Cyc (table rows work
    directly); plain ints are accepted and coerced.
    """
    total = Cyc.zero(1)
    for size, a, b in zip(table.class_sizes, u, v):
        a = a if isinstance(a, Cyc) else Cyc.rational(1, a)
        b = b if isinstance(b, Cyc) else Cyc.rational(1, b)
        total = total + (a * b.conj()) * size
    return total / table.order


def first_orthogonality_failure(table: CharacterTable):
    """The first row pair (a, b), a <= b in lexicographic order, whose inner
    product is not the Kronecker delta, or None."""
    for a in range(table.k):
        for b in range(a, table.k):
            want = 1 if a == b else 0
            if not (inner_product(table, table.values[a], table.values[b]) - want).is_zero():
                return a, b
    return None


def class_constants(eg: EnumeratedGroup) -> np.ndarray:
    """a[i, j, l] = #{x in C_i : x^-1 * rep(C_l) in C_j}, one sift and one
    histogram per class pair (i, l)."""
    k = eg.n_classes
    mats = np.zeros((k, k, k), dtype=np.int64)
    reps = [eg.E[s].astype(np.intp) for s in eg.class_seeds]
    for i in range(k):
        members = np.nonzero(eg.class_of == i)[0]
        # the inverse of an image row is its argsort
        Xinv = np.argsort(eg.E[members], axis=1).astype(eg.E.dtype)
        for l in range(k):
            labels = eg.class_of[eg.group.element_index(Xinv[:, reps[l]])]
            mats[i, :, l] = np.bincount(labels, minlength=k)
    return mats


def rational_class_constants(eg: EnumeratedGroup, classes: list[list[int]]) -> np.ndarray:
    """A[R, S, T] = sum over i in R, j in S of a[i, j, l] for the first
    class l of T: the class constants summed over the partition `classes`."""
    mats = class_constants(eg)
    member = np.zeros((eg.n_classes, len(classes)), dtype=np.int64)
    for S, cls in enumerate(classes):
        member[cls, S] = 1
    full = np.einsum("iR,ijl,jS->RSl", member, mats, member)
    return full[:, :, [cls[0] for cls in classes]]


def character_table(eg: EnumeratedGroup, seed: int = 1) -> CharacterTable:
    """The exact character table by a split one eigenvalue at a time."""
    k = eg.n_classes
    order = len(eg.E)
    sizes = eg.class_sizes
    e = math.lcm(*eg.class_orders)
    p = prime_one_mod(e, max(2 * math.isqrt(order) + 1, k))
    mats = class_constants(eg) % p

    # powmap[l][t] = class of rep(C_l)^t, one element at a time
    powmap = []
    for l in range(k):
        rep = eg.E[eg.class_seeds[l]].astype(np.intp)
        row = np.arange(len(rep), dtype=np.intp)
        classes = []
        for _ in range(eg.class_orders[l]):
            idx = int(eg.group.element_index(row[None, :].astype(eg.E.dtype))[0])
            assert np.array_equal(eg.E[idx], row)
            classes.append(int(eg.class_of[idx]))
            row = rep[row]
        powmap.append(classes)

    rng = random.Random(seed * 1000003 + p)
    eye = np.eye(k, dtype=np.int64)
    vecs = None
    for _ in range(MAX_SPLIT_ATTEMPTS):
        combo = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            combo = (combo + rng.randrange(p) * mats[i]) % p
        roots = poly_roots_mod(charpoly_mod(combo, p), p)
        if len(roots) != k:
            continue
        found = []
        for lam in roots:
            ns = nullspace_mod((combo - lam * eye) % p, p)
            if ns.shape[0] != 1 or ns[0, 0] == 0:
                break
            v = ns[0] * pow(int(ns[0, 0]), -1, p) % p
            if not all(np.array_equal(mats[i] @ v % p, v[i] * v % p) for i in range(k)):
                break
            found.append(v)
        if len(found) == k:
            vecs = found
            break
    assert vecs is not None, "class algebra failed to split over F_p"

    z = element_of_order(p, e, list(factorize(e)))
    inv_sizes = [pow(s, -1, p) for s in sizes]
    inverse = [eg.class_of[eg.index_of(eg.class_rep(c).inverse())] for c in range(k)]
    values: list[list[Cyc]] = []
    degrees: list[int] = []
    for v in vecs:
        s = sum(int(v[i]) * int(v[inverse[i]]) * inv_sizes[i] for i in range(k)) % p
        d_sq = order * pow(s, -1, p) % p
        deg = next(d for d in range(1, math.isqrt(order) + 1) if d * d % p == d_sq)
        f = [int(v[l]) * deg * inv_sizes[l] % p for l in range(k)]
        row = []
        for l in range(k):
            o = len(powmap[l])
            w_inv = pow(z, -(e // o), p)
            inv_o = pow(o, -1, p)
            # multiplicity of zeta_o^s: (1/o) sum_t f(rep^t) w^(-s*t)
            mult = [
                sum(f[powmap[l][t]] * pow(w_inv, s * t, p) for t in range(o)) % p * inv_o % p
                for s in range(o)
            ]
            assert sum(mult) == deg and max(mult) <= deg
            row.append(Cyc.root_sum(o, [(s, m) for s, m in enumerate(mult) if m]))
        values.append(row)
        degrees.append(deg)

    values, degrees, shadow = _sort_rows(values, degrees)
    trivial, standard = _propose_distinguished(shadow, eg.class_fix)
    table = CharacterTable(
        order=order,
        degree=eg.group.degree,
        e=e,
        k=k,
        class_sizes=list(sizes),
        class_fix=list(eg.class_fix),
        class_orders=list(eg.class_orders),
        values=values,
        degrees=degrees,
        trivial=trivial,
        standard=standard,
    )
    _verify_table(table)
    return table


def omega_rows(table: CharacterTable, classes: list[list[int]]) -> list[tuple[int, ...]]:
    """omega_chi(S) = (1/chi(1)) sum_{C in S} |C| chi(C) for every row chi
    of the cyclotomic table and every rational class S, as ints."""
    rows = []
    for r, values in enumerate(table.values):
        row = []
        for cls in classes:
            acc = Cyc.zero(1)
            for c in cls:
                acc = acc + values[c] * table.class_sizes[c]
            row.append(to_int(acc / table.degrees[r]))
        rows.append(tuple(row))
    return rows


@lru_cache(maxsize=None)
def enumerated(key: str) -> EnumeratedGroup:
    """The enumerated catalog group with its classes, once per key."""
    return conjugacy_classes(get_group(key)[1])


@lru_cache(maxsize=None)
def oracle_table(key: str) -> CharacterTable:
    """The cyclotomic table of a catalog group, once per key."""
    return character_table(enumerated(key))
