"""Exact irreducible character tables of finite permutation groups.

The table is computed by splitting the class algebra over a prime field
F_p with p = 1 (mod exponent), then lifting eigenvalue data back to exact
cyclotomic values via discrete Fourier inversion of the power map.  Every
table, computed or imported, is verified against the orthogonality
relations before it is returned, so downstream spectral reasoning can rely
on the values being exactly right.

The split is a few batched F_p operations per group.  The class constants
come from sifting every product x * rep(C_l) in fixed row blocks.  A random
combination `combo` of the class matrices whose characteristic polynomial
has k distinct roots gives all k eigenvectors at once: V = K Q, with K the
Krylov matrix of combo on e_0 and column j of Q the coefficients of
charpoly(x)/(x - lambda_j) from one vectorised synthetic division.  One
einsum checks every vector against every class matrix, the degrees of all
rows come from one vector operation, and the eigenvalue multiplicities from
one Fourier product per class.  Each product sums at most max(k, e) terms
below p^2, which must stay under 2^63.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .cyclo import _EVAL_BLOCK, Cyc, _split_prime, _units
from .errors import TableFormatError
from .fields import factorize
from .group import EnumeratedGroup, PermutationGroup, conjugacy_classes
from .modmath import charpoly_mod, element_of_order, poly_roots_mod, prime_one_mod

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


@dataclass
class CharacterTable:
    """Verified exact character table.

    Rows are sorted by (degree, float shadow of the value list); columns
    follow the canonical class order of the source group (identity first,
    then by element order, class size, discovery index).  `class_orders`
    is None for imported tables, whose serialization does not carry it.
    """

    order: int
    degree: int
    e: int
    k: int
    class_sizes: list[int]
    class_fix: list[int]
    class_der: list[bool]
    class_orders: list[int] | None
    values: list[list[Cyc]]
    degrees: list[int]
    trivial: int
    standard: int

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
        raise TableFormatError("class/row count mismatch")
    if t.class_sizes[0] != 1:
        raise TableFormatError("first class is not the identity class")
    if sum(t.class_sizes) != t.order:
        raise TableFormatError("class sizes do not sum to the group order")
    if t.class_fix[0] != t.degree:
        raise TableFormatError("identity fixes fewer points than the degree")
    for f, d in zip(t.class_fix, t.class_der):
        if d != (f == 0):
            raise TableFormatError("derangement flag disagrees with fix count")
    for r, row in enumerate(t.values):
        if len(row) != t.k:
            raise TableFormatError("ragged value row")
        if not (row[0] - t.degrees[r]).is_zero():
            raise TableFormatError("identity column disagrees with the degree list")
        if t.degrees[r] < 1 or t.order % t.degrees[r]:
            raise TableFormatError("degree does not divide the group order")
    if sum(d * d for d in t.degrees) != t.order:
        raise TableFormatError("degree squares do not sum to the group order")
    failing = np.argwhere(np.triu(_orthogonality_failures(t)))
    if failing.size:
        a, b = (int(x) for x in failing[0])
        raise TableFormatError(f"rows {a},{b} violate orthogonality")
    if (t.trivial, t.standard) != _locate_distinguished(t.values, t.class_fix):
        raise TableFormatError("trivial or standard index names the wrong row")


def _locate_distinguished(values: list[list[Cyc]], class_fix: list[int]) -> tuple[int, int]:
    one = Cyc.integer(1, 1)
    trivial = standard = -1
    for r, row in enumerate(values):
        if all((v - one).is_zero() for v in row):
            if trivial >= 0:
                raise TableFormatError("two all-ones rows")
            trivial = r
        if all((v - (f - 1)).is_zero() for v, f in zip(row, class_fix)):
            if standard >= 0:
                raise TableFormatError("two fix-1 rows")
            standard = r
    if trivial < 0:
        raise TableFormatError("no trivial character row")
    if standard < 0:
        raise TableFormatError("no fix-1 character row (group not 2-transitive?)")
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
    the sorted table.  The key rounds the numpy float64 scalars that
    `Cyc.approx` returns; rounding Python floats could break ties
    differently."""
    shadow = _shadow(values)

    def key(r: int):
        return (degrees[r], [(round(z.real, 9), round(z.imag, 9)) for z in shadow[r]])

    idx = sorted(range(len(values)), key=key)
    return [values[r] for r in idx], [degrees[r] for r in idx], shadow[idx]


def _krylov_eigenvectors(
    combo: np.ndarray, cp: np.ndarray, roots: list[int], p: int
) -> np.ndarray | None:
    """Eigenvectors of `combo` mod p for its k distinct roots, one per row,
    scaled to v[0] = 1; None if some vector has v[0] = 0.

    With K the Krylov matrix whose column t is combo^t e_0, and q_j the
    quotient charpoly(x) / (x - lambda_j), K q_j = q_j(combo) e_0 lies in
    the lambda_j eigenspace (Cayley-Hamilton) and equals a_j q_j(lambda_j)
    v_j, where a_j is the e_0 coefficient along v_j.  For the central
    characters a_j = chi_j(1)^2/|G|, which is a unit mod p, and q_j(lambda_j)
    is the product of the root differences, so no vector vanishes."""
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


def character_table(eg: EnumeratedGroup, seed: int = 1) -> CharacterTable:
    """Compute the exact character table of a fully enumerated group."""
    eg.compute_classes()
    k = eg.n_classes
    order = len(eg.E)
    sizes = eg.class_sizes
    e = math.lcm(*eg.class_orders)
    p = prime_one_mod(e, max(2 * math.isqrt(order) + 1, k))
    # every batched product below sums at most max(k, e) terms below p^2
    terms = max(k, e)
    if terms * (p - 1) ** 2 >= 2**63:
        raise AssertionError(
            f"Dixon prime {p} too large: {terms}*(p-1)^2 must stay below 2^63 "
            "for exact int64 products"
        )
    mats = class_constants(eg) % p

    # power map on classes: powmap[l][t] = class of rep(C_l)^t, from one
    # sift of the stacked power rows of every representative
    power_rows = []
    for l in range(k):
        rep = eg.E[eg.class_seeds[l]].astype(np.intp)
        row = np.arange(len(rep), dtype=np.intp)
        for _ in range(eg.class_orders[l]):
            power_rows.append(row)
            row = rep[row]
    stacked = np.array(power_rows, dtype=eg.E.dtype)
    idx = eg.group.element_index(stacked)
    if not np.array_equal(eg.E[idx], stacked):
        raise AssertionError("a class representative's power left the group")
    cuts = np.cumsum(eg.class_orders)[:-1]
    powmap = np.split(eg.class_of[idx].astype(np.intp), cuts)

    rng = random.Random(seed * 1000003 + p)
    for _ in range(MAX_SPLIT_ATTEMPTS):
        draws = np.array([rng.randrange(p) for _ in range(k)], dtype=np.int64)
        combo = np.tensordot(draws, mats, axes=1) % p
        cp = charpoly_mod(combo, p)
        roots = poly_roots_mod(cp, p)
        if len(roots) != k:
            continue
        vecs = _krylov_eigenvectors(combo, cp, roots, p)
        # every vector must be a common eigenvector of every class matrix,
        # with eigenvalue v[i] on mats[i] (the omega identity)
        if vecs is not None and np.array_equal(
            np.einsum("iab,jb->jia", mats, vecs) % p,
            vecs[:, :, None] * vecs[:, None, :] % p,
        ):
            break
    else:
        raise AssertionError("class algebra failed to split over F_p")

    z = element_of_order(p, e, list(factorize(e)))
    inv_sizes = np.array([pow(s, -1, p) for s in sizes], dtype=np.int64)
    # <omega, omega-bar>/|C| sums to |G|/chi(1)^2 for each row; the degree
    # is the one d <= sqrt|G| with d^2 * s = |G| (mod p)
    norms = (vecs * vecs[:, eg.inverse_class] % p) @ inv_sizes % p
    cand = np.arange(1, math.isqrt(order) + 1, dtype=np.int64)
    hit = cand * cand % p * norms[:, None] % p == order % p
    if not hit.any(axis=1).all():
        raise AssertionError("no admissible degree for a split row")
    deg = cand[hit.argmax(axis=1)]
    # F[j, l] = chi_j(rep(C_l)) mod p
    F = vecs * deg[:, None] % p * inv_sizes % p

    # mult[j, s] of class l: the multiplicity of zeta_o^s as an eigenvalue
    # of rep(C_l) in row j, (1/o) sum_t chi_j(rep^t) w^(-s*t) for w = z^(e/o)
    # of order o, one Fourier product per class over every row at once
    tables: dict[int, np.ndarray] = {}

    def fourier(o: int) -> np.ndarray:
        """fourier(o)[s, t] = w^(-s*t), one table per class order."""
        if o not in tables:
            w_inv = pow(z, -(e // o), p)
            powers = np.array([pow(w_inv, j, p) for j in range(o)], dtype=np.int64)
            grid = np.arange(o, dtype=np.int64)
            tables[o] = powers[np.outer(grid, grid) % o]
        return tables[o]

    columns = []
    for l in range(k):
        o = len(powmap[l])
        mult = F[:, powmap[l]] @ fourier(o) % p * pow(o, -1, p) % p
        if (mult > deg[:, None]).any():
            raise AssertionError("eigenvalue multiplicity exceeds the degree")
        if (mult.sum(axis=1) != deg).any():
            raise AssertionError("eigenvalue multiplicities do not sum to the degree")
        columns.append([
            Cyc.root_sum(o, [(s, m) for s, m in enumerate(row) if m])
            for row in mult.tolist()
        ])
    values = [list(row) for row in zip(*columns)]
    degrees = deg.tolist()

    values, degrees, shadow = _sort_rows(values, degrees)
    class_fix = eg.class_fix
    trivial, standard = _propose_distinguished(shadow, class_fix)
    table = CharacterTable(
        order=order,
        degree=eg.group.degree,
        e=e,
        k=k,
        class_sizes=list(sizes),
        class_fix=list(class_fix),
        class_der=[f == 0 for f in class_fix],
        class_orders=list(eg.class_orders),
        values=values,
        degrees=degrees,
        trivial=trivial,
        standard=standard,
    )
    _verify_table(table)
    return table


# ---- serialization ----
#
# Line 1: "k e |G|".  Then k class lines "size fix_count is_derangement",
# identity class first.  Then k character lines, each holding k values
# separated by spaces; a value is the comma-separated integer coefficient
# list c0,c1,...  of the element sum_t c_t zeta_e^t, with trailing zeros
# omitted (a bare "0" for zero, full e-length lists accepted on input).


def _encode_value(v: Cyc, e: int) -> str:
    _, coords, den = v.embed(e).canonical()
    if den != 1:
        raise TableFormatError("non-integral character value")
    trimmed = list(coords)
    while len(trimmed) > 1 and trimmed[-1] == 0:
        trimmed.pop()
    return ",".join(str(c) for c in trimmed)


def export_table(t: CharacterTable) -> str:
    lines = [f"{t.k} {t.e} {t.order}"]
    for s, f, d in zip(t.class_sizes, t.class_fix, t.class_der):
        lines.append(f"{s} {f} {int(d)}")
    for row in t.values:
        lines.append(" ".join(_encode_value(v, t.e) for v in row))
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> CharacterTable:
    """Parse and fully verify a serialized character table."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise TableFormatError("empty table file")
    head = lines[0].split()
    if len(head) != 3:
        raise TableFormatError("header must be 'k e order'")
    try:
        k, e, order = (int(x) for x in head)
    except ValueError:
        raise TableFormatError("non-integer header field") from None
    if k < 1 or e < 1 or order < 1 or len(lines) != 1 + 2 * k:
        raise TableFormatError("wrong line count for the declared class number")
    sizes, fixes, ders = [], [], []
    for ln in lines[1 : 1 + k]:
        parts = ln.split()
        if len(parts) != 3:
            raise TableFormatError("class line must be 'size fix der'")
        try:
            s, f, d = (int(x) for x in parts)
        except ValueError:
            raise TableFormatError("non-integer class line field") from None
        if s < 1 or f < 0 or d not in (0, 1):
            raise TableFormatError("class line out of range")
        sizes.append(s)
        fixes.append(f)
        ders.append(bool(d))
    values: list[list[Cyc]] = []
    degrees: list[int] = []
    for ln in lines[1 + k :]:
        tokens = ln.split()
        if len(tokens) != k:
            raise TableFormatError("character line has the wrong value count")
        row = []
        for tok in tokens:
            try:
                coeffs = [int(c) for c in tok.split(",")]
            except ValueError:
                raise TableFormatError("non-integer coefficient") from None
            if len(coeffs) > e:
                raise TableFormatError("coefficient list longer than the conductor")
            row.append(Cyc.root_sum(e, list(enumerate(coeffs))))
        try:
            deg = row[0].to_int()
        except ValueError:
            raise TableFormatError("identity column value is not an integer") from None
        if deg < 1:
            raise TableFormatError("non-positive degree")
        values.append(row)
        degrees.append(deg)
    trivial, standard = _propose_distinguished(_shadow(values), fixes)
    table = CharacterTable(
        order=order,
        degree=fixes[0],
        e=e,
        k=k,
        class_sizes=sizes,
        class_fix=fixes,
        class_der=ders,
        class_orders=None,
        values=values,
        degrees=degrees,
        trivial=trivial,
        standard=standard,
    )
    _verify_table(table)
    return table


def character_table_for(
    group: PermutationGroup, eg: EnumeratedGroup | None = None
) -> CharacterTable:
    """Table for a group, from its enumeration `eg` when the caller has one."""
    return character_table(eg if eg is not None else conjugacy_classes(group))
