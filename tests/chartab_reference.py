"""Oracles for `chartab`: pairwise orthogonality, class constants and the
Dixon split, each computed one item at a time.

`inner_product` and `first_orthogonality_failure` check orthogonality one
exact inner product at a time, the oracle for the batched F_p check in
`chartab._verify_table`: each inner product is summed in `Cyc` arithmetic
and compared with its Kronecker delta by `Cyc.is_zero`, which shares no
code with the batched evaluation.

`class_constants` sifts the products of one class pair (i, l) per call,
k^2 calls in all, the oracle for the blocked sift.  `character_table`
splits the class algebra one eigenvalue at a time, by a Gauss-Jordan
nullspace of combo - lambda*I, and lifts one (row, class) pair at a time:
the oracle for the Krylov eigenvectors and the batched lift.  It draws the
same random combination for the same seed, so both must give the same
table.
"""

import math
import random

import numpy as np

from ekrcheck.chartab import (
    MAX_SPLIT_ATTEMPTS,
    CharacterTable,
    _propose_distinguished,
    _sort_rows,
    _verify_table,
)
from ekrcheck.cyclo import Cyc
from ekrcheck.fields import factorize
from ekrcheck.group import EnumeratedGroup
from ekrcheck.modmath import charpoly_mod, element_of_order, poly_roots_mod, prime_one_mod

from modmath_reference import nullspace_mod


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
    eg.compute_classes()
    k = eg.n_classes
    mats = np.zeros((k, k, k), dtype=np.int64)
    reps = [eg.E[s].astype(np.intp) for s in eg.class_seeds]
    for i in range(k):
        members = np.nonzero(eg.class_of == i)[0]
        Xinv = eg.E[eg.inv_index[members]]
        for l in range(k):
            labels = eg.class_of[eg.group.element_index(Xinv[:, reps[l]])]
            mats[i, :, l] = np.bincount(labels, minlength=k)
    return mats


def character_table(eg: EnumeratedGroup, seed: int = 1) -> CharacterTable:
    """The exact character table by a split one eigenvalue at a time."""
    eg.compute_classes()
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
    values: list[list[Cyc]] = []
    degrees: list[int] = []
    for v in vecs:
        s = sum(int(v[i]) * int(v[eg.inverse_class[i]]) * inv_sizes[i] for i in range(k)) % p
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
