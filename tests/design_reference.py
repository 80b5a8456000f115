"""Symmetric designs by brute force, the references for
`pipeline.hyperplane_witness`.

A k-subset whose orbit under a 2-transitive group has exactly n sets is a
block of a symmetric 2-(n,k,lambda) design, lambda = k(k-1)/(n-1).  The
orbit is found by a search over point sets under the generators, and the
blocks of the projective design come from a GF(q) dot product, so nothing
here reads the group's conjugacy classes or its enumeration.
"""

import itertools

from ekrcheck.fields import gf
from ekrcheck.library import projective_points


def block_sizes(n: int) -> list[int]:
    """The k in 2..n/2 with (n-1) | k(k-1)."""
    return [k for k in range(2, n // 2 + 1) if k * (k - 1) % (n - 1) == 0]


def set_orbit(generators, B) -> set[frozenset[int]]:
    """The images of the point set B under the group the generators span."""
    start = frozenset(B)
    seen, todo = {start}, [start]
    while todo:
        S = todo.pop()
        for g in generators:
            T = frozenset(g(x) for x in S)
            if T not in seen:
                seen.add(T)
                todo.append(T)
    return seen


def scanned_block(generators, n: int) -> frozenset[int] | None:
    """The first k-subset through point 0, k a block size, whose orbit has
    exactly n sets, scanning every such subset whose orbit is not yet
    known; None when there is none."""
    for k in block_sizes(n):
        seen: set[frozenset[int]] = set()
        for rest in itertools.combinations(range(1, n), k - 1):
            S = frozenset((0, *rest))
            if S in seen:
                continue
            orbit = set_orbit(generators, S)
            if len(orbit) == n:
                return S
            seen |= orbit
    return None


def hyperplanes(q: int, d: int) -> list[frozenset[int]]:
    """The hyperplanes of PG(d-1, q) as sets of point indices, one per
    normalized functional f in point order: the points v with f . v = 0."""
    F = gf(q)
    points = projective_points(q, d)

    def dot(u, v):
        acc = 0
        for a, b in zip(u, v):
            acc = F.add(acc, F.mul(a, b))
        return acc

    return [frozenset(i for i, v in enumerate(points) if dot(f, v) == 0) for f in points]
