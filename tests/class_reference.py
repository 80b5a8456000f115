"""Reference conjugacy class labelling and class streaming by
breadth-first search, and a class representative by random draws.

A per-element BFS under conjugation by the generators, seeded at the
smallest unlabelled index: the straightforward labelling that an
`EnumeratedGroup` must reproduce exactly when it is built.  A per-row BFS
from one representative, keyed by row bytes: the class stream that
`group.conjugation_orbit` must reproduce row for row.
"""

import random

import numpy as np


def bfs_class_labels(eg):
    """(class_of, class_seeds, class_sizes, class_orders)
    for an EnumeratedGroup, labelled in the same canonical order."""
    E = eg.E
    N = len(E)
    index = {E[i].tobytes(): i for i in range(N)}
    gen_pairs = [(np.array(g.images, dtype=np.int8),
                  np.array(g.inverse().images, dtype=np.int8))
                 for g in eg.group.generators]
    class_of = np.full(N, -1, dtype=np.int64)
    seeds, sizes = [], []
    for i in range(N):
        if class_of[i] >= 0:
            continue
        label = len(seeds)
        seeds.append(i)
        class_of[i] = label
        frontier = [E[i]]
        size = 1
        while frontier:
            nxt = []
            for row in frontier:
                for g, ginv in gen_pairs:
                    conj = ginv[row[g]]
                    j = index[conj.tobytes()]
                    if class_of[j] < 0:
                        class_of[j] = label
                        size += 1
                        nxt.append(conj)
            frontier = nxt
        sizes.append(size)
    orders = [eg.element(s).order() for s in seeds]
    perm_labels = sorted(
        range(len(seeds)),
        key=lambda l: (l != 0, orders[l], sizes[l], seeds[l]),
    )
    relabel = np.empty(len(seeds), dtype=np.int64)
    for new, old in enumerate(perm_labels):
        relabel[old] = new
    class_of = relabel[class_of]
    class_seeds = [seeds[old] for old in perm_labels]
    return (
        class_of,
        class_seeds,
        [sizes[old] for old in perm_labels],
        [orders[old] for old in perm_labels],
    )


def bfs_conjugation_orbit(group, rep):
    """Conjugacy class of rep as an int8 image array: row 0 is rep, the
    rest in the order a first-in first-out BFS under conjugation by the
    generators discovers them."""
    pairs = [(np.array(g.images, dtype=np.int8),
              np.array(g.inverse().images, dtype=np.int8))
             for g in group.generators]
    seed = np.array(rep.images, dtype=np.int8)
    rows = [seed]
    seen = {seed.tobytes()}
    head = 0
    while head < len(rows):
        row = rows[head]
        head += 1
        for g, ginv in pairs:
            # (g^-1 x g)(pt) = g^-1(x(g(pt)))
            conj = ginv[row[g]]
            key = conj.tobytes()
            if key not in seen:
                seen.add(key)
                rows.append(conj)
    return np.array(rows, dtype=np.int8)


def find_class_rep(group, order, cycle_type, seed=11, tries=20000):
    """The first element of the given order and cycle type (fixed points
    included) that a seeded draw of uniform elements gives."""
    rng = random.Random(seed)
    for _ in range(tries):
        g = group.random_element(rng)
        if g.order() == order and g.cycle_type() == cycle_type:
            return g
    raise AssertionError(f"no element of order {order} with cycle type {cycle_type} drawn")
