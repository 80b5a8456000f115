"""Reference constructions for the rank layer, built the straightforward way.

Each derangement row becomes its 0/1 row of M, and N = M^T M is a float64
matrix product over chunks of rows: the construction that
`modrank.gram_offdiag` must reproduce exactly.  The class Gram by orbit
labelling on all n^4 quadruples and the pairs graph's orbital matrix
from dense products are the oracles for `modrank.quadruple_orbit_gram`
and `modrank._pairs_algebra_matrix`; `expand_orbit_values` lays the per-orbit
values of `quadruple_orbit_gram` out as a dense Gram, |G|/|C| times the
one that `gram_offdiag` counts on z's class C, and `dense_pair_classes`
gives the class of each of its entries.
"""

import numpy as np

from ekrcheck.group import orbit_labels


def derangement_block(rows, n):
    """Dense 0/1 block of M for the given derangement image rows.

    Each row has exactly n-2 ones: the first n-1 points all move, and
    exactly one of them lands on the last point (whose column is cut)."""
    rows = np.asarray(rows)
    m = rows.shape[0]
    cols = (n - 1) * (n - 2)
    if (rows == np.arange(n, dtype=rows.dtype)).any():
        raise ValueError("non-derangement row passed to derangement_block")
    # index arithmetic overflows int8 past degree 12; widen first
    pts = np.arange(n - 1, dtype=np.int64)
    J = rows[:, : n - 1].astype(np.int64)
    valid = J <= n - 2
    col = pts[None, :] * (n - 2) + J - (J > pts[None, :])
    block = np.zeros((m, cols), dtype=np.int8)
    r_idx = np.broadcast_to(np.arange(m)[:, None], J.shape)[valid]
    block[r_idx, col[valid]] = 1
    assert (block.sum(axis=1) == n - 2).all()
    return block


def dense_gram(rows, n, chunk=16_384):
    """Exact N = M^T M by float64 products of dense blocks; every partial
    sum is an integer bounded by the row count, far below 2^53."""
    cols = (n - 1) * (n - 2)
    acc = np.zeros((cols, cols), dtype=np.float64)
    for lo in range(0, rows.shape[0], chunk):
        blk = derangement_block(rows[lo : lo + chunk], n).astype(np.float64)
        acc += blk.T @ blk
    N = np.rint(acc).astype(np.int64)
    assert np.array_equal(acc, N)
    return N


# ---- class Gram matrices and the pairs graph, the straightforward way ----


def _quadruple_labels(group):
    """Orbit label of every quadruple (a, b, c, d), index
    ((a n + b) n + c) n + d, by min-label propagation over the
    generators' maps on all n^4 quadruples."""
    n = group.degree
    maps = []
    for g in group.generators:
        gi = np.array(g.images, dtype=np.intp)
        pair = (gi[:, None] * n + gi[None, :]).ravel()
        maps.append((pair[:, None] * n * n + pair[None, :]).ravel())
    return orbit_labels(n**4, maps)


def _column_entries(n):
    """Quadruple index of every entry ((i, j), (k, l)) of a c x c Gram."""
    m = n - 1
    cols = np.array([i * n + j for i in range(m) for j in range(m) if i != j], dtype=np.intp)
    return cols[:, None] * n * n + cols[None, :]


def min_label_quadruple_orbit_gram(group, z):
    """The dense N of `modrank.quadruple_orbit_gram`, the Gram of the
    conjugates g z g^-1 over g in G, by labelling the G-orbits on all n^4
    quadruples with min-label propagation over the generators' maps."""
    n = group.degree
    zi = np.array(z.images, dtype=np.intp)
    if (zi == np.arange(n)).any():
        raise ValueError("non-derangement passed to min_label_quadruple_orbit_gram")
    label = _quadruple_labels(group)
    orbit_size = np.bincount(label, minlength=n**4)[label]
    zpair = np.arange(n) * n + zi
    f = np.bincount(label[(zpair[:, None] * n * n + zpair[None, :]).ravel()],
                    minlength=n**4)[label]
    total = group.order() * f
    if (total % orbit_size).any():
        raise AssertionError("a quadruple orbit size does not divide |G| f_O")
    return (total // orbit_size)[_column_entries(n)]


def expand_orbit_values(group, orbits, values):
    """A dense c x c matrix from one value per orbit of
    `modrank.quadruple_orbit_gram`'s result `orbits`: each Gram entry
    takes the value of the listed orbit that the n^4 labelling puts its
    quadruple in.  Two listed representatives in one orbit, or an entry
    in no listed orbit, fail."""
    n = group.degree
    label = _quadruple_labels(group)
    b0, b1 = orbits.base
    c, d = np.asarray(orbits.pairs).T
    reps = label[((b0 * n + b1) * n + c) * n + d]
    assert len(set(reps.tolist())) == len(reps), "two representatives share an orbit"
    by_label = np.full(n**4, -1, dtype=np.int64)
    by_label[reps] = np.arange(len(reps))
    index = by_label[label[_column_entries(n)]]
    assert (index >= 0).all(), "a Gram entry lies in no listed orbit"
    return np.asarray(values)[index]


def _class_masks(n):
    """The seven classes of vertex pairs (u, w) of the pairs graph X_n, as
    dense c x c masks: same, swapped, shared first point, shared second
    point, u0 = w1 only, u1 = w0 only, disjoint."""
    m = n - 1
    verts = [(i, j) for i in range(m) for j in range(m) if i != j]
    I = np.array([v[0] for v in verts])[:, None]
    J = np.array([v[1] for v in verts])[:, None]
    same = (I == I.T) & (J == J.T)
    return [
        same,
        (I == J.T) & (J == I.T) & ~same,
        (I == I.T) & (J != J.T),
        (J == J.T) & (I != I.T),
        (I == J.T) & (J != I.T),
        (J == I.T) & (I != J.T),
        (I != I.T) & (I != J.T) & (J != I.T) & (J != J.T),
    ]


def dense_pair_classes(n):
    """The class 0..6 of every vertex pair of X_n, as a dense c x c matrix;
    every pair falls in exactly one class."""
    masks = _class_masks(n)
    assert (sum(mask.astype(int) for mask in masks) == 1).all()
    return sum(t * mask.astype(np.int64) for t, mask in enumerate(masks))


def dense_pairs_graph(n):
    """(adjacency, orbital) of the pairs graph X_n from dense masks:
    `orbital` is the 7x7 matrix of A times each orbital class, read off
    float products of the full masks (None for n = 4, which has no
    disjoint pairs)."""
    types = _class_masks(n)
    A = (types[4] | types[5] | types[6]).astype(np.int8)
    if n == 4:
        return A, None
    Afl = A.astype(np.float64)
    reps = [tuple(np.argwhere(t)[0]) for t in types]
    L = [[0] * 7 for _ in range(7)]
    for t, mask in enumerate(types):
        P = Afl @ mask.astype(np.float64)
        for s in range(7):
            assert P[reps[s]] == np.rint(P[reps[s]])
            L[s][t] = int(P[reps[s]])
    return A, L
