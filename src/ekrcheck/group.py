"""Permutation groups via a deterministic Schreier-Sims stabilizer chain.

Level i of the chain holds a base point, strong generators that fix the
earlier base points, and the transversal of its orbit under them, all as
arrays: the orbit in discovery order, the image rows of the transversal
elements and of their inverses, and each point's place in the orbit.  The
loop closes one level at a time: all of a level's Schreier generators are
formed as one array and sifted through the lower levels together, and the
first one in (orbit point, generator) order that fails to sift becomes,
with the residue that pass left it, a new strong generator of the level
where it stopped.  A level whose generators did not change since its
orbit was built keeps its arrays.  Membership is the same array sift.

A new level's base point is the smallest point moved by the residue that
opens it, so the base need not start 0, 1, 2 (M11's is 0, 2, 1, 3);
transitivity is read off the orbit sizes.  An `EnumeratedGroup` labels
its conjugacy classes when it is built.  All iteration orders are fixed,
so the chain, and with it element enumeration, conjugacy class labeling
and every random draw through the transversals, is the same in every run.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded
from .perm import Permutation

ENUMERATION_CAP = 2_000_000
# a streamed class peaks at about 125 bytes per element (measured on M23's
# 443,520-element class), so this cap bounds a `conjugation_orbit` stream
# near 1 GB
CLASS_ORBIT_SOFT_CAP = 8_000_000


def orbit_labels(size: int, maps) -> np.ndarray:
    """Smallest point of each point's orbit, for the group that the index
    permutations `maps` of 0..size-1 generate.

    Min-label propagation with pointer jumping: label[i] is always a point
    of i's orbit, and at the fixed point it is the orbit's smallest one."""
    label = np.arange(size)
    while True:
        nxt = label
        for c in maps:
            nxt = np.minimum(nxt, label[c])
            nxt[c] = np.minimum(nxt[c], label)
        while True:
            jumped = nxt[nxt]
            if np.array_equal(jumped, nxt):
                break
            nxt = jumped
        if np.array_equal(nxt, label):
            return label
        label = nxt


class _Level:
    """One level of the chain: its base point, its strong generators (they
    fix every earlier base point), and the transversal of the base point's
    orbit under them, as arrays.

    `orbit` lists the orbit points in discovery order; T[a] is the image
    row of the transversal element u that maps the base point to orbit[a],
    Tinv[a] the row of its inverse, and pos[p] is p's place in `orbit`
    (-1 off it).  G holds the generator rows the arrays were built from,
    so the arrays are stale exactly when `gens` has grown past G.
    `schreier` holds the Schreier generators u_q^-1 g u_p (q = g(p)) that
    are not the identity, in (orbit point, generator) order."""

    __slots__ = ("base_point", "gens", "G", "orbit", "T", "Tinv", "pos", "schreier")

    def __init__(self, base_point: int, degree: int):
        self.base_point = base_point
        self.gens: list[Permutation] = []
        self.G = np.empty((0, degree), dtype=np.intp)
        self.orbit = np.array([base_point], dtype=np.intp)
        self.T = self.Tinv = np.arange(degree, dtype=np.intp)[None, :]
        self.schreier = self.G  # none until the orbit is built
        self.pos = np.full(degree, -1, dtype=np.intp)
        self.pos[base_point] = 0

    def recompute_orbit(self) -> None:
        """Breadth-first orbit of the base point: each orbit point in turn
        is mapped by each generator, and a new point q = g(p) gets
        u_q = g * u_p.  The points are found by a scalar pass; the rows
        are then composed one breadth-first layer at a time, since every
        row's parent lies in the layer before."""
        images = [g.images for g in self.gens]
        G = self.G = np.array(images, dtype=np.intp)
        k, n = G.shape
        orbit, parent, via = [self.base_point], [0], [0]
        pos = [-1] * n
        pos[self.base_point] = 0
        # where the breadth-first layers after the base point's start: when
        # point a starts a layer, the points found so far end the next one
        layers = [1]
        for a, p in enumerate(orbit):
            if a == layers[-1]:
                layers.append(len(orbit))
            for j, g in enumerate(images):
                q = g[p]
                if pos[q] < 0:
                    pos[q] = len(orbit)
                    orbit.append(q)
                    parent.append(a)
                    via.append(j)
        m = len(orbit)
        layers.append(m)
        parent = np.array(parent, dtype=np.intp)
        via = np.array(via, dtype=np.intp)
        T = np.empty((m, n), dtype=np.intp)
        T[0] = np.arange(n)
        for lo, hi in zip(layers, layers[1:]):
            T[lo:hi] = G[via[lo:hi, None], T[parent[lo:hi]]]
        self.orbit = np.array(orbit, dtype=np.intp)
        self.T = T
        self.Tinv = np.argsort(T, axis=1)
        self.pos = np.array(pos, dtype=np.intp)
        # S[a, j] = u_q^-1 g_j u_p for p = orbit[a], q = g_j(p)
        S = self.Tinv[self.pos[G[:, self.orbit].T][:, :, None],
                      G[np.arange(k)[:, None], T[:, None, :]]].reshape(-1, n)
        self.schreier = S[(S != np.arange(n)).any(axis=1)]


class PermutationGroup:
    """Group generated by a list of Permutations of common degree."""

    def __init__(self, generators, degree: int | None = None,
                 base_hint: list[int] | None = None):
        given = list(generators)
        if degree is None:
            if not given:
                raise ValueError("degree required for the trivial group")
            degree = given[0].degree
        for g in given:
            if g.degree != degree:
                raise ValueError(
                    f"generator degree {g.degree} does not match {degree}"
                )
        gens = [g for g in given if not g.is_identity()]
        self.degree = degree
        self.generators = gens
        self.levels: list[_Level] = []
        self._base_hint = list(base_hint or [])
        if gens:
            self._schreier_sims(gens)
        self._order = 1
        for lv in self.levels:
            self._order *= len(lv.orbit)

    # ---- chain construction ----

    def _pick_base_point(self, perms: list[Permutation]) -> int:
        for b in self._base_hint:
            if any(p(b) != b for p in perms):
                return b
        return min(pt for pt in range(self.degree)
                   if any(p(pt) != pt for p in perms))

    def _schreier_sims(self, gens: list[Permutation]) -> None:
        first = _Level(self._pick_base_point(gens), self.degree)
        first.gens = list(gens)
        self.levels = [first]
        i = 0
        while i >= 0:
            lv = self.levels[i]
            # a level whose generators did not change since its orbit was
            # built would get the same orbit again
            if len(lv.gens) != len(lv.G):
                lv.recompute_orbit()
            new_strong = self._close_level(i)
            if new_strong is None:
                i -= 1
                continue
            residue, j = new_strong
            if j == len(self.levels):
                self.levels.append(_Level(self._pick_base_point([residue]), self.degree))
            for l in range(i + 1, j + 1):
                self.levels[l].gens.append(residue)
            i = j

    def _close_level(self, i: int):
        """Sift the Schreier generators of level i, whose orbit is closed,
        through levels[i+1:]; return (residue, level it belongs to) for the
        first one that does not sift, else None.

        They are sifted together: per lower level, the base-point image
        picks the inverse transversal row applied to the whole row.  A row
        whose image leaves the orbit stops there, with every row after it
        dropped, and its residue so far is kept with that level; a row that
        passes every level but is not the identity belongs to a new level."""
        R = self.levels[i].schreier
        stopped = None
        for j in range(i + 1, len(self.levels)):
            lower = self.levels[j]
            at = lower.pos[R[:, lower.base_point]]
            if at.min(initial=0) < 0:
                failed = int(np.argmax(at < 0))
                stopped = R[failed], j
                R, at = R[:failed], at[:failed]
            R = lower.Tinv[at[:, None], R]
        unfinished = (R != np.arange(self.degree)).any(axis=1)
        if unfinished.any():
            stopped = R[int(np.argmax(unfinished))], len(self.levels)
        if stopped is None:
            return None
        residue, j = stopped
        return Permutation(residue.tolist()), j

    # ---- queries ----

    def order(self) -> int:
        return self._order

    def __contains__(self, g) -> bool:
        return (isinstance(g, Permutation) and g.degree == self.degree
                and bool(self.contains_rows(np.array([g.images]))[0]))

    def base(self) -> list[int]:
        return [lv.base_point for lv in self.levels]

    def is_transitive(self) -> bool:
        return self.transitivity_degree() >= 1

    def transitivity_degree(self) -> int:
        """Largest t with the action t-transitive (0 for intransitive).

        Level i of the chain generates the stabilizer of the first i base
        points, and its orbit is the full complement exactly when it has
        degree - i points, so the orbit sizes read off transitivity.
        """
        t = 0
        for i, lv in enumerate(self.levels):
            if len(lv.orbit) != self.degree - i:
                break
            t += 1
        else:
            # trivial stabilizer with a single point left is transitive on it
            if self.degree - t == 1:
                t += 1
        return t

    def random_element(self, rng) -> Permutation:
        """Uniformly random element via the transversal factorization.

        Every element factors uniquely as u_0 u_1 ... u_k with u_i drawn from
        level i's transversal, so independent uniform picks are uniform."""
        g = Permutation.identity(self.degree)
        for lv in self.levels:
            g = g * Permutation(lv.T[rng.randrange(len(lv.orbit))].tolist())
        return g

    def point_stabilizer(self, x: int) -> "PermutationGroup":
        """Stabilizer of the point x (0-indexed), as a new group."""
        rebuilt = PermutationGroup(self.generators, self.degree, base_hint=[x])
        if not rebuilt.levels or rebuilt.levels[0].base_point != x:
            # x is fixed by the whole group
            return rebuilt
        stab_gens = rebuilt.levels[1].gens if len(rebuilt.levels) > 1 else []
        stab = PermutationGroup(stab_gens, self.degree)
        if stab.order() * len(rebuilt.levels[0].orbit) != self.order():
            raise AssertionError(f"stabilizer of {x} times its orbit is not the group order")
        return stab

    # ---- element enumeration ----

    def elements_array(self, cap: int = ENUMERATION_CAP) -> np.ndarray:
        """All elements as an (order, degree) int8 array of image rows.

        Row 0 is the identity; the order is the deterministic product order of
        the stabilizer chain transversals."""
        if self._order > cap:
            raise CapExceeded("element enumeration", self._order, cap)
        if self.degree > 127:
            raise ValueError("degree too large for int8 rows")
        E = np.arange(self.degree, dtype=np.int8)[None, :]
        for lv in reversed(self.levels):
            # the rows u[E] for each transversal row u, in orbit order
            E = lv.T.astype(np.int8)[:, E].reshape(-1, self.degree)
        # levels were applied bottom-up: element = u_0 ∘ u_1 ∘ ... ∘ id
        return E

    def elements(self, cap: int = ENUMERATION_CAP):
        """Yield all elements as Permutations, identity first."""
        for row in self.elements_array(cap):
            yield Permutation(tuple(int(x) for x in row))

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """Membership of each permutation image row (m, degree), by one
        vectorised sift through the chain on every column: at each level
        the row's base-point image picks a transversal element, whose
        inverse is applied to the whole row.  A member sifts to the
        identity row; a row whose base-point image leaves an orbit, or
        whose residue is not the identity, is not a member."""
        R = np.asarray(rows).astype(np.intp)
        # an image outside 0..degree-1 is no point; the sift would read a
        # negative one from the end of a row
        ok = ((R >= 0) & (R < self.degree)).all(axis=1)
        R[~ok] = np.arange(self.degree)
        for lv in self.levels:
            pos = lv.pos[R[:, lv.base_point]]
            ok &= pos >= 0
            pos[~ok] = 0
            R = lv.Tinv[pos[:, None], R]
        return ok & (R == np.arange(self.degree)).all(axis=1)

    def pair_carriers(self) -> tuple[np.ndarray, np.ndarray]:
        """The first two levels of the chain of a 2-transitive group, read
        as maps onto its first two base points b0 and b1.

        Returns (carry, stab).  carry[a, b] is the image row of an element
        that maps a to b0 and, for b != a, b to b1: the inverse of the
        level-0 transversal element of a, followed by the inverse of the
        level-1 transversal element of the point that b lands on
        (carry[a, a] is the first alone).  stab holds the image rows of
        the strong generators of the pointwise stabilizer of b0 and b1,
        none when it is trivial."""
        if self.transitivity_degree() < 2 or len(self.levels) < 2:
            raise ValueError("pair carriers need a 2-transitive group of degree > 2")
        n = self.degree
        lv0, lv1 = self.levels[:2]
        # to_b0[a] maps a to b0; to_b1[x] maps x != b0 to b1 and fixes b0
        to_b0 = lv0.Tinv[lv0.pos]
        to_b1 = lv1.Tinv[lv1.pos]
        to_b1[self.levels[0].base_point] = np.arange(n)
        carry = to_b1[to_b0[:, :, None], to_b0[:, None, :]]
        stab = [g.images for g in self.levels[2].gens] if len(self.levels) > 2 else []
        return carry, np.array(stab, dtype=np.intp).reshape(-1, n)

    def element_index(self, rows: np.ndarray) -> np.ndarray:
        """Index in `elements_array` order of each image row (m, degree).

        A vectorised sift through the chain on the base columns only: at
        each level the row's base-point image gives its orbit position,
        and stripping that transversal element maps the remaining base
        images on.  An element is fixed by its base images, so the index
        is exact for members; a row whose base images leave an orbit, or
        lie outside 0..degree-1, gets -1, and other non-members are not
        detected (check the row).
        It needs no enumeration, so streamed classes use it; on an
        enumerated group `EnumeratedGroup.base_index` is one table
        lookup instead."""
        if self._order >= 2**63:
            raise ValueError(f"group order {self._order} does not fit an int64 index")
        B = np.asarray(rows)[:, self.base()].astype(np.intp)
        idx = np.zeros(len(B), dtype=np.int64)
        # an image outside 0..degree-1 is no point; a negative one would
        # read `pos` from its end
        ok = ((B >= 0) & (B < self.degree)).all(axis=1)
        B[~ok] = 0
        for lv in self.levels:
            pos = lv.pos[B[:, 0]]
            ok &= pos >= 0
            pos[~ok] = 0
            idx = idx * len(lv.orbit) + pos
            # element = u_pos * rest: the rest maps base images through u_pos^-1
            B = lv.Tinv[pos[:, None], B[:, 1:]]
        idx[~ok] = -1
        return idx


_AGREE_BLOCK = 256  # rows per block of an agreement sweep


def member_rows(group: PermutationGroup, elements, what: str) -> np.ndarray:
    """The image rows of `elements`, one sift for all of them; a ValueError
    naming `what` if one is not in the group."""
    els = list(elements)
    n = group.degree
    if any(x.degree != n for x in els):
        raise ValueError(f"{what} element not in the group")
    rows = np.array([x.images for x in els], dtype=np.int8).reshape(-1, n)
    if not group.contains_rows(rows).all():
        raise ValueError(f"{what} element not in the group")
    return rows


def agreeing_rows(rows: np.ndarray) -> np.ndarray:
    """For each image row, the number of rows (itself included) that agree
    with it at some point.  x y^-1 fixes y(t) exactly when x(t) = y(t), so
    this counts the quotients that are not derangements.  A block of rows
    is compared with all of them at once, column by column."""
    counts = np.empty(len(rows), dtype=np.int64)
    for lo in range(0, len(rows), _AGREE_BLOCK):
        block = rows[lo : lo + _AGREE_BLOCK]
        agree = np.zeros((len(block), len(rows)), dtype=bool)
        for t in range(rows.shape[1]):
            agree |= block[:, t, None] == rows[None, :, t]
        counts[lo : lo + len(block)] = agree.sum(axis=1)
    return counts


def conjugation_orbit(group: PermutationGroup, rep: Permutation,
                      cap: int = CLASS_ORBIT_SOFT_CAP) -> np.ndarray:
    """Conjugacy class of rep as a (size, degree) int8 image array, without
    enumerating the group.  Row 0 is rep; the rest follow BFS discovery order
    under conjugation by the generators.

    The BFS runs one level at a time: the candidates of a level are the
    conjugates of its rows interleaved as (row, generator), and each new
    element, keyed by `element_index`, is kept at its first occurrence, so
    the order is the one a row-by-row BFS discovers."""
    if rep not in group:
        raise ValueError("representative not in group")
    n = group.degree
    gens = np.array([g.images for g in group.generators], dtype=np.intp).reshape(-1, n)
    ginvs = np.array([g.inverse().images for g in group.generators],
                     dtype=np.int8).reshape(-1, n)
    frontier = np.array([rep.images], dtype=np.int8)
    seen = group.element_index(frontier)
    found = [frontier]
    total = 1
    while len(frontier):
        # (g^-1 x g)(pt) = g^-1(x(g(pt))), candidate row r * len(gens) + s
        cand = ginvs[np.arange(len(gens))[:, None], frontier[:, gens]]
        cand = cand.reshape(-1, n)
        keys, first = np.unique(group.element_index(cand), return_index=True)
        pos = np.minimum(np.searchsorted(seen, keys), len(seen) - 1)
        new = seen[pos] != keys
        if total + int(new.sum()) > cap:
            raise CapExceeded("conjugacy class orbit", total + int(new.sum()), cap)
        frontier = cand[np.sort(first[new])]
        found.append(frontier)
        total += len(frontier)
        seen = np.sort(np.concatenate((seen, keys[new])))
    return np.concatenate(found)


class EnumeratedGroup:
    """A fully enumerated group with conjugacy class data.

    Heavy companion object for the character-table and rank computations.
    Elements are indexed by their row in `E`; conjugacy classes are computed
    at construction and labeled 0..k-1 with class 0 = identity, the rest
    sorted by (representative order, class size, first-found element index).

    An element is fixed by its images of the L base points, and every
    library sift on an enumerated group reads only those: `base_index`
    sifts the first s base images through the chain and looks the rest up
    in one table of n^(L-s) entries, with s the fewest levels for which
    that is at most |G|·n, the cells of `E`."""

    def __init__(self, group: PermutationGroup, cap: int = ENUMERATION_CAP):
        self.group = group
        n = group.degree
        self.E = group.elements_array(cap)
        self.fix_counts_all = (self.E == np.arange(n, dtype=np.int8)[None, :]).sum(axis=1)
        self._powers: list[np.ndarray] | None = None
        self.base = np.array(group.base(), dtype=np.intp)
        L = len(self.base)
        s = 0
        while n ** (L - s) > len(self.E) * n:
            s += 1
        self._prefix = group.levels[:s]
        # `elements_array` lists the stabilizer of the first s base points
        # first, so its rows are those with a zero prefix
        self._stab_order = math.prod(len(lv.orbit) for lv in group.levels[s:])
        self._table = np.full(n ** (L - s), -1, dtype=np.int32)
        self._table[self._key(self.E[: self._stab_order, self.base[s:]])] = np.arange(
            self._stab_order, dtype=np.int32
        )
        self._label_classes()

    def _key(self, B: np.ndarray) -> np.ndarray:
        """The base images in B (m, columns) read as base-n numbers."""
        key = np.zeros(len(B), dtype=np.intp)
        for col in B.T:
            key = key * self.group.degree + col
        return key

    def base_index(self, B: np.ndarray) -> np.ndarray:
        """Index in `E` of each element given by its base images B (m, L):
        the first s images are sifted as in `PermutationGroup.element_index`
        and give the mixed-radix prefix, and the table names the element of
        the stabilizer that the remaining images pick.  Raises ValueError
        when some row of B is the base images of no element."""
        B = np.asarray(B)
        # an image outside 0..degree-1 is no point; a negative one would
        # read `pos` or the table from its end
        if B.size and (B.min() < 0 or B.max() >= self.group.degree):
            raise ValueError("base images of no element")
        idx = np.zeros(len(B), dtype=np.intp)
        for lv in self._prefix:
            pos = lv.pos[B[:, 0]]
            if (pos < 0).any():
                raise ValueError("base images of no element")
            idx = idx * len(lv.orbit) + pos
            B = lv.Tinv[pos[:, None], B[:, 1:]]
        found = self._table[self._key(B)]
        if (found < 0).any():
            raise ValueError("base images of no element")
        return idx * self._stab_order + found

    def index_of(self, p: Permutation) -> int:
        row = np.array(p.images, dtype=np.int8)
        if row.shape != self.E.shape[1:]:
            raise ValueError("element not in group")
        # a non-member can share a member's base images: compare the row
        try:
            i = int(self.base_index(row[None, self.base])[0])
        except ValueError:
            raise ValueError("element not in group") from None
        if not np.array_equal(self.E[i], row):
            raise ValueError("element not in group")
        return i

    def element(self, i: int) -> Permutation:
        return Permutation(tuple(int(x) for x in self.E[i]))

    def _label_classes(self) -> None:
        """class_of, and per class its seed, size, order and fixed points."""
        N = len(self.E)
        # conj[i] = index of g^-1 E[i] g, one permutation of the indices per
        # generator; (g^-1 x g)(pt) = g^-1(x(g(pt)))
        conj = []
        for g in self.group.generators:
            gb = np.array(g.images, dtype=np.intp)[self.base]
            ginv = np.array(g.inverse().images, dtype=np.int8)
            conj.append(self.base_index(ginv[self.E[:, gb]]))
        # each class is labelled by its smallest index, which is the seed a
        # first-found BFS would pick
        label = orbit_labels(N, conj)
        seeds_arr, class_of, sizes_arr = np.unique(label, return_inverse=True, return_counts=True)
        seeds = [int(s) for s in seeds_arr]
        sizes = [int(s) for s in sizes_arr]
        # canonical relabeling: identity first, then (rep order, size, seed)
        orders = [self.element(s).order() for s in seeds]
        perm_labels = sorted(
            range(len(seeds)),
            key=lambda l: (l != 0, orders[l], sizes[l], seeds[l]),
        )
        relabel = np.empty(len(seeds), dtype=np.int64)
        for new, old in enumerate(perm_labels):
            relabel[old] = new
        self.class_of = relabel[class_of]
        self.class_seeds = [seeds[old] for old in perm_labels]
        self.class_sizes = [sizes[old] for old in perm_labels]
        self.class_orders = [orders[old] for old in perm_labels]
        self.n_classes = len(seeds)
        self.class_fix = [int(self.fix_counts_all[s]) for s in self.class_seeds]

    def class_rep(self, c: int) -> Permutation:
        return self.element(self.class_seeds[c])

    def power_indices(self) -> list[np.ndarray]:
        """Per class c, the indices of rep(C_c)^t for t = 0..order-1, from
        one `base_index` lookup of the stacked power rows of every
        representative."""
        if self._powers is None:
            power_rows = []
            for s, o in zip(self.class_seeds, self.class_orders):
                rep = self.E[s].astype(np.intp)
                row = np.arange(len(rep), dtype=np.intp)
                for _ in range(o):
                    power_rows.append(row)
                    row = rep[row]
            stacked = np.array(power_rows, dtype=self.E.dtype)
            idx = self.base_index(stacked[:, self.base])
            if not np.array_equal(self.E[idx], stacked):
                raise AssertionError("a class representative's power left the group")
            self._powers = np.split(idx, np.cumsum(self.class_orders)[:-1])
        return self._powers


def conjugacy_classes(group: PermutationGroup, cap: int = ENUMERATION_CAP) -> EnumeratedGroup:
    """Enumerate the group with its conjugacy classes (full mode)."""
    return EnumeratedGroup(group, cap)
