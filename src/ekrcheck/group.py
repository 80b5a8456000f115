"""Permutation groups via a deterministic Schreier-Sims stabilizer chain.

A new level's base point is the smallest point moved by the residue that
opens it, so the base need not start 0, 1, 2 (M11's is 0, 2, 1, 3);
transitivity is read off the orbit sizes.  All iteration orders are fixed,
making element enumeration and conjugacy class labeling reproducible across
runs.
"""

from __future__ import annotations

import itertools

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
    __slots__ = ("base_point", "gens", "transversal", "orbit_list")

    def __init__(self, base_point: int, degree: int):
        self.base_point = base_point
        self.gens: list[Permutation] = []
        self.transversal = {base_point: Permutation.identity(degree)}
        self.orbit_list = [base_point]

    def recompute_orbit(self, degree: int) -> None:
        self.transversal = {self.base_point: Permutation.identity(degree)}
        self.orbit_list = [self.base_point]
        frontier = [self.base_point]
        while frontier:
            nxt = []
            for p in frontier:
                u = self.transversal[p]
                for g in self.gens:
                    q = g(p)
                    if q not in self.transversal:
                        self.transversal[q] = g * u
                        self.orbit_list.append(q)
                        nxt.append(q)
            frontier = nxt


class PermutationGroup:
    """Group generated by a list of Permutations of common degree."""

    def __init__(self, generators, degree: int | None = None,
                 base_hint: list[int] | None = None):
        gens = [g for g in generators if not g.is_identity()]
        if degree is None:
            if not gens:
                raise ValueError("degree required for the trivial group")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError(
                    f"generator degree {g.degree} does not match {degree}"
                )
        self.degree = degree
        self.generators = list(gens)
        self.levels: list[_Level] = []
        self._base_hint = list(base_hint or [])
        if gens:
            self._schreier_sims(gens)
        self._order = 1
        for lv in self.levels:
            self._order *= len(lv.orbit_list)

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
            lv.recompute_orbit(self.degree)
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
        """Test all Schreier generators of level i; on a failed sift return
        (residue, level it belongs to), else None."""
        lv = self.levels[i]
        idx = 0
        while idx < len(lv.orbit_list):
            p = lv.orbit_list[idx]
            u_p = lv.transversal[p]
            for g in lv.gens:
                q = g(p)
                if q not in lv.transversal:
                    lv.transversal[q] = g * u_p
                    lv.orbit_list.append(q)
                s = lv.transversal[q].inverse() * (g * u_p)
                if s.is_identity():
                    continue
                residue, j = self._sift_from(i + 1, s)
                if residue is not None:
                    return residue, j
            idx += 1
        return None

    def _sift_from(self, start: int, g: Permutation):
        """Sift g through levels[start:].  Returns (None, _) on success, or
        (residue, level_index) where the residue could not be expressed."""
        residue = g
        j = start
        while j < len(self.levels):
            lv = self.levels[j]
            p = residue(lv.base_point)
            if p not in lv.transversal:
                return residue, j
            residue = lv.transversal[p].inverse() * residue
            j += 1
        if residue.is_identity():
            return None, j
        return residue, j

    # ---- queries ----

    def order(self) -> int:
        return self._order

    def __contains__(self, g) -> bool:
        if not isinstance(g, Permutation) or g.degree != self.degree:
            return False
        residue, _ = self._sift_from(0, g)
        return residue is None

    def base(self) -> list[int]:
        return [lv.base_point for lv in self.levels]

    def orbit(self, point: int) -> list[int]:
        """Orbit of a point under the whole group, in BFS discovery order."""
        seen = {point: True}
        out = [point]
        frontier = [point]
        while frontier:
            nxt = []
            for p in frontier:
                for g in self.generators:
                    q = g(p)
                    if q not in seen:
                        seen[q] = True
                        out.append(q)
                        nxt.append(q)
            frontier = nxt
        return out

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def transitivity_degree(self) -> int:
        """Largest t with the action t-transitive (0 for intransitive).

        Level i of the chain generates the stabilizer of the first i base
        points, and its orbit is the full complement exactly when it has
        degree - i points, so the orbit sizes read off transitivity.
        """
        t = 0
        for i, lv in enumerate(self.levels):
            if len(lv.orbit_list) != self.degree - i:
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
            p = lv.orbit_list[rng.randrange(len(lv.orbit_list))]
            g = g * lv.transversal[p]
        return g

    def point_stabilizer(self, x: int) -> "PermutationGroup":
        """Stabilizer of the point x (0-indexed), as a new group."""
        rebuilt = PermutationGroup(self.generators, self.degree, base_hint=[x])
        if not rebuilt.levels or rebuilt.levels[0].base_point != x:
            # x is fixed by the whole group
            return rebuilt
        stab_gens = rebuilt.levels[1].gens if len(rebuilt.levels) > 1 else []
        stab = PermutationGroup(stab_gens, self.degree)
        if stab.order() * len(rebuilt.levels[0].orbit_list) != self.order():
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
            reps = [np.array(lv.transversal[p].images, dtype=np.int8)
                    for p in lv.orbit_list]
            E = np.vstack([u[E] for u in reps]) if len(reps) > 1 else E
        # levels were applied bottom-up: element = u_0 ∘ u_1 ∘ ... ∘ id
        return E

    def elements(self, cap: int = ENUMERATION_CAP):
        """Yield all elements as Permutations, identity first."""
        for row in self.elements_array(cap):
            yield Permutation(tuple(int(x) for x in row))

    def _sift_table(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per level: each point's position in the level's orbit (-1 off
        it), and the inverse of the transversal element of each orbit
        point as an image row."""
        if not hasattr(self, "_sift_tables"):
            self._sift_tables = []
            for lv in self.levels:
                pos_of = np.full(self.degree, -1, dtype=np.intp)
                pos_of[lv.orbit_list] = np.arange(len(lv.orbit_list))
                uinv = np.array([lv.transversal[p].inverse().images
                                 for p in lv.orbit_list], dtype=np.intp)
                self._sift_tables.append((pos_of, uinv))
        return self._sift_tables

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
        (pos0, inv0), (pos1, inv1) = self._sift_table()[:2]
        # to_b0[a] maps a to b0; to_b1[x] maps x != b0 to b1 and fixes b0
        to_b0 = inv0[pos0]
        to_b1 = inv1[pos1]
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
        is exact for members; a row whose base images leave an orbit gets
        -1, and other non-members are not detected (check the row)."""
        if self._order >= 2**63:
            raise ValueError(f"group order {self._order} does not fit an int64 index")
        B = np.asarray(rows)[:, self.base()].astype(np.intp)
        idx = np.zeros(len(B), dtype=np.int64)
        ok = np.ones(len(B), dtype=bool)
        for pos_of, uinv in self._sift_table():
            pos = pos_of[B[:, 0]]
            ok &= pos >= 0
            pos[~ok] = 0
            idx = idx * len(uinv) + pos
            # element = u_pos * rest: the rest maps base images through u_pos^-1
            B = uinv[pos[:, None], B[:, 1:]]
        idx[~ok] = -1
        return idx


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


def centralizer_order(group: PermutationGroup, z: Permutation) -> int:
    """|C_G(z)|, by sifting every element of the symmetric-group centraliser
    C_{S_n}(z).  That centraliser is the product over cycle lengths k of
    C_k wr S_{m_k}, of order prod k^{m_k} m_k!, where m_k cycles of z have
    length k; every element of it is listed, so keep to elements for which
    that product is small."""
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for cyc in z.cycles():
        by_length.setdefault(len(cyc), []).append(cyc)
    # per length: which cycle each cycle goes to, and the rotation it lands at
    choices = [
        [(cycs, targets, rots)
         for targets in itertools.permutations(cycs)
         for rots in itertools.product(range(k), repeat=len(cycs))]
        for k, cycs in by_length.items()
    ]
    count = 0
    for pick in itertools.product(*choices):
        images = [0] * group.degree
        for cycs, targets, rots in pick:
            for src, dst, r in zip(cycs, targets, rots):
                # c(z^t x) = z^t c(x) with x = src[0] and c(x) = dst[r]
                k = len(src)
                for t in range(k):
                    images[src[t]] = dst[(t + r) % k]
        count += Permutation(tuple(images)) in group
    return count


class EnumeratedGroup:
    """A fully enumerated group with conjugacy class data.

    Heavy companion object for the character-table and rank computations.
    Elements are indexed by their row in `E`; conjugacy classes are labeled
    0..k-1 with class 0 = identity, the rest sorted by (representative order,
    class size, first-found element index)."""

    def __init__(self, group: PermutationGroup, cap: int = ENUMERATION_CAP):
        self.group = group
        n = group.degree
        self.E = group.elements_array(cap)
        N = len(self.E)
        # inverse of every element, vectorized: inv[i, E[i, j]] = j
        inv = np.empty_like(self.E)
        rows = np.arange(N)[:, None]
        inv[rows, self.E.astype(np.intp)] = np.arange(n, dtype=np.int8)[None, :]
        self.inv_index = group.element_index(inv)
        self.fix_counts_all = (self.E == np.arange(n, dtype=np.int8)[None, :]).sum(axis=1)
        self._classes_done = False

    def index_of(self, p: Permutation) -> int:
        row = np.array(p.images, dtype=np.int8)
        if row.shape != self.E.shape[1:]:
            raise ValueError("element not in group")
        i = int(self.group.element_index(row[None, :])[0])
        if i < 0 or not np.array_equal(self.E[i], row):
            raise ValueError("element not in group")
        return i

    def element(self, i: int) -> Permutation:
        return Permutation(tuple(int(x) for x in self.E[i]))

    def compute_classes(self) -> None:
        if self._classes_done:
            return
        N = len(self.E)
        # conj[i] = index of g^-1 E[i] g, one permutation of the indices per
        # generator; (g^-1 x g)(pt) = g^-1(x(g(pt)))
        conj = []
        for g in self.group.generators:
            gi = np.array(g.images, dtype=np.intp)
            ginv = np.array(g.inverse().images, dtype=np.int8)
            conj.append(self.group.element_index(ginv[self.E[:, gi]]))
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
        self.inverse_class = [
            int(self.class_of[self.inv_index[s]]) for s in self.class_seeds
        ]
        self._classes_done = True

    def class_rep(self, c: int) -> Permutation:
        return self.element(self.class_seeds[c])


def conjugacy_classes(group: PermutationGroup, cap: int = ENUMERATION_CAP) -> EnumeratedGroup:
    """Enumerate the group and compute its conjugacy classes (full mode)."""
    eg = EnumeratedGroup(group, cap)
    eg.compute_classes()
    return eg
