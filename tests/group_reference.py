"""Reference stabilizer chain: the deterministic Schreier-Sims loop one
Schreier generator at a time, on Permutation objects and dict transversals.

The library builds the same chain with array passes; it must match this
one exactly, level by level: base points, strong generators, the orbit in
discovery order and every transversal image.  `chain_digest` hashes such a
chain for the committed records in `tests/chain_records.csv`, and
`chain_record` gives a chain's fields there.
"""

import hashlib

from ekrcheck.perm import Permutation


class ReferenceLevel:
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


class ReferenceChain:
    """The chain of the group that `generators` (Permutations of `degree`
    points) generate; identity generators are dropped, and the points of
    `base_hint` come first in the base where they are moved."""

    def __init__(self, generators, degree: int, base_hint=()):
        self.degree = degree
        self.base_hint = list(base_hint)
        gens = [g for g in generators if not g.is_identity()]
        self.levels: list[ReferenceLevel] = []
        if gens:
            self._schreier_sims(gens)

    def _pick_base_point(self, perms) -> int:
        for b in self.base_hint:
            if any(p(b) != b for p in perms):
                return b
        return min(pt for pt in range(self.degree)
                   if any(p(pt) != pt for p in perms))

    def _schreier_sims(self, gens) -> None:
        first = ReferenceLevel(self._pick_base_point(gens), self.degree)
        first.gens = list(gens)
        self.levels = [first]
        i = 0
        while i >= 0:
            self.levels[i].recompute_orbit(self.degree)
            new_strong = self._close_level(i)
            if new_strong is None:
                i -= 1
                continue
            residue, j = new_strong
            if j == len(self.levels):
                self.levels.append(ReferenceLevel(self._pick_base_point([residue]), self.degree))
            for l in range(i + 1, j + 1):
                self.levels[l].gens.append(residue)
            i = j

    def _close_level(self, i: int):
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
                residue, j = self.sift_from(i + 1, s)
                if residue is not None:
                    return residue, j
            idx += 1
        return None

    def sift_from(self, start: int, g: Permutation):
        """(None, _) when g sifts to the identity through levels[start:],
        else (residue, level where it stopped)."""
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

    def order(self) -> int:
        out = 1
        for lv in self.levels:
            out *= len(lv.orbit_list)
        return out

    def contains(self, g: Permutation) -> bool:
        return self.sift_from(0, g)[0] is None

    def index(self, g: Permutation) -> int | None:
        """The place of member g in the product order u_0 u_1 ... u_k of
        the transversals (level 0 slowest), None for a non-member."""
        if not self.contains(g):
            return None
        idx = 0
        residue = g
        for lv in self.levels:
            p = residue(lv.base_point)
            idx = idx * len(lv.orbit_list) + lv.orbit_list.index(p)
            residue = lv.transversal[p].inverse() * residue
        return idx

    def level_records(self):
        """Per level: (base point, orbit, transversal rows in orbit order,
        strong generator images), all as tuples of ints."""
        return [
            (lv.base_point, tuple(lv.orbit_list),
             tuple(lv.transversal[p].images for p in lv.orbit_list),
             tuple(g.images for g in lv.gens))
            for lv in self.levels
        ]


def library_levels(group):
    """The library chain of a `PermutationGroup` as `level_records`
    tuples, read off its level arrays."""
    return [
        (lv.base_point, tuple(lv.orbit.tolist()), tuple(map(tuple, lv.T.tolist())),
         tuple(g.images for g in lv.gens))
        for lv in group.levels
    ]


def chain_digest(levels) -> str:
    """A sha256 prefix over the orbits, transversal rows and strong
    generator images of a chain given as `level_records` tuples."""
    text = repr([
        ([int(x) for x in orbit], [[int(x) for x in row] for row in rows],
         [[int(x) for x in g] for g in gens])
        for _, orbit, rows, gens in levels
    ])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


RECORD_FIELDS = ("base", "orbit_sizes", "strong_gens", "digest")


def chain_record(levels) -> dict[str, str]:
    """The `RECORD_FIELDS` of a chain given as `level_records` tuples, as
    written in `tests/chain_records.csv`: the base, the orbit sizes and
    the number of strong generators per level, and `chain_digest`."""
    return {
        "base": " ".join(str(lv[0]) for lv in levels),
        "orbit_sizes": " ".join(str(len(lv[1])) for lv in levels),
        "strong_gens": " ".join(str(len(lv[3])) for lv in levels),
        "digest": chain_digest(levels),
    }
