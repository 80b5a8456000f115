"""Size-n cliques of the derangement graph and their module projections.

An n-clique is a sharply transitive set: n permutations pairwise
disagreeing at every point.  Cliques certify the EKR bound through the
clique-coclique inequality.  Their projections onto character modules
(`module_by_clique`) could certify condition (b) of the module method,
but `classify` decides that from the spectrum alone and does not run
them; they stay because the traced benchmark wraps them by name.

The search is an exact cover with symmetry breaking by conjugacy class
(`iter_n_cliques`).  It either finds a clique, runs its tree to the end
(a proof that no n-clique exists), or stops at its node budget, and
`SearchStats` tells the last two apart.

Projection norms are invariant under translating a clique by a group
element on either side (the module projector commutes with both regular
representations), and so under conjugation: one clique of each
conjugacy class of cliques loses no witness, and distinct witnesses must
come from genuinely different sharply transitive sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chartab import CharacterTable
from .cyclo import Cyc
from .group import EnumeratedGroup, PermutationGroup
from .perm import Permutation

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_CLIQUE_ATTEMPTS = 50


@dataclass
class Clique:
    """A verified clique, canonicalized to start with the identity."""

    elements: tuple[Permutation, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def verify_clique(group: PermutationGroup, elements) -> bool:
    els = list(elements)
    for x in els:
        if x not in group:
            raise ValueError("clique element not in the group")
    for a in range(len(els)):
        for b in range(a + 1, len(els)):
            if (els[a] * els[b].inverse()).num_fixed() != 0:
                return False
    return True


def _cyclic_shortcut(eg: EnumeratedGroup) -> list[int] | None:
    """A single n-cycle generates a cyclic regular subgroup: an n-clique."""
    n = eg.group.degree
    for c in range(eg.n_classes):
        if eg.class_orders[c] == n and eg.class_fix[c] == 0:
            rep = eg.class_rep(c)
            if rep.cycle_type() != (n,):
                continue
            idx = [eg.index_of(rep.power(t)) for t in range(n)]
            return sorted(idx[:1]) + sorted(idx[1:])
    return None


@dataclass
class SearchStats:
    """Filled in by `iter_n_cliques`: the nodes it placed, and whether it
    ran its search tree to the end.  An exhausted search that yielded
    nothing proves that the group has no n-clique."""

    nodes: int = 0
    exhausted: bool = False


class _BudgetSpent(Exception):
    pass


def _bitsets(member: np.ndarray) -> list[int]:
    """Column k of a boolean (m, K) array as a Python-int bitset of rows."""
    packed = np.packbits(member, axis=0, bitorder="little")
    return [int.from_bytes(packed[:, k].tobytes(), "little") for k in range(member.shape[1])]


def iter_n_cliques(
    eg: EnumeratedGroup,
    budget: int = DEFAULT_NODE_BUDGET,
    stats: SearchStats | None = None,
):
    """Yield n-cliques through the identity as sorted index lists, id first.

    An n-clique through the identity is an exact cover of the n(n-1)
    off-diagonal cells (i, v) by derangements, d covering the cells
    (i, d(i)) (Knuth's Algorithm X).  The search branches on the
    uncovered cell with the fewest live candidates and backtracks as
    soon as that count is 0; candidate sets are Python-int bitsets over
    the derangements, one per cell.

    Conjugation maps cliques through the identity to cliques through the
    identity, so for each derangement class K in label order the search
    forces the class seed into the clique and excludes every earlier
    class.  If K is the first class a clique meets, some conjugate of it
    contains the seed of K and meets the same classes, so every clique
    through the identity is conjugate to one that is yielded.

    `stats` records the nodes placed (budget included) and whether the
    tree was exhausted; a search stopped at the budget is not.
    """
    stats = stats if stats is not None else SearchStats()
    stats.nodes, stats.exhausted = 0, False
    n = eg.group.degree
    der = np.flatnonzero(eg.fix_counts_all == 0)
    D = eg.E[der]
    points = np.arange(n)
    # cells[i * n + v]: the derangements d with d(i) = v
    cells = [b for i in points for b in _bitsets(D[:, i][:, None] == points[None, :])]
    labels = eg.class_of[der]
    classes = np.unique(labels)
    class_bits = _bitsets(labels[:, None] == classes[None, :])
    chosen: list[int] = []

    def place(j: int, live: int, uncovered: list[int]):
        if stats.nodes >= budget:
            raise _BudgetSpent
        stats.nodes += 1
        own = (points * n + D[j]).tolist()
        conflict = 0
        for c in own:
            conflict |= cells[c]
        chosen.append(j)
        covered = set(own)
        yield from cover(live & ~conflict, [c for c in uncovered if c not in covered])
        chosen.pop()

    def cover(live: int, uncovered: list[int]):
        if not uncovered:
            yield [0, *sorted(int(der[j]) for j in chosen)]
            return
        best, fewest = -1, len(der) + 1
        for c in uncovered:
            k = (cells[c] & live).bit_count()
            if k < fewest:
                if k == 0:
                    return
                best, fewest = c, k
        cands = cells[best] & live
        while cands:
            low = cands & -cands
            cands ^= low
            yield from place(low.bit_length() - 1, live, uncovered)

    live = (1 << len(der)) - 1
    off_diagonal = [i * n + v for i in range(n) for v in range(n) if i != v]
    try:
        for K, bits in zip(classes, class_bits):
            seed = int(np.searchsorted(der, eg.class_seeds[K]))
            yield from place(seed, live, off_diagonal)
            live &= ~bits
    except _BudgetSpent:
        return
    stats.exhausted = True


def find_n_clique(
    eg: EnumeratedGroup,
    budget: int = DEFAULT_NODE_BUDGET,
    stats: SearchStats | None = None,
) -> Clique | None:
    """An n-clique through the identity, or None.  With None, `stats`
    tells a proof of absence (exhausted) from a search the budget
    stopped; a clique from the cyclic shortcut leaves `stats` untouched."""
    idx = _cyclic_shortcut(eg)
    if idx is None:
        idx = next(iter_n_cliques(eg, budget, stats), None)
    if idx is None:
        return None
    clique = Clique(elements=tuple(eg.element(i) for i in idx))
    if not verify_clique(eg.group, clique.elements):
        raise AssertionError("search produced a non-clique")
    return clique


def _quotient_class_counts(eg: EnumeratedGroup, idx: list[int]) -> np.ndarray:
    """Histogram over conjugacy classes of all quotients x^-1 y, x,y in C."""
    E = eg.E
    rows = E[np.array(idx, dtype=np.int64)]
    counts = np.zeros(eg.n_classes, dtype=np.int64)
    for i in idx:
        inv_row = E[eg.inv_index[i]].astype(np.intp)
        prod = inv_row[rows]  # (x^-1 y)(t) = x^-1(y(t))
        labels = eg.class_of[eg.group.element_index(prod)]
        counts += np.bincount(labels, minlength=eg.n_classes)
    return counts


def projection_norm(eg: EnumeratedGroup, table: CharacterTable, idx, row: int) -> Cyc:
    """Exact quadratic form of the clique vector under the module projector
    of character `row`: (chi(1)/|G|) sum over ordered pairs of chi(x^-1 y).

    Non-negative for any vertex subset (the projector is PSD); positive
    exactly when the subset's characteristic vector meets the module.
    """
    counts = _quotient_class_counts(eg, list(idx))
    acc = Cyc.zero(1)
    for c in range(eg.n_classes):
        if counts[c]:
            acc = acc + table.values[row][c] * int(counts[c])
    val = acc * Fraction(table.degrees[row], table.order)
    if not val.is_real() or val.sign_real() < 0:
        raise AssertionError("projection norm must be real and non-negative")
    return val


@dataclass
class ModuleWitness:
    row: int
    clique_idx: list[int] | None
    norm: Cyc | None

    @property
    def witnessed(self) -> bool:
        return self.clique_idx is not None


def module_by_clique(
    eg: EnumeratedGroup,
    table: CharacterTable,
    budget: int = DEFAULT_NODE_BUDGET,
) -> dict[int, ModuleWitness]:
    """For every character other than trivial and standard, hunt for an
    n-clique whose projection to that module is nonzero, over at most
    `DEFAULT_CLIQUE_ATTEMPTS` distinct cliques.

    All-witnessed output certifies condition (b): maximum independent set
    vectors then lie in the span of the trivial and standard modules.
    Unwitnessed rows stay unknown; that is a legitimate outcome.
    """
    targets = [r for r in range(table.k) if r not in (table.trivial, table.standard)]
    result = {r: ModuleWitness(row=r, clique_idx=None, norm=None) for r in targets}
    if not targets:
        return result
    pending = set(targets)
    seen: set[frozenset] = set()

    def try_clique(idx: list[int]):
        key = frozenset(idx)
        if key in seen:
            return
        seen.add(key)
        for r in list(pending):
            norm = projection_norm(eg, table, idx, r)
            if norm.sign_real() > 0:
                result[r] = ModuleWitness(row=r, clique_idx=list(idx), norm=norm)
                pending.discard(r)

    shortcut = _cyclic_shortcut(eg)
    if shortcut is not None:
        try_clique(shortcut)
    for idx in iter_n_cliques(eg, budget):
        if not pending or len(seen) >= DEFAULT_CLIQUE_ATTEMPTS:
            break
        try_clique(idx)
    return result
