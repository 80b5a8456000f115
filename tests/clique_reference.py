"""Reference n-clique search: the bucketed depth-first search.

Candidates are bucketed by the image of point 0 and tried in element
enumeration order, with no symmetry reduction: the straightforward
search that `cliques.iter_n_cliques` must agree with.  With no budget it
yields every n-clique through the identity, so running it to the end
proves absence independently of the exact-cover search.
"""

import numpy as np

from ekrcheck.cliques import _cyclic_shortcut


def bucketed_n_cliques(eg, budget=None):
    """Yield every n-clique through the identity as an index list, id
    first; stop silently after `budget` candidates (None: no budget)."""
    n = eg.group.degree
    E = eg.E
    der = np.nonzero(eg.fix_counts_all == 0)[0]
    buckets = [der[E[der, 0] == v] for v in range(n)]
    used = np.zeros((n, n), dtype=bool)
    used[np.arange(n), np.arange(n)] = True  # the identity row
    chosen = [0]
    cols = np.arange(n)
    nodes = 0

    def dfs():
        nonlocal nodes
        if len(chosen) == n:
            yield list(chosen)
            return
        v = int(np.nonzero(~used[0])[0][0])
        for cand in buckets[v]:
            nodes += 1
            if budget is not None and nodes > budget:
                return
            row = E[cand]
            if used[cols, row].any():
                continue
            used[cols, row] = True
            chosen.append(int(cand))
            yield from dfs()
            chosen.pop()
            used[cols, row] = False

    yield from dfs()


def reference_has_n_clique(eg) -> bool:
    """The single-cycle shortcut, then the full bucketed search."""
    return _cyclic_shortcut(eg) is not None or next(bucketed_n_cliques(eg), None) is not None
