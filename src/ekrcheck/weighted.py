"""Weighted ratio certificates for condition (b) of the module method.

Weights w >= 0 on the derangement classes give the matrix
A_w = sum_c w_c A_c, which is zero off the edges of the derangement graph
and has constant row sum d_w.  On the chi-isotypic module it acts as

    eta_chi(w) = sum_c w_c |C_c| chi(c) / chi(1).

The standard character is -1 on every derangement, so
eta_std(w) = -d_w/(n-1) for every w.  When d_w > 0 and every other
nontrivial eta_chi(w) is strictly greater, the ratio bound for A_w gives
|S| <= |G|/n for every intersecting set S, and equality puts the
characteristic vector of S in the trivial plus standard module.  That is
condition (b), with no n-clique needed (Godsil and Meagher, "Erdos-Ko-Rado
Theorems: Algebraic Approaches", CUP 2015).

The weights are made constant on rational classes S, so
eta_chi(w) = sum_S w_S omega_chi(S), where omega_chi(S) is the integer
eigenvalue of the class sum of S (`dergraph.class_set_eigenvalue`).  A
small float simplex on those integers proposes the weights; it is never
trusted.  The certificate's etas are exact Fractions from the same
integers, and `verify_weighted_ratio` re-derives every one from the
character table in cyclotomic arithmetic, independently of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .chartab import CharacterTable
from .cyclo import Cyc
from .dergraph import class_set_eigenvalue
from .group import EnumeratedGroup

# rounding of the simplex's float weights; the exact check decides
_MAX_DENOMINATOR = 10_000
_LP_TOL = 1e-9


def weighted_ratio_holds(etas, n: int) -> bool:
    """The certificate's arithmetic: with d_w the largest value (the
    trivial row), d_w > 0 and -d_w/(n-1) is the least value, attained by
    exactly one row (the standard one)."""
    etas = [Fraction(x) for x in etas]
    d_w = max(etas, default=0)
    least = Fraction(-d_w, n - 1)
    return d_w > 0 and min(etas) == least and etas.count(least) == 1


def weighted_etas(table: CharacterTable, weights: dict[int, Fraction]) -> list[Cyc]:
    """eta_chi(w) for every row of the table, exact."""
    etas = []
    for r in range(table.k):
        acc = Cyc.zero(1)
        for c, w in weights.items():
            if w:
                acc = acc + table.values[r][c] * (w * table.class_sizes[c])
        etas.append(acc / table.degrees[r])
    return etas


def _parse_weights(cert: dict, table: CharacterTable) -> dict[int, Fraction] | None:
    weights: dict[int, Fraction] = {}
    der = table.class_der
    for entry in cert["weights"]:
        w = Fraction(entry["weight"])
        for c in entry["classes"]:
            if not (0 <= c < table.k) or not der[c] or c in weights or w < 0:
                return None
            weights[c] = w
    return weights


def verify_weighted_ratio(table: CharacterTable, cert: dict) -> bool:
    """Re-derive a weighted-ratio certificate from the character table.

    The weights must be non-negative and sit on derangement classes only.
    Every recorded eta must equal the exact eta of the weights, the
    trivial row must give d_w and the standard row -d_w/(n-1), and
    `weighted_ratio_holds` must accept the values.  Uses no solver.
    """
    if cert.get("kind") != "weighted-ratio" or len(cert["eta_by_row"]) != table.k:
        return False
    weights = _parse_weights(cert, table)
    if weights is None:
        return False
    claimed = [Fraction(x) for x in cert["eta_by_row"]]
    for eta, want in zip(weighted_etas(table, weights), claimed):
        if not (eta - want).is_zero():
            return False
    d_w = sum(w * table.class_sizes[c] for c, w in weights.items())
    n = table.degree
    return (
        claimed[table.trivial] == d_w
        and claimed[table.standard] == Fraction(-d_w, n - 1)
        and weighted_ratio_holds(claimed, n)
    )


def rational_classes(eg: EnumeratedGroup) -> list[list[int]]:
    """Derangement classes grouped into rational classes: c and the
    classes of x^t for a representative x of c and every t prime to its
    order.  Each group is closed under inversion."""
    powers = eg.power_indices()
    seen: set[int] = set()
    out = []
    for c in range(eg.n_classes):
        if eg.class_fix[c] or c in seen:
            continue
        o = eg.class_orders[c]
        units = [t for t in range(1, o) if gcd(t, o) == 1]
        orbit = sorted(set(eg.class_of[powers[c][units]].tolist()) | {c})
        seen.update(orbit)
        out.append(orbit)
    return out


def _simplex_max(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """max c.x subject to A x <= b and x >= 0, for b >= 0 (the origin is
    feasible).  Dense tableau with Bland's rule, so it cannot cycle.
    Returns None if the problem is unbounded."""
    m, k = A.shape
    T = np.zeros((m + 1, k + m + 1))
    T[:m, :k] = A
    T[:m, k : k + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :k] = -c
    basis = list(range(k, k + m))
    while True:
        enter = next((j for j in range(k + m) if T[m, j] < -_LP_TOL), None)
        if enter is None:
            x = np.zeros(k + m)
            x[basis] = T[:m, -1]
            return x[:k]
        rows = [i for i in range(m) if T[i, enter] > _LP_TOL]
        if not rows:
            return None
        best = min(T[i, -1] / T[i, enter] for i in rows)
        leave = min(
            (i for i in rows if T[i, -1] / T[i, enter] <= best + _LP_TOL),
            key=lambda i: basis[i],
        )
        T[leave] /= T[leave, enter]
        for i in range(m + 1):
            if i != leave:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter


def _propose(table: CharacterTable, sizes: list[int], omega: list[list[int]]) -> np.ndarray | None:
    """Float weights per rational class that maximise the least gap
    eta_chi - eta_std over the other nontrivial rows, with d_w <= n-1.
    `sizes` are the rational class sizes and omega[r] the integer
    eigenvalues of row r on them."""
    n = table.degree
    sizes = np.array(sizes, dtype=float)
    gaps = [
        np.array(omega[r], dtype=float) + sizes / (n - 1)
        for r in range(table.k)
        if r not in (table.trivial, table.standard)
    ]
    if not gaps:
        return None
    m = len(sizes)
    # variables (w_1..w_m, t): maximise t with t <= gap_chi(w) for every chi
    A = np.vstack([np.append(-g, 1.0) for g in gaps] + [np.append(sizes, 0.0)])
    b = np.zeros(len(A))
    b[-1] = n - 1
    c = np.zeros(m + 1)
    c[-1] = 1.0
    x = _simplex_max(c, A, b)
    if x is None or x[-1] <= _LP_TOL:
        return None
    return x[:m]


def weighted_ratio_certificate(eg: EnumeratedGroup, table: CharacterTable) -> dict | None:
    """A verified weighted-ratio certificate, or None when the simplex
    finds no weights or their rounding fails the exact check."""
    orbits = rational_classes(eg)
    sizes = [sum(table.class_sizes[c] for c in orb) for orb in orbits]
    omega = [[class_set_eigenvalue(table, r, orb) for orb in orbits] for r in range(table.k)]
    x = _propose(table, sizes, omega)
    if x is None:
        return None
    ws = [Fraction(float(v)).limit_denominator(_MAX_DENOMINATOR) for v in x]
    cert = {
        "kind": "weighted-ratio",
        "weights": [{"classes": orb, "weight": str(w)} for orb, w in zip(orbits, ws) if w],
        "eta_by_row": [str(sum(w * o for w, o in zip(ws, row))) for row in omega],
    }
    return cert if verify_weighted_ratio(table, cert) else None
