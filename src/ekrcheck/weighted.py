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
eta_O(w) = sum_S w_S omega_O(S) is one value per row O of the certified
rational table (`chartab`), a Galois orbit of characters; the standard
character is its own orbit.  A small float simplex on those integers
proposes the weights; it is never trusted.  `verify_weighted_ratio`
re-derives every eta from the certified omega in exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .chartab import RationalTable

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


def weighted_etas(table: RationalTable, weights: dict[int, Fraction]) -> list[Fraction]:
    """eta_O(w) for every row of the table, exact; `weights` maps rational
    classes to their weights."""
    return [
        sum((w * int(table.omega[O, S]) for S, w in weights.items()), Fraction(0))
        for O in range(table.r)
    ]


def _parse_weights(cert: dict, table: RationalTable) -> dict[int, Fraction] | None:
    """The weight of each rational class; None unless every entry names
    one whole rational class of derangements, once, with a weight >= 0."""
    index = {tuple(table.classes[S]): S for S in table.der}
    weights: dict[int, Fraction] = {}
    for entry in cert["weights"]:
        S = index.get(tuple(entry["classes"]))
        w = Fraction(entry["weight"])
        if S is None or S in weights or w < 0:
            return None
        weights[S] = w
    return weights


def verify_weighted_ratio(table: RationalTable, cert: dict) -> bool:
    """Re-derive a weighted-ratio certificate from the rational table.

    The weights must be non-negative and sit on whole rational classes of
    derangements.  Every recorded eta must equal the exact eta of the
    weights, the trivial row must give d_w and the standard row
    -d_w/(n-1), and `weighted_ratio_holds` must accept the values.  Uses
    no solver.
    """
    if cert.get("kind") != "weighted-ratio":
        return False
    weights = _parse_weights(cert, table)
    if weights is None:
        return False
    claimed = [Fraction(x) for x in cert["eta_by_row"]]
    d_w = sum(w * table.sizes[S] for S, w in weights.items())
    n = table.degree
    return (
        weighted_etas(table, weights) == claimed
        and claimed[table.trivial] == d_w
        and claimed[table.standard] == Fraction(-d_w, n - 1)
        and weighted_ratio_holds(claimed, n)
    )


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


def _propose(table: RationalTable) -> np.ndarray | None:
    """Float weights per rational class of derangements that maximise the
    least gap eta_O - eta_std over the other nontrivial rows, with
    d_w <= n-1."""
    n = table.degree
    der = table.der
    sizes = np.array([table.sizes[S] for S in der], dtype=float)
    omega = table.omega[:, der].astype(float)
    gaps = [
        omega[O] + sizes / (n - 1)
        for O in range(table.r)
        if O not in (table.trivial, table.standard)
    ]
    if not gaps:
        return None
    m = len(sizes)
    # variables (w_1..w_m, t): maximise t with t <= gap_O(w) for every O
    A = np.vstack([np.append(-g, 1.0) for g in gaps] + [np.append(sizes, 0.0)])
    b = np.zeros(len(A))
    b[-1] = n - 1
    c = np.zeros(m + 1)
    c[-1] = 1.0
    x = _simplex_max(c, A, b)
    if x is None or x[-1] <= _LP_TOL:
        return None
    return x[:m]


def weighted_ratio_certificate(table: RationalTable) -> dict | None:
    """A verified weighted-ratio certificate, or None when the simplex
    finds no weights or their rounding fails the exact check."""
    x = _propose(table)
    if x is None:
        return None
    ws = [Fraction(float(v)).limit_denominator(_MAX_DENOMINATOR) for v in x]
    weights = {S: w for S, w in zip(table.der, ws) if w}
    cert = {
        "kind": "weighted-ratio",
        "weights": [{"classes": table.classes[S], "weight": str(w)} for S, w in weights.items()],
        "eta_by_row": [str(eta) for eta in weighted_etas(table, weights)],
    }
    return cert if verify_weighted_ratio(table, cert) else None
