"""Spectrum of the derangement graph from an exact character table.

The derangement graph has the group as vertex set, with an edge when the
quotient of two elements fixes no point.  Since the connection set is a
union of conjugacy classes, every irreducible character chi contributes
the eigenvalue (1/chi(1)) sum_i |C_i| chi(C_i) over derangement classes,
with multiplicity chi(1)^2.  The derangements are closed under x -> x^t
for every t prime to the order of x, so that sum is fixed by every Galois
automorphism: a rational algebraic integer, hence an int.  The same holds
for any Galois-closed set of classes (`class_set_eigenvalue`).  Each
eigenvalue is read off its exact cyclotomic sum by `Cyc.to_int`; equal
eigenvalues are merged and sorted as ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chartab import CharacterTable
from .cyclo import Cyc


@dataclass(frozen=True)
class SpectrumEntry:
    value: int
    multiplicity: int
    rows: tuple[int, ...]  # attaining character rows of the source table


@dataclass
class DerangementSpectrum:
    n: int
    order: int
    d: int
    der_classes: tuple[int, ...]
    entries: list[SpectrumEntry]  # sorted descending by value
    eta_by_row: list[int]

    @property
    def least(self) -> SpectrumEntry:
        return self.entries[-1]

    @property
    def eta_standard(self) -> Fraction:
        return Fraction(-self.d, self.n - 1)


def class_set_eigenvalue(table: CharacterTable, row: int, classes) -> int:
    """(1/chi(1)) sum_{C in classes} |C| chi(C) for the character of `row`:
    the eigenvalue of the class sum of a Galois-closed set of classes on the
    chi-isotypic module.  Raises ValueError if it is not an integer, which
    it always is for a Galois-closed set."""
    acc = Cyc.zero(1)
    for i in classes:
        acc = acc + table.values[row][i] * table.class_sizes[i]
    return (acc / table.degrees[row]).to_int()


def spectrum(table: CharacterTable) -> DerangementSpectrum:
    """Exact spectrum of the derangement graph, verified against the trace
    identities before being returned."""
    der = tuple(i for i, f in enumerate(table.class_der) if f)
    d = sum(table.class_sizes[i] for i in der)
    etas = [class_set_eigenvalue(table, r, der) for r in range(table.k)]
    by_value: dict[int, list[int]] = {}
    for r, eta in enumerate(etas):
        by_value.setdefault(eta, []).append(r)
    entries = [
        SpectrumEntry(
            value=value,
            multiplicity=sum(table.degrees[r] ** 2 for r in rows),
            rows=tuple(rows),
        )
        for value, rows in sorted(by_value.items(), reverse=True)
    ]

    # trace identities: vertex count, edge handshake, closed 2-walks
    if sum(e.multiplicity for e in entries) != table.order:
        raise AssertionError("multiplicities do not sum to the group order")
    if sum(e.value * e.multiplicity for e in entries) != 0:
        raise AssertionError("eigenvalue sum is nonzero")
    if sum(e.value**2 * e.multiplicity for e in entries) != table.order * d:
        raise AssertionError("eigenvalue square sum disagrees with |G|*d")
    if entries[0].value != d or table.trivial not in entries[0].rows:
        raise AssertionError("largest eigenvalue is not the valency at the trivial row")
    n = table.degree
    if etas[table.standard] != Fraction(-d, n - 1):
        raise AssertionError("standard eigenvalue is not -d/(n-1)")
    std_entry = next(e for e in entries if table.standard in e.rows)
    if std_entry.multiplicity < (n - 1) ** 2:
        raise AssertionError("standard eigenvalue multiplicity below (n-1)^2")

    return DerangementSpectrum(
        n=n,
        order=table.order,
        d=d,
        der_classes=der,
        entries=entries,
        eta_by_row=etas,
    )


def least_analysis(spec: DerangementSpectrum, table: CharacterTable):
    """(tau, is_standard_least, is_standard_unique), all decided exactly."""
    least = spec.least
    tau = least.value
    is_least = tau == spec.eta_standard
    is_unique = is_least and least.rows == (table.standard,)
    return tau, is_least, is_unique


def complete_union_detect(spec: DerangementSpectrum):
    """Detect the two-eigenvalue case {d, -1}: the graph is then a disjoint
    union of complete graphs on n vertices.

    Returns (flag, strict_verdict, independent_set_count).  With n > 3 the
    count n^(|G|/n) of maximum independent sets exceeds the n^2 canonical
    sets, so strict fails; at n = 3 the two counts coincide and strict holds.
    """
    vals = spec.entries
    flag = len(vals) == 2 and vals[1].value == -1
    if not flag:
        return False, None, None
    m = spec.order // spec.n
    count = spec.n**m
    strict = "yes" if spec.n == 3 else "no"
    return True, strict, count


# ---- brute-force oracle ----


def brute_adjacency(E: np.ndarray) -> np.ndarray:
    """Dense adjacency of the derangement graph from the element array.

    Two elements are adjacent iff their image rows disagree in every
    column; this never consults the class or character machinery.
    """
    N = len(E)
    A = np.zeros((N, N), dtype=np.int8)
    for i in range(N):
        A[i] = (E == E[i]).sum(axis=1) == 0
    return A


def brute_spectrum_matches(E: np.ndarray, spec: DerangementSpectrum, tol: float = 1e-6) -> bool:
    """Eigendecomposition of the explicit adjacency matrix against the exact
    spectrum, multiplicities included.  Every float eigenvalue must lie
    within tol*d of an integer; the rounded multiset must then equal the
    integer spectrum exactly."""
    A = brute_adjacency(E)
    eig = np.linalg.eigvalsh(A.astype(np.float64))
    rounded = np.rint(eig)
    if np.abs(eig - rounded).max() >= tol * max(1.0, float(spec.d)):
        return False
    expected = np.repeat(
        [e.value for e in spec.entries], [e.multiplicity for e in spec.entries]
    )
    return bool(np.array_equal(np.sort(rounded.astype(np.int64)), np.sort(expected)))
