"""Spectrum of the derangement graph from an exact character table.

The derangement graph has the group as vertex set, with an edge when the
quotient of two elements fixes no point.  Since the connection set is a
union of conjugacy classes, every irreducible character chi contributes
the eigenvalue (1/chi(1)) sum_i |C_i| chi(C_i) over derangement classes,
with multiplicity chi(1)^2.  All values are exact cyclotomics; equal
eigenvalues are merged by exact comparison, never by float proximity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chartab import CharacterTable
from .cyclo import Cyc


@dataclass(frozen=True)
class SpectrumEntry:
    value: Cyc
    multiplicity: int
    rows: tuple[int, ...]  # attaining character rows of the source table


@dataclass
class DerangementSpectrum:
    n: int
    order: int
    d: int
    der_classes: tuple[int, ...]
    entries: list[SpectrumEntry]  # sorted descending by value
    eta_by_row: list[Cyc]

    @property
    def least(self) -> SpectrumEntry:
        return self.entries[-1]

    @property
    def eta_standard(self) -> Fraction:
        return Fraction(-self.d, self.n - 1)


def _cmp_exact(a: Cyc, b: Cyc) -> int:
    return (a - b).sign_real()


def spectrum(table: CharacterTable) -> DerangementSpectrum:
    """Exact spectrum of the derangement graph, verified against the trace
    identities before being returned."""
    der = tuple(i for i, f in enumerate(table.class_der) if f)
    d = sum(table.class_sizes[i] for i in der)
    etas: list[Cyc] = []
    for r in range(table.k):
        acc = Cyc.zero(1)
        for i in der:
            acc = acc + table.values[r][i] * table.class_sizes[i]
        eta = acc / table.degrees[r]
        if not eta.is_real():
            raise AssertionError("non-real eigenvalue from an inverse-closed class set")
        # every value conductor divides e, hence so does eta's
        etas.append(eta.embed(table.e))
    # merge equal eigenvalues by exact zero tests of their differences
    groups: list[list[int]] = []
    for r, eta in enumerate(etas):
        rows = next((g for g in groups if (eta - etas[g[0]]).is_zero()), None)
        if rows is None:
            groups.append([r])
        else:
            rows.append(r)
    entries = [
        SpectrumEntry(
            value=etas[rows[0]],
            multiplicity=sum(table.degrees[r] ** 2 for r in rows),
            rows=tuple(rows),
        )
        for rows in groups
    ]
    entries.sort(key=functools.cmp_to_key(lambda x, y: _cmp_exact(x.value, y.value)), reverse=True)

    # trace identities: vertex count, edge handshake, closed 2-walks
    if sum(e.multiplicity for e in entries) != table.order:
        raise AssertionError("multiplicities do not sum to the group order")
    s1 = Cyc.zero(1)
    s2 = Cyc.zero(1)
    for e in entries:
        s1 = s1 + e.value * e.multiplicity
        s2 = s2 + e.value * e.value * e.multiplicity
    if not s1.is_zero():
        raise AssertionError("eigenvalue sum is nonzero")
    if not (s2 - table.order * d).is_zero():
        raise AssertionError("eigenvalue square sum disagrees with |G|*d")
    if not (entries[0].value - d).is_zero() or table.trivial not in entries[0].rows:
        raise AssertionError("largest eigenvalue is not the valency at the trivial row")
    n = table.degree
    if not (etas[table.standard] - Fraction(-d, n - 1)).is_zero():
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
    is_least = (tau - spec.eta_standard).is_zero()
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
    flag = len(vals) == 2 and (vals[1].value + 1).is_zero()
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
    spectrum, multiplicities included."""
    A = brute_adjacency(E)
    eig = np.linalg.eigvalsh(A.astype(np.float64))
    expected = np.concatenate(
        [np.full(e.multiplicity, complex(e.value.approx()).real) for e in spec.entries]
    )
    expected.sort()
    scale = max(1.0, float(spec.d))
    return bool(np.all(np.abs(eig - expected) < tol * scale))
