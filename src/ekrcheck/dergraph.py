"""Spectrum of the derangement graph from the rational table.

The derangement graph has the group as vertex set, with an edge when the
quotient of two elements fixes no point.  Since the connection set is a
union of rational classes, every Galois orbit O of irreducible characters
contributes the integer eigenvalue eta_O = sum_S omega_O(S) over the
derangement rational classes S, with multiplicity dim_O (`chartab`).
Equal eigenvalues are merged and sorted as ints, and the trace identities
are checked before the spectrum is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chartab import RationalTable


@dataclass(frozen=True)
class SpectrumEntry:
    value: int
    multiplicity: int
    rows: tuple[int, ...]  # attaining rows of the rational table


@dataclass
class DerangementSpectrum:
    n: int
    order: int
    d: int
    der_classes: tuple[int, ...]  # rational classes of derangements
    entries: list[SpectrumEntry]  # sorted descending by value
    eta_by_row: list[int]

    @property
    def least(self) -> SpectrumEntry:
        return self.entries[-1]

    @property
    def eta_standard(self) -> Fraction:
        return Fraction(-self.d, self.n - 1)


def spectrum(table: RationalTable) -> DerangementSpectrum:
    """Exact spectrum of the derangement graph, verified against the trace
    identities before being returned."""
    der = tuple(table.der)
    d = sum(table.sizes[S] for S in der)
    etas = table.omega[:, list(der)].sum(axis=1).tolist()
    by_value: dict[int, list[int]] = {}
    for O, eta in enumerate(etas):
        by_value.setdefault(eta, []).append(O)
    entries = [
        SpectrumEntry(
            value=value,
            multiplicity=sum(table.dims[O] for O in rows),
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


def least_analysis(spec: DerangementSpectrum, table: RationalTable):
    """(tau, is_standard_least, is_standard_unique), all decided exactly.
    The standard character is its own Galois orbit, so a least value
    attained by the standard row alone is attained by no other character."""
    least = spec.least
    tau = least.value
    is_least = tau == spec.eta_standard
    is_unique = is_least and least.rows == (table.standard,)
    return tau, is_least, is_unique


def complete_union_detect(spec: DerangementSpectrum) -> int | None:
    """The number n^(|G|/n) of maximum independent sets when the spectrum
    is {d, -1}, which makes the graph a disjoint union of complete graphs
    on n vertices; otherwise None.  The n^2 canonical sets are all of them
    only when n = 3."""
    vals = spec.entries
    if len(vals) == 2 and vals[1].value == -1:
        return spec.n ** (spec.order // spec.n)
    return None


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
