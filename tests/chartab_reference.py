"""Pairwise orthogonality of character tables, one exact inner product at a
time: the oracle for the batched F_p check in `chartab._verify_table`.

Each inner product is summed in `Cyc` arithmetic and compared with its
Kronecker delta by `Cyc.is_zero`, which shares no code with the batched
evaluation.
"""

from ekrcheck.chartab import CharacterTable
from ekrcheck.cyclo import Cyc


def inner_product(table: CharacterTable, u, v) -> Cyc:
    """Exact <u, v> = (1/|G|) * sum |C_l| u_l conj(v_l) over the classes.

    u and v are class functions given as sequences of Cyc (table rows work
    directly); plain ints are accepted and coerced.
    """
    total = Cyc.zero(1)
    for size, a, b in zip(table.class_sizes, u, v):
        a = a if isinstance(a, Cyc) else Cyc.rational(1, a)
        b = b if isinstance(b, Cyc) else Cyc.rational(1, b)
        total = total + (a * b.conj()) * size
    return total / table.order


def first_orthogonality_failure(table: CharacterTable):
    """The first row pair (a, b), a <= b in lexicographic order, whose inner
    product is not the Kronecker delta, or None."""
    for a in range(table.k):
        for b in range(a, table.k):
            want = 1 if a == b else 0
            if not (inner_product(table, table.values[a], table.values[b]) - want).is_zero():
                return a, b
    return None
