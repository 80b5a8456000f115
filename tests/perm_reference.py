"""Powers and fixed points of a permutation, for the tests that use them
as references; the library reads both off image rows instead."""

from ekrcheck.perm import Permutation


def power(p: Permutation, t: int) -> Permutation:
    """p^t for t >= 0, one product at a time."""
    out = Permutation.identity(p.degree)
    for _ in range(t % p.order()):
        out = p * out
    return out


def fixed_points(p: Permutation) -> tuple[int, ...]:
    """The 0-indexed points that p fixes, ascending."""
    return tuple(i for i, j in enumerate(p.images) if i == j)
