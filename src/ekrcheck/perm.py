"""Permutations of {1..n}.

Points are 1-indexed in all I/O (cycle notation, reports) and 0-indexed
internally.  A permutation is stored as the tuple of images of 0..n-1.
Composition follows (p*q)(i) = p(q(i)), i.e. q acts first.
"""

from __future__ import annotations

from math import lcm


class CycleNotationError(ValueError):
    """Raised for malformed cycle notation; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at character {position})")
        self.position = position


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p*q)(i) = p(q(i)): other acts first
        if len(self.images) != len(other.images):
            raise ValueError(
                f"degree mismatch: {len(self.images)} vs {len(other.images)}"
            )
        im = self.images
        return Permutation(tuple(im[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r})"

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def is_derangement(self) -> bool:
        return all(i != j for i, j in enumerate(self.images))

    def cycles(self):
        """Cycles (0-indexed), including fixed points, each starting at its
        smallest element, ordered by that element."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_type(self):
        """Multiset of cycle lengths, descending (fixed points included)."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-indexed cycle notation like "(1,2,3)(4,5)" into a Permutation.

    "()" and the empty string denote the identity.  Raises CycleNotationError
    (with character position) on syntax errors, out-of-range points, or
    repeated points.
    """
    images = list(range(degree))
    used = [False] * degree
    i = 0
    n = len(text)

    def skip_ws(i):
        while i < n and text[i] in " \t":
            i += 1
        return i

    i = skip_ws(i)
    while i < n:
        if text[i] != "(":
            raise CycleNotationError(f"expected '(', got {text[i]!r}", i)
        i = skip_ws(i + 1)
        cycle = []
        while i < n and text[i] != ")":
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i == start:
                raise CycleNotationError(f"expected a point, got {text[i]!r}", i)
            pt = int(text[start:i])
            if not 1 <= pt <= degree:
                raise CycleNotationError(
                    f"point {pt} out of range 1..{degree}", start
                )
            if used[pt - 1]:
                raise CycleNotationError(f"point {pt} repeated", start)
            used[pt - 1] = True
            cycle.append(pt - 1)
            i = skip_ws(i)
            if i < n and text[i] == ",":
                i = skip_ws(i + 1)
            elif i < n and text[i] != ")":
                raise CycleNotationError(
                    f"expected ',' or ')', got {text[i]!r}", i
                )
        if i >= n:
            raise CycleNotationError("unclosed cycle", n)
        i = skip_ws(i + 1)
        for a, b in zip(cycle, cycle[1:]):
            images[a] = b
        if len(cycle) > 1:
            images[cycle[-1]] = cycle[0]
    return Permutation(tuple(images))


def format_cycles(p: Permutation) -> str:
    """1-indexed cycle notation; fixed points omitted; identity is "()"."""
    parts = []
    for cyc in p.cycles():
        if len(cyc) > 1:
            parts.append("(" + ",".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "()"
