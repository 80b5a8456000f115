"""Finite fields F_q for q <= 32, with dense lookup tables.

Elements are integers 0..q-1.  For q = p^k the integer encodes the coefficient
vector of a residue polynomial in base p, little-endian, so 0 is zero, 1 is
one, and p is the class of x.  Defining polynomials live in
data/field_polys.txt; every table is verified at build time (each nonzero
element must have an inverse, which certifies irreducibility).
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

import numpy as np

MAX_Q = 32


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, or raise."""
    f = factorize(q)
    if len(f) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, k = next(iter(f.items()))
    return p, k


@lru_cache(maxsize=None)
def _poly_table() -> dict[int, tuple[int, ...]]:
    text = resources.files("ekrcheck").joinpath("data/field_polys.txt").read_text()
    out: dict[int, tuple[int, ...]] = {}
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            q, p, k, *coeffs = (int(v) for v in line.split())
            ok = q == p**k and len(coeffs) == k + 1 and coeffs[-1] == 1
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(
                f"data/field_polys.txt line {no}: {line!r} is not 'q p k' with q = p^k "
                "followed by a monic polynomial of degree k"
            )
        out[q] = tuple(coeffs)
    return out


class GF:
    """Arithmetic in F_q via precomputed q x q tables."""

    def __init__(self, q: int):
        if q > MAX_Q:
            raise ValueError(f"field order {q} exceeds the supported bound {MAX_Q}")
        p, k = prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        if k == 1:
            a = np.arange(q, dtype=np.int64)
            self.add_table = ((a[:, None] + a[None, :]) % q).astype(np.int8)
            self.mul_table = ((a[:, None] * a[None, :]) % q).astype(np.int8)
        else:
            poly = _poly_table()[q]
            self.add_table = np.zeros((q, q), dtype=np.int8)
            self.mul_table = np.zeros((q, q), dtype=np.int8)
            for x in range(q):
                for y in range(q):
                    self.add_table[x, y] = self._poly_add(x, y)
                    self.mul_table[x, y] = self._poly_mul(x, y, poly)
        self.neg_table = np.zeros(q, dtype=np.int8)
        self.inv_table = np.zeros(q, dtype=np.int8)
        for x in range(q):
            row = self.add_table[x]
            self.neg_table[x] = int(np.nonzero(row == 0)[0][0])
            if x:
                hits = np.nonzero(self.mul_table[x] == 1)[0]
                if len(hits) != 1:
                    raise ValueError(f"defining polynomial for q={q} is not irreducible")
                self.inv_table[x] = int(hits[0])
        self.frob_table = np.array([self.pow(x, p) for x in range(q)], dtype=np.int8)
        self.primitive = self._find_primitive()

    # digit helpers for the p^k case

    def _digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(x % self.p)
            x //= self.p
        return out

    def _undigits(self, ds: list[int]) -> int:
        v = 0
        for d in reversed(ds):
            v = v * self.p + d
        return v

    def _poly_add(self, x: int, y: int) -> int:
        return self._undigits([(a + b) % self.p
                               for a, b in zip(self._digits(x), self._digits(y))])

    def _poly_mul(self, x: int, y: int, poly: tuple[int, ...]) -> int:
        dx, dy = self._digits(x), self._digits(y)
        prod = [0] * (2 * self.k - 1)
        for i, a in enumerate(dx):
            if a:
                for j, b in enumerate(dy):
                    prod[i + j] = (prod[i + j] + a * b) % self.p
        # reduce modulo the monic defining polynomial
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.k):
                    prod[i - self.k + j] = (prod[i - self.k + j] - c * poly[j]) % self.p
        return self._undigits(prod[: self.k])

    # public operations

    def add(self, x: int, y: int) -> int:
        return int(self.add_table[x, y])

    def sub(self, x: int, y: int) -> int:
        return int(self.add_table[x, self.neg_table[y]])

    def mul(self, x: int, y: int) -> int:
        return int(self.mul_table[x, y])

    def neg(self, x: int) -> int:
        return int(self.neg_table[x])

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.inv_table[x])

    def pow(self, x: int, n: int) -> int:
        if n < 0:
            x, n = self.inv(x), -n
        out, base = 1, x
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def frob(self, x: int) -> int:
        return int(self.frob_table[x])

    def element_order(self, x: int) -> int:
        if x == 0:
            raise ValueError("zero has no multiplicative order")
        n, y = 1, x
        while y != 1:
            y = self.mul(y, x)
            n += 1
        return n

    def _find_primitive(self) -> int:
        target = self.q - 1
        for x in range(1, self.q):
            if self.element_order(x) == target:
                return x
        raise AssertionError("no primitive element found")


@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    return GF(q)


# ---- matrix times vector over GF, as tuples ----

def mat_vec(F: GF, A, v) -> tuple[int, ...]:
    out = []
    for row in A:
        s = 0
        for a, x in zip(row, v):
            s = F.add(s, F.mul(a, x))
        out.append(s)
    return tuple(out)
