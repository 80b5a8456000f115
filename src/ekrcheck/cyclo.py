"""Exact arithmetic in the cyclotomic fields Q(zeta_e).

A value is a sparse integer combination of e-th roots of unity over a common
positive denominator.  The representation is deliberately not canonical
(exponents range over all of Z/e rather than a power basis).  Equality is a
zero test of the difference, behind a float prefilter that can only certify
"nonzero".  The exact test uses the norm bound.  Let x = sum c_k zeta^k with
integer c_k and B = sum |c_k|.  For a prime p = 1 (mod e), x vanishes at
omega^u mod p for every unit u, where omega is a primitive e-th root mod p,
exactly when x lies in p Z[zeta] (p splits completely).  So if that holds
for primes whose product P exceeds B, then either x = 0 or
P^phi(e) <= |N(x)| <= B^phi(e), which is impossible.  Reduction modulo the
e-th cyclotomic polynomial is kept for the coordinate form (`canonical`).
The sign of a real value comes from certified interval evaluation at
escalating precision, after the exact zero test; `mpmath` is imported only
when a sign gets that far, so arithmetic and zero tests run without it.
Operands of different conductors are embedded into their lcm, so mixing is
always exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .fields import factorize
from .modmath import element_of_order, prime_one_mod


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def euler_phi(n: int) -> int:
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Divide by a monic integer polynomial, requiring zero remainder."""
    num = list(num)
    dn = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    if any(num[:dn]):
        raise ValueError("division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(e: int) -> tuple[int, ...]:
    """Coefficients of the e-th cyclotomic polynomial, ascending, monic."""
    if e == 1:
        return (-1, 1)
    poly = [-1] + [0] * (e - 1) + [1]
    for d in divisors(e):
        if d < e:
            poly = _poly_div_exact(poly, cyclotomic_poly(d))
    if len(poly) != euler_phi(e) + 1:
        raise AssertionError(f"cyclotomic polynomial {e} has degree {len(poly) - 1}, not phi({e})")
    return tuple(poly)


def _reduce_mod_cyclo(dense: list[int], e: int) -> tuple[int, ...]:
    """Reduce an exponent-indexed vector of length e modulo Phi_e."""
    phi = cyclotomic_poly(e)
    k = len(phi) - 1
    c = list(dense)
    for i in range(e - 1, k - 1, -1):
        t = c[i]
        if t:
            c[i] = 0
            for j in range(k):
                c[i - k + j] -= t * phi[j]
    return tuple(c[:k])


# split primes lie in (2^30, 2^31), so a product of two residues fits int64
_SPLIT_PRIME_FLOOR = 1 << 30
_SPLIT_PRIME_CEIL = 1 << 31
# entries of one (units x exponents) evaluation block: 1 MB of int64
_EVAL_BLOCK = 1 << 17


@lru_cache(maxsize=None)
def _units(e: int) -> np.ndarray:
    units = np.array([u for u in range(e) if gcd(u, e) == 1], dtype=np.int64)
    units.flags.writeable = False  # shared by every caller through the cache
    return units


@lru_cache(maxsize=None)
def _split_prime(e: int, i: int) -> tuple[int, np.ndarray]:
    """The i-th prime p = 1 (mod e) above 2^30, with powers[j] = omega^j mod p
    for a primitive e-th root of unity omega mod p."""
    p = prime_one_mod(e, _split_prime(e, i - 1)[0] if i else _SPLIT_PRIME_FLOOR)
    if p >= _SPLIT_PRIME_CEIL:
        raise OverflowError(f"no split prime below 2^31 left for conductor {e}")
    w = element_of_order(p, e, list(factorize(e)))
    powers = np.empty(e, dtype=np.int64)
    acc = 1
    for j in range(e):
        powers[j] = acc
        acc = acc * w % p
    powers.flags.writeable = False
    return p, powers


def _vanishes(e: int, num: dict[int, int], bound: int) -> bool:
    """Exactly whether sum_k num[k] zeta_e^k is zero, given bound >= sum |num[k]|.

    Evaluates at omega^u for every unit u modulo split primes until their
    product exceeds the bound (the norm argument of the module docstring)."""
    # all exponents in g*Z means the value lies in Q(zeta_(e/g)): test there
    g = e
    for k in num:
        g = gcd(g, k)
    e //= g
    if e == 1:
        return not sum(num.values())
    units = _units(e)
    keys = np.fromiter((k // g for k in num), dtype=np.int64, count=len(num))
    step = max(1, _EVAL_BLOCK // len(keys))
    modulus, i = 1, 0
    while modulus <= bound:
        p, powers = _split_prime(e, i)
        coeffs = np.array([c % p for c in num.values()], dtype=np.int64)
        for s in range(0, len(units), step):
            exponents = np.outer(units[s:s + step], keys) % e
            if ((powers[exponents] * coeffs % p).sum(axis=1) % p).any():
                return False
        modulus *= p
        i += 1
    return True


@lru_cache(maxsize=None)
def _root_table(e: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(e) / e
    return np.cos(ang) + 1j * np.sin(ang)


_MAX_SIGN_PREC = 1 << 16


class Cyc:
    """An element of Q(zeta_e)."""

    __slots__ = ("e", "num", "den")

    def __init__(self, e: int, num: dict[int, int], den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = {k: -c for k, c in num.items()}
        num = {k % e: c for k, c in num.items() if c}
        g = den
        for c in num.values():
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            den //= g
            num = {k: c // g for k, c in num.items()}
        self.e = e
        self.num = num
        self.den = den

    # ---- constructors ----

    @staticmethod
    def zero(e: int) -> "Cyc":
        return Cyc(e, {})

    @staticmethod
    def integer(e: int, n: int) -> "Cyc":
        return Cyc(e, {0: n})

    @staticmethod
    def rational(e: int, q) -> "Cyc":
        q = Fraction(q)
        return Cyc(e, {0: q.numerator}, q.denominator)

    @staticmethod
    def zeta(e: int, k: int = 1) -> "Cyc":
        return Cyc(e, {k % e: 1})

    @staticmethod
    def root_sum(e: int, pairs) -> "Cyc":
        num: dict[int, int] = {}
        for k, c in pairs:
            k %= e
            num[k] = num.get(k, 0) + c
        return Cyc(e, num)

    # ---- coercion ----

    def embed(self, conductor: int) -> "Cyc":
        """The same value viewed in Q(zeta_conductor); requires e | conductor."""
        if conductor == self.e:
            return self
        if conductor % self.e:
            raise ValueError(f"{self.e} does not divide {conductor}")
        m = conductor // self.e
        return Cyc(conductor, {k * m: c for k, c in self.num.items()}, self.den)

    def _pair(self, other):
        if isinstance(other, (int, np.integer)):
            other = Cyc.integer(self.e, int(other))
        elif isinstance(other, Fraction):
            other = Cyc.rational(self.e, other)
        elif not isinstance(other, Cyc):
            return None
        if other.e == self.e:
            return self, other
        conductor = lcm(self.e, other.e)
        return self.embed(conductor), other.embed(conductor)

    # ---- arithmetic ----

    def __add__(self, other):
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        num = {k: c * b.den for k, c in a.num.items()}
        for k, c in b.num.items():
            num[k] = num.get(k, 0) + c * a.den
        return Cyc(a.e, num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.e, {k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other):
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        return a.__add__(b.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        num: dict[int, int] = {}
        e = a.e
        for k1, c1 in a.num.items():
            for k2, c2 in b.num.items():
                k = k1 + k2
                if k >= e:
                    k -= e
                num[k] = num.get(k, 0) + c1 * c2
        return Cyc(e, num, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, np.integer)):
            return Cyc(self.e, dict(self.num), self.den * int(other))
        if isinstance(other, Fraction):
            return Cyc(self.e, {k: c * other.denominator for k, c in self.num.items()},
                       self.den * other.numerator)
        return NotImplemented

    def conj(self) -> "Cyc":
        return Cyc(self.e, {(-k) % self.e: c for k, c in self.num.items()}, self.den)

    # ---- predicates / conversion ----

    def approx(self) -> complex:
        if not self.num:
            return 0j
        tab = _root_table(self.e)
        z = 0j
        for k, c in self.num.items():
            z += c * tab[k]
        return z / self.den

    def _abs_coeff_sum(self) -> int:
        return sum(abs(c) for c in self.num.values())

    def is_zero(self) -> bool:
        if not self.num:
            return True
        if set(self.num) == {0}:
            return False
        # the float prefilter can certify "nonzero" but never "zero"
        scale = self._abs_coeff_sum()
        if abs(self.approx()) * self.den > scale * 1e-9:
            return False
        return _vanishes(self.e, self.num, scale)

    def _dense(self) -> list[int]:
        out = [0] * self.e
        for k, c in self.num.items():
            out[k] = c
        return out

    def canonical(self) -> tuple:
        """Hashable canonical form (conductor, power-basis coords, den)."""
        coords = _reduce_mod_cyclo(self._dense(), self.e)
        den = self.den
        g = den
        for c in coords:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            den //= g
            coords = tuple(c // g for c in coords)
        return (self.e, coords, den)

    def __eq__(self, other):
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        if a.num == b.num and a.den == b.den:
            return True
        return (a - b).is_zero()

    def __hash__(self):
        return hash(self.canonical())

    def is_real(self) -> bool:
        return (self - self.conj()).is_zero()

    # ---- sign of real values ----

    def sign_real(self) -> int:
        """Sign of a real value: -1, 0, or 1.

        Intended for provably real quantities (the spectra here are closed
        under conjugation); raises when the input is visibly non-real.
        """
        if not self.num:
            return 0
        if set(self.num) == {0}:
            return 1 if self.num[0] > 0 else -1
        # cheap certified filter before anything exact
        scale = self._abs_coeff_sum()
        a = self.approx()
        if abs(a.imag) * self.den > scale * 1e-9:
            raise ValueError("sign of a non-real value")
        if abs(a.real) * self.den > scale * 1e-9:
            return 1 if a.real > 0 else -1
        if self.is_zero():
            return 0
        if not self.is_real():
            raise ValueError("sign of a non-real value")
        return self._interval_sign()

    def _interval_sign(self) -> int:
        from mpmath import iv

        saved = iv.prec
        try:
            prec = 128
            while prec <= _MAX_SIGN_PREC:
                iv.prec = prec
                two_pi = 2 * iv.pi
                s = iv.mpf(0)
                for k, c in self.num.items():
                    s += c * iv.cos(two_pi * k / self.e)
                if s > 0:
                    return 1
                if s < 0:
                    return -1
                prec *= 2
        finally:
            iv.prec = saved
        raise RuntimeError("interval sign did not converge for a nonzero value")

    def __repr__(self):
        if not self.num:
            return "Cyc(0)"
        parts = []
        for k in sorted(self.num):
            c = self.num[k]
            parts.append(f"{c}" if k == 0 else f"{c}*z{self.e}^{k}")
        body = " + ".join(parts).replace("+ -", "- ")
        return f"Cyc({body})" if self.den == 1 else f"Cyc(({body})/{self.den})"
