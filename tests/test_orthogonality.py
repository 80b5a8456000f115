"""The batched orthogonality check that certifies the cyclotomic oracle
table (`chartab_reference._verify_table`) against the pairwise inner
products of the same module.

Every survey table, and tampered copies of each, must be accepted or
rejected by both alike, with the same first failing row pair.  Two tampers
are built to slip past a weakened check: one that vanishes at omega but
not at every unit, and one that vanishes modulo the first split prime only.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from ekrcheck.cyclo import Cyc, _split_prime, _units, euler_phi

import chartab_reference as chartab_mod
from chartab_reference import first_orthogonality_failure, oracle_table
from survey import SURVEY


@pytest.fixture(scope="module")
def tables():
    return oracle_table


def batched_first_failure(t):
    failing = np.argwhere(np.triu(chartab_mod._orthogonality_failures(t)))
    return tuple(int(x) for x in failing[0]) if failing.size else None


def assert_same_verdict(t):
    """Batched and pairwise checks agree, and `_verify_table` reports the
    first failing pair; returns that pair or None."""
    want = first_orthogonality_failure(t)
    assert batched_first_failure(t) == want
    if want is not None:
        with pytest.raises(ValueError, match=f"rows {want[0]},{want[1]} violate"):
            chartab_mod._verify_table(t)
    return want


def with_entry(t, r, l, value):
    values = [list(row) for row in t.values]
    values[r][l] = value
    return dataclasses.replace(t, values=values)


def count_primes(monkeypatch):
    """Record the split-prime indices the batched check asks for."""
    used = set()

    def counting(e, i):
        used.add(i)
        return _split_prime(e, i)

    monkeypatch.setattr(chartab_mod, "_split_prime", counting)
    return used


@pytest.mark.parametrize("key", SURVEY)
def test_survey_table_and_tampered_copies(tables, key):
    t = tables(key)
    assert assert_same_verdict(t) is None
    k, last = t.k, t.k - 1
    # a root of unity added to one entry off the identity column
    bumped = with_entry(t, last, last, t.values[last][last] + Cyc.zeta(t.e))
    assert assert_same_verdict(bumped) is not None
    # an integer added to the first row's last entry
    shifted = with_entry(t, 0, last, t.values[0][last] + 1)
    assert assert_same_verdict(shifted) is not None
    # two entries of one row swapped: rejected unless the swap is harmless
    if k > 2:
        values = [list(row) for row in t.values]
        values[last][1], values[last][2] = values[last][2], values[last][1]
        assert_same_verdict(dataclasses.replace(t, values=values))


def _lll(basis: list[list[int]]) -> list[list[int]]:
    """LLL-reduced basis (delta = 3/4) of an integer lattice, in exact
    rational arithmetic; small dimensions only."""
    B = [list(b) for b in basis]
    n = len(B)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def gram_schmidt():
        star, mu = [], [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v = [Fraction(x) for x in B[i]]
            for j in range(i):
                mu[i][j] = dot(B[i], star[j]) / dot(star[j], star[j])
                v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
            star.append(v)
        return star, mu

    star, mu = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                B[k] = [a - q * b for a, b in zip(B[k], B[j])]
                star, mu = gram_schmidt()
        if dot(star[k], star[k]) >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * dot(star[k - 1], star[k - 1]):
            k += 1
        else:
            B[k], B[k - 1] = B[k - 1], B[k]
            star, mu = gram_schmidt()
            k = max(k - 1, 1)
    return B


def test_tamper_vanishing_at_omega_only_is_rejected(tables, monkeypatch):
    # F20 has conductor 20: eight units, four pairs {u, -u}
    t = tables("F20")
    e, phi = t.e, euler_phi(t.e)
    p, powers = _split_prime(e, 0)
    w, w_inv = int(powers[1]), int(powers[e - 1])
    # the lattice of d in Z^phi with sum d_j w^j = sum d_j w^-j = 0 (mod p):
    # p e_0, p e_1, and e_j - a_j e_0 - b_j e_1 with a + b w^(+-1) = w^(+-j)
    inv = pow(w - w_inv, -1, p)
    basis = [[p if c == i else 0 for c in range(phi)] for i in range(2)]
    for j in range(2, phi):
        b = (pow(w, j, p) - pow(w_inv, j, p)) * inv % p
        a = (pow(w, j, p) - b * w) % p
        basis.append([-a, -b] + [1 if c == j else 0 for c in range(2, phi)])
    d = min(_lll(basis), key=lambda v: sum(abs(x) for x in v))
    delta = Cyc.root_sum(e, list(enumerate(d)))
    values_at = [sum(c * int(powers[u * j % e]) for j, c in enumerate(d)) % p for u in _units(e)]
    # zero at omega and omega^-1, not at the other units
    assert values_at[0] == values_at[-1] == 0 and any(values_at[1:-1])
    r, l = t.standard, 1
    tampered = with_entry(t, r, l, t.values[r][l] + delta)
    used = count_primes(monkeypatch)
    assert assert_same_verdict(tampered) is not None
    # one prime covers the bound, so only the units beyond 1 reject it
    assert used == {0}


def test_tamper_by_the_first_split_prime_is_rejected(tables, monkeypatch):
    t = tables("F20")
    p, _ = _split_prime(t.e, 0)
    # p * zeta vanishes at every unit modulo p, and only there
    tampered = with_entry(t, t.standard, 1, t.values[t.standard][1] + Cyc.zeta(t.e) * p)
    used = count_primes(monkeypatch)
    assert assert_same_verdict(tampered) is not None
    assert len(used) >= 2


def _inflate(t, q: int, big: int):
    """`t` with big * sum_j zeta^(j e/q), which is zero, added to every value."""
    zero = Cyc.root_sum(t.e, [(j * t.e // q, big) for j in range(q)])
    return dataclasses.replace(t, values=[[v + zero for v in row] for row in t.values])


@pytest.mark.parametrize("key", ["F20", "PGL(2,5)"])
def test_huge_coefficients_accepted_with_more_primes(tables, key, monkeypatch):
    t = tables(key)
    q = min(x for x in range(2, t.e + 1) if t.e % x == 0)
    t2 = _inflate(t, q, 2**41 + 12345)
    used = count_primes(monkeypatch)
    chartab_mod._verify_table(t2)
    assert len(used) >= 3
    assert max(abs(c) for row in t2.values for v in row for c in v.num.values()) > 2**40
    for r1, r2 in zip(t.values, t2.values):
        assert all((a - b).is_zero() for a, b in zip(r1, r2))


def test_huge_coefficients_tampered_rejected(tables):
    t = tables("F20")
    r = next(r for r in range(t.k) if r not in (t.trivial, t.standard))
    t2 = _inflate(t, 2, 2**41 + 12345)
    tampered = with_entry(t2, r, 1, t2.values[r][1] + Cyc.zeta(t.e))
    with pytest.raises(ValueError, match="violate orthogonality"):
        chartab_mod._verify_table(tampered)
