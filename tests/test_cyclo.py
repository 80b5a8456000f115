import cmath
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ekrcheck import cyclo
from ekrcheck.cyclo import Cyc, _reduce_mod_cyclo, cyclotomic_poly, divisors, euler_phi
from ekrcheck.fields import factorize

from chartab_reference import to_int


def test_divisors_and_phi():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polys_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_poly_105_has_coefficient_minus_two():
    # the first conductor with a coefficient outside {-1, 0, 1}
    assert cyclotomic_poly(105)[7] == -2


def test_root_of_unity_sum_is_minus_one():
    for e in [2, 3, 5, 7, 11, 12]:
        s = Cyc.root_sum(e, [(k, 1) for k in range(1, e)])
        assert s == -1
        assert to_int(s) == -1


def test_zeta3_identity():
    z = Cyc.zeta(3)
    assert (1 + z + z * z).is_zero()
    assert z * z * z == 1


def test_noncanonical_equality():
    # -z3 - z3^2 and 1 are the same number in different representations
    a = Cyc.root_sum(3, [(1, -1), (2, -1)])
    assert a == 1
    assert a == Cyc.integer(3, 1)
    assert hash(a) == hash(Cyc.integer(3, 1))


def test_mixed_conductor_equality():
    # zeta_6 = -zeta_3^2
    assert Cyc.zeta(6) == -(Cyc.zeta(3) * Cyc.zeta(3))
    assert Cyc.zeta(6, 2) == Cyc.zeta(3)


def test_arithmetic_with_rationals():
    z = Cyc.zeta(5)
    v = (z + z.conj()) / 2
    w = Cyc.rational(5, Fraction(1, 2)) * (z + Cyc.zeta(5, 4))
    assert v == w
    assert (v - w).is_zero()
    assert 3 * Cyc.integer(7, 2) == 6
    assert Cyc.integer(7, 5) - 2 == 3
    assert 2 - Cyc.integer(7, 5) == -3


def test_golden_ratio_quadratic():
    # t = z5 + z5^4 satisfies t^2 + t - 1 = 0
    t = Cyc.zeta(5) + Cyc.zeta(5, 4)
    assert (t * t + t - 1).is_zero()
    assert t.is_real()
    with pytest.raises(ValueError):
        to_int(t)


def test_sqrt2_from_eighth_roots():
    r = Cyc.zeta(8) + Cyc.zeta(8, 7)
    assert r * r == 2
    assert (r - 1).sign_real() == 1
    assert (r - 2).sign_real() == -1


def test_gauss_sum_squares():
    # quadratic Gauss sum: g^2 = p for p = 1 mod 4, -p for p = 3 mod 4
    for p, want in [(5, 5), (13, 13), (7, -7), (11, -11)]:
        squares = {(k * k) % p for k in range(1, p)}
        g = Cyc.root_sum(p, [(k, 1 if k in squares else -1) for k in range(1, p)])
        assert g * g == want


def test_ordering_of_cosines():
    # 2cos(2pi/7) > 2cos(4pi/7) > 2cos(6pi/7)
    c1 = Cyc.zeta(7) + Cyc.zeta(7, 6)
    c2 = Cyc.zeta(7, 2) + Cyc.zeta(7, 5)
    c3 = Cyc.zeta(7, 3) + Cyc.zeta(7, 4)
    assert (c1 - c2).sign_real() == (c2 - c3).sign_real() == 1
    assert (c3 - c1).sign_real() == -1
    assert sorted([c2, c1, c3], key=lambda v: v.approx().real) == [c3, c2, c1]


def test_sign_real_zero_and_exact_paths():
    assert Cyc.zero(5).sign_real() == 0
    assert (Cyc.zeta(5) - Cyc.zeta(5)).sign_real() == 0
    assert Cyc.rational(5, Fraction(-3, 7)).sign_real() == -1
    # difference of conjugate pairs is zero despite nontrivial support
    v = Cyc.root_sum(5, [(1, 1), (4, 1)]) - Cyc.root_sum(5, [(4, 1), (1, 1)])
    assert v.sign_real() == 0


def test_mpmath_loads_only_for_an_interval_sign():
    # F_{k+1} - F_k * phi = psi^k with phi = 1 + z5 + z5^4 the golden ratio
    # and psi = -1/phi: about 4e-9 in size, below the float filter's reach
    # for coefficients near 1e8, so only the interval test settles its sign
    script = (
        "import sys\n"
        "from ekrcheck.cyclo import Cyc\n"
        "phi = 1 + Cyc.zeta(5) + Cyc.zeta(5, 4)\n"
        "fib = [0, 1]\n"
        "while len(fib) < 43:\n"
        "    fib.append(fib[-1] + fib[-2])\n"
        "assert (phi * phi - phi - 1).is_zero()\n"
        "assert (phi - 1).sign_real() == 1 and (1 - 2 * phi).sign_real() == -1\n"
        "even, odd = fib[41] - fib[40] * phi, fib[42] - fib[41] * phi\n"
        "assert not even.is_zero() and even.is_real()\n"
        "assert 'mpmath' not in sys.modules, 'mpmath loaded before an interval sign'\n"
        "print(even.sign_real(), 'mpmath' in sys.modules, odd.sign_real())\n"
    )
    src = pathlib.Path(cyclo.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "True", "-1"]


def test_sign_real_rejects_imaginary():
    with pytest.raises(ValueError):
        Cyc.zeta(4).sign_real()  # i


def test_conj_and_real():
    z = Cyc.zeta(12, 5)
    assert z.conj() == Cyc.zeta(12, 7)
    assert (z + z.conj()).is_real()
    assert not z.is_real()


def test_galois_orbit_sums_are_integers():
    # z5+z5^4 and its Galois conjugate z5^2+z5^3 are irrational, but their
    # sum and product, symmetric in the orbit, are the integers -1 and -1
    t = Cyc.zeta(5) + Cyc.zeta(5, 4)
    t2 = Cyc.zeta(5, 2) + Cyc.zeta(5, 3)
    assert to_int(t + t2) == -1
    assert to_int(t * t2) == -1
    with pytest.raises(ValueError):
        to_int(t2)


def test_to_int_of_noncanonical_integers():
    assert to_int(Cyc.zeta(3) + Cyc.zeta(3, 2)) == -1
    assert to_int(Cyc.zeta(4) + Cyc.zeta(4, 3)) == 0
    assert to_int(Cyc.root_sum(7, [(k, 1) for k in range(1, 7)])) == -1
    assert to_int(Cyc.rational(6, Fraction(12, 4))) == 3


def test_to_int_rejects_non_integers():
    with pytest.raises(ValueError):
        to_int(Cyc.rational(6, Fraction(5, 2)))
    with pytest.raises(ValueError):
        to_int(Cyc.zeta(5) + Cyc.zeta(5, 4))


def test_embed():
    z3 = Cyc.zeta(3)
    assert z3.embed(12) == Cyc.zeta(12, 4)
    with pytest.raises(ValueError):
        z3.embed(10)


small_vals = st.builds(
    lambda e, coeffs, den: Cyc(e, dict(enumerate(coeffs)), den),
    st.sampled_from([3, 4, 5, 6, 8, 12]),
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.integers(1, 9),
)


@settings(max_examples=150, deadline=None)
@given(small_vals, small_vals)
def test_approx_tracks_exact_ops(a, b):
    for exact, approx in [
        (a + b, a.approx() + b.approx()),
        (a - b, a.approx() - b.approx()),
        (a * b, a.approx() * b.approx()),
    ]:
        assert cmath.isclose(exact.approx(), approx, abs_tol=1e-7)


@settings(max_examples=150, deadline=None)
@given(small_vals)
def test_eq_consistent_with_approx(a):
    if a.is_zero():
        assert abs(a.approx()) < 1e-7
    else:
        assert abs(a.approx()) > 1e-12
    assert a == a
    assert a - a == Cyc.zero(a.e)


@settings(max_examples=100, deadline=None)
@given(small_vals)
def test_real_part_sign(a):
    r = a + a.conj()  # always real
    s = r.sign_real()
    ap = r.approx().real
    if s == 0:
        assert abs(ap) < 1e-7
    else:
        assert s == (1 if ap > 0 else -1)


@st.composite
def integers_in_disguise(draw):
    """(m, m plus c times a vanishing sum of the q-th roots of unity,
    rotated by zeta_e^k), for a prime q dividing e."""
    e = draw(st.sampled_from([3, 4, 6, 7, 12, 15, 2040]))
    q = draw(st.sampled_from(sorted(factorize(e))))
    k = draw(st.integers(0, e - 1))
    c = draw(st.integers(-(1 << 20), 1 << 20))
    m = draw(st.integers(-(1 << 40), 1 << 40))
    zero = Cyc.root_sum(e, [(k + j * (e // q), c) for j in range(q)])
    return m, zero + m


@settings(max_examples=100, deadline=None)
@given(integers_in_disguise())
def test_to_int_sees_through_a_vanishing_root_sum(case):
    m, x = case
    assert to_int(x) == m


# ---- the exact zero test against reduction modulo Phi_e ----

_SPLIT_FLOOR = 1 << 30


def _reduces_to_zero(x: Cyc) -> bool:
    return not any(_reduce_mod_cyclo(x._dense(), x.e))


@st.composite
def zero_test_cases(draw):
    """A zero sum_j zeta^(j*e/q) over a prime q | e times a random element,
    sometimes with one root of unity added (a near miss)."""
    e = draw(st.sampled_from([2040, 3420]))
    q = draw(st.sampled_from(sorted(factorize(e))))
    zero = Cyc.root_sum(e, [(j * (e // q), 1) for j in range(q)])
    # coefficients up to 2^70 give coefficient sums beyond several split primes
    size = draw(st.sampled_from([9, 1 << 40, 1 << 70]))
    terms = draw(st.lists(st.tuples(st.integers(0, e - 1), st.integers(-size, size)),
                          min_size=1, max_size=5))
    x = zero * Cyc.root_sum(e, terms)
    if draw(st.booleans()):
        x = x + Cyc.zeta(e, draw(st.integers(0, e - 1)))
    return x


@settings(max_examples=40, deadline=None)
@given(zero_test_cases())
def test_norm_bound_zero_test_agrees_with_reduction(x):
    want = _reduces_to_zero(x)
    assert x.is_zero() == want
    # the exact test alone, without the float prefilter in front of it
    if x.num:
        assert cyclo._vanishes(x.e, x.num, x._abs_coeff_sum()) == want


@pytest.mark.parametrize("e", [2040, 3420])
def test_zero_with_a_large_coefficient_sum_needs_several_primes(e, monkeypatch):
    big = (1 << 80) + 7
    fifth_roots = Cyc.root_sum(e, [(j * (e // 5), big) for j in range(5)])
    zero = fifth_roots * (1 + Cyc.zeta(e))
    bound = zero._abs_coeff_sum()
    assert bound > _SPLIT_FLOOR**2
    used = set()
    split_prime = cyclo._split_prime

    def recorded(conductor, i):
        used.add((conductor, i))
        return split_prime(conductor, i)

    monkeypatch.setattr(cyclo, "_split_prime", recorded)
    assert zero.is_zero() and _reduces_to_zero(zero)
    # three primes above 2^30 are needed to pass the coefficient sum 10 * big
    assert sorted(used) == [(e, i) for i in range(len(used))] and len(used) >= 3
    primes = [split_prime(e, i)[0] for i in range(len(used))]
    assert all(_SPLIT_FLOOR < p < 2 * _SPLIT_FLOOR and (p - 1) % e == 0 for p in primes)
    assert math.prod(primes[:-1]) <= bound < math.prod(primes)
    miss = zero + Cyc.zeta(e, 1)
    assert not miss.is_zero() and not _reduces_to_zero(miss)


@pytest.mark.parametrize("e", [12, 2040])
def test_a_root_modulo_one_prime_ideal_is_not_a_zero(e):
    # zeta - omega lies in the prime ideal (p, zeta - omega) only: it vanishes
    # at omega itself but not at the other conjugates omega^u
    _, powers = cyclo._split_prime(e, 0)
    x = Cyc.root_sum(e, [(1, 1), (0, -int(powers[1]))])
    assert not cyclo._vanishes(e, x.num, x._abs_coeff_sum())
    assert not x.is_zero() and not _reduces_to_zero(x)
