import pytest
from hypothesis import given, strategies as st

from ekrcheck.perm import (
    CycleNotationError,
    Permutation,
    format_cycles,
    parse_cycles,
)

from perm_reference import fixed_points, power


def brute_compose(p, q):
    # independent reference: (p*q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(p)))


def test_parse_simple():
    p = parse_cycles("(1,2,3)", 3)
    assert p.images == (1, 2, 0)


def test_parse_multi_cycle():
    p = parse_cycles("(1,2)(3,4,5)", 5)
    assert p.images == (1, 0, 3, 4, 2)


def test_parse_identity_forms():
    assert parse_cycles("()", 4).is_identity()
    assert parse_cycles("", 4).is_identity()


def test_parse_whitespace():
    p = parse_cycles(" (1, 2) (3,4) ", 4)
    assert p.images == (1, 0, 3, 2)


@pytest.mark.parametrize(
    "text,pos",
    [
        ("(1,2", 4),       # unclosed
        ("(1,9)", 3),      # out of range
        ("(1,1)", 3),      # repeated
        ("(1,2)(2,3)", 6), # repeated across cycles
        ("1,2)", 0),       # missing paren
        ("(1,,2)", 3),     # missing point
    ],
)
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(CycleNotationError) as err:
        parse_cycles(text, 4)
    assert err.value.position == pos


def test_format_round_trip():
    for text in ["(1,2,3)(4,5)", "(2,4)", "()", "(1,3)(2,5,4)"]:
        p = parse_cycles(text, 5)
        assert parse_cycles(format_cycles(p), 5) == p


def test_compose_order_convention():
    # q acts first: (p*q)(i) = p(q(i))
    p = parse_cycles("(1,2)", 3)
    q = parse_cycles("(2,3)", 3)
    assert (p * q).images == brute_compose(p.images, q.images)
    # (1,2)∘(2,3): 1->1->2, 2->3->3, 3->2->1 gives (1,2,3)
    assert format_cycles(p * q) == "(1,2,3)"


perms = st.integers(3, 8).flatmap(
    lambda n: st.permutations(range(n)).map(lambda im: Permutation(tuple(im)))
)


@given(perms)
def test_inverse(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(st.integers(3, 7).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)),
                        st.permutations(range(n)))))
def test_associativity(triple):
    p, q, r = (Permutation(tuple(im)) for im in triple)
    assert (p * q) * r == p * (q * r)
    assert ((p * q) * r).images == brute_compose(p.images, brute_compose(q.images, r.images))


def test_fixed_points_and_derangement():
    p = parse_cycles("(1,2)(3,4)", 5)
    assert fixed_points(p) == (4,)
    assert not p.is_derangement()
    q = parse_cycles("(1,2)(3,4,5)", 5)
    assert q.is_derangement()
    assert fixed_points(q) == ()


def test_cycle_type_and_order():
    p = parse_cycles("(1,2)(3,4,5)", 6)
    assert p.cycle_type() == (3, 2, 1)
    assert p.order() == 6


def test_power():
    p = parse_cycles("(1,2,3,4,5)", 5)
    assert power(p, 2) == p * p
    assert power(p, 5).is_identity()
    assert power(p, 0).is_identity()
    assert power(p, 7) == power(p, 2)


def test_degree_mismatch():
    with pytest.raises(ValueError):
        parse_cycles("(1,2)", 2) * parse_cycles("(1,2)", 3)
