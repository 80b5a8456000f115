"""Weighted ratio certificates: the simplex, the exact re-verifier, and
the M10 certificate that meets condition (b) without an n-clique."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ekrcheck.chartab import character_table_for, rational_classes
from ekrcheck.cyclo import Cyc
from ekrcheck.group import conjugacy_classes
from ekrcheck.library import get_group
from ekrcheck.weighted import (
    _simplex_max,
    verify_weighted_ratio,
    weighted_ratio_certificate,
    weighted_ratio_holds,
)

from chartab_reference import omega_rows, oracle_table, to_int
from perm_reference import power
from survey import SURVEY


@pytest.fixture(scope="module")
def ctx():
    cache = {}

    def get(key):
        if key not in cache:
            _, g = get_group(key)
            eg = conjugacy_classes(g)
            cache[key] = (eg, character_table_for(g, eg=eg))
        return cache[key]

    return get


def _cert(key: str, table, weights: dict[int, Fraction]) -> dict:
    """An honest certificate for weights on rational classes: every eta
    recorded as the cyclotomic oracle table gives it, for one character
    of each row's orbit, summed over the conjugacy classes of each
    rational class.  Times the weights' common denominator, an eta is an
    integer."""
    oracle = oracle_table(key)
    chi_rows = omega_rows(oracle, table.classes)
    den = math.lcm(*(w.denominator for w in weights.values()))
    etas = []
    for row in table.omega.tolist():
        chi = chi_rows.index(tuple(row))
        acc = Cyc.zero(1)
        for S, w in weights.items():
            for c in table.classes[S]:
                scale = Fraction(oracle.class_sizes[c], oracle.degrees[chi]) * w * den
                acc = acc + oracle.values[chi][c] * scale
        etas.append(Fraction(to_int(acc), den))
    return {
        "kind": "weighted-ratio",
        "weights": [
            {"classes": table.classes[S], "weight": str(w)} for S, w in sorted(weights.items())
        ],
        "eta_by_row": [str(eta) for eta in etas],
    }


def _m10_classes(eg, table):
    """The rational classes of derangements of M10: (order 5, order 8).
    The second holds the two classes of order 8."""
    order = {S: eg.class_orders[table.classes[S][0]] for S in table.der}
    (five,) = [S for S in table.der if order[S] == 5]
    (eight,) = [S for S in table.der if order[S] == 8]
    assert [eg.class_sizes[c] for c in table.classes[five]] == [144]
    assert [eg.class_sizes[c] for c in table.classes[eight]] == [90, 90]
    return five, eight


def test_simplex_small_lp():
    # max x + y subject to x + 2y <= 4, 3x + y <= 6: optimum at (8/5, 6/5)
    x = _simplex_max(np.array([1.0, 1.0]), np.array([[1.0, 2.0], [3.0, 1.0]]), np.array([4.0, 6.0]))
    assert np.allclose(x, [1.6, 1.2])


def test_simplex_reports_unbounded():
    assert _simplex_max(np.array([1.0]), np.array([[-1.0]]), np.array([1.0])) is None


def test_holds_needs_a_strict_unique_least():
    assert weighted_ratio_holds(["9", "0", "-1", "9/32"], 10)
    assert not weighted_ratio_holds(["9", "-1", "-1", "0"], 10)  # a tie
    assert not weighted_ratio_holds(["9", "-2", "-1", "0"], 10)  # below -d_w/(n-1)
    assert not weighted_ratio_holds(["0", "0", "0"], 3)  # d_w = 0


def test_m10_certificate(ctx):
    eg, table = ctx("M10")
    cert = weighted_ratio_certificate(table)
    assert cert is not None and verify_weighted_ratio(table, cert)
    etas = [Fraction(x) for x in cert["eta_by_row"]]
    d_w = etas[table.trivial]
    assert d_w > 0
    assert etas[table.standard] == -d_w / 9
    others = [x for r, x in enumerate(etas) if r not in (table.trivial, table.standard)]
    assert min(others) > etas[table.standard]


def test_m10_hand_weights_verify(ctx):
    # 1/32 on the order-5 class, 1/40 on each order-8 class:
    # d_w = 144/32 + 180/40 = 9, eta_std = -1, every other eta 0 or 9/32
    eg, table = ctx("M10")
    five, eight = _m10_classes(eg, table)
    weights = {five: Fraction(1, 32), eight: Fraction(1, 40)}
    cert = _cert("M10", table, weights)
    assert verify_weighted_ratio(table, cert)
    etas = [Fraction(x) for x in cert["eta_by_row"]]
    assert etas[table.trivial] == 9 and etas[table.standard] == -1
    others = {x for r, x in enumerate(etas) if r not in (table.trivial, table.standard)}
    assert others == {0, Fraction(9, 32)}


def test_reverify_rejects_tampered_weight(ctx):
    eg, table = ctx("M10")
    cert = weighted_ratio_certificate(table)
    entry = cert["weights"][0]
    tampered = dict(cert, weights=[dict(entry, weight=str(Fraction(entry["weight"]) * 2))]
                    + cert["weights"][1:])
    assert not verify_weighted_ratio(table, tampered)


def test_reverify_rejects_a_tie(ctx):
    # the unweighted derangement graph of M10: its linear character gives
    # -36 = -d/9, only equal to the standard eigenvalue, not greater
    eg, table = ctx("M10")
    weights = {S: Fraction(1) for S in table.der}
    cert = _cert("M10", table, weights)
    etas = [Fraction(x) for x in cert["eta_by_row"]]
    assert etas[table.standard] == -36 and etas.count(Fraction(-36)) == 2
    assert not verify_weighted_ratio(table, cert)
    # recording another value for the tying row does not hide the tie
    tie = next(r for r, x in enumerate(etas) if x == -36 and r != table.standard)
    forged = dict(cert, eta_by_row=[("0" if r == tie else x) for r, x in enumerate(cert["eta_by_row"])])
    assert weighted_ratio_holds(forged["eta_by_row"], table.degree)
    assert not verify_weighted_ratio(table, forged)


def test_reverify_rejects_weights_off_the_derangements(ctx):
    eg, table = ctx("M10")
    five, eight = _m10_classes(eg, table)
    fixed = next(S for S in range(1, table.r) if S not in table.der)
    weights = {five: Fraction(1, 32), eight: Fraction(1, 40)}
    off = _cert("M10", table, {**weights, fixed: Fraction(1, 1000)})
    assert not verify_weighted_ratio(table, off)
    negative = _cert("M10", table, weights)
    negative["weights"][0]["weight"] = "-1/32"
    assert not verify_weighted_ratio(table, negative)
    # honest etas of weights with a negative entry pass the arithmetic,
    # but not the sign condition
    signed = _cert("M10", table, {five: Fraction(1, 5), eight: Fraction(-1, 8)})
    assert weighted_ratio_holds(signed["eta_by_row"], table.degree)
    assert not verify_weighted_ratio(table, signed)
    # a weight on one class of order 8 alone is not constant on its
    # rational class
    half = _cert("M10", table, weights)
    half["weights"][1]["classes"] = table.classes[eight][:1]
    assert not verify_weighted_ratio(table, half)
    # a rational class named twice
    twice = _cert("M10", table, weights)
    twice["weights"].append(twice["weights"][0])
    assert not verify_weighted_ratio(table, twice)


def test_rational_classes_are_inverse_closed(ctx):
    eg, _ = ctx("M10")
    orbits = rational_classes(eg)
    assert sorted(c for orb in orbits for c in orb) == list(range(eg.n_classes))
    inverse = [eg.class_of[eg.index_of(eg.class_rep(c).inverse())] for c in range(eg.n_classes)]
    for orb in orbits:
        assert {int(inverse[c]) for c in orb} <= set(orb)


def _rational_classes_by_powers(eg):
    """The rational classes with every power of a representative sifted
    one `Permutation` at a time."""
    seen: set[int] = set()
    out = []
    for c in range(eg.n_classes):
        if c in seen:
            continue
        rep = eg.class_rep(c)
        o = eg.class_orders[c]
        orbit = sorted(
            {int(eg.class_of[eg.index_of(power(rep, t))]) for t in range(1, o) if math.gcd(t, o) == 1}
            | {c}
        )
        seen.update(orbit)
        out.append(orbit)
    return out


@pytest.mark.parametrize("key", SURVEY)
def test_rational_classes_match_the_power_loop(key):
    _, g = get_group(key)
    eg = conjugacy_classes(g)
    assert rational_classes(eg) == _rational_classes_by_powers(eg)


def test_pgl32_has_no_certificate(ctx):
    # one rational class of derangements leaves no freedom: the
    # unweighted graph is all there is, and its least eigenvalue is shared
    eg, table = ctx("PGL(3,2)")
    assert len(table.der) == 1
    assert weighted_ratio_certificate(table) is None
