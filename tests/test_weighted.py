"""Weighted ratio certificates: the simplex, the exact re-verifier, and
the M10 certificate that meets condition (b) without an n-clique."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ekrcheck.chartab import character_table_for
from ekrcheck.group import conjugacy_classes
from ekrcheck.library import get_group
from ekrcheck.weighted import (
    _simplex_max,
    rational_classes,
    verify_weighted_ratio,
    weighted_etas,
    weighted_ratio_certificate,
    weighted_ratio_holds,
)


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


def _cert(table, weights: dict[int, Fraction]) -> dict:
    """An honest certificate for the given weights: every eta recorded as
    the table gives it.  Times chi(1) and the weights' common denominator,
    a rational eta is an integer."""
    den = math.lcm(*(w.denominator for w in weights.values()))
    etas = [
        Fraction((eta * (den * deg)).to_int(), den * deg)
        for eta, deg in zip(weighted_etas(table, weights), table.degrees)
    ]
    return {
        "kind": "weighted-ratio",
        "weights": [{"classes": [c], "weight": str(w)} for c, w in sorted(weights.items())],
        "eta_by_row": [str(eta) for eta in etas],
    }


def _m10_classes(eg):
    """(order-5 derangement class, the two order-8 classes)."""
    der = [c for c in range(eg.n_classes) if eg.class_fix[c] == 0]
    five = [c for c in der if eg.class_orders[c] == 5]
    eight = [c for c in der if eg.class_orders[c] == 8]
    assert [eg.class_sizes[c] for c in five] == [144]
    assert [eg.class_sizes[c] for c in eight] == [90, 90]
    return five[0], eight


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
    cert = weighted_ratio_certificate(eg, table)
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
    five, eight = _m10_classes(eg)
    weights = {five: Fraction(1, 32), **{c: Fraction(1, 40) for c in eight}}
    cert = _cert(table, weights)
    assert verify_weighted_ratio(table, cert)
    etas = [Fraction(x) for x in cert["eta_by_row"]]
    assert etas[table.trivial] == 9 and etas[table.standard] == -1
    others = {x for r, x in enumerate(etas) if r not in (table.trivial, table.standard)}
    assert others == {0, Fraction(9, 32)}


def test_reverify_rejects_tampered_weight(ctx):
    eg, table = ctx("M10")
    cert = weighted_ratio_certificate(eg, table)
    entry = cert["weights"][0]
    tampered = dict(cert, weights=[dict(entry, weight=str(Fraction(entry["weight"]) * 2))]
                    + cert["weights"][1:])
    assert not verify_weighted_ratio(table, tampered)


def test_reverify_rejects_a_tie(ctx):
    # the unweighted derangement graph of M10: its linear character gives
    # -36 = -d/9, only equal to the standard eigenvalue, not greater
    eg, table = ctx("M10")
    weights = {c: Fraction(1) for c in range(table.k) if table.class_der[c]}
    cert = _cert(table, weights)
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
    five, eight = _m10_classes(eg)
    fixed = next(c for c in range(1, table.k) if not table.class_der[c])
    weights = {five: Fraction(1, 32), **{c: Fraction(1, 40) for c in eight}}
    assert not verify_weighted_ratio(table, _cert(table, {**weights, fixed: Fraction(1, 1000)}))
    negative = _cert(table, weights)
    negative["weights"][0]["weight"] = "-1/32"
    assert not verify_weighted_ratio(table, negative)


def test_rational_classes_are_inverse_closed(ctx):
    eg, _ = ctx("M10")
    orbits = rational_classes(eg)
    assert sorted(c for orb in orbits for c in orb) == [
        c for c in range(eg.n_classes) if eg.class_fix[c] == 0
    ]
    for orb in orbits:
        assert {eg.inverse_class[c] for c in orb} <= set(orb)


def test_pgl32_has_no_certificate(ctx):
    # one rational class of derangements leaves no freedom: the
    # unweighted graph is all there is, and its least eigenvalue is shared
    eg, table = ctx("PGL(3,2)")
    assert len(rational_classes(eg)) == 1
    assert weighted_ratio_certificate(eg, table) is None
