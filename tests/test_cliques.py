"""Clique search and module projection tests."""

import importlib.util
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from ekrcheck.cliques import (
    SearchStats,
    _cyclic_shortcut,
    find_n_clique,
    iter_n_cliques,
    module_by_clique,
    projection_norm,
    verify_clique,
)
from ekrcheck.cyclo import Cyc
from ekrcheck.group import conjugacy_classes
from ekrcheck.library import get_group
from ekrcheck.perm import Permutation, parse_cycles
from chartab_reference import oracle_table
from clique_reference import bucketed_n_cliques, reference_has_n_clique
from perm_reference import fixed_points, power

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"


def _survey_keys() -> list[str]:
    """The groups of the benchmark's survey workload (read, not imported
    as a package, so the benchmark stays a directory of scripts)."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.SURVEY)


# the groups of the survey and PSL(2,13) that have no n-clique
ABSENT = {"A5@6", "M10", "A6@10", "PSL(2,13)"}


@pytest.fixture(scope="module")
def enumerated():
    cache = {}

    def get(key):
        if key not in cache:
            _, g = get_group(key)
            cache[key] = conjugacy_classes(g)
        return cache[key]

    return get


@pytest.fixture(scope="module")
def ctx(enumerated):
    """The enumerated group and its cyclotomic table, the oracle table of
    `chartab_reference`: the module projections read character values."""

    def get(key):
        return enumerated(key), oracle_table(key)

    return get


def test_s3_clique(ctx):
    eg, _ = ctx("S3")
    c = find_n_clique(eg)
    assert c is not None and c.size == 3
    assert c.elements[0] == Permutation.identity(3)
    assert verify_clique(eg.group, c.elements)
    # the two 3-cycles form the only sharply transitive set through id
    assert len(list(iter_n_cliques(eg))) == 1


def test_f20_cyclic_clique(ctx):
    eg, _ = ctx("F20")
    c = find_n_clique(eg)
    assert c is not None and c.size == 5
    # the order-5 cyclic subgroup, found by the single-cycle shortcut
    orders = sorted(x.order() for x in c.elements)
    assert orders == [1, 5, 5, 5, 5]
    assert len(list(iter_n_cliques(eg))) == 1


def test_pgl25_has_6_clique(ctx):
    eg, _ = ctx("PGL(2,5)")
    c = find_n_clique(eg)
    assert c is not None and c.size == 6
    assert verify_clique(eg.group, c.elements)


def test_agammal18_clique_without_n_cycles(ctx):
    eg, _ = ctx("AGammaL(1,8)")
    # no element has order 8, so the backtracking path must deliver
    assert all(o != 8 for o in eg.class_orders)
    c = find_n_clique(eg)
    assert c is not None and c.size == 8
    assert verify_clique(eg.group, c.elements)


def test_budget_exhaustion_returns_none(ctx):
    eg, _ = ctx("AGammaL(1,8)")
    assert find_n_clique(eg, budget=0) is None


def test_budget_stop_is_not_exhaustion(enumerated):
    eg = enumerated("M10")
    stats = SearchStats()
    assert find_n_clique(eg, budget=1, stats=stats) is None
    assert stats == SearchStats(nodes=1, exhausted=False)
    assert find_n_clique(eg, stats=stats) is None
    assert stats.exhausted and 1 < stats.nodes < 1000


@pytest.mark.parametrize("key", _survey_keys() + ["PSL(2,13)"])
def test_exact_cover_agrees_with_the_bucketed_reference(key, enumerated):
    eg = enumerated(key)
    stats = SearchStats()
    clique = find_n_clique(eg, stats=stats)
    # the reference runs with no budget: its answer is a proof either way
    assert reference_has_n_clique(eg) == (clique is not None) == (key not in ABSENT)
    if clique is None:
        assert stats.exhausted


def _conjugation_closure(eg, cliques) -> set[frozenset]:
    """Every conjugate g^-1 C g of the given index lists, as index sets."""
    closure = set()
    for idx in cliques:
        rows = eg.E[np.array(idx)]
        for g in eg.E:
            ginv = np.argsort(g).astype(np.int8)
            # (g^-1 x g)(t) = g^-1(x(g(t)))
            closure.add(frozenset(eg.group.element_index(ginv[rows[:, g]]).tolist()))
    return closure


@pytest.mark.parametrize("key", ["S3", "F20", "PGL(2,5)", "AGammaL(1,8)", "PGL(3,2)"])
def test_yields_are_every_clique_up_to_conjugation(key, enumerated):
    eg = enumerated(key)
    stats = SearchStats()
    new = list(iter_n_cliques(eg, stats=stats))
    assert stats.exhausted
    assert all(idx[0] == 0 and idx[1:] == sorted(idx[1:]) for idx in new)
    old = {frozenset(idx) for idx in bucketed_n_cliques(eg)}
    assert _conjugation_closure(eg, new) == old


def test_verify_clique_basics(ctx):
    eg, _ = ctx("S3")
    g = eg.group
    ident = Permutation.identity(3)
    rot = parse_cycles("(1,2,3)", 3)
    swap = parse_cycles("(1,2)", 3)
    assert verify_clique(g, [ident, rot])
    assert not verify_clique(g, [ident, swap])
    with pytest.raises(ValueError):
        verify_clique(g, [Permutation.identity(4)])


def test_verify_clique_rejects_an_outsider_with_a_members_base_images(enumerated):
    # an element is fixed by its base images, so a sift of the base
    # columns alone would take this outsider for the member it copies
    eg = enumerated("PGL(3,2)")
    g = eg.group
    clique = find_n_clique(eg).elements
    images = list(clique[1].images)
    a, b = [p for p in range(g.degree) if p not in g.base()][:2]
    images[a], images[b] = images[b], images[a]
    outsider = Permutation(tuple(images))
    assert outsider not in g
    assert g.element_index(np.array([images])) == g.element_index(np.array([clique[1].images]))
    with pytest.raises(ValueError, match="not in the group"):
        verify_clique(g, clique[:1] + (outsider,) + clique[2:])


def _clique_by_quotients(els) -> bool:
    """Whether every quotient of two of the elements is a derangement, one
    `Permutation` product per pair."""
    return all(
        not fixed_points(x * y.inverse()) for i, x in enumerate(els) for y in els[i + 1 :]
    )


@pytest.mark.parametrize("key", ["S3", "F20", "PGL(2,5)", "AGammaL(1,8)", "PGL(3,2)"])
def test_verify_clique_matches_the_quotient_loop(key, enumerated):
    eg = enumerated(key)
    n = eg.group.degree
    der = np.flatnonzero(eg.fix_counts_all == 0)
    clique = list(find_n_clique(eg).elements)
    candidates = [clique, clique[:-1] + clique[1:2]]
    rng = np.random.default_rng(5)
    for _ in range(50):
        # the identity and n - 1 derangements: some are cliques
        idx = [0, *rng.choice(der, n - 1, replace=False)]
        candidates.append([eg.element(int(i)) for i in idx])
    verdicts = [verify_clique(eg.group, els) for els in candidates]
    assert verdicts == [_clique_by_quotients(els) for els in candidates]
    assert verdicts[:2] == [True, False]


def _shortcut_by_powers(eg):
    """The cyclic shortcut with every power of the n-cycle sifted one
    `Permutation` at a time."""
    n = eg.group.degree
    for c in range(eg.n_classes):
        rep = eg.class_rep(c)
        if eg.class_orders[c] == n and rep.cycle_type() == (n,):
            idx = [eg.index_of(power(rep, t)) for t in range(n)]
            return idx[:1] + sorted(idx[1:])
    return None


@pytest.mark.parametrize("key", _survey_keys())
def test_cyclic_shortcut_matches_the_power_loop(key, enumerated):
    eg = enumerated(key)
    assert _cyclic_shortcut(eg) == _shortcut_by_powers(eg)


def test_projection_norms_sum_to_clique_size(ctx):
    for key in ("S3", "F20", "PGL(2,5)"):
        eg, t = ctx(key)
        c = find_n_clique(eg)
        idx = [eg.index_of(x) for x in c.elements]
        total = Cyc.zero(1)
        for r in range(t.k):
            total = total + projection_norm(eg, t, idx, r)
        assert (total - c.size).is_zero()


def test_s3_projection_values(ctx):
    eg, t = ctx("S3")
    c = find_n_clique(eg)
    idx = [eg.index_of(x) for x in c.elements]
    triv = projection_norm(eg, t, idx, t.trivial)
    assert (triv - Fraction(9, 6)).is_zero()
    sign_row = next(
        r for r in range(t.k) if t.degrees[r] == 1 and r != t.trivial
    )
    assert (projection_norm(eg, t, idx, sign_row) - Fraction(3, 2)).is_zero()
    # the sum rule forces the standard projection to vanish
    assert projection_norm(eg, t, idx, t.standard).is_zero()


def test_projection_norm_translation_invariant(ctx):
    eg, t = ctx("F20")
    c = find_n_clique(eg)
    idx = [eg.index_of(x) for x in c.elements]
    g = eg.element(11)
    idx_left = [eg.index_of(g * x) for x in c.elements]
    idx_right = [eg.index_of(x * g) for x in c.elements]
    for r in range(t.k):
        base = projection_norm(eg, t, idx, r)
        assert (projection_norm(eg, t, idx_left, r) - base).is_zero()
        assert (projection_norm(eg, t, idx_right, r) - base).is_zero()


def test_module_by_clique_agammal18(ctx):
    eg, t = ctx("AGammaL(1,8)")
    report = module_by_clique(eg, t)
    assert report, "expected nontrivial non-standard characters"
    for r, w in report.items():
        assert w.witnessed, f"row {r} missing a module witness"
        assert w.norm.sign_real() > 0


def test_module_by_clique_respects_budget(ctx):
    eg, t = ctx("AGammaL(1,8)")
    report = module_by_clique(eg, t, budget=0)
    assert all(not w.witnessed for w in report.values())
