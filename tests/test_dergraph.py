"""Derangement spectrum tests.

The heavy check is the brute-force oracle: for small groups the exact
character-derived spectrum must match the eigendecomposition of the
explicitly built adjacency matrix, multiplicities included.  The oracle
path shares no code with the character machinery.
"""

import dataclasses
import sys
from fractions import Fraction

import numpy as np
import pytest

from ekrcheck import cyclo
from ekrcheck.chartab import character_table
from ekrcheck.dergraph import (
    brute_adjacency,
    brute_spectrum_matches,
    class_set_eigenvalue,
    complete_union_detect,
    least_analysis,
    spectrum,
)
from ekrcheck.group import conjugacy_classes
from ekrcheck.library import get_group


@pytest.fixture(scope="module")
def ctx():
    cache = {}

    def get(key):
        if key not in cache:
            _, g = get_group(key)
            eg = conjugacy_classes(g)
            t = character_table(eg)
            cache[key] = (eg, t, spectrum(t))
        return cache[key]

    return get


def test_s3_spectrum(ctx):
    _, t, sp = ctx("S3")
    assert sp.d == 2
    assert [(e.multiplicity) for e in sp.entries] == [2, 4]
    assert [e.value for e in sp.entries] == [2, -1]
    # eigenvalue 2 comes from trivial and sign, -1 from standard alone
    assert set(sp.entries[0].rows) == {t.trivial, 1 if t.trivial != 1 else 0}
    assert sp.entries[1].rows == (t.standard,)


def test_a4_complete_union(ctx):
    _, _, sp = ctx("A4")
    assert sp.d == 3
    vals = [e.value for e in sp.entries]
    assert vals == [3, -1]
    flag, strict, count = complete_union_detect(sp)
    assert flag and strict == "no" and count == 4**3


def test_f20_complete_union(ctx):
    _, _, sp = ctx("F20")
    assert sp.d == 4
    flag, strict, count = complete_union_detect(sp)
    assert flag and strict == "no" and count == 5**4


def test_s3_complete_union_is_strict(ctx):
    _, _, sp = ctx("S3")
    flag, strict, count = complete_union_detect(sp)
    assert flag and strict == "yes" and count == 3**2


def test_m11_not_complete_union(ctx):
    _, _, sp = ctx("M11")
    flag, _, _ = complete_union_detect(sp)
    assert not flag


@pytest.mark.parametrize("key", ["S3", "A4", "F20", "PGL(2,5)", "M11", "M12"])
def test_trace_identities(ctx, key):
    _, t, sp = ctx(key)
    # spectrum() enforces these on construction; re-assert the raw sums here
    assert sum(e.multiplicity for e in sp.entries) == sp.order
    assert sum(e.value * e.multiplicity for e in sp.entries) == 0
    assert sum(e.value**2 * e.multiplicity for e in sp.entries) == sp.order * sp.d
    assert sp.eta_by_row[t.standard] * (sp.n - 1) == -sp.d
    std_entry = next(e for e in sp.entries if t.standard in e.rows)
    assert std_entry.multiplicity >= (sp.n - 1) ** 2


def test_least_analysis_m11(ctx):
    _, t, sp = ctx("M11")
    tau, is_least, is_unique = least_analysis(sp, t)
    assert is_least and is_unique
    assert tau == Fraction(-sp.d, 10)


def test_least_analysis_pgl25(ctx):
    _, t, sp = ctx("PGL(2,5)")
    tau, is_least, is_unique = least_analysis(sp, t)
    assert is_least and not is_unique
    assert len(sp.least.rows) > 1


def test_least_analysis_s3(ctx):
    _, t, sp = ctx("S3")
    tau, is_least, is_unique = least_analysis(sp, t)
    assert is_least and is_unique
    assert tau == -1


def test_brute_adjacency_s3(ctx):
    eg, _, sp = ctx("S3")
    A = brute_adjacency(eg.E)
    assert A.sum() == sp.order * sp.d
    assert np.array_equal(A, A.T)
    assert not A.diagonal().any()


@pytest.mark.parametrize(
    "key",
    ["S3", "A4", "F20", "A5@6", "PGL(2,5)", "AGL(1,7)", "PGL(3,2)", "PSL(3,2)", "3^2:Q8", "AGL(2,3)"],
)
def test_oracle_spectrum(ctx, key):
    eg, _, sp = ctx(key)
    assert brute_spectrum_matches(eg.E, sp)


def test_oracle_rejects_a_shifted_eigenvalue(ctx):
    eg, _, sp = ctx("PGL(2,5)")
    least = sp.entries[-1]
    shifted = dataclasses.replace(
        sp, entries=sp.entries[:-1] + [dataclasses.replace(least, value=least.value + 1)]
    )
    assert brute_spectrum_matches(eg.E, sp)
    assert not brute_spectrum_matches(eg.E, shifted)


def test_rational_class_eigenvalues_sum_to_the_spectrum(ctx):
    # M10's two classes of order 8 form one rational class: together their
    # eigenvalues are integers, alone not (some character takes i*sqrt(2))
    eg, t, sp = ctx("M10")
    eight = [c for c in sp.der_classes if eg.class_orders[c] == 8]
    rest = [c for c in sp.der_classes if c not in eight]
    assert len(eight) == 2
    for r in range(t.k):
        total = class_set_eigenvalue(t, r, eight) + class_set_eigenvalue(t, r, rest)
        assert total == sp.eta_by_row[r]
    with pytest.raises(ValueError):
        for r in range(t.k):
            class_set_eigenvalue(t, r, eight[:1])


def test_psl219_table_and_spectrum_never_reduce_modulo_phi(monkeypatch):
    """Zero tests and eigenvalue merging use the norm-bound test; reduction
    modulo Phi_e stays with the coordinate form."""
    callers = []
    reduce = cyclo._reduce_mod_cyclo

    def counted(dense, e):
        frame, chain = sys._getframe(1), []
        while frame is not None:
            chain.append(frame.f_code.co_name)
            frame = frame.f_back
        callers.append(chain)
        return reduce(dense, e)

    monkeypatch.setattr(cyclo, "_reduce_mod_cyclo", counted)
    table = character_table(conjugacy_classes(get_group("PSL(2,19)")[1]))
    spectrum(table)
    assert not [c for c in callers if "is_zero" in c or "spectrum" in c]
