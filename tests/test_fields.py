import itertools
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import catalog_models
from catalog_models import gf, mat_vec, prime_power

ALL_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def test_prime_power():
    assert prime_power(32) == (2, 5)
    assert prime_power(27) == (3, 3)
    assert prime_power(17) == (17, 1)
    with pytest.raises(ValueError):
        prime_power(12)


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms_exhaustive_small(q):
    F = gf(q)
    els = range(q)
    # additive and multiplicative identity
    assert all(F.add(x, 0) == x and F.mul(x, 1) == x for x in els)
    # inverses
    assert all(F.add(x, F.neg(x)) == 0 for x in els)
    assert all(F.mul(x, F.inv(x)) == 1 for x in els if x)
    # commutativity
    assert all(F.add(x, y) == F.add(y, x) and F.mul(x, y) == F.mul(y, x)
               for x in els for y in els)
    # distributivity on a sample (full triple loop only for tiny q)
    triples = itertools.product(els, repeat=3) if q <= 9 else [
        (x, y, (x * y + 1) % q) for x in els for y in els
    ]
    for x, y, z in triples:
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
        assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
        assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))


@pytest.mark.parametrize("q", ALL_Q)
def test_characteristic_and_frobenius(q):
    F = gf(q)
    p = F.p
    for x in range(q):
        s = 0
        for _ in range(p):
            s = F.add(s, x)
        assert s == 0  # char p
        assert F.frob(x) == F.pow(x, p)
    # Frobenius is additive
    for x in range(q):
        for y in range(q):
            assert F.frob(F.add(x, y)) == F.add(F.frob(x), F.frob(y))
    # applying it k times is the identity
    for x in range(q):
        y = x
        for _ in range(F.k):
            y = F.frob(y)
        assert y == x


@pytest.mark.parametrize("q", ALL_Q)
def test_primitive_element(q):
    F = gf(q)
    g = F.primitive
    seen = set()
    y = 1
    for _ in range(q - 1):
        y = F.mul(y, g)
        seen.add(y)
    assert len(seen) == q - 1


def test_gf4_explicit():
    F = gf(4)
    # x^2 = x + 1 with x encoded as 2, x+1 as 3
    assert F.mul(2, 2) == 3
    assert F.mul(2, 3) == 1
    assert F.add(2, 3) == 1
    assert F.inv(2) == 3


def test_fermat_little():
    for q in ALL_Q:
        F = gf(q)
        assert all(F.pow(x, q - 1) == 1 for x in range(1, q))
        assert all(F.pow(x, q) == x for x in range(q))


def test_matrix_helpers():
    I = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert mat_vec(gf(4), I, (1, 2, 3)) == (1, 2, 3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([8, 9, 16, 27]), st.data())
def test_pow_matches_repeated_mul(q, data):
    F = gf(q)
    x = data.draw(st.integers(1, q - 1))
    n = data.draw(st.integers(0, 40))
    y = 1
    for _ in range(n):
        y = F.mul(y, x)
    assert F.pow(x, n) == y


def test_poly_table_rejects_a_bad_line_under_python_O():
    # line 2 claims q = 8 = 2^3 with a degree-3 polynomial that is not monic;
    # under -O an assert would be stripped and the line accepted
    script = (
        "import sys\n"
        "import catalog_models\n"
        "if __debug__:\n"
        "    sys.exit('not optimized')\n"
        "catalog_models.polynomials('4 2 2 1 1 1\\n8 2 3 1 1 0 2\\n')\n"
    )
    tools = pathlib.Path(catalog_models.__file__).resolve().parent
    src = tools.parent / "src"
    path = [str(tools), str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 1
    assert "ValueError: field polynomial line 2: '8 2 3 1 1 0 2'" in done.stderr
