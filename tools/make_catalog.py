#!/usr/bin/env python3
"""Regenerate src/ekrcheck/data/catalog.txt.

Every entry is rebuilt from first principles (the finite fields and point
models of catalog_models.py, Galois twists, seeded subgroup searches) and
checked against its expected order and exact transitivity degree before it
is written; the checks raise, so they hold under python -O too.  All
searches use fixed seeds, so rerunning this script reproduces the shipped
file byte for byte.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from catalog_models import (
    Model,
    diagonal,
    one_dim_affine_generators,
    projective_generators,
    restriction,
    sl_generator_matrices,
)
from ekrcheck.group import PermutationGroup
from ekrcheck.library import GroupSpec, format_catalog
from ekrcheck.perm import Permutation, format_cycles, parse_cycles

SEED = 0x5EED
OUT = Path(__file__).resolve().parent.parent / "src" / "ekrcheck" / "data" / "catalog.txt"

specs: list[GroupSpec] = []


def check(ok: bool, message: str) -> None:
    """Raise unless ok; unlike assert, it survives python -O."""
    if not ok:
        raise RuntimeError(message)


def add(name: str, degree: int, order: int, perms: list[Permutation],
        trans: int, structure: str, sets: str, model: str | None = None) -> PermutationGroup:
    group = PermutationGroup(perms, degree)
    check(group.order() == order, f"{name}: order {group.order()} != {order}")
    got_t = group.transitivity_degree()
    check(got_t == trans, f"{name}: transitivity {got_t} != {trans}")
    notes = f"structure={structure} sets={sets} trans={trans}"
    if model:
        notes += f" model={model}"
    gens = tuple(format_cycles(p) for p in perms if not p.is_identity())
    specs.append(GroupSpec(name, degree, order, gens, notes))
    print(f"  {name:16s} degree {degree:2d} order {order:9d} trans {trans}")
    return group


def dedupe(perms: list[Permutation]) -> list[Permutation]:
    seen = set()
    out = []
    for p in perms:
        if not p.is_identity() and p.images not in seen:
            seen.add(p.images)
            out.append(p)
    return out


def normal_closure(ambient_gens: list[Permutation], seeds: list[Permutation]) -> list[Permutation]:
    gens = dedupe(seeds)
    H = PermutationGroup(gens)
    grew = True
    while grew:
        grew = False
        for s in list(gens):
            for g in ambient_gens:
                c = g.inverse() * s * g
                if c not in H:
                    gens.append(c)
                    H = PermutationGroup(gens)
                    grew = True
    return gens


def search_subgroup(ambient: PermutationGroup, order: int, seed: int,
                    max_tries: int = 3000) -> list[Permutation]:
    """Seeded random 2-generated transitive subgroup of the given order."""
    rng = random.Random(seed)
    for _ in range(max_tries):
        a = ambient.random_element(rng)
        b = ambient.random_element(rng)
        H = PermutationGroup([a, b], ambient.degree)
        if H.order() == order and H.is_transitive():
            return [a, b]
    raise RuntimeError(f"no transitive subgroup of order {order} found")


def cubing_twist_search(q: int, psl_gens: list[Permutation], target: int) -> Permutation:
    """Search for delta with <PSL(2,q), delta> of the target order, where
    delta fixes 0 and infinity and maps y to y^3/c or c*y^3 split by
    quadratic residue class."""
    squares = {pow(x, 2, q) for x in range(1, q)}
    for orient in (0, 1):
        for c in range(1, q):
            cinv = pow(c, q - 2, q)
            img = [0] * (q + 1)
            for z in range(q):
                if z == 0:
                    w = 0
                elif (z in squares) == (orient == 0):
                    w = (pow(z, 3, q) * cinv) % q
                else:
                    w = (pow(z, 3, q) * c) % q
                img[1 + z] = 1 + w
            if len(set(img)) != q + 1:
                continue
            delta = Permutation(tuple(img))
            G = PermutationGroup(psl_gens + [delta], q + 1)
            if G.order() == target:
                print(f"    twist found: c={c} orient={orient}")
                return delta
    raise RuntimeError(f"no cubing twist reaches order {target} for q={q}")


def proj_to_affine16(pg: Model, ag: Model, p: Permutation) -> Permutation:
    """Extend a PG(3,2)-point permutation to the 16 vectors of AG(4,2), 0
    fixed: over GF(2) the projective points are the nonzero vectors."""
    return ag.perm(lambda v: pg.points[p(pg.index[v])] if any(v) else v)


def main() -> None:
    print("extras")
    add("S3", 3, 6, [parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)],
        3, "S3", "extra")
    add("A4", 4, 12, [parse_cycles("(1,2,3)", 4), parse_cycles("(2,3,4)", 4)],
        2, "A4", "extra")

    print("one-dimensional affine")
    add("F20", 5, 20, one_dim_affine_generators(5), 2, "Z5:Z4", "smalldeg",
        "AG(1,5)")
    add("AGL(1,7)", 7, 42, one_dim_affine_generators(7), 2,
        "(Z7:Z3):Z2", "smalldeg", "AG(1,7)")
    add("AGL(1,8)", 8, 56, one_dim_affine_generators(8), 2,
        "(Z2^3):Z7", "smalldeg", "AG(1,8)")
    add("AGammaL(1,8)", 8, 168, one_dim_affine_generators(8, frob_power=1), 2,
        "((Z2^3):Z7):Z3", "smalldeg", "AG(1,8)")
    add("AGL(1,9)", 9, 72, one_dim_affine_generators(9), 2,
        "(Z3^2):Z8", "smalldeg", "AG(1,9)")
    add("AGammaL(1,9)", 9, 144, one_dim_affine_generators(9, frob_power=1), 2,
        "((Z3^2):Z8):Z2", "smalldeg", "AG(1,9)")
    add("AGL(1,11)", 11, 110, one_dim_affine_generators(11), 2,
        "(Z11:Z5):Z2", "smalldeg", "AG(1,11)")
    add("AGL(1,13)", 13, 156, one_dim_affine_generators(13), 2,
        "(Z13:Z4):Z3", "smalldeg", "AG(1,13)")
    add("AGL(1,16)", 16, 240, one_dim_affine_generators(16), 2,
        "((Z2^4):Z5):Z3", "smalldeg", "AG(1,16)")
    add("ASigmaL(1,16)", 16, 480, one_dim_affine_generators(16, frob_power=2), 2,
        "(((Z2^4):Z5):Z3):Z2", "smalldeg", "AG(1,16)")
    add("AGammaL(1,16)", 16, 960, one_dim_affine_generators(16, frob_power=1), 2,
        "(((Z2^4):Z5):Z3):Z4", "smalldeg", "AG(1,16)")
    add("AGL(1,17)", 17, 272, one_dim_affine_generators(17), 2,
        "Z17:Z16", "smalldeg", "AG(1,17)")
    add("AGL(1,19)", 19, 342, one_dim_affine_generators(19), 2,
        "(Z19:Z9):Z2", "smalldeg", "AG(1,19)")

    print("two-dimensional affine")
    m32 = Model(3, 2)
    t32 = m32.translation_perms()
    sl23 = [m32.matrix_perm(M) for M in sl_generator_matrices(3, 2)]
    # Q8 as the quaternion pair inside GL(2,3)
    qi = m32.matrix_perm(((0, 2), (1, 0)))
    qj = m32.matrix_perm(((1, 1), (1, 2)))
    add("3^2:Q8", 9, 72, t32 + [qi, qj], 2, "(Z3^2):Q8", "smalldeg", "AG(2,3)")
    add("ASL(2,3)", 9, 216, t32 + sl23, 2, "((Z3^2):Q8):Z3", "smalldeg", "AG(2,3)")
    gl23 = m32.matrix_perm(diagonal(2, m32.F.primitive))
    add("AGL(2,3)", 9, 432, t32 + sl23 + [gl23], 2,
        "(((Z3^2):Q8):Z3):Z2", "smalldeg", "AG(2,3)")

    m42 = Model(4, 2)
    t42 = m42.translation_perms()
    sl24 = [m42.matrix_perm(M) for M in sl_generator_matrices(4, 2)]
    gl24 = m42.matrix_perm(diagonal(2, m42.F.primitive))
    fr4 = m42.frobenius_perm(1)
    add("ASL(2,4)", 16, 960, t42 + sl24, 2, "(Z2^4):alt(5)", "smalldeg", "AG(2,4)")
    add("ASigmaL(2,4)", 16, 1920, t42 + sl24 + [fr4], 2,
        "((Z2^4):alt(5)):Z2", "smalldeg", "AG(2,4)")
    add("AGL(2,4)", 16, 2880, t42 + sl24 + [gl24], 2,
        "((Z2^4):alt(5)):Z3", "smalldeg", "AG(2,4)")
    add("AGammaL(2,4)", 16, 5760, t42 + sl24 + [gl24, fr4], 2,
        "(((Z2^4):alt(5)):Z3):Z2", "smalldeg", "AG(2,4)")

    print("binary affine")
    m23_ = Model(2, 3)
    add("AGL(3,2)", 8, 1344,
        m23_.translation_perms() + [m23_.matrix_perm(M) for M in sl_generator_matrices(2, 3)],
        3, "(Z2^3):PSL(3,2)", "smalldeg", "AG(3,2)")
    m24_ = Model(2, 4)
    t16 = m24_.translation_perms()
    gl42_aff = [m24_.matrix_perm(M) for M in sl_generator_matrices(2, 4)]
    add("AGL(4,2)", 16, 322560, t16 + gl42_aff, 3,
        "(Z2^4):alt(8)", "smalldeg", "AG(4,2)")

    print("projective lines")
    add("A5@6", 6, 60, projective_generators(5, 2), 2, "alt(5)", "smalldeg",
        "PG(1,5)")
    add("PGL(2,5)", 6, 120, projective_generators(5, 2, pgl=True), 3,
        "PGL(2,5)", "smalldeg", "PG(1,5)")
    add("PSL(3,2)", 8, 168, projective_generators(7, 2), 2, "PSL(3,2)",
        "smalldeg", "PG(1,7)")
    add("PGL(2,7)", 8, 336, projective_generators(7, 2, pgl=True), 3,
        "PGL(2,7)", "smalldeg", "PG(1,7)")
    add("PSL(2,8)", 9, 504, projective_generators(8, 2), 3, "PSL(2,8)",
        "smalldeg", "PG(1,8)")
    add("PGammaL(2,8)", 9, 1512, projective_generators(8, 2, frob_power=1), 3,
        "PSL(2,8):Z3", "smalldeg", "PG(1,8)")

    psl9 = projective_generators(9, 2)
    add("A6@10", 10, 360, psl9, 2, "alt(6)", "smalldeg", "PG(1,9)")
    add("PGL(2,9)", 10, 720, projective_generators(9, 2, pgl=True), 3,
        "PGL(2,9)", "smalldeg", "PG(1,9)")
    add("PSigmaL(2,9)", 10, 720, projective_generators(9, 2, frob_power=1), 2,
        "alt(6).Z2", "smalldeg", "PG(1,9)")
    add("PGammaL(2,9)", 10, 1440,
        projective_generators(9, 2, pgl=True, frob_power=1), 3,
        "(alt(6)xZ2):Z2", "smalldeg", "PG(1,9)")
    pm9 = Model(9, 2, projective=True)
    nu = pm9.F.primitive
    m10_twist = pm9.matrix_perm(((1, 0), (0, nu))) * pm9.frobenius_perm(1)
    m10 = add("M10", 10, 720, psl9 + [m10_twist], 3, "M10",
              "smalldeg,mathieu", "PG(1,9)")
    n_invol = sum(1 for g in m10.elements() if g.order() == 2)
    check(n_invol == 45, f"M10 twist wrong: {n_invol} involutions")

    add("PSL(2,11)", 12, 660, projective_generators(11, 2), 2,
        "PSL(2,11)", "smalldeg", "PG(1,11)")
    add("PGL(2,11)", 12, 1320, projective_generators(11, 2, pgl=True), 3,
        "PGL(2,11)", "smalldeg", "PG(1,11)")
    add("PSL(2,13)", 14, 1092, projective_generators(13, 2), 2,
        "PSL(2,13)", "smalldeg", "PG(1,13)")
    add("PGL(2,13)", 14, 2184, projective_generators(13, 2, pgl=True), 3,
        "PGL(2,13)", "smalldeg", "PG(1,13)")
    add("PSL(2,16)", 17, 4080, projective_generators(16, 2), 3,
        "PSL(2,16)", "smalldeg", "PG(1,16)")
    add("PSigmaL(2,16)", 17, 8160, projective_generators(16, 2, frob_power=2),
        3, "PSL(2,16):Z2", "smalldeg", "PG(1,16)")
    add("PGammaL(2,16)", 17, 16320, projective_generators(16, 2, frob_power=1),
        3, "PSL(2,16):Z4", "smalldeg", "PG(1,16)")
    add("PSL(2,17)", 18, 2448, projective_generators(17, 2), 2,
        "PSL(2,17)", "smalldeg", "PG(1,17)")
    add("PGL(2,17)", 18, 4896, projective_generators(17, 2, pgl=True), 3,
        "PGL(2,17)", "smalldeg", "PG(1,17)")
    add("PSL(2,19)", 20, 3420, projective_generators(19, 2), 2,
        "PSL(2,19)", "smalldeg", "PG(1,19)")
    add("PGL(2,19)", 20, 6840, projective_generators(19, 2, pgl=True), 3,
        "PGL(2,19)", "smalldeg", "PG(1,19)")

    print("projective planes and PG(3,2)")
    add("PGL(3,2)", 7, 168, projective_generators(2, 3), 2,
        "PGL(3,2)", "smalldeg", "PG(2,2)")
    add("PSL(3,3)", 13, 5616, projective_generators(3, 3), 2,
        "PSL(3,3)", "smalldeg", "PG(2,3)")
    m21 = add("M21", 21, 20160, projective_generators(4, 3), 2,
              "PSL(3,4)", "mathieu", "PG(2,4)")
    a8 = add("A8@15", 15, 20160, projective_generators(2, 4), 2,
             "alt(8)", "smalldeg", "PG(3,2)")

    print("searched subgroups at degree 15/16")
    a7_gens = search_subgroup(a8, 2520, SEED + 1)
    add("A7@15", 15, 2520, a7_gens, 2, "alt(7)", "smalldeg", "PG(3,2)")

    pg32 = Model(2, 4, projective=True)
    # symplectic transvections x -> x + B(x,v) v for the standard form
    J = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    tvs = []
    for v in pg32.points:
        jv = [sum(J[i][j] * v[j] for j in range(4)) % 2 for i in range(4)]
        M = tuple(
            tuple((1 if r == c else 0) ^ (v[r] * jv[c]) for c in range(4))
            for r in range(4)
        )
        tvs.append(pg32.matrix_perm(M))
    sp = PermutationGroup(tvs, 15)
    check(sp.order() == 720, f"Sp(4,2): order {sp.order()} != 720")
    comms = [a.inverse() * b.inverse() * a * b for a in tvs for b in tvs]
    a6_gens = normal_closure(tvs, dedupe(comms))
    a6_full = PermutationGroup(a6_gens, 15)
    check(a6_full.order() == 360, f"A6 in Sp(4,2): order {a6_full.order()} != 360")
    rng = random.Random(SEED + 3)
    while True:
        a, b = a6_full.random_element(rng), a6_full.random_element(rng)
        if PermutationGroup([a, b], 15).order() == 360:
            a6_gens = [a, b]
            break

    sp16 = [proj_to_affine16(pg32, m24_, p) for p in tvs]
    a6_16 = [proj_to_affine16(pg32, m24_, p) for p in a6_gens]
    a7_16 = [proj_to_affine16(pg32, m24_, p) for p in a7_gens]
    add("2^4:A6", 16, 5760, t16 + a6_16, 2, "(Z2^4):alt(6)", "smalldeg",
        "AG(4,2)")
    add("2^4:S6", 16, 11520, t16 + sp16, 2, "((Z2^4):alt(6)):Z2", "smalldeg",
        "AG(4,2)")
    add("2^4:A7", 16, 40320, t16 + a7_16, 3, "(Z2^4):alt(7)", "smalldeg",
        "AG(4,2)")

    print("Mathieu chain")
    m11_gens = [parse_cycles("(1,2,3,4,5,6,7,8,9,10,11)", 11),
                parse_cycles("(3,7,11,8)(4,10,5,6)", 11)]
    m11 = add("M11", 11, 7920, m11_gens, 4, "M11", "smalldeg,mathieu")
    check(m11.point_stabilizer(10).order() == 720, "M11: a point stabilizer is not of order 720 (M10)")

    # M12 from PSL(2,11) plus a residue-split cubing twist; the classical
    # outer involution is the fallback if the twist search comes up empty.
    psl11 = projective_generators(11, 2)
    try:
        delta12 = cubing_twist_search(11, psl11, 95040)
        m12_gens = psl11 + [delta12]
    except RuntimeError:
        m12_gens = [parse_cycles("(1,2,3,4,5,6,7,8,9,10,11)", 12),
                    parse_cycles("(3,7,11,8)(4,10,5,6)", 12),
                    parse_cycles("(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)", 12)]
    m12 = add("M12", 12, 95040, m12_gens, 5, "M12", "smalldeg,mathieu")

    m11t_gens = search_subgroup(m12, 7920, SEED + 2)
    m11t = add("M11@12", 12, 7920, m11t_gens, 3, "M11", "smalldeg")

    stab = m11t.point_stabilizer(11)
    psl11e = restriction(stab.generators, list(range(11)))
    add("PSL(2,11)@11", 11, 660, psl11e, 2, "PSL(2,11)", "smalldeg")

    psl23 = projective_generators(23, 2)
    check(PermutationGroup(psl23, 24).order() == 6072, "PSL(2,23): order is not 6072")
    delta24 = cubing_twist_search(23, psl23, 244823040)
    m24 = add("M24", 24, 244823040, psl23 + [delta24], 5, "M24", "mathieu")

    m23_gens = restriction(m24.point_stabilizer(23).generators, list(range(23)))
    m23 = add("M23", 23, 10200960, m23_gens, 4, "M23", "mathieu")
    m22_gens = restriction(m23.point_stabilizer(22).generators, list(range(22)))
    m22 = add("M22", 22, 443520, m22_gens, 3, "M22", "mathieu")
    check(m22.point_stabilizer(21).order() == m21.order(), "M22: a point stabilizer is not of the order of M21")

    order = {"smalldeg": 0, "mathieu": 1, "extra": 2}
    specs.sort(key=lambda s: (
        order[s.note_tokens()["sets"].split(",")[0]],
        s.degree, -s.expected_order, s.name,
    ))
    OUT.write_text(format_catalog(specs))
    print(f"wrote {len(specs)} entries to {OUT}")


if __name__ == "__main__":
    main()
