"""Catalog of 2-transitive groups and the point models behind them.

Groups are shipped as explicit generator lists in cycle notation
(src/ekrcheck/data/catalog.txt) so that loading a group never depends on
matrix machinery being correct; the machinery in this module is what
generated those lists and is kept for the catalog generator
(tools/make_catalog.py), tests and user-built groups.

Two point models are used.  Affine: the vectors of GF(q)^d, indexed by
the little-endian base-q integer encoding of their coordinates.  Projective:
the points of PG(d-1, q) as coordinate vectors normalized to leading
coefficient 1, indexed by lexicographic order of the normalized tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from importlib import resources

from .errors import CatalogError
from .fields import GF, gf, mat_vec
from .group import PermutationGroup
from .perm import Permutation, parse_cycles

Matrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------- point models

def affine_vector(q: int, d: int, idx: int) -> tuple[int, ...]:
    out = []
    for _ in range(d):
        out.append(idx % q)
        idx //= q
    return tuple(out)


def affine_index(q: int, vec: tuple[int, ...]) -> int:
    idx = 0
    for c in reversed(vec):
        idx = idx * q + c
    return idx


def projective_points(q: int, d: int) -> list[tuple[int, ...]]:
    """Points of PG(d-1, q): normalized vectors in lexicographic order."""
    pts = []
    for vec in itertools.product(range(q), repeat=d):
        lead = next((c for c in vec if c != 0), 0)
        if lead == 1:
            pts.append(vec)
    return pts


def _normalize(F: GF, vec: tuple[int, ...]) -> tuple[int, ...]:
    for c in vec:
        if c != 0:
            s = F.inv(c)
            return tuple(F.mul(s, x) for x in vec)
    raise ValueError("zero vector has no projective normalization")


class ProjectiveModel:
    """PG(d-1, q) with its point indexing."""

    def __init__(self, q: int, d: int):
        self.q = q
        self.d = d
        self.F = gf(q)
        self.points = projective_points(q, d)
        self.index = {v: i for i, v in enumerate(self.points)}
        self.n_points = len(self.points)

    def matrix_perm(self, M: Matrix) -> Permutation:
        F = self.F
        img = [self.index[_normalize(F, mat_vec(F, M, v))] for v in self.points]
        return Permutation(tuple(img))

    def frobenius_perm(self, power: int = 1) -> Permutation:
        F = self.F
        img = []
        for v in self.points:
            w = v
            for _ in range(power):
                w = tuple(F.frob(c) for c in w)
            img.append(self.index[_normalize(F, w)])
        return Permutation(tuple(img))


class AffineModel:
    """AG(d, q): all q^d vectors, integer-encoded coordinates."""

    def __init__(self, q: int, d: int):
        self.q = q
        self.d = d
        self.F = gf(q)
        self.n_points = q ** d

    def vector(self, idx: int) -> tuple[int, ...]:
        return affine_vector(self.q, self.d, idx)

    def translation_perms(self) -> list[Permutation]:
        """Translations by the standard basis vectors."""
        F, q, d = self.F, self.q, self.d
        out = []
        for k in range(d):
            img = []
            for idx in range(self.n_points):
                v = list(self.vector(idx))
                v[k] = F.add(v[k], 1)
                img.append(affine_index(q, tuple(v)))
            out.append(Permutation(tuple(img)))
        return out

    def matrix_perm(self, M: Matrix) -> Permutation:
        F, q = self.F, self.q
        img = [
            affine_index(q, mat_vec(F, M, self.vector(idx)))
            for idx in range(self.n_points)
        ]
        return Permutation(tuple(img))

    def frobenius_perm(self, power: int = 1) -> Permutation:
        F, q = self.F, self.q
        img = []
        for idx in range(self.n_points):
            w = self.vector(idx)
            for _ in range(power):
                w = tuple(F.frob(c) for c in w)
            img.append(affine_index(q, w))
        return Permutation(tuple(img))

    def scalar_perm(self, c: int) -> Permutation:
        F, q = self.F, self.q
        img = [
            affine_index(q, tuple(F.mul(c, x) for x in self.vector(idx)))
            for idx in range(self.n_points)
        ]
        return Permutation(tuple(img))


# ------------------------------------------------------- generator matrices

def _elementary(d: int, i: int, j: int, a: int) -> Matrix:
    M = [[1 if r == c else 0 for c in range(d)] for r in range(d)]
    M[i][j] = a
    return tuple(tuple(r) for r in M)


def sl_generator_matrices(q: int, d: int) -> list[Matrix]:
    """Elementary matrices generating SL(d, q)."""
    F = gf(q)
    params = [1] if q <= 3 else [1, F.primitive]
    out = []
    for i in range(d):
        for j in range(d):
            if i != j:
                out.extend(_elementary(d, i, j, a) for a in params)
    if d == 2:
        # diagonal twist keeps the two-parameter span honest for prime powers
        g = F.primitive
        out.append(((g, 0), (0, F.inv(g))))
    return out


def gl_extension_matrix(q: int, d: int) -> Matrix:
    """diag(g, 1, ..., 1) with g primitive: extends SL to GL mod scalars."""
    F = gf(q)
    M = [[1 if r == c else 0 for c in range(d)] for r in range(d)]
    M[0][0] = F.primitive
    return tuple(tuple(r) for r in M)


def projective_line_generators(
    q: int, *, pgl: bool = False, frob_power: int = 0
) -> list[Permutation]:
    """Generators of PSL(2,q), optionally extended by the determinant twist
    (pgl) and/or by the frob_power-th power of the Frobenius."""
    model = ProjectiveModel(q, 2)
    gens = [model.matrix_perm(M) for M in sl_generator_matrices(q, 2)]
    if pgl:
        gens.append(model.matrix_perm(gl_extension_matrix(q, 2)))
    if frob_power:
        gens.append(model.frobenius_perm(frob_power))
    return gens


def projective_space_generators(q: int, d: int, *, pgl: bool = False) -> list[Permutation]:
    """Generators of PSL(d,q) (or PGL with the determinant twist), d >= 3."""
    model = ProjectiveModel(q, d)
    gens = [model.matrix_perm(M) for M in sl_generator_matrices(q, d)]
    if pgl:
        gens.append(model.matrix_perm(gl_extension_matrix(q, d)))
    return gens


def one_dim_affine_generators(q: int, frob_power: int = 0) -> list[Permutation]:
    """AGL(1,q) = translations + primitive scaling; optional Galois twist."""
    model = AffineModel(q, 1)
    gens = model.translation_perms()
    gens.append(model.scalar_perm(model.F.primitive))
    if frob_power:
        gens.append(model.frobenius_perm(frob_power))
    return gens


def restriction(perms: list[Permutation], points: list[int]) -> list[Permutation]:
    """Relabel perms onto an invariant point list (ascending relabeling)."""
    pos = {p: i for i, p in enumerate(points)}
    out = []
    for g in perms:
        img = [0] * len(points)
        for p in points:
            quo = g(p)
            if quo not in pos:
                raise ValueError(f"point set not invariant: {p} -> {quo}")
            img[pos[p]] = pos[quo]
        out.append(Permutation(tuple(img)))
    return out


# ----------------------------------------------------------------- catalog

@dataclass(frozen=True)
class GroupSpec:
    name: str
    degree: int
    expected_order: int
    generators: tuple[str, ...]
    notes: str = ""

    def generator_perms(self) -> list[Permutation]:
        return [parse_cycles(s, self.degree) for s in self.generators]

    def note_tokens(self) -> dict[str, str]:
        out = {}
        for tok in self.notes.split():
            if "=" in tok:
                k, _, v = tok.partition("=")
                out[k] = v
        return out

    def in_set(self, name: str) -> bool:
        return name in self.note_tokens().get("sets", "").split(",")


def parse_catalog(text: str) -> dict[str, GroupSpec]:
    specs: dict[str, GroupSpec] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 5:
            raise CatalogError(f"line {ln}: expected 5 '|'-separated fields")
        name, deg_s, ord_s, gens_s, notes = parts
        try:
            degree = int(deg_s)
            order = int(ord_s)
        except ValueError:
            raise CatalogError(f"line {ln}: bad degree/order") from None
        gens = tuple(s.strip() for s in gens_s.split(";") if s.strip())
        if not gens:
            raise CatalogError(f"line {ln}: no generators")
        if name in specs:
            raise CatalogError(f"line {ln}: duplicate name {name!r}")
        specs[name] = GroupSpec(name, degree, order, gens, notes)
    return specs


def format_catalog(specs: list[GroupSpec]) -> str:
    lines = [
        "# name | degree | expected_order | generators | notes",
    ]
    for s in specs:
        lines.append(
            f"{s.name} | {s.degree} | {s.expected_order} | "
            f"{'; '.join(s.generators)} | {s.notes}"
        )
    return "\n".join(lines) + "\n"


_CATALOG: dict[str, GroupSpec] | None = None


def load_catalog() -> dict[str, GroupSpec]:
    global _CATALOG
    if _CATALOG is None:
        text = (
            resources.files("ekrcheck.data").joinpath("catalog.txt").read_text()
        )
        _CATALOG = parse_catalog(text)
    return _CATALOG


def catalog_keys() -> list[str]:
    return list(load_catalog())


def get_spec(key: str) -> GroupSpec:
    cat = load_catalog()
    if key not in cat:
        raise CatalogError(f"unknown catalog key {key!r}")
    return cat[key]


def build_group(spec: GroupSpec) -> PermutationGroup:
    group = PermutationGroup(spec.generator_perms(), spec.degree)
    if group.order() != spec.expected_order:
        raise CatalogError(
            f"{spec.name}: catalog order {spec.expected_order}, "
            f"computed {group.order()}"
        )
    if group.transitivity_degree() < 2:
        raise CatalogError(f"{spec.name}: action is not 2-transitive")
    return group


def get_group(key: str) -> tuple[GroupSpec, PermutationGroup]:
    spec = get_spec(key)
    return spec, build_group(spec)

