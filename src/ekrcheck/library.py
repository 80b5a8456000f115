"""The catalog of 2-transitive groups.

Groups ship as explicit generator lists in cycle notation
(src/ekrcheck/data/catalog.txt), so loading a group never depends on
matrix machinery being correct.  The finite fields and point models that
wrote those lists live beside their generator, tools/make_catalog.py; this
module parses, formats, loads and builds the catalog's groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .errors import CatalogError
from .group import PermutationGroup
from .perm import Permutation, parse_cycles


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

