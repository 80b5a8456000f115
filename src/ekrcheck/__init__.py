"""Exact verification of intersection properties of 2-transitive groups.

The package computes the derangement-graph spectrum of a finite
2-transitive permutation group in integers, from the certified central
characters of its rational class algebra, applies the ratio and
clique-coclique bounds, and certifies strictness through exact rank
computations on the coset-incidence matrix.
"""

from .errors import CapExceeded, CatalogError
from .library import build_group, catalog_keys, get_group, get_spec
from .pipeline import (
    Caps,
    EkrReport,
    brute_alpha,
    classify,
    classify_many,
    emit_csv,
    emit_json,
    verify_witness,
)

__version__ = "1.0.0"

__all__ = [
    "Caps",
    "CapExceeded",
    "CatalogError",
    "EkrReport",
    "brute_alpha",
    "build_group",
    "catalog_keys",
    "classify",
    "classify_many",
    "emit_csv",
    "emit_json",
    "get_group",
    "get_spec",
    "verify_witness",
    "__version__",
]
