"""Workload definitions, expected verdict rows and the verdict rule.

This module does not import ekrcheck, so run.py can check verdict
rows without loading the package it measures.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

EXPECTED_ROWS = Path(__file__).resolve().parent / "expected_rows.csv"

COLUMNS = [
    "n", "Group", "size", "least", "n-clique", "EKR", "unique",
    "module-by-clique", "rank", "strict",
]
MBC = COLUMNS.index("module-by-clique")
EKR = COLUMNS.index("EKR")

# Every catalog group of degree <= 20 and order <= 100,000 except M12,
# PGL(2,13), PGL(2,17), PGL(2,19), PSL(2,13) and PSL(2,17).  Each of those
# spends 4 to 53 s in the n-clique search or the module-by-clique hunt;
# with them a check of the benchmark would not end in its time limit (see
# README.md, "Left out").  M10 (search tree exhausted), PSL(2,19) (search
# hit) and PGL(2,9) (the hunt) keep those layers measured, but no group
# here runs a search to its node budget.
SURVEY = [
    "S3", "A4", "F20", "PGL(2,5)", "A5@6", "PGL(3,2)", "AGL(1,7)",
    "AGL(3,2)", "PGL(2,7)", "AGammaL(1,8)", "PSL(3,2)", "AGL(1,8)",
    "PGammaL(2,8)", "PSL(2,8)", "AGL(2,3)", "ASL(2,3)", "AGammaL(1,9)",
    "3^2:Q8", "AGL(1,9)", "PGammaL(2,9)", "M10", "PGL(2,9)",
    "PSigmaL(2,9)", "A6@10", "M11", "PSL(2,11)@11", "AGL(1,11)",
    "M11@12", "PGL(2,11)", "PSL(2,11)", "PSL(3,3)", "AGL(1,13)", "A8@15",
    "A7@15", "2^4:A7", "2^4:S6", "2^4:A6", "AGammaL(2,4)", "AGL(2,4)",
    "ASigmaL(2,4)", "AGammaL(1,16)", "ASL(2,4)", "ASigmaL(1,16)",
    "AGL(1,16)", "PGammaL(2,16)", "PSigmaL(2,16)", "PSL(2,16)",
    "AGL(1,17)", "AGL(1,19)", "PSL(2,19)",
]

# A route is "classify" (the full decision sequence) or "streamed" (the
# class-Gram rank route that `ekr mathieu --include 23` runs for groups
# over the enumeration cap).
WORKLOADS: dict[str, list[tuple[str, str]]] = {
    "survey": [(k, "classify") for k in SURVEY],
    # streamed conjugacy class of 443,520 rows and its Gram certificate
    "large": [("M23", "streamed")],
}


def order(workload: str, seed: int, pass_no: int) -> list[tuple[str, str]]:
    """The workload's groups in the order the seed picks for one pass.

    Module-level caches (cyclotomic root tables, finite fields) persist
    across groups in one process, so the order changes what each group
    pays; the verdicts must not change with it.
    """
    items = list(WORKLOADS[workload])
    random.Random(f"{seed}/{pass_no}").shuffle(items)
    return items


def load_expected(path: Path = EXPECTED_ROWS) -> dict[str, list[str]]:
    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if rows[0] != COLUMNS:
        raise ValueError(f"{path}: header {rows[0]} is not {COLUMNS}")
    return {r[1]: r for r in rows[1:]}


def row_problems(expected: list[str], actual: list[str]) -> list[str]:
    """Ways `actual` breaks the verdict rule against `expected`.

    A `?` may become Y or N.  A decided mark never flips and never goes
    back to `?`.  The module-by-clique column may read `--` (not
    attempted) once EKR holds, because an earlier certificate may settle
    condition (b) before the clique hunt runs.
    """
    if len(actual) != len(COLUMNS):
        return [f"row has {len(actual)} fields, expected {len(COLUMNS)}"]
    problems = [
        f"{COLUMNS[i]}: {expected[i]} -> {actual[i]}"
        for i in range(3)
        if expected[i] != actual[i]
    ]
    for i in range(3, len(COLUMNS)):
        old, new = expected[i], actual[i]
        if old == new or (old == "?" and new in ("Y", "N")):
            continue
        if i == MBC and new == "--" and actual[EKR] == "Y":
            continue
        problems.append(f"{COLUMNS[i]}: {old} -> {new}")
    return problems


def undecided_cells(rows) -> int:
    return sum(r[3:].count("?") for r in rows)


def decided_cells(rows) -> int:
    """Verdict cells that are not `?`.  A module-by-clique `--` counts, so
    every change the verdict rule allows moves this up or leaves it."""
    return sum(len(r) - 3 for r in rows) - undecided_cells(rows)
