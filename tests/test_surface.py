"""The library holds only what its entry points run.

Every top-level name defined in `src/ekrcheck` must be reachable, by name,
from the command line (`cli`), the package's `__all__`, the entry points
that the traced benchmark wraps (`SPANS` and `COUNTED` in
`benchmark/tracing.py`, read without importing it) or the catalog
generator `tools/make_catalog.py`.  A name is reached when a reached
definition mentions it, as a bare name, an attribute or an import, and
module-level code that runs on import counts as reached.  Code that only
the tests use belongs under `tests/`.
"""

import ast
import pathlib

import ekrcheck

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ekrcheck"

ALLOWED = {
    "export_table": "writes the format parse_table reads, keeping that format in one module",
    "strip_timings": "part of the JSON contract: reports are byte-identical once stripped",
}


def _mentions(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
    return names


def _definitions():
    """(module, name) -> names its definition mentions, and the names that
    module-level code mentions when the module is imported."""
    defs, at_import = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for st in ast.parse(path.read_text()).body:
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[(path.stem, st.name)] = _mentions(st)
            elif isinstance(st, (ast.Assign, ast.AnnAssign)):
                targets = st.targets if isinstance(st, ast.Assign) else [st.target]
                for t in targets:
                    if isinstance(t, ast.Name) and t.id != "__all__":
                        defs[(path.stem, t.id)] = _mentions(st.value) if st.value else set()
            elif isinstance(st, ast.ImportFrom):
                for alias in st.names:
                    defs[(path.stem, alias.asname or alias.name)] = {alias.name}
            elif not isinstance(st, ast.Import):
                at_import |= _mentions(st)
    return defs, at_import


def _traced_names() -> set[str]:
    tree = ast.parse((ROOT / "benchmark" / "tracing.py").read_text())
    names = set()
    for st in tree.body:
        if isinstance(st, ast.Assign) and [getattr(t, "id", None) for t in st.targets] in (
            ["SPANS"], ["COUNTED"]
        ):
            for owner, attr, *_ in ast.literal_eval(st.value):
                names |= {owner.split(".")[-1], attr}
    assert names, "no SPANS or COUNTED entries found in benchmark/tracing.py"
    return names


def test_every_library_name_is_reachable_from_an_entry_point():
    defs, at_import = _definitions()
    roots = (
        at_import
        | _mentions(ast.parse((SRC / "cli.py").read_text()))
        | set(ekrcheck.__all__)
        | _traced_names()
        | _mentions(ast.parse((ROOT / "tools" / "make_catalog.py").read_text()))
        | set(ALLOWED)
    )
    by_name: dict[str, set[str]] = {}
    for (_, name), mentioned in defs.items():
        by_name.setdefault(name, set()).update(mentioned)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(by_name.get(name, ()))
    unreached = sorted(f"{module}.{name}" for module, name in defs if name not in reached)
    assert not unreached, f"library names no entry point reaches: {unreached}"


def test_no_assert_statement_in_the_library():
    # `python -O` strips assert statements; a check in the library raises
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/ekrcheck: {found}"
