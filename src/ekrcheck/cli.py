"""Command-line front end.

Subcommands:
  classify   decide EKR/strict-EKR for catalog keys or a group file
  table      run every catalog group up to a degree bound
  witness    check an intersecting-set witness against a group
  oracle     brute-force cross-check for small groups

Exit codes: 0 = all verdicts settled, 2 = at least one report left a
core column unknown because a resource cap was hit, 1 = error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from .dergraph import brute_spectrum_matches
from .errors import CapExceeded, CatalogError
from .group import EnumeratedGroup
from .library import catalog_keys, get_spec, load_catalog, parse_catalog
from .perm import Permutation, parse_cycles
from . import pipeline
from .pipeline import Caps, brute_alpha, classify, emit_csv, emit_json


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # partial results, so remap
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_caps(pairs: list[str]) -> Caps:
    caps = Caps()
    fields = {f.name for f in dataclasses.fields(Caps)}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or key not in fields:
            raise SystemExit(
                f"ekr: error: bad --caps entry {pair!r} (known keys: "
                f"{', '.join(sorted(fields))})"
            )
        try:
            number = int(value)
        except ValueError:
            raise SystemExit(f"ekr: error: --caps {key} needs an integer") from None
        if number < 0:
            raise SystemExit(f"ekr: error: --caps {key} must not be negative")
        setattr(caps, key, number)
    return caps


def _emit(reports, fmt: str, out: str | None) -> None:
    text = emit_csv(reports) if fmt == "csv" else emit_json(reports)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _exit_code(reports) -> int:
    return 2 if any(r.partial for r in reports) else 0


def _progress(enabled: bool, msg: str) -> None:
    if enabled:
        print(msg, file=sys.stderr, flush=True)


def _classify_all(keys_or_specs, caps, verbose):
    reports = []
    for item in keys_or_specs:
        label = item if isinstance(item, str) else item.name
        t0 = time.time()
        rep = classify(item, caps=caps)
        _progress(
            verbose,
            f"{label}: ekr={rep.ekr} strict={rep.strict} ({time.time() - t0:.1f}s)",
        )
        reports.append(rep)
    return sorted(reports, key=pipeline.table_order)


def _cmd_classify(args) -> int:
    caps = _parse_caps(args.caps)
    targets: list = []
    for name in args.group:
        try:
            targets.append(get_spec(name))
        except CatalogError:
            try:
                with open(name, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError:
                raise SystemExit(
                    f"ekr: error: {name!r} is neither a catalog key nor a readable file"
                ) from None
            specs = parse_catalog(text)
            if not specs:
                raise SystemExit(f"ekr: error: no group entries in {name!r}")
            targets.extend(specs.values())
    reports = _classify_all(targets, caps, args.verbose)
    _emit(reports, args.format, args.out)
    return _exit_code(reports)


def _cmd_table(args) -> int:
    caps = _parse_caps(args.caps)
    keys = [
        k for k in catalog_keys() if load_catalog()[k].degree <= args.degree_max
    ]
    if not keys:
        raise SystemExit(f"ekr: error: no catalog groups with degree <= {args.degree_max}")
    reports = _classify_all(keys, caps, args.verbose)
    _emit(reports, args.format, args.out)
    return _exit_code(reports)


def _read_witness_file(path: str, degree: int) -> list[Permutation]:
    elements = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "(" in line:
                elements.append(parse_cycles(line, degree))
            else:
                images = tuple(int(tok) for tok in line.replace(",", " ").split())
                if sorted(images) != list(range(degree)):
                    raise SystemExit(
                        f"ekr: error: line {line!r} is not a permutation of 0..{degree - 1}"
                    )
                elements.append(Permutation(images))
    if not elements:
        raise SystemExit(f"ekr: error: no permutations in {path!r}")
    return elements


def _cmd_witness(args) -> int:
    caps = _parse_caps(args.caps)
    spec = get_spec(args.group)
    rep = classify(spec, caps=caps)
    group = pipeline.build_group(spec)
    if args.set:
        elements = _read_witness_file(args.set, spec.degree)
    else:
        eg = EnumeratedGroup(group, caps.enumeration)
        found = pipeline.hyperplane_witness(eg)
        if found is None:
            raise SystemExit(
                f"ekr: error: no symmetric-design witness for {args.group!r}; pass --set"
            )
        elements, _ = found
    intersecting, maximum, canonical = pipeline.verify_witness(
        group, elements, ekr_established=rep.ekr == "yes"
    )
    verdict = {
        "group": args.group,
        "size": len(elements),
        "intersecting": intersecting,
        "maximum": maximum,
        "canonical": canonical,
        "refutes_strict": intersecting and maximum and not canonical,
    }
    print(json.dumps(verdict, indent=2, sort_keys=True))
    if intersecting and len(elements) * spec.degree == spec.expected_order and rep.ekr != "yes":
        # right size but EKR itself unsettled, so maximality stays open
        return 2
    return 0


def _cmd_oracle(args) -> int:
    caps = _parse_caps(args.caps)
    spec = get_spec(args.group)
    group = pipeline.build_group(spec)
    alpha, members, count = brute_alpha(group)
    rep = classify(spec, caps=caps)
    eg = EnumeratedGroup(group, caps.enumeration)
    table = pipeline.character_table_for(group, eg=eg)
    spec_match = brute_spectrum_matches(eg.E, pipeline.spectrum(table))
    out = {
        "group": args.group,
        "order": spec.expected_order,
        "degree": spec.degree,
        "alpha": alpha,
        "alpha_equals_order_over_degree": alpha * spec.degree == spec.expected_order,
        "maximum_set_count": count,
        "spectrum_matches_brute_force": bool(spec_match),
        "classify_ekr": rep.ekr,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    if not out["alpha_equals_order_over_degree"] or not spec_match:
        return 1
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--caps",
        metavar="KEY=N",
        nargs="*",
        action="extend",
        default=[],
        help="resource caps, e.g. enumeration=2000000 clique_budget=10000000",
    )
    p.add_argument("--verbose", action="store_true", help="progress lines on stderr")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ekr", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify catalog keys or a group file")
    p.add_argument(
        "--group",
        action="append",
        required=True,
        metavar="KEY|FILE",
        help="catalog key, or a file of group entries (repeatable)",
    )
    _add_output(p)
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("table", help="classify every catalog group up to a degree")
    p.add_argument("--degree-max", type=int, default=20)
    _add_output(p)
    _add_common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("witness", help="verify an intersecting-set witness")
    p.add_argument("--group", required=True, metavar="KEY")
    p.add_argument(
        "--set",
        metavar="FILE",
        help="one permutation per line: 1-based cycle notation as in the "
        "catalog, or a 0-based image row; omit to use the stabilizer of a "
        "block of a symmetric design the group preserves",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("oracle", help="brute-force cross-check a small group")
    p.add_argument("--group", required=True, metavar="KEY")
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"ekr: cap exceeded: {exc}", file=sys.stderr)
        return 1
    except (CatalogError, ValueError, OSError) as exc:
        print(f"ekr: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
