"""Command surface: argument handling, output formats, exit codes."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ekrcheck
from ekrcheck.cli import main
from ekrcheck.library import GroupSpec, format_catalog, get_spec, parse_catalog
from ekrcheck.pipeline import brute_alpha, build_group

CSV_HEADER = "n,Group,size,least,n-clique,EKR,unique,module-by-clique,rank,strict"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_csv(capsys):
    code, out, _ = run(capsys, "classify", "--group", "S3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines == [CSV_HEADER, "3,S3,6,Y,Y,Y,Y,--,Y,Y"]


def test_classify_json_default(capsys):
    code, out, _ = run(capsys, "classify", "--group", "F20")
    assert code == 0
    (obj,) = json.loads(out)
    assert obj["key"] == "F20"
    assert obj["strict"] == {"verdict": "no", "reason": "complete-union"}


def test_classify_multiple_groups_sorted(capsys):
    code, out, _ = run(
        capsys, "classify", "--group", "F20", "--group", "S3", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[1] for r in rows] == ["S3", "F20"]


def test_classify_group_file(capsys, tmp_path):
    path = tmp_path / "mini.cat"
    path.write_text(format_catalog([get_spec("A4")]))
    code, out, _ = run(capsys, "classify", "--group", str(path), "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[1].startswith("4,A4,12,")


def test_classify_degree_two_group_file(capsys, tmp_path):
    # S2 on two points: alpha = 1 = |G|/n, and both maximum intersecting
    # sets, {e} and {(1,2)}, are the cosets {x : x(1) = j}
    path = tmp_path / "s2.cat"
    path.write_text("S2 | 2 | 2 | (1,2) |\n")
    code, out, _ = run(capsys, "classify", "--group", str(path), "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[1] == "2,S2,2,Y,Y,Y,Y,--,Y,Y"
    group = build_group(parse_catalog(path.read_text())["S2"])
    alpha, _, count = brute_alpha(group)
    assert (alpha, count) == (1, 2)
    cosets = {frozenset(x for x in group.elements() if x(0) == j) for j in range(2)}
    assert cosets == {frozenset([x]) for x in group.elements()}


def test_classify_over_cap_group_without_streamed_class_is_partial(capsys, tmp_path):
    # PGL(2,23) on the projective line, points 0..22 and infinity as 1..24;
    # the Gram of its first drawn derangement's class is outside the pairs
    # algebra, so its rank stays unknown
    gens = (
        "(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23)",
        "(2,6,3,11,5,21,9,18,17,12,10,23,19,22,14,20,4,16,7,8,13,15)",
        "(1,24)(2,23)(3,12)(4,16)(5,18)(6,10)(7,20)(8,14)(9,21)(11,17)(13,22)(15,19)",
    )
    path = tmp_path / "pgl223.cat"
    path.write_text(format_catalog([GroupSpec("PGL(2,23)", 24, 12144, gens)]))
    code, out, _ = run(
        capsys, "classify", "--group", str(path), "--caps", "enumeration=100"
    )
    assert code == 2
    (obj,) = json.loads(out)
    assert obj["rank"]["full"] == "unknown"
    assert obj["notes"][-1] == "the class Gram is not certified invertible in the pairs algebra"


def test_classify_over_cap_group_file_reusing_a_catalog_name(capsys, tmp_path):
    # S12 under the name M23: the over-cap rank route reads the group, not
    # its name, and certifies S12's rank
    path = tmp_path / "s12.cat"
    path.write_text("M23 | 12 | 479001600 | (1,2); (1,2,3,4,5,6,7,8,9,10,11,12) | sets=extra\n")
    code, out, _ = run(capsys, "classify", "--group", str(path), "--format", "csv")
    assert code == 2
    (row,) = list(csv.DictReader(io.StringIO(out)))
    assert (row["Group"], row["size"], row["rank"]) == ("M23", "479001600", "Y")


def test_classify_unknown_group_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--group", "NoSuchGroup"])
    assert "neither a catalog key nor a readable file" in str(exc.value)


def test_classify_caps_partial_exits_2(capsys):
    code, out, _ = run(capsys, "classify", "--group", "M11", "--caps", "enumeration=100")
    assert code == 2
    (obj,) = json.loads(out)
    assert obj["least_standard"] == "unknown"


def test_repeated_caps_flags_all_apply(capsys):
    # the enumeration cap of the first flag still holds after the second:
    # over it only the rank is decided, by the class Gram route
    code, out, _ = run(
        capsys, "classify", "--group", "M11",
        "--caps", "enumeration=100", "--caps", "clique_budget=1", "--format", "csv",
    )
    assert code == 2
    assert out.strip().split("\n")[1] == "11,M11,7920,?,--,?,?,--,Y,?"


def test_bad_caps_key_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--group", "S3", "--caps", "bogus=1"])
    assert "bad --caps entry" in str(exc.value)


def test_oracle_knobs_are_not_caps():
    # `ekr oracle` runs at the fixed ORACLE_CAP and COUNT_CAP
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--group", "S3", "--caps", "oracle=1"])
    assert "(known keys: clique_budget, enumeration)" in str(exc.value)


@pytest.mark.parametrize("key", ["enumeration", "clique_budget"])
def test_negative_cap_exits_1(capsys, key):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--group", "S3", "--caps", f"{key}=-1"])
    assert exc.value.code == f"ekr: error: --caps {key} must not be negative"
    assert capsys.readouterr().out == ""


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 1


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, _ = run(
        capsys,
        "classify", "--group", "S3", "--format", "csv", "--out", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith(CSV_HEADER)


def test_table_small_degrees(capsys):
    code, out, _ = run(capsys, "table", "--degree-max", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert all(len(r) == 10 for r in rows)
    keys = [r[1] for r in rows]
    assert "S3" in keys and "A4" in keys
    degrees = [int(r[0]) for r in rows]
    assert degrees == sorted(degrees) and max(degrees) <= 4


def test_witness_registered(capsys):
    code, out, _ = run(capsys, "witness", "--group", "PGL(3,2)")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["intersecting"] and verdict["maximum"]
    assert not verdict["canonical"]
    assert verdict["refutes_strict"]


def test_witness_from_file(capsys, tmp_path):
    # the rotation coset g(1)=2 in cycle notation, and one row as images
    path = tmp_path / "set.txt"
    path.write_text("# point-stabilizer coset of S3\n(1,2)\n(1,2,3)\n")
    code, out, _ = run(capsys, "witness", "--group", "S3", "--set", str(path))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["intersecting"] and verdict["maximum"] and verdict["canonical"]


def test_witness_file_image_rows(capsys, tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("0 1 2\n1 0 2\n")
    code, out, _ = run(capsys, "witness", "--group", "S3", "--set", str(path))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["intersecting"]


def test_witness_unregistered_needs_set():
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--group", "S3"])
    assert "no symmetric-design witness for 'S3'; pass --set" in str(exc.value)


def test_witness_from_a_design_the_catalog_does_not_name(capsys):
    # PSL(2,11) on 11 points preserves the 2-(11,5,2) biplane; its
    # catalog entry names no point model
    code, out, _ = run(capsys, "witness", "--group", "PSL(2,11)@11")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["size"] == 60 and verdict["refutes_strict"]


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "--group", "A4")
    assert code == 0
    obj = json.loads(out)
    assert obj["alpha"] == 3
    assert obj["alpha_equals_order_over_degree"]
    assert obj["spectrum_matches_brute_force"]
    assert obj["maximum_set_count"] == 64


def test_oracle_cap_exit_1(capsys):
    code, _, err = run(capsys, "oracle", "--group", "M11")
    assert code == 1
    assert "cap exceeded" in err


def test_verbose_progress_on_stderr(capsys):
    code, _, err = run(capsys, "classify", "--group", "S3", "--verbose")
    assert code == 0
    assert "S3: ekr=yes strict=yes" in err


def test_classify_csv_is_the_same_under_python_O():
    # `python -O` strips assert statements; no check that a verdict rests on
    # may be one, so the verdicts cannot change
    src = pathlib.Path(ekrcheck.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    argv = ["-m", "ekrcheck.cli", "classify", "--group", "M23", "--group", "PSL(2,11)"]
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, *argv, "--format", "csv"],
            capture_output=True, text=True, env=env,
        )
        for flags in ([], ["-O"])
    )
    assert plain.stdout.startswith(CSV_HEADER) and plain.stdout.count("\n") == 3
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)
