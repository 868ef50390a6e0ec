import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import golden
import cubicrep
from cubicrep import cli
from cubicrep.detrep import all_reps, is_ldr_of
from cubicrep.gf import mk_field
from cubicrep.plane import TernaryCubic, is_smooth


def write_curve(tmp_path, row, name="curve.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cli.curve_to_obj(golden.row_curve(row))))
    return str(path)


def write_rep(tmp_path, rep, name="rep.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cli.rep_to_obj(rep)))
    return str(path)


def test_public_names_are_pinned():
    # removing an internal helper must not remove an exported name
    assert sorted(cubicrep.__all__) == [
        "CountReport", "EquivalenceWitness", "FieldElement", "FieldSpec", "INFINITY",
        "LinearMatrixRep", "LinearTransform", "OrbitCensus", "ProjPoint", "TernaryCubic",
        "act", "all_reps", "arith", "census", "class_number_H", "count_E", "count_E3",
        "count_E33", "counting", "crosscheck", "cub", "cubics_with_points", "det_cubic",
        "detrep", "embed", "enumerate_field", "epsilon", "equivalent", "evaluate",
        "frobenius", "galinat_rep", "gf", "is_flex", "is_ldr_of", "is_smooth",
        "is_symmetric", "kronecker_symbol", "mk_field", "moore_rep", "mp_case1",
        "mp_case2", "normalize", "oracle", "parse_field_literal", "partials", "plane",
        "rational_points", "t0", "t1", "tangent_line",
    ]


def test_points_unique_rep_f2(tmp_path, capsys):
    path = write_curve(tmp_path, golden.UNIQUE_REP_ROWS[0])
    assert cli.main(["points", path]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "[1:0:0] (flex), [0:0:1]"


def test_points_no_rep_f3(tmp_path, capsys):
    path = write_curve(tmp_path, golden.NO_REP_ROWS[1])
    assert cli.main(["points", path]) == 0
    assert capsys.readouterr().out.strip() == "[1:0:0] (flex)"


def test_points_singular_input_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": "2", "coeffs": {"000": [1]}}))
    assert cli.main(["points", str(path)]) == 2


def test_parse_error_exit_3(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert cli.main(["points", str(path)]) == 3
    assert cli.main(["points", str(tmp_path / "missing.json")]) == 3


def test_detrep_two_classes(tmp_path, capsys):
    path = write_curve(tmp_path, golden.TWO_REP_ROWS[2][0])
    assert cli.main(["detrep", path, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["representations"]) == 2
    got = [cli.rep_from_obj(r["rep"]) for r in obj["representations"]]
    assert got == golden.row_matrices(golden.TWO_REP_ROWS[2][0])


def test_detrep_no_reps_exit_0(tmp_path, capsys):
    path = write_curve(tmp_path, golden.NO_REP_ROWS[2])
    assert cli.main(["detrep", path]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_detrep_unique_f5_prints_lambda(tmp_path, capsys):
    path = write_curve(tmp_path, golden.UNIQUE_REP_ROWS[3])
    assert cli.main(["detrep", path]) == 0
    out = capsys.readouterr().out
    assert "lambda = 4" in out  # -u^3 at [0:0:1] over F_5


def test_detrep_witness_flag(tmp_path, capsys):
    path = write_curve(tmp_path, golden.TWO_REP_ROWS[2][0])
    assert cli.main(["detrep", path, "--witness"]) == 0
    out = capsys.readouterr().out
    assert "inequivalent" in out


def test_verify_golden_matrix(tmp_path, capsys):
    row = golden.UNIQUE_REP_ROWS[0]
    cpath = write_curve(tmp_path, row)
    rpath = write_rep(tmp_path, golden.row_matrices(row)[0])
    assert cli.main(["verify", cpath, rpath]) == 0
    assert "lambda = 1" in capsys.readouterr().out


def test_verify_failure_exit_1(tmp_path, capsys):
    row = golden.UNIQUE_REP_ROWS[0]
    cpath = write_curve(tmp_path, row)
    other = golden.row_matrices(golden.TWO_REP_ROWS[2][0])[0]
    rpath = write_rep(tmp_path, other)
    assert cli.main(["verify", cpath, rpath]) == 1


@pytest.mark.parametrize("value", [True, [True]], ids=["bare", "in-list"])
def test_points_boolean_coefficient_exit_3(tmp_path, capsys, value):
    # JSON true is no field element, bare or as a coefficient, as 1.0 is not
    obj = cli.curve_to_obj(golden.row_curve(golden.UNIQUE_REP_ROWS[0]))
    obj["coeffs"][next(iter(obj["coeffs"]))] = value  # in place of [1]
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["points", str(path)]) == 3
    assert "cannot read field element" in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, [True]], ids=["bare", "in-list"])
def test_verify_boolean_entry_exit_3(tmp_path, capsys, value):
    row = golden.UNIQUE_REP_ROWS[0]
    cpath = write_curve(tmp_path, row)
    obj = cli.rep_to_obj(golden.row_matrices(row)[0])
    r = next(r for name in ("m0", "m1", "m2") for r in obj[name] if [1] in r)
    r[r.index([1])] = value  # in place of [1]
    rpath = tmp_path / "bool-rep.json"
    rpath.write_text(json.dumps(obj))
    assert cli.main(["verify", cpath, str(rpath)]) == 3
    assert "cannot read field element" in capsys.readouterr().err


def test_verify_f7_second_matrix(tmp_path, capsys):
    row = golden.TWO_REP_ROWS[7][0]
    cpath = write_curve(tmp_path, row)
    rpath = write_rep(tmp_path, golden.row_matrices(row)[1])
    assert cli.main(["verify", cpath, rpath, "--json"]) == 0
    lam = json.loads(capsys.readouterr().out)["lambda"]
    assert lam == [6]


def test_classnum(capsys):
    assert cli.main(["classnum", "--", "-12"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_classnum_rejects_a_bad_discriminant(capsys):
    # the BadDiscriminant of class_number_H reaches the error mapping of main
    assert cli.main(["classnum", "--", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need disc < 0 and disc = 0, 1 mod 4; got -5\n"


def test_count_report(capsys):
    assert cli.main(["count", "--q", "2", "--n", "3", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["total"] == 2 and obj["e"] == 1 and obj["e3"] == 1


def test_count_answers_at_a_large_prime_q(capsys):
    # F_q is recognised by trial division up to sqrt(q); with n = 1 no class
    # number is needed, as t^2 > 4q
    assert cli.main(["count", "--q", "1000000007", "--n", "1", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["q"] == 1000000007 and obj["total"] == 0


@pytest.mark.parametrize("argv", [["classnum", "--", "-4000000028"],
                                  ["count", "--q", "1000000007", "--n", "1000000008"]],
                         ids=["classnum", "count"])
def test_class_number_bound_exit_2(argv, capsys):
    # a discriminant past the class-number bound fails fast, not after minutes
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: |disc| = ")
    assert captured.err.endswith("exceeds the class-number bound 16777216\n")


def test_count_table_alias(capsys):
    assert cli.main(["count", "--table", "1", "--json"]) == 0
    grid = json.loads(capsys.readouterr().out)
    assert grid[1] == ["Cub_q(0)", "1", "1", "1", "0", "0", "0"]


def test_tables_cub_grid(capsys):
    assert cli.main(["tables", "1", "--json"]) == 0
    grid = json.loads(capsys.readouterr().out)
    assert grid[1][1:] == ["1", "1", "1", "0", "0", "0"]
    assert grid[2][1:] == ["1", "1", "1", "1", "0", "0"]
    assert grid[3][1:] == ["2", "2", "4", "2", "2", "0"]
    capsys.readouterr()
    assert cli.main(["tables", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == grid


def test_tables_ingredients(capsys):
    assert cli.main(["tables", "3", "--json"]) == 0
    g1, g2 = json.loads(capsys.readouterr().out)
    by_field = {row[0]: row[1:] for row in g1[1:]}
    assert by_field["F_4"] == ["1", "1", "2", "0", "0", "2"]
    by_field2 = {row[0]: row[1:] for row in g2[1:]}
    assert by_field2["F_7"][:5] == ["0", "0", "0", "-1", "∞"]


def _table_rows(selector, capsys):
    assert cli.main(["tables", selector, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("selector,rows", [
    ("5", golden.NO_REP_ROWS),
    ("0ldr", golden.NO_REP_ROWS),
    ("6", golden.UNIQUE_REP_ROWS),
    ("7", golden.TWO_REP_ROWS[2]),
    ("2ldr-3", golden.TWO_REP_ROWS[3]),
    ("8", golden.TWO_REP_ROWS[4]),
    ("9", golden.TWO_REP_ROWS[5]),
    ("10", golden.TWO_REP_ROWS[7]),
])
def test_curve_tables_match_published_rows(selector, rows, capsys):
    got = _table_rows(selector, capsys)
    assert len(got) == len(rows)
    for obj, row in zip(got, rows):
        F = golden.row_curve(row)
        assert cli.curve_from_obj(obj["curve"]) == F
        pts = [(cli.element_from_obj(F.spec, p["point"][0]),
                p["flex"]) for p in obj["points"]]
        assert [p["flex"] for p in obj["points"]] == [fl for _, fl in row["points"]]
        got_reps = [cli.rep_from_obj(r["rep"]) for r in obj["representations"]]
        assert got_reps == golden.row_matrices(row)


def test_sym_table_equivalent_to_published(capsys):
    got = _table_rows("sym", capsys)
    assert len(got) == len(golden.UNIQUE_REP_ROWS)
    from cubicrep.detrep import equivalent, is_symmetric

    for obj, row in zip(got, golden.UNIQUE_REP_ROWS):
        F = golden.row_curve(row)
        rep = cli.rep_from_obj(obj["representations"][0]["rep"])
        assert is_symmetric(rep)
        assert is_ldr_of(rep, F) is not None
        assert equivalent(rep, golden.row_sym_matrix(row)) is not None


def test_classify_summary(capsys):
    assert cli.main(["classify", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "6 classes" in out and "ok" in out


def test_classify_too_large(capsys):
    assert cli.main(["classify", "--q", "7"]) == 2


def test_field_command(capsys):
    assert cli.main(["field", "2^2", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["modulus"] == [1, 1, 1]
    assert obj["elements"] == [[0, 0], [1, 0], [0, 1], [1, 1]]


def test_determinism_tables(capsys):
    assert cli.main(["tables", "7"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["tables", "7"]) == 0
    assert capsys.readouterr().out == first


def test_point_parsing_extension_field(tmp_path, capsys):
    row = golden.UNIQUE_REP_ROWS[2]  # F_4 curve
    path = write_curve(tmp_path, row)
    assert cli.main(["points", path, "--p0", "1:0,0:0"]) == 0
    out = capsys.readouterr().out
    assert "(base)" in out


def test_p0_not_on_curve_exit_2(tmp_path):
    path = write_curve(tmp_path, golden.UNIQUE_REP_ROWS[0])
    assert cli.main(["points", path, "--p0", "1:1:1"]) == 2


@pytest.mark.parametrize("selector", ["1", "sym"])
def test_tables_output_unchanged_under_optimize_flag(selector):
    # python -O strips assert statements; every check in the library is an
    # explicit raise, so the tables must come out byte-identical
    env = dict(os.environ, PYTHONPATH=str(Path(cubicrep.__file__).parent.parent))
    outs = [subprocess.run([sys.executable, *flags, "-m", "cubicrep.cli", "tables", selector],
                           env=env, capture_output=True, check=True, timeout=300).stdout
            for flags in ([], ["-O"])]
    assert outs[0] and outs[0] == outs[1]


_CSV_INGREDIENTS = """\
,#E_q(1),#E_q(2),#E_q(3),#E_q3(1),#E_q3(2),#E_q3(3)
F_2,1,1,1,0,0,1
F_3,1,1,1,0,0,1
F_4,1,1,2,0,0,2
F_5,0,1,1,0,0,1
F_7,0,0,1,0,0,1

,#E_q33(1),#E_q33(2),#E_q33(3),t0,t1,eps_q(q),eps_q(q-1),eps_q(q-2)
F_2,0,0,0,∞,∞,0,0,0
F_3,0,0,0,∞,∞,0,0,0
F_4,0,0,0,-4,-4,0,0,0
F_5,0,0,0,∞,∞,0,0,0
F_7,0,0,0,-1,∞,0,0,0
"""


@pytest.mark.parametrize("argv,expected", [
    (["tables", "1"], """\
,F_2,F_3,F_4,F_5,F_7,F_q (q >= 8)
Cub_q(0),1,1,1,0,0,0
Cub_q(1),1,1,1,1,0,0
Cub_q(2),2,2,4,2,2,0
"""),
    (["tables", "3"], _CSV_INGREDIENTS),
    (["count", "--table", "3"], _CSV_INGREDIENTS),
    (["tables", "7"], """\
q,curve,points,n_reps,matrices
2,"X^2*Z + X*Y^2 + Y*Z^2","[1:0:0] [0:1:0] [0:0:1]",2,"0, Z, Y; Z, Y, X; X, 0, Y | 0, Z, Y; Y, 0, X; X, X, Z"
2,"X^2*Z + X*Z^2 + Y^3","[1:0:0](flex) [1:0:1](flex) [0:0:1](flex)",2,"0, Z, Y; Y, 0, X; X + Z, Y, 0 | 0, Z, Y; Y, 0, X + Z; X, Y, 0"
"""),
    (["tables", "sym"], """\
q,curve,points,n_reps,matrices
2,"X^2*Z + X*Y*Z + Y^3 + Y^2*Z + Y*Z^2","",1,"Y, 0, X; 0, Z, Y; X, Y, X + Y + Z"
3,"X^2*Z + 2*Y^3 + Y^2*Z + Y*Z^2","",1,"2Y, 0, X; 0, Z, 2Y; X, 2Y, Y + Z"
4,"X^2*Z + g*X*Y*Z + Y^3 + Y^2*Z + g*Y*Z^2","",1,"Y, 0, X; 0, Z, Y; X, Y, gX + Y + gZ"
5,"X^2*Z + Y^3 + 2*Y*Z^2","",1,"4Y, 0, X; 0, 4Z, Y; X, Y, 2Z"
"""),
])
def test_csv_output_pinned(argv, expected, capsys):
    assert cli.main([*argv, "--csv"]) == 0
    assert capsys.readouterr().out == expected


def test_csv_only_where_it_is_read(tmp_path, capsys):
    path = write_curve(tmp_path, golden.UNIQUE_REP_ROWS[0])
    with pytest.raises(SystemExit) as exc:
        cli.main(["points", path, "--csv"])
    assert exc.value.code == 2
    assert "--csv" in capsys.readouterr().err


def test_count_csv_needs_a_table(capsys):
    # the report of --q/--n has no CSV form; --csv without --table is an error
    assert cli.main(["count", "--q", "2", "--n", "3", "--csv"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "--csv needs --table" in captured.err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("q", [6, 0, 1])
def test_count_rejects_a_q_that_is_no_prime_power(capsys, q, json_flag):
    # no field F_q: the mathematical-precondition code, as for `field 6`
    assert cli.main(["count", "--q", str(q), "--n", "1"] + json_flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: q = {q} is not a prime power\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_classify_reports_a_formula_mismatch(monkeypatch, capsys, json_flag):
    from cubicrep import counting

    real = counting.cubics_with_points

    def off_by_one_at_3(q, n):
        report = real(q, n)
        if n != 3:
            return report
        return dataclasses.replace(report, e=report.e + 1, total=report.total + 1)

    assert cli.main(["classify", "--q", "2", *json_flag]) == 0
    good = capsys.readouterr().out
    monkeypatch.setattr(counting, "cubics_with_points", off_by_one_at_3)
    assert cli.main(["classify", "--q", "2", *json_flag]) == 1
    captured = capsys.readouterr()
    assert "MISMATCH" in (captured.err if json_flag else captured.out)
    if json_flag:
        assert captured.out == good


def test_field_past_the_size_cap_exit_2(capsys):
    assert cli.main(["field", "2^15"]) == 2
    assert "size cap 16384" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["1000000000000000003", "2000000000000000006",
                                     "3^30000000"],
                         ids=["prime", "twice-a-prime", "large-m"])
def test_field_past_the_size_cap_exits_2_at_once(literal, capsys):
    # the size cap is checked before the trial division up to sqrt(p) and
    # before p ** m is computed
    start = time.perf_counter()
    assert cli.main(["field", literal]) == 2
    assert time.perf_counter() - start < 2
    q = literal if "^" in literal else literal + "^1"
    assert capsys.readouterr().err == f"error: q = {q} exceeds the size cap 16384\n"


@pytest.mark.parametrize("literal", ["x", "2^x"])
def test_field_malformed_literal_exit_3(literal, capsys):
    assert cli.main(["field", literal]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot read field literal '{literal}'")


# -- a pinned digest of the CLI's output ---------------------------------------

#: sha256 over the argv, exit code, stdout and stderr of every command of
#: _digest_commands, then the file that `classify --out` wrote; any change
#: to what the CLI prints changes it
CLI_DIGEST = "d10b01fe4ddd64e587d33b0096d4038dd5254cbd2afd707d159bd6459afc2026"
_CLI_DIGEST_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (31, 1), (2, 6),
                      (101, 1), (257, 1))
_TABLE_SELECTORS = ("1", "2", "3", "5", "6", "7", "8", "9", "10", "sym", "0ldr", "1ldr",
                    "2ldr-2", "2ldr-3", "2ldr-4", "2ldr-5", "2ldr-7")


def _seeded_smooth_curve(spec):
    rng = random.Random(f"cli-digest/{spec.q}")
    elems = list(spec.elements())
    while True:
        coeffs = [rng.randrange(spec.q) for _ in range(10)]
        if any(coeffs):
            F = TernaryCubic(spec, [elems[c] for c in coeffs])
            if is_smooth(F):
                return F


def _digest_commands():
    """Write the input files into the working directory and list the
    commands: every table in three formats, the counting and census
    commands, five commands on a seeded smooth curve per field, and one
    case of each failing exit code."""
    cmds = [["tables", sel, *fmt] for sel in _TABLE_SELECTORS
            for fmt in ([], ["--json"], ["--csv"])]
    cmds += [["count", "--q", "7", "--n", "6"], ["count", "--q", "9", "--n", "8", "--json"],
             ["count", "--q", "4", "--n", "5"],
             ["classnum", "--", "-23"], ["classnum", "--json", "--", "-12"],
             ["classify", "--q", "2"], ["classify", "--q", "3", "--json", "--out", "census.json"],
             ["field", "3^2"], ["field", "2^2", "--json"]]
    for p, m in _CLI_DIGEST_FIELDS:
        F = _seeded_smooth_curve(mk_field(p, m))
        curve, rep = f"curve-{F.spec.q}.json", f"rep-{F.spec.q}.json"
        Path(curve).write_text(json.dumps(cli.curve_to_obj(F)))
        Path(rep).write_text(json.dumps(cli.rep_to_obj(all_reps(F)[0][1])))
        cmds += [["points", curve], ["detrep", curve], ["detrep", curve, "--json"],
                 ["detrep", curve, "--witness"], ["detrep", curve, "--json", "--witness"],
                 ["verify", curve, rep]]
    Path("singular.json").write_text(json.dumps({"field": "2", "coeffs": {"000": [1]}}))
    cmds += [["points", "singular.json"], ["detrep", "curve-7.json", "--p0", "1:1:1"],
             ["field", "2^x"], ["count", "--q", "6", "--n", "1"]]
    return cmds


def test_cli_digest(tmp_path, monkeypatch, capsys):
    # run in tmp_path so that no argv or message names a temporary path
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    h = hashlib.sha256()
    for argv in _digest_commands():
        code = cli.main(argv)
        out, err = capsys.readouterr()
        h.update(json.dumps([argv, code, out, err]).encode())
    h.update((tmp_path / "census.json").read_bytes())
    assert h.hexdigest() == CLI_DIGEST
    assert time.perf_counter() - start < 10
