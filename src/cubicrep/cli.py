"""Command-line interface: inspect fields, list curve points, build and
verify determinantal representations, evaluate the counting formulas, run
the census, and render the summary tables.

Exit codes: 0 success, 1 verification failure, 2 mathematical precondition
failure, 3 input parse or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import counting, detrep, gallery, oracle, plane
from .counting import INFINITY
from .gf import FieldError, FieldSpec, field_literal, parse_field_literal, poly_string
from .plane import PlaneError, ProjPoint, TernaryCubic

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PRECONDITION = 2
EXIT_PARSE = 3


class ParseFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# JSON codecs (formats shared with the library's file interfaces)


def element_to_obj(e):
    return list(e.coeffs)


def element_from_obj(spec: FieldSpec, obj):
    if isinstance(obj, (int, list)):
        return spec.element(obj)
    raise ParseFailure(f"cannot read field element from {obj!r}")


def curve_to_obj(F: TernaryCubic) -> dict:
    return {
        "field": field_literal(F.spec),
        "coeffs": {idx: element_to_obj(c) for idx, c in F.nonzero_dict().items()},
    }


def curve_from_obj(obj: dict) -> TernaryCubic:
    try:
        spec = parse_field_literal(obj["field"])
        coeffs = {idx: element_from_obj(spec, v) for idx, v in obj["coeffs"].items()}
        return TernaryCubic.from_dict(spec, coeffs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad curve object: {exc}") from exc


def rep_to_obj(rep: detrep.LinearMatrixRep) -> dict:
    out = {"field": field_literal(rep.spec)}
    for name, m in zip(("m0", "m1", "m2"), rep.coefficient_matrices()):
        out[name] = [[element_to_obj(c) for c in row] for row in m]
    return out


def rep_from_obj(obj: dict) -> detrep.LinearMatrixRep:
    try:
        spec = parse_field_literal(obj["field"])
        ms = []
        for name in ("m0", "m1", "m2"):
            ms.append([[element_from_obj(spec, v) for v in row] for row in obj[name]])
        return detrep.LinearMatrixRep(spec, *ms)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad representation object: {exc}") from exc


def point_to_obj(P: ProjPoint) -> list:
    return [element_to_obj(c) for c in P.coords]


def witness_to_obj(w: detrep.EquivalenceWitness) -> dict:
    return {
        "a": [[element_to_obj(c) for c in row] for row in w.a.rows],
        "b": [[element_to_obj(c) for c in row] for row in w.b.rows],
    }


def parse_point(spec: FieldSpec, text: str) -> ProjPoint:
    """Parse 'x:y:z' with each coordinate an int or comma-joined coefficients."""
    parts = text.strip().lstrip("[").rstrip("]").split(":")
    if len(parts) != 3:
        raise ParseFailure(f"cannot read point from {text!r}")
    coords = []
    for part in parts:
        try:
            ints = [int(v) for v in part.split(",")]
        except ValueError as exc:
            raise ParseFailure(f"cannot read point coordinate {part!r}") from exc
        coords.append(spec.element(ints if len(ints) > 1 else ints[0]))
    try:
        return ProjPoint(spec, coords)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# text formatting


def format_matrix(rep: detrep.LinearMatrixRep, indent: str = "  ") -> str:
    cells = [[detrep.format_linear_form(rep.entry(i, j)) for j in range(3)]
             for i in range(3)]
    widths = [max(len(cells[i][j]) for i in range(3)) for j in range(3)]
    lines = []
    for i in range(3):
        row = "  ".join(cells[i][j].rjust(widths[j]) for j in range(3))
        lines.append(f"{indent}[ {row} ]")
    return "\n".join(lines)


def _ext(v):
    return "∞" if v is INFINITY else str(v)


# ---------------------------------------------------------------------------
# subcommands


def cmd_field(args) -> int:
    spec = parse_field_literal(args.field)
    if args.json:
        obj = {
            "p": spec.p, "m": spec.m, "q": spec.q,
            "modulus": list(spec.modulus),
            "elements": [element_to_obj(e) for e in spec.elements()],
        }
        print(json.dumps(obj))
        return EXIT_OK
    print(f"field F_{spec.q} = F_{spec.p}^{spec.m}")
    print(f"modulus: {poly_string(spec.modulus, 'x')}")
    print("elements:", ", ".join(repr(e) for e in spec.elements()))
    return EXIT_OK


def _smooth_curve_and_p0(args):
    """The curve of args.curve and the point --p0 (None without it), after
    checking that the curve is smooth and the point on it."""
    F = curve_from_obj(_load_json(args.curve))
    if not plane.is_smooth(F):
        raise plane.SingularInput("the curve is singular")
    p0 = parse_point(F.spec, args.p0) if args.p0 else None
    if p0 is not None and F.evaluate(p0):
        raise plane.NotOnCurve("--p0 is not on the curve")
    return F, p0


def cmd_points(args) -> int:
    F, p0 = _smooth_curve_and_p0(args)
    pts = plane.rational_points(F)
    annotated = []
    for P in pts:
        tags = []
        if plane.is_flex(F, P):
            tags.append("flex")
        if p0 is not None and P == p0:
            tags.append("base")
        annotated.append((P, tags))
    if args.json:
        obj = {
            "curve": curve_to_obj(F),
            "points": [{"point": point_to_obj(P), "flex": "flex" in t,
                        "base": "base" in t} for P, t in annotated],
        }
        print(json.dumps(obj))
        return EXIT_OK
    print(", ".join(repr(P) + ("".join(f" ({t})" for t in tags))
                    for P, tags in annotated))
    return EXIT_OK


def cmd_detrep(args) -> int:
    F, p0 = _smooth_curve_and_p0(args)
    reps = detrep.all_reps(F, p0)
    for _, rep, lam in reps:
        if detrep.is_ldr_of(rep, F) != lam:
            raise detrep.BrokenInvariant("self-verification failed before printing")
    if args.json:
        obj = {
            "curve": curve_to_obj(F),
            "representations": [
                {"point": point_to_obj(P), "rep": rep_to_obj(rep),
                 "lambda": element_to_obj(lam)}
                for P, rep, lam in reps
            ],
        }
        if args.witness:
            obj["witnesses"] = _pairwise_witnesses(reps, as_json=True)
        print(json.dumps(obj))
        return EXIT_OK
    if not reps:
        return EXIT_OK
    for P, rep, lam in reps:
        print(f"P = {P!r}, lambda = {lam!r}:")
        print(format_matrix(rep))
    if args.witness:
        for line in _pairwise_witnesses(reps, as_json=False):
            print(line)
    return EXIT_OK


def _pairwise_witnesses(reps, as_json: bool):
    out = []
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            w = detrep.equivalent(reps[i][1], reps[j][1])
            if as_json:
                out.append({
                    "pair": [i, j],
                    "equivalent": w is not None,
                    "witness": witness_to_obj(w) if w else None,
                })
            else:
                status = "equivalent" if w else "inequivalent"
                out.append(f"reps {i} and {j}: {status}"
                           + (f", witness {witness_to_obj(w)}" if w else ""))
    return out


def cmd_verify(args) -> int:
    F = curve_from_obj(_load_json(args.curve))
    rep = rep_from_obj(_load_json(args.rep))
    if rep.spec != F.spec:
        print("error: curve and representation fields differ", file=sys.stderr)
        return EXIT_PRECONDITION
    lam = detrep.is_ldr_of(rep, F)
    if lam is not None:
        if args.json:
            print(json.dumps({"lambda": element_to_obj(lam)}))
        else:
            print(f"lambda = {lam!r}")
        return EXIT_OK
    D = detrep.det_cubic(rep)
    print("verification failed: det(rep) is not proportional to the curve",
          file=sys.stderr)
    print(f"  det(rep) = {D!r}", file=sys.stderr)
    print(f"  curve    = {F!r}", file=sys.stderr)
    return EXIT_VERIFY


def cmd_classnum(args) -> int:
    try:
        h = counting.class_number_H(args.delta)
    except counting.BadDiscriminant as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.json:
        print(json.dumps({"delta": args.delta, "H": h}))
    else:
        print(h)
    return EXIT_OK


def cmd_count(args) -> int:
    if args.table is not None:
        return cmd_tables(argparse.Namespace(selector=str(args.table),
                                             json=args.json, csv=args.csv))
    if args.q is None or args.n is None:
        print("error: need --q and --n (or --table)", file=sys.stderr)
        return EXIT_PARSE
    if args.csv:
        print("error: --csv needs --table", file=sys.stderr)
        return EXIT_PARSE
    report = counting.cubics_with_points(args.q, args.n)
    if args.json:
        print(json.dumps(report.to_obj()))
        return EXIT_OK
    print(f"q = {report.q}, n = {report.n}")
    print(f"  #E = {report.e}, #E_3 = {report.e3}, #E_33 = {report.e33}")
    print(f"  t0 = {_ext(report.t0)}, t1 = {_ext(report.t1)}, eps = {report.eps}")
    print(f"  classes with {report.n} points: {report.total}")
    return EXIT_OK


def cmd_classify(args) -> int:
    try:
        cen = oracle.census(args.q)
    except oracle.TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    obj = cen.to_obj()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
    check = oracle.crosscheck(args.q, cen)
    verdict = "ok" if check.ok else f"MISMATCH {check.mismatches}"
    if args.json:
        print(json.dumps(obj))
        if not check.ok:
            print("formula crosscheck:", verdict, file=sys.stderr)
    else:
        print(f"q = {cen.q}: {cen.class_count} classes, "
              f"{cen.smooth_form_count} smooth forms up to scalar")
        for n in sorted(cen.histogram):
            print(f"  {cen.histogram[n]} class(es) with {n} point(s)")
        print("formula crosscheck:", verdict)
    return EXIT_OK if check.ok else EXIT_VERIFY


# -- tables -----------------------------------------------------------------

_CUB_FIELDS = (2, 3, 4, 5, 7)
_LARGE_FIELDS = (8, 9, 11, 13)


def _cub_grid():
    header = [""] + [f"F_{q}" for q in _CUB_FIELDS] + ["F_q (q >= 8)"]
    rows = [header]
    for n in (0, 1, 2):
        large = {counting.cub(q, n).total for q in _LARGE_FIELDS}
        if large != {0}:
            raise AssertionError(f"Cub_q({n}) is nonzero for some q >= 8")
        rows.append([f"Cub_q({n})"] + [str(counting.cub(q, n).total)
                                       for q in _CUB_FIELDS] + ["0"])
    return rows


def _ingredient_grids():
    head1 = [""] + [f"#E_q({n})" for n in (1, 2, 3)] + [f"#E_q3({n})" for n in (1, 2, 3)]
    grid1 = [head1]
    for q in _CUB_FIELDS:
        grid1.append([f"F_{q}"] + [str(counting.count_E(q, n)) for n in (1, 2, 3)]
                     + [str(counting.count_E3(q, n)) for n in (1, 2, 3)])
    head2 = ([""] + [f"#E_q33({n})" for n in (1, 2, 3)]
             + ["t0", "t1", "eps_q(q)", "eps_q(q-1)", "eps_q(q-2)"])
    grid2 = [head2]
    for q in _CUB_FIELDS:
        grid2.append([f"F_{q}"] + [str(counting.count_E33(q, n)) for n in (1, 2, 3)]
                     + [_ext(counting.t0(q)), _ext(counting.t1(q))]
                     + [str(counting.epsilon(q, q - k)) for k in (0, 1, 2)])
    return grid1, grid2


def _grid_text(grid) -> str:
    widths = [max(len(row[c]) for row in grid) for c in range(len(grid[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in grid)


def _grid_csv(grid) -> str:
    return "\n".join(",".join(row) for row in grid)


def _curve_table_rows(curves_by_q):
    """Recompute every displayed quantity for the given representative curves."""
    rows = []
    for q, curves in curves_by_q:
        for F in curves:
            pts = plane.rational_points(F)
            marked = [(P, plane.is_flex(F, P)) for P in pts]
            rows.append({"q": q, "curve": F, "points": marked,
                         "reps": detrep.all_reps(F)})
    return rows


def _sym_table_rows():
    rows = []
    for q, F in sorted(gallery.unique_rep_curves().items()):
        reps = detrep.all_reps(F)
        if len(reps) != 1:
            raise AssertionError(f"the unique-class curve over F_{q} has {len(reps)} reps")
        found = detrep.symmetrize(reps[0][1])
        if found is None:
            raise AssertionError("no symmetric shape found by row moves")
        _, sym = found
        if not detrep.is_symmetric(sym):
            raise AssertionError("symmetrize returned a non-symmetric shape")
        rows.append({"q": q, "curve": F, "points": [], "reps": [(reps[0][0], sym,
                     detrep.is_ldr_of(sym, F))]})
    return rows


_TWO_REP_TABLE_IDS = {"7": 2, "2ldr-2": 2, "2ldr-3": 3, "8": 4, "2ldr-4": 4,
                      "9": 5, "2ldr-5": 5, "10": 7, "2ldr-7": 7}


def _curve_rows_for_selector(selector: str):
    if selector in ("5", "0ldr"):
        return _curve_table_rows([(q, [F]) for q, F in
                                  sorted(gallery.no_rep_curves().items())])
    if selector in ("6", "1ldr"):
        return _curve_table_rows([(q, [F]) for q, F in
                                  sorted(gallery.unique_rep_curves().items())])
    if selector == "sym":
        return _sym_table_rows()
    q = _TWO_REP_TABLE_IDS[selector]
    return _curve_table_rows([(q, gallery.two_rep_curves()[q])])


def _curve_table_text(rows) -> str:
    out = []
    for row in rows:
        F = row["curve"]
        out.append(f"F_{row['q']}: {F!r}")
        if row["points"]:
            out.append("  points: " + ", ".join(
                repr(P) + (" (flex)" if fl else "")
                for P, fl in row["points"]))
            out.append(f"  representation classes: {len(row['reps'])}")
        for P, rep, lam in row["reps"]:
            out.append(f"  P = {P!r}, lambda = {lam!r}:")
            out.append(format_matrix(rep, indent="    "))
    return "\n".join(out)


def _curve_table_obj(rows) -> list:
    return [
        {
            "q": row["q"],
            "curve": curve_to_obj(row["curve"]),
            "points": [{"point": point_to_obj(P), "flex": fl}
                       for P, fl in row["points"]],
            "representations": [
                {"point": point_to_obj(P), "rep": rep_to_obj(rep),
                 "lambda": element_to_obj(lam)}
                for P, rep, lam in row["reps"]
            ],
        }
        for row in rows
    ]


def _curve_table_csv(rows) -> str:
    lines = ["q,curve,points,n_reps,matrices"]
    for row in rows:
        pts = " ".join(repr(P) + ("(flex)" if fl else "")
                       for P, fl in row["points"])
        mats = " | ".join(
            "; ".join(", ".join(detrep.format_linear_form(rep.entry(i, j))
                                for j in range(3)) for i in range(3))
            for _, rep, _ in row["reps"]
        )
        lines.append(f"{row['q']},\"{row['curve']!r}\",\"{pts}\","
                     f"{len(row['reps'])},\"{mats}\"")
    return "\n".join(lines)


def cmd_tables(args) -> int:
    sel = args.selector
    if sel in ("1", "2", "3"):
        grids = list(_ingredient_grids()) if sel == "3" else [_cub_grid()]
        if args.json:
            print(json.dumps(grids if sel == "3" else grids[0]))
        else:
            print("\n\n".join(map(_grid_csv if args.csv else _grid_text, grids)))
        return EXIT_OK
    # the parser's choices leave only the curve tables
    rows = _curve_rows_for_selector(sel)
    if args.json:
        print(json.dumps(_curve_table_obj(rows)))
    elif args.csv:
        print(_curve_table_csv(rows))
    else:
        print(_curve_table_text(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicrep",
        description="determinantal representations of plane cubics over small finite fields",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    with_csv = argparse.ArgumentParser(add_help=False, parents=[common])
    with_csv.add_argument("--csv", action="store_true", help="CSV output of a table")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", parents=[common], help="describe a finite field")
    p.add_argument("field", help='field literal, e.g. "7" or "2^2"')
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("points", parents=[common], help="list rational points with flex flags")
    p.add_argument("curve", help="curve JSON file")
    p.add_argument("--p0", help="mark a base point x:y:z")
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("detrep", parents=[common],
                       help="one representation per point other than the base point")
    p.add_argument("curve", help="curve JSON file")
    p.add_argument("--p0", help="base point x:y:z (default: first rational point)")
    p.add_argument("--witness", action="store_true",
                   help="also decide pairwise equivalence of the outputs")
    p.set_defaults(func=cmd_detrep)

    p = sub.add_parser("verify", parents=[common],
                       help="check det(rep) = lambda * curve and print lambda")
    p.add_argument("curve", help="curve JSON file")
    p.add_argument("rep", help="representation JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classnum", parents=[common], help="Kronecker class number H(delta)")
    p.add_argument("delta", type=int)
    p.set_defaults(func=cmd_classnum)

    p = sub.add_parser("count", parents=[with_csv], help="counting-formula report")
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--table", type=int, choices=(1, 2, 3),
                   help="render a whole summary table instead")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("classify", parents=[common],
                       help="census of smooth cubics by projective equivalence")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", help="write census JSON here")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tables", parents=[with_csv], help="render a summary table")
    p.add_argument("selector",
                   choices=sorted({"1", "2", "3", "5", "6", "7", "8", "9", "10",
                                   "sym", "0ldr", "1ldr", "2ldr-2", "2ldr-3",
                                   "2ldr-4", "2ldr-5", "2ldr-7"}))
    p.set_defaults(func=cmd_tables)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PlaneError, detrep.DetRepError, counting.CountingError,
            oracle.TooLarge, FieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
