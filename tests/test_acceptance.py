"""Acceptance gate: one test per criterion, each printing a PASS line with
its runtime (run with -s or -rA to see them)."""

import json
import random
import time

import golden
import test_counting as counting_helpers
import test_detrep as detrep_helpers
from cubicrep import cli
from cubicrep.counting import (
    class_number_H,
    count_E,
    count_E3,
    count_E33,
    cub,
    epsilon,
    t0,
    t1,
)
from cubicrep.detrep import (
    all_reps,
    equivalent,
    galinat_rep,
    hesse_cubic,
    is_ldr_of,
    is_symmetric,
    moore_rep,
    transform_rep,
    weierstrass_cubic,
)
from cubicrep.gf import mk_field
from cubicrep.oracle import census, crosscheck
from cubicrep.plane import (
    LinearTransform,
    is_normalized,
    is_smooth,
    rational_points,
)

SMALL_FIELDS = (2, 3, 4, 5, 7)
LARGE_FIELDS = (8, 9, 11, 13)


def _finish(num, desc, t_start, limit):
    elapsed = time.time() - t_start
    print(f"ACCEPTANCE {num} PASS ({elapsed:.2f}s, limit {limit}s): {desc}")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def test_criterion_1_cub_grid():
    start = time.time()
    expected = {0: (1, 1, 1, 0, 0), 1: (1, 1, 1, 1, 0), 2: (2, 2, 4, 2, 2)}
    for n, values in expected.items():
        for q, want in zip(SMALL_FIELDS, values):
            assert cub(q, n).total == want, (q, n)
        for q in LARGE_FIELDS:
            assert cub(q, n).total == 0, (q, n)
    _finish(1, "class-count grid over F_2..F_7 and zero beyond", start, 1)


def test_criterion_2_ingredient_table(capsys):
    start = time.time()
    for q, (es, e3s, e33s, tt0, tt1, epss) in counting_helpers.INGREDIENTS.items():
        assert tuple(count_E(q, n) for n in (1, 2, 3)) == es
        assert tuple(count_E3(q, n) for n in (1, 2, 3)) == e3s
        assert tuple(count_E33(q, n) for n in (1, 2, 3)) == e33s
        assert t0(q) == tt0 and t1(q) == tt1
        assert tuple(epsilon(q, q - k) for k in (0, 1, 2)) == epss
    assert cli.main(["tables", "3"]) == 0
    text = capsys.readouterr().out
    assert text.count("∞") == 7  # the seven infinite trace cells
    _finish(2, "all ingredient cells incl. infinity rendering", start, 1)


def test_criterion_3_formula_byte_exactness():
    start = time.time()
    checked = 0
    for row in golden.all_matrix_rows():
        F = golden.row_curve(row)
        assert is_normalized(F)
        computed = all_reps(F, golden.point(row["q"], (1, 0, 0)))
        assert [rep for _, rep, _ in computed] == golden.row_matrices(row)
        checked += len(computed)
    assert checked == 28
    _finish(3, f"{checked} golden matrices reproduced entrywise", start, 1)


def test_criterion_4_determinant_identity_sweep(census_reps):
    start = time.time() - census_reps["build_seconds"]
    n_reps = 0
    for q in (2, 3):
        for F, reps in census_reps[q]:
            for P, rep, lam in reps:
                assert lam and is_ldr_of(rep, F) == lam
                n_reps += 1
            if is_normalized(F):
                for P, rep, lam in reps:
                    if P.z:
                        assert lam == -(P.z ** 3)
                    else:
                        assert lam == F.coeff("011")
    _finish(4, f"det = lambda * F for {n_reps} representations "
               "(exact lambda on normal forms)", start, 120)


def test_criterion_5_class_count_realization(census_reps, monkeypatch):
    # on a smooth det the certificate decides every pair with one candidate
    detrep_helpers.one_candidate_sweep(monkeypatch)
    start = time.time()
    n_pairs = 0
    for q in (2, 3):
        for F, reps in census_reps[q]:
            assert len(reps) == len(rational_points(F)) - 1
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    assert equivalent(reps[i][1], reps[j][1]) is None
                    n_pairs += 1
    _finish(5, f"class counts realized; {n_pairs} pairs proven inequivalent",
            start, 600)


def test_criterion_6_oracle_agreement():
    start = time.time()
    t2 = time.time()
    c2 = census(2)
    t2 = time.time() - t2
    assert t2 < 5
    t3 = time.time()
    c3 = census(3)
    t3 = time.time() - t3
    assert t3 < 300
    for q, cen in ((2, c2), (3, c3)):
        report = crosscheck(q, cen)
        assert report.ok, report.mismatches
        assert cen.class_count == sum(r.formula_classes for r in report.rows)
    _finish(6, f"census(2) in {t2:.2f}s and census(3) in {t3:.2f}s match the "
               "formulas cell for cell", start, 310)


def test_criterion_7_golden_matrices(tmp_path, capsys):
    start = time.time()
    n = 0
    for row in golden.all_matrix_rows():
        cpath = tmp_path / f"curve{n}.json"
        cpath.write_text(json.dumps(cli.curve_to_obj(golden.row_curve(row))))
        for rep in golden.row_matrices(row):
            rpath = tmp_path / f"rep{n}.json"
            rpath.write_text(json.dumps(cli.rep_to_obj(rep)))
            assert cli.main(["verify", str(cpath), str(rpath)]) == 0
            capsys.readouterr()
            n += 1
    for row in golden.UNIQUE_REP_ROWS:
        cpath = tmp_path / f"scurve{n}.json"
        cpath.write_text(json.dumps(cli.curve_to_obj(golden.row_curve(row))))
        sym = golden.row_sym_matrix(row)
        assert is_symmetric(sym)
        rpath = tmp_path / f"srep{n}.json"
        rpath.write_text(json.dumps(cli.rep_to_obj(sym)))
        assert cli.main(["verify", str(cpath), str(rpath)]) == 0
        capsys.readouterr()
        n += 1
    assert n == 32
    # the recorded row transformation over F_2, confirmed by re-multiplication
    spec = golden.SPECS[2]
    A = LinearTransform(spec, golden.SYM_TRANSFORM_A_F2)
    M = golden.row_matrices(golden.UNIQUE_REP_ROWS[0])[0]
    assert transform_rep(A, M, LinearTransform.identity(spec)) \
        == golden.row_sym_matrix(golden.UNIQUE_REP_ROWS[0])
    _finish(7, f"{n} golden matrices verified via the CLI "
               "plus the symmetrizing transformation", start, 1)


def test_criterion_8_class_number_oracle():
    start = time.time()
    n = 0
    for disc in range(-200, -2):
        if disc % 4 not in (0, 1):
            continue
        assert class_number_H(disc) == counting_helpers._class_number_oracle(disc)
        n += 1
    _finish(8, f"H agrees with the reduction oracle on {n} discriminants",
            start, 5)


def _galinat_instances(q, rng, count):
    spec = mk_field(q, 1)
    elems = list(spec.elements())
    out = []
    while len(out) < count:
        a = elems[rng.randrange(q)]
        b = elems[rng.randrange(q)]
        if not (a * a * a * 4 + b * b * 27):
            continue
        W = weierstrass_cubic(a, b)
        affine = [P for P in rational_points(W) if P.z]
        if not affine:
            continue
        P = affine[rng.randrange(len(affine))]
        out.append((W, galinat_rep(a, b, P)))
    return out


def _moore_instances(q, rng, count):
    spec = mk_field(q, 1)
    elems = list(spec.elements())
    out = []
    usable = []
    for h in elems:
        H = hesse_cubic(h)
        if not is_smooth(H):
            continue
        pts = [P for P in rational_points(H) if all(c for c in P.coords)]
        usable.extend((h, H, P) for P in pts)
    rng.shuffle(usable)
    for h, H, P in usable[:count]:
        out.append((H, moore_rep(h, P)))
    return out


def test_criterion_9_alternative_shapes():
    start = time.time()
    rng = random.Random(20240817)
    instances = []
    equiv_pool = []
    for q in (5, 7, 11, 13):
        gal = _galinat_instances(q, rng, 10)
        moo = _moore_instances(q, rng, 8)
        instances.extend(gal + moo)
        if q <= 7:
            equiv_pool.extend(gal[:6] + moo[:4])
    assert len(instances) >= 50
    for F, rep in instances:
        assert is_ldr_of(rep, F) is not None
    for F, rep in equiv_pool:
        members = all_reps(F)
        hits = [1 for _, m, _ in members if equivalent(rep, m) is not None]
        assert sum(hits) == 1
    _finish(9, f"{len(instances)} Weierstrass/Hesse-shape instances verified; "
               f"{len(equiv_pool)} matched to their class", start, 300)
