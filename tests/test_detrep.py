import hashlib
import random
import time
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

import golden
import object_reference
from cubicrep import _tables
from cubicrep.detrep import (
    BadCharacteristic,
    IsBasePoint,
    LinearMatrixRep,
    NotNormalized,
    SingularCurve,
    WrongCase,
    ZeroCoordinate,
    all_reps,
    det_cubic,
    equivalent,
    galinat_rep,
    hesse_cubic,
    is_ldr_of,
    is_symmetric,
    moore_rep,
    mp_case1,
    mp_case2,
    symmetrize,
    transform_rep,
    weierstrass_cubic,
)
from cubicrep.gf import mk_field
from cubicrep.plane import (
    LinearTransform,
    NotOnCurve,
    ProjPoint,
    SingularInput,
    TernaryCubic,
    is_flex,
    is_normalized,
    is_smooth,
    normalize,
    rational_points,
)

F2 = mk_field(2, 1)
F5 = mk_field(5, 1)
F7 = mk_field(7, 1)


def zero_rep(spec):
    z = [[0] * 3 for _ in range(3)]
    return LinearMatrixRep(spec, z, z, z)


def test_det_cubic_identity_in_x():
    ident = LinearMatrixRep(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                            [[0] * 3] * 3, [[0] * 3] * 3)
    assert det_cubic(ident) == TernaryCubic.from_dict(F2, {"000": 1})


def test_det_cubic_golden_pair():
    row = golden.UNIQUE_REP_ROWS[0]
    M = golden.row_matrices(row)[0]
    assert det_cubic(M) == golden.row_curve(row)


def test_det_cubic_zero_rep():
    assert det_cubic(zero_rep(F2)) is None


def test_is_ldr_of_examples():
    row = golden.UNIQUE_REP_ROWS[0]
    F = golden.row_curve(row)
    assert is_ldr_of(golden.row_matrices(row)[0], F) == 1
    assert is_ldr_of(zero_rep(F2), F) is None
    # the constructor refuses the zero form; one built around that check
    # still gets None, not an error
    zero_form = object.__new__(TernaryCubic)
    zero_form.spec, zero_form.coeffs, zero_form.idx = F.spec, (F.spec.zero(),) * 10, (0,) * 10
    assert is_ldr_of(golden.row_matrices(row)[0], zero_form) is None
    assert is_ldr_of(zero_rep(F2), zero_form) is None


def test_mp_case1_lambda_is_minus_u_cubed():
    Fn = golden.curve(7, {"002": 1, "011": 1, "122": 3})
    P = ProjPoint(F7, (0, 0, 1))
    rep = mp_case1(Fn, P)
    assert is_ldr_of(rep, Fn) == F7.element(-1)


def test_mp_case1_examples_byte_exact():
    # the second golden matrix of each three-coordinate-point curve
    for q, idx in ((2, 0), (7, 0)):
        row = golden.TWO_REP_ROWS[q][idx]
        Fn = golden.row_curve(row)
        P = golden.point(q, (0, 0, 1))
        assert mp_case1(Fn, P) == golden.row_matrices(row)[1]


def test_mp_case1_flex_curve_f2():
    row = golden.TWO_REP_ROWS[2][1]
    Fn = golden.row_curve(row)
    rep = mp_case1(Fn, ProjPoint(F2, (1, 0, 1)))
    assert is_ldr_of(rep, Fn) == 1  # -u^3 = 1 over F_2
    assert rep == golden.row_matrices(row)[0]
    other = golden.row_matrices(row)[0]
    assert equivalent(rep, other) is not None


def test_mp_case1_errors():
    row = golden.TWO_REP_ROWS[2][0]
    Fn = golden.row_curve(row)
    with pytest.raises(WrongCase):
        mp_case1(Fn, ProjPoint(F2, (0, 1, 0)))
    with pytest.raises(IsBasePoint):
        mp_case1(Fn, ProjPoint(F2, (1, 0, 0)))
    with pytest.raises(NotOnCurve):
        mp_case1(Fn, ProjPoint(F2, (1, 1, 1)))
    not_norm = TernaryCubic.from_dict(F2, {"000": 1, "111": 1, "222": 1})
    with pytest.raises(NotNormalized):
        mp_case1(not_norm, ProjPoint(F2, (0, 0, 1)))


def test_mp_case2_examples_byte_exact():
    for q in (2, 4, 5):
        row = golden.TWO_REP_ROWS[q][0]
        Fn = golden.row_curve(row)
        P = golden.point(q, (0, 1, 0))
        assert mp_case2(Fn, P) == golden.row_matrices(row)[0]


def test_mp_case2_lambda_is_a011():
    row = golden.TWO_REP_ROWS[5][0]
    Fn = golden.row_curve(row)
    rep = mp_case2(Fn, ProjPoint(F5, (0, 1, 0)))
    assert is_ldr_of(rep, Fn) == Fn.coeff("011")


def test_mp_case2_errors():
    row = golden.TWO_REP_ROWS[2][0]
    Fn = golden.row_curve(row)
    with pytest.raises(WrongCase):
        mp_case2(Fn, ProjPoint(F2, (0, 0, 1)))
    with pytest.raises(IsBasePoint):
        mp_case2(Fn, ProjPoint(F2, (1, 0, 0)))


def test_all_reps_counts_match_tables():
    no_rep = golden.row_curve(golden.NO_REP_ROWS[0])
    assert all_reps(no_rep) == []
    unique = golden.row_curve(golden.UNIQUE_REP_ROWS[0])
    reps = all_reps(unique, ProjPoint(F2, (1, 0, 0)))
    assert [P for P, _, _ in reps] == [ProjPoint(F2, (0, 0, 1))]
    two = golden.row_curve(golden.TWO_REP_ROWS[2][0])
    reps2 = all_reps(two, ProjPoint(F2, (1, 0, 0)))
    assert [P for P, _, _ in reps2] == [ProjPoint(F2, (0, 1, 0)),
                                        ProjPoint(F2, (0, 0, 1))]


def test_all_reps_rejects_singular():
    with pytest.raises(SingularInput):
        all_reps(TernaryCubic.from_dict(F2, {"000": 1}))


def test_equivalent_reflexive_identity_witness():
    row = golden.UNIQUE_REP_ROWS[0]
    M = golden.row_matrices(row)[0]
    w = equivalent(M, M)
    ident = LinearTransform.identity(F2)
    assert w.a == ident and w.b == ident


def test_published_left_transformation():
    row = golden.UNIQUE_REP_ROWS[0]
    M = golden.row_matrices(row)[0]
    sym = golden.row_sym_matrix(row)
    A = LinearTransform(F2, golden.SYM_TRANSFORM_A_F2)
    assert transform_rep(A, M, LinearTransform.identity(F2)) == sym


def test_golden_pair_inequivalent():
    row = golden.TWO_REP_ROWS[2][0]
    m1, m2 = golden.row_matrices(row)
    assert equivalent(m1, m2) is None


def test_equivalent_symmetry_of_witnesses():
    # a nontrivial equivalent pair: a golden matrix vs a transformed copy
    row = golden.TWO_REP_ROWS[3][0]
    spec = golden.SPECS[3]
    m1 = golden.row_matrices(row)[0]
    A = LinearTransform(spec, [[1, 2, 0], [0, 1, 0], [1, 0, 1]])
    B = LinearTransform(spec, [[1, 0, 1], [0, 2, 0], [0, 0, 1]])
    m2 = transform_rep(A, m1, B)
    w = equivalent(m1, m2)
    assert w is not None and w.verify(m1, m2)
    back = w.inverse()
    assert back.verify(m2, m1)


def test_equivalent_rejects_unrelated():
    m1 = golden.row_matrices(golden.TWO_REP_ROWS[2][0])[0]
    m2 = zero_rep(F2)
    assert equivalent(m1, m2) is None


def test_golden_matrices_all_valid_and_classified():
    for row in golden.all_matrix_rows():
        F = golden.row_curve(row)
        expected = golden.row_matrices(row)
        computed = all_reps(F, golden.point(row["q"], (1, 0, 0)))
        assert len(computed) == len(expected)
        for M in expected:
            assert is_ldr_of(M, F) is not None
            hits = [i for i, (_, rep, _) in enumerate(computed)
                    if equivalent(M, rep) is not None]
            assert len(hits) == 1, (row["q"], row["coeffs"])


def test_golden_matrices_byte_exact_from_formulas():
    for row in golden.all_matrix_rows():
        F = golden.row_curve(row)
        computed = all_reps(F, golden.point(row["q"], (1, 0, 0)))
        assert [rep for _, rep, _ in computed] == golden.row_matrices(row)


def test_sym_matrices_symmetric_valid_equivalent():
    for row in golden.UNIQUE_REP_ROWS:
        F = golden.row_curve(row)
        sym = golden.row_sym_matrix(row)
        assert is_symmetric(sym)
        assert is_ldr_of(sym, F) is not None
        reps = all_reps(F)
        assert len(reps) == 1
        assert equivalent(sym, reps[0][1]) is not None


def test_symmetrize_finds_symmetric_shape():
    for row in golden.UNIQUE_REP_ROWS:
        F = golden.row_curve(row)
        reps = all_reps(F)
        found = symmetrize(reps[0][1])
        assert found is not None
        w, sym = found
        assert is_symmetric(sym)
        assert w.b == LinearTransform.identity(F.spec)
        assert transform_rep(w.a, reps[0][1], w.b) == sym
        assert is_ldr_of(sym, F) is not None


def test_is_symmetric_examples():
    row = golden.UNIQUE_REP_ROWS[0]
    assert is_symmetric(golden.row_sym_matrix(row))
    assert not is_symmetric(golden.row_matrices(row)[0])
    assert is_symmetric(zero_rep(F2))


def test_galinat_examples():
    # y^2 = x^3 + 2 over F_5: scan for an affine point
    a, b = F5.element(0), F5.element(2)
    W = weierstrass_cubic(a, b)
    pts = [P for P in rational_points(W) if P.z]
    assert pts
    rep = galinat_rep(a, b, pts[0])
    assert is_ldr_of(rep, W) is not None
    # (0, 0) lies on y^2 = x^3 + x over F_7
    a7, b7 = F7.element(1), F7.element(0)
    rep7 = galinat_rep(a7, b7, ProjPoint(F7, (0, 0, 1)))
    assert is_ldr_of(rep7, weierstrass_cubic(a7, b7)) == 1


def test_galinat_errors():
    f3 = mk_field(3, 1)
    with pytest.raises(BadCharacteristic):
        galinat_rep(F2.one(), F2.one(), ProjPoint(F2, (0, 1, 0)))
    with pytest.raises(BadCharacteristic):
        galinat_rep(f3.one(), f3.one(), ProjPoint(f3, (0, 1, 0)))
    with pytest.raises(SingularCurve):
        galinat_rep(F5.element(0), F5.element(0), ProjPoint(F5, (0, 0, 1)))
    with pytest.raises(NotOnCurve):
        galinat_rep(F5.element(0), F5.element(2), ProjPoint(F5, (1, 1, 1)))


def test_moore_example_f5():
    h = F5.element(0)
    H = hesse_cubic(h)
    P = ProjPoint(F5, (1, 3, 3))
    rep = moore_rep(h, P)
    # circulant-like shape: det = a0*a1*a2 * form
    assert is_ldr_of(rep, H) == F5.element(9)
    assert rep.entry(0, 0) == (P.x, F5.zero(), F5.zero())
    assert rep.entry(0, 1) == (F5.zero(), F5.zero(), P.y)
    assert rep.entry(0, 2) == (F5.zero(), P.z, F5.zero())


def test_moore_errors():
    with pytest.raises(ZeroCoordinate):
        moore_rep(F5.element(0), ProjPoint(F5, (0, 1, 4)))
    # requiring [1:1:1] on the pencil forces 3 + h = 0, a singular member
    with pytest.raises(SingularCurve):
        moore_rep(F5.element(2), ProjPoint(F5, (1, 1, 1)))
    with pytest.raises(NotOnCurve):
        moore_rep(F5.element(0), ProjPoint(F5, (1, 1, 1)))


def test_base_point_independence_of_class_count_f2(census_forms):
    rng = random.Random(5)
    forms = census_forms[2]
    for F in forms:
        pts = rational_points(F)
        expected = len(pts) - 1
        assert len(all_reps(F)) == expected
        if len(pts) >= 2:
            alt = pts[rng.randrange(1, len(pts))]
            assert len(all_reps(F, alt)) == expected


def _random_smooth_curves(spec, rng, count):
    out = []
    while len(out) < count:
        coeffs = [rng.randrange(spec.q) for _ in range(10)]
        if not any(coeffs):
            continue
        elems = list(spec.elements())
        F = TernaryCubic(spec, [elems[c] for c in coeffs])
        if is_smooth(F):
            out.append(F)
    return out


@pytest.mark.parametrize("q", [4, 5, 7])
def test_determinant_identity_random_sample(q):
    spec = mk_field(2, 2) if q == 4 else mk_field(q, 1)
    rng = random.Random(1000 + q)
    for F in _random_smooth_curves(spec, rng, 200):
        pts = rational_points(F)
        reps = all_reps(F)
        assert len(reps) == len(pts) - 1
        for P, rep, lam in reps:
            assert lam and is_ldr_of(rep, F) == lam
        T, Fn = __import__("cubicrep").plane.normalize(F, pts[0])
        assert is_normalized(Fn)


# -- the index construction of all_reps against the object reference ---------


def test_index_construction_matches_objects_on_census(census_reps):
    for q in (2, 3):
        for k, (F, reps) in enumerate(census_reps[q]):
            assert reps == object_reference.all_reps(F), (q, F)
            pts = rational_points(F)
            if k % 25 == 0 and len(pts) > 1:  # a non-default base point
                assert all_reps(F, pts[-1]) == object_reference.all_reps(F, pts[-1]), (q, F)


@pytest.mark.parametrize("p, m, count", [(2, 2, 12), (2, 3, 12), (3, 2, 12),
                                         (2, 6, 4), (31, 1, 6), (101, 1, 4),
                                         pytest.param(257, 1, 2, marks=pytest.mark.slow)])
def test_index_construction_matches_objects_on_seeded_curves(p, m, count):
    spec = mk_field(p, m)
    rng = random.Random(7000 + spec.q)
    for F in _random_smooth_curves(spec, rng, count):
        pts = rational_points(F)
        assert all_reps(F) == object_reference.all_reps(F)
        p0 = pts[rng.randrange(1, len(pts))]
        assert all_reps(F, p0) == object_reference.all_reps(F, p0)


_NORMALIZE_FIELDS = [(2, 1, 8), (3, 1, 8), (2, 2, 8), (5, 1, 8), (7, 1, 6), (2, 3, 6),
                     (3, 2, 6), (31, 1, 4), (2, 6, 3), (101, 1, 3),
                     pytest.param(257, 1, 2, marks=pytest.mark.slow)]


@pytest.mark.parametrize("p, m, count", _NORMALIZE_FIELDS)
def test_normalize_and_act_match_objects_on_seeded_curves(p, m, count):
    from cubicrep.plane import act, normalize

    spec = mk_field(p, m)
    rng = random.Random(7300 + spec.q)
    for F in _random_smooth_curves(spec, rng, count):
        pts = rational_points(F)
        # every base point on small fields, the default and a random one past
        p0s = pts if spec.q <= 9 else [pts[0], rng.choice(pts)]
        for p0 in p0s:
            assert normalize(F, p0) == object_reference.normalize(F, p0), (F, p0)
        T = _random_transform(spec, rng)
        assert act(T, F) == object_reference.act(T, F)
        assert T.inverse() == object_reference.inverse(T)


def test_mp_cases_match_objects_on_seeded_curves():
    from cubicrep.plane import normalize

    for spec in (mk_field(2, 3), mk_field(3, 2), mk_field(13, 1)):
        rng = random.Random(7100 + spec.q)
        for F in _random_smooth_curves(spec, rng, 6):
            _, Fn = normalize(F, rational_points(F)[0])
            for P in rational_points(Fn)[1:]:
                if P.z:
                    rep = object_reference.mp_case1(Fn, P)
                    assert mp_case1(Fn, P) == rep
                    assert object_reference.is_ldr_of(rep, Fn) == -(P.z ** 3)
                else:
                    rep = object_reference.mp_case2(Fn, P)
                    assert mp_case2(Fn, P) == rep
                    assert object_reference.is_ldr_of(rep, Fn) == Fn.coeff("011")


@pytest.mark.parametrize("kernel, message", [
    ("_det_case1_idx", "determinant identity det = -u\\^3 \\* F failed"),
    ("det_cubic_idx", "pullback lost the determinant identity"),
], ids=["normal-form", "pullback"])
def test_all_reps_checks_both_identities(monkeypatch, kernel, message):
    # the first point all_reps builds lies off the tangent line (case 1):
    # _det_case1_idx checks det(rep_n) = -u^3 * Fn for it, and the first call
    # of det_cubic_idx det(rep) = lam * F for its pullback
    from cubicrep import detrep
    from cubicrep.detrep import BrokenInvariant
    from cubicrep.plane import normalize

    F = _random_smooth_curves(F7, random.Random(7200), 1)[0]
    pts = rational_points(F)
    T, _ = normalize(F, pts[0])
    assert ProjPoint(F7, T.inverse().apply_coords(pts[1].coords)).z
    sf = _tables.scalar_field(F7)
    module = detrep if kernel == "_det_case1_idx" else _tables
    real = getattr(module, kernel)
    calls = []

    def perturbed(m_idx, sf_):
        out = list(real(m_idx, sf_))
        calls.append(m_idx)
        if len(calls) == 1:
            out[0] = sf.add[out[0]][1]
        return out

    monkeypatch.setattr(module, kernel, perturbed)
    with pytest.raises(BrokenInvariant, match=message):
        all_reps(F)
    assert len(calls) == 1


@pytest.mark.parametrize("p", [_tables.ARRAY_Q, 67, 101, 251, 257, 1021])
def test_array_all_reps_matches_the_table_path(monkeypatch, p):
    # from ARRAY_Q up, all_reps builds the case-1 reps of a prime field on
    # int64 arrays; the table path is the reference, with the default p0
    # and with a later one that is no flex, so that the third point of its
    # tangent is a case-2 point among the rest.  Under 1 s in all
    spec = mk_field(p, 1)
    sf = _tables.scalar_field(spec)
    assert sf.on_arrays
    for F in _random_smooth_curves(spec, random.Random(7400 + p), 2):
        p0 = next(P for P in rational_points(F)[1:] if not is_flex(F, P))
        for base in (None, p0):
            got = all_reps(F, base)
            with monkeypatch.context() as m:
                m.setattr(sf, "on_arrays", False)
                assert all_reps(F, base) == got
            assert all(type(c) is int for _, rep, _ in got
                       for row in rep.idx for entry in row for c in entry)


@pytest.mark.parametrize("check, message", [
    (1, "is not on the curve"),
    (2, "determinant identity det = -u\\^3 \\* F failed"),
    (3, "pullback lost the determinant identity"),
])
def test_array_all_reps_checks_raise_todays_errors(monkeypatch, check, message):
    # each check of a case-1 rep on arrays fails with the error of the table
    # path when its input is perturbed: 1, the normal form the points are
    # tested on; 2, the normal-form determinant; 3, the pulled-back one.  The
    # first point after the base point lies off the tangent line (case 1)
    from cubicrep import _bulk, detrep
    from cubicrep.detrep import BrokenInvariant

    spec = mk_field(101, 1)
    F = _random_smooth_curves(spec, random.Random(7500), 1)[0]
    pts = rational_points(F)
    T, _ = normalize(F, pts[0])
    assert ProjPoint(spec, T.inverse().apply_coords(pts[1].coords)).z
    if check == 1:
        real = detrep._normalize_idx

        def perturbed(pt, f, p0):
            t, fn = real(pt, f, p0)
            return t, fn[:9] + [(fn[9] + 1) % 101]

        monkeypatch.setattr(detrep, "_normalize_idx", perturbed)
    else:
        real = getattr(_bulk, ("_det_case1", "_det_cubic")[check - 2])

        def perturbed(p, m):
            out = real(p, m)
            out[:, 9] = (out[:, 9] + 1) % p
            return out

        monkeypatch.setattr(_bulk, real.__name__, perturbed)
    error = NotOnCurve if check == 1 else BrokenInvariant
    with pytest.raises(error, match=message) as on_arrays:
        all_reps(F)
    if check == 1:
        monkeypatch.setattr(_tables.scalar_field(spec), "on_arrays", False)
        with pytest.raises(error) as on_tables:
            all_reps(F)
        assert str(on_arrays.value) == str(on_tables.value)


def test_mp_cases_check_the_identity_on_tables(monkeypatch):
    # case 1 checks its identity on _det_case1_idx, case 2 on det_cubic_idx
    from cubicrep import detrep
    from cubicrep.detrep import BrokenInvariant

    sf = _tables.scalar_field(F5)

    def perturb(module, kernel):
        real = getattr(module, kernel)

        def perturbed(m_idx, sf_):
            out = list(real(m_idx, sf_))
            out[9] = sf.add[out[9]][1]
            return out

        monkeypatch.setattr(module, kernel, perturbed)

    row = golden.TWO_REP_ROWS[5][0]
    Fn = golden.row_curve(row)
    P2 = golden.point(5, (0, 1, 0))
    P1 = next(P for P in rational_points(Fn) if P.z)
    perturb(_tables, "det_cubic_idx")
    with pytest.raises(BrokenInvariant, match="a011"):
        mp_case2(Fn, P2)
    mp_case1(Fn, P1)
    perturb(detrep, "_det_case1_idx")
    with pytest.raises(BrokenInvariant, match="-u\\^3"):
        mp_case1(Fn, P1)


@pytest.mark.parametrize("p, m, count", [(2, 1, 6), (3, 1, 6), (2, 2, 6), (5, 1, 6),
                                         (3, 2, 4), (31, 1, 3), (2, 6, 2), (101, 1, 2),
                                         (257, 1, 1), (3, 6, 1)])
def test_case1_determinant_matches_the_cofactor_kernel(p, m, count):
    # _det_case1_idx reads only the slots _mp_idx fills for a point with u != 0;
    # det_cubic_idx expands the whole matrix.  F_257 and F_729 lie past
    # MAX_TABLE_Q, and F_729 adds by Zech logarithms
    from cubicrep.detrep import _det_case1_idx, _mp_idx
    from cubicrep.plane import _normalize_idx

    spec = mk_field(p, m)
    rng = random.Random(7500 + spec.q)
    pt = _tables.plane_tables(spec)
    sf = pt.sf
    checked = 0
    for F in _random_smooth_curves(spec, rng, count):
        f = F.idx
        zeros = pt.zeros(f)
        p0 = pt.point(zeros[rng.randrange(len(zeros))])
        _, fn = _normalize_idx(pt, f, p0)
        for s, t, u in map(pt.point, pt.zeros(fn)):
            if u:
                m_idx = _mp_idx(fn, s, t, u, sf)
                assert _det_case1_idx(m_idx, sf) == _tables.det_cubic_idx(m_idx, sf), \
                    (F, p0, (s, t, u))
                checked += 1
    assert checked


def test_exhaustive_scan_agrees_with_certificate():
    from cubicrep.detrep import _kernel_certificate

    # equivalent pair over F_3, through the raw GL_3 scan of the reference
    spec = golden.SPECS[3]
    m1 = golden.row_matrices(golden.TWO_REP_ROWS[3][0])[0]
    A = LinearTransform(spec, [[1, 0, 2], [0, 1, 0], [0, 2, 1]])
    B = LinearTransform(spec, [[2, 0, 0], [1, 1, 0], [0, 0, 1]])
    m2 = transform_rep(A, m1, B)
    for w in (object_reference.exhaustive_scan(m1, m2), _kernel_certificate(m1, m2)):
        assert w is not None and w.verify(m1, m2)
    # inequivalent golden pair over F_2: the scan must exhaust and refuse
    n1, n2 = golden.row_matrices(golden.TWO_REP_ROWS[2][0])
    assert object_reference.exhaustive_scan(n1, n2) is None
    assert _kernel_certificate(n1, n2) is None


def _record_sweeps(monkeypatch):
    """The number of candidates each sweep tries from now on, in call order."""
    from cubicrep import detrep

    tried = []
    real = detrep._sweep

    def recording(basis, sf, complete):
        tried.append(0)

        def counted(vec):
            tried[-1] += 1
            return complete(vec)

        return real(basis, sf, counted)

    monkeypatch.setattr(detrep, "_sweep", recording)
    return tried


def one_candidate_sweep(monkeypatch):
    """Make every sweep raise when its solution space has dimension 2 or
    more or when it tries a second candidate: what the single linear solve
    decides for a smooth det."""
    from cubicrep import detrep

    real = detrep._sweep

    def one_candidate(basis, sf, complete):
        if len(basis) >= 2:
            raise AssertionError(f"a {len(basis)}-dimensional solution space")
        tried = []

        def once(vec):
            tried.append(vec)
            if len(tried) > 1:
                raise AssertionError("the sweep tried a second candidate")
            return complete(vec)

        return real(basis, sf, once)

    monkeypatch.setattr(detrep, "_sweep", one_candidate)


def test_budget_exceeded_on_degenerate_input(monkeypatch):
    from cubicrep import detrep
    from cubicrep.detrep import BudgetExceeded

    # det = XYZ is a singular cubic, so the kernel certificate cannot run
    diag = LinearMatrixRep(
        F2,
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    )
    A = LinearTransform(F2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    moved = transform_rep(A, diag, LinearTransform.identity(F2))
    tried = _record_sweeps(monkeypatch)
    w = equivalent(diag, moved)
    assert w is not None and w.verify(diag, moved)
    # the sweep needed tried[0] candidates; one fewer gives up
    assert tried[0] > 1
    monkeypatch.setattr(detrep, "SWEEP_BUDGET", tried[0] - 1)
    with pytest.raises(BudgetExceeded, match=f"after {tried[0] - 1} "):
        equivalent(diag, moved)


def test_symmetrize_gives_up_past_the_budget(monkeypatch):
    from cubicrep import detrep
    from cubicrep.detrep import BudgetExceeded

    # every A solves the system for the zero pencil: a 9-dimensional space,
    # whose first invertible line (the anti-diagonal) is candidate 22 059
    monkeypatch.setattr(detrep, "SWEEP_BUDGET", 1000)
    with pytest.raises(BudgetExceeded, match="after 1000 "):
        symmetrize(zero_rep(F7))


def test_symmetrize_tries_one_candidate_per_line(monkeypatch):
    from cubicrep import detrep
    from cubicrep.detrep import BudgetExceeded

    # on the zero pencil over F_7 the lines come by their coefficients on the
    # last basis vector first, one candidate each: the anti-diagonal, the
    # first invertible A, is line 22 059
    monkeypatch.setattr(detrep, "SWEEP_BUDGET", 22058)
    with pytest.raises(BudgetExceeded, match="after 22058 "):
        symmetrize(zero_rep(F7))
    monkeypatch.setattr(detrep, "SWEEP_BUDGET", 22059)
    w, sym = symmetrize(zero_rep(F7))
    anti = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert w.a == LinearTransform(F7, anti) and w.b == LinearTransform.identity(F7)
    assert sym == zero_rep(F7)


def test_witness_inverses_on_golden_classification():
    for row in golden.UNIQUE_REP_ROWS:
        F = golden.row_curve(row)
        sym = golden.row_sym_matrix(row)
        rep = all_reps(F)[0][1]
        w = equivalent(sym, rep)
        assert w is not None
        assert w.inverse().verify(rep, sym)


_PROPERTY_FIELDS = tuple(mk_field(p, m) for p, m in
                        ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_equivalent_finds_verified_witnesses_both_ways(data):
    spec = data.draw(st.sampled_from(_PROPERTY_FIELDS))
    digits = lambda n: st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n)
    el = list(spec.elements())
    F = TernaryCubic(spec, [el[d] for d in data.draw(digits(10).filter(any))])
    assume(is_smooth(F))
    reps = all_reps(F)
    assume(reps)
    m = reps[data.draw(st.integers(0, len(reps) - 1))][1]

    def invertible():
        rows = data.draw(digits(9).map(lambda d: [d[0:3], d[3:6], d[6:9]]))
        try:
            return LinearTransform(spec, rows)
        except ValueError:
            assume(False)

    moved = transform_rep(invertible(), m, invertible())
    w = equivalent(m, moved)
    assert w is not None and w.verify(m, moved)
    assert w.inverse().verify(moved, m)


def _vanishes_on_all_rational_points(rep):
    from cubicrep.plane import projective_points

    D = det_cubic(rep)
    return all(not D.evaluate(P) for P in projective_points(rep.spec))


def _vanishing_diag():
    """det = X^2 Y + X Y^2, which vanishes on all of P^2(F_2)."""
    return LinearMatrixRep(F2, [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
                           [[0, 0, 0], [0, 1, 0], [0, 0, 1]], [[0] * 3] * 3)


def _vanishing_pair():
    """Two reps with det Y^2 Z + Y Z^2 and the same rank profile over F_2."""
    m = LinearMatrixRep(F2, ((0, 0, 1),) * 3, ((0, 0, 0), (1, 0, 0), (1, 0, 1)),
                        ((0, 1, 1), (0, 0, 1), (0, 0, 0)))
    n = LinearMatrixRep(F2, ((1, 0, 0),) * 3, ((0, 0, 1), (1, 0, 1), (1, 0, 1)),
                        ((1, 1, 0), (1, 1, 0), (1, 0, 1)))
    return m, n


def test_degenerate_scan_recovers_exact_witness(monkeypatch):
    from cubicrep.detrep import _kernel_data

    # det vanishes on all of P^2(F_2), so there is no point where det m1 is
    # nonzero and the sweep runs on the (C, B) system
    diag = _vanishing_diag()
    assert _vanishes_on_all_rational_points(diag)
    assert _kernel_data(diag) is None
    A = LinearTransform(F2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    B = LinearTransform(F2, [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    moved = transform_rep(A, diag, B)
    tried = _record_sweeps(monkeypatch)
    for _ in range(2):
        w = equivalent(diag, moved)
        assert w is not None and w.verify(diag, moved)
        # the seventh and last line of a 3-dimensional solution space
        assert w.a == A and w.b == B
    assert tried == [7, 7]


def test_degenerate_scan_refuses_and_accepts():
    from cubicrep.detrep import _kernel_certificate, _kernel_data, _rank_profile

    m, n = _vanishing_pair()
    assert det_cubic(m) == det_cubic(n)
    assert _vanishes_on_all_rational_points(m)
    assert _kernel_data(m) is None
    assert _rank_profile(m) == _rank_profile(n)
    assert _kernel_certificate(m, n) is None
    assert equivalent(m, n) is None
    w = equivalent(m, m)
    assert w is not None
    assert w.a == LinearTransform.identity(F2) == w.b


def _line_kernel_rep():
    """[X + Y, Y + Z, Y + Z]; [X + Z, X + Y, Y]; [0, Y, Y] over F_2: det
    vanishes on all of P^2(F_2), and M(P) has rank 2 at every point."""
    return LinearMatrixRep.from_entries(F2, (((1, 1, 0), (0, 1, 1), (0, 1, 1)),
                                             ((1, 0, 1), (1, 1, 0), (0, 1, 0)),
                                             ((0, 0, 0), (0, 1, 0), (0, 1, 0))))


def test_vanishing_det_with_line_kernels_is_equivalent_to_itself():
    # with no point off the curve there is no system for B alone, so the
    # sweep runs on the (C, B) system
    from cubicrep.detrep import _kernel_certificate, _kernel_data, _rank_profile

    m = _line_kernel_rep()
    assert _vanishes_on_all_rational_points(m)
    assert _kernel_data(m) is None
    assert _rank_profile(m) == (2,) * 7
    A = LinearTransform(F2, [[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    B = LinearTransform(F2, [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    for n in (m, transform_rep(A, m, B)):
        for w in (_kernel_certificate(m, n), equivalent(m, n)):
            assert w is not None and w.verify(m, n)


def _vanishing_f2_reps(rng, count):
    """Seeded reps over F_2 whose det is nonzero but vanishes on all of P^2(F_2)."""
    out = []
    while len(out) < count:
        rep = LinearMatrixRep.from_entries(F2, [[[rng.randrange(2) for _ in range(3)]
                                                 for _ in range(3)] for _ in range(3)])
        if det_cubic(rep) is not None and _vanishes_on_all_rational_points(rep):
            out.append(rep)
    return out


def test_vanishing_det_sweep_over_f2():
    rng = random.Random(2002)
    for m in _vanishing_f2_reps(rng, 40):
        A, B = _random_transform(F2, rng), _random_transform(F2, rng)
        for n in (m, transform_rep(A, m, B)):
            w = equivalent(m, n)
            assert w is not None and w.verify(m, n), (m, n)


_SMALL_FIELDS = (F2, mk_field(3, 1), mk_field(2, 2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equivalent_on_random_linear_matrices(data):
    # any 3x3 linear matrix with det not identically zero, smooth or not:
    # dense, upper triangular (det a product of three linear forms), or over
    # F_2 one whose det vanishes at every rational point
    shape = data.draw(st.sampled_from(("dense", "triangular", "vanishing")))
    spec = F2 if shape == "vanishing" else data.draw(st.sampled_from(_SMALL_FIELDS))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if shape == "vanishing":
        m = _vanishing_f2_reps(rng, 1)[0]
    else:
        el = list(spec.elements())
        lin = st.lists(st.sampled_from(el), min_size=3, max_size=3)
        # a nonzero diagonal keeps a triangular det from vanishing identically
        diag = st.sampled_from([e for e in product(el, repeat=3) if any(e)])

        def entry(i, j):
            if shape == "dense" or j > i:
                return data.draw(lin)
            return data.draw(diag) if i == j else [el[0]] * 3

        m = LinearMatrixRep.from_entries(spec, [[entry(i, j) for j in range(3)]
                                                for i in range(3)])
        assume(det_cubic(m) is not None)
    A, B = _random_transform(spec, rng), _random_transform(spec, rng)
    for n in (m, transform_rep(A, m, B)):
        w = equivalent(m, n)
        assert w is not None and w.verify(m, n)


def _vanishing_f2_pairs(rng, count):
    """(m, A m B) and (m, A m' B) with det m' = det m, from _vanishing_f2_reps."""
    reps = _vanishing_f2_reps(rng, count)
    pairs = []
    for m in reps:
        A, B = _random_transform(F2, rng), _random_transform(F2, rng)
        pairs.append((m, transform_rep(A, m, B)))
        n = next((n for n in reps if n != m and det_cubic(n) == det_cubic(m)), None)
        if n is not None:
            pairs.append((m, transform_rep(A, n, B)))
    return pairs


def _assert_agrees_with_the_scan(m1, m2):
    """equivalent and the reference scan give None together, or witnesses
    that both verify; returns whether the pair is inequivalent."""
    w, s = equivalent(m1, m2), object_reference.exhaustive_scan(m1, m2)
    assert (w is None) == (s is None), (m1, m2)
    assert w is None or (w.verify(m1, m2) and s.verify(m1, m2))
    return w is None


@pytest.mark.parametrize("p, m, count", [(2, 1, 6), (3, 1, 4), (2, 2, 3)])
def test_equivalent_agrees_with_the_exhaustive_scan(p, m, count):
    # the scan is the plain reference: smooth and triangular pairs from
    # _seeded_pairs, and over F_2 pairs whose det vanishes everywhere
    spec = mk_field(p, m)
    pairs = _seeded_pairs(spec, 6000 + spec.q, count)
    if spec.q == 2:
        pairs += _vanishing_f2_pairs(random.Random(6002), 8)
    answers = {_assert_agrees_with_the_scan(m1, m2) for m1, m2 in pairs}
    assert answers == {True, False}


def _transpose(rep):
    """rep^t, which has the same det and is in general not equivalent."""
    return LinearMatrixRep(rep.spec, *([list(col) for col in zip(*mv)]
                                       for mv in rep.coefficient_matrices()))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sweep_agrees_with_the_exhaustive_scan(data):
    # dense pairs (m, A m B) and (m, A m^t B), triangular pairs (t, A t B)
    # and (t, A t' B) with det = XYZ, and over F_2 pairs whose det vanishes
    # on every rational point
    shape = data.draw(st.sampled_from(("dense", "triangular", "vanishing")))
    spec = F2 if shape == "vanishing" else data.draw(st.sampled_from(_SMALL_FIELDS))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if shape == "vanishing":
        m1, m2 = rng.choice(_vanishing_f2_pairs(rng, 4))
    else:
        if shape == "dense":
            m = LinearMatrixRep(spec, *(_random_matrix(spec, rng) for _ in range(3)))
            assume(det_cubic(m) is not None)
            other = _transpose(m)
        else:
            m, other = _triangular_rep(spec, rng), _triangular_rep(spec, rng)
        A, B = _random_transform(spec, rng), _random_transform(spec, rng)
        m1, m2 = m, transform_rep(A, rng.choice((m, other)), B)
    _assert_agrees_with_the_scan(m1, m2)


_CERTIFICATE_FIELDS = tuple(mk_field(p, m) for p, m in
                            ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                             (11, 1), (13, 1)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_certificate_decides_every_smooth_pair(data):
    # on a smooth det the solution space is Hom between two line bundles of
    # one degree, of dimension 1 or 0: one candidate at most decides
    from cubicrep.detrep import _kernel_certificate

    spec = data.draw(st.sampled_from(_CERTIFICATE_FIELDS))
    el = list(spec.elements())
    digits = lambda n: st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n)
    F = TernaryCubic(spec, [el[d] for d in data.draw(digits(10).filter(any))])
    assume(is_smooth(F))
    reps = [rep for _, rep, _ in all_reps(F)]
    assume(reps)
    m, n = (reps[data.draw(st.integers(0, len(reps) - 1))] for _ in range(2))

    def invertible():
        d = data.draw(digits(9))
        try:
            return LinearTransform(spec, [[el[c] for c in d[k:k + 3]] for k in (0, 3, 6)])
        except ValueError:
            assume(False)

    A, B = invertible(), invertible()
    with pytest.MonkeyPatch.context() as mp:
        one_candidate_sweep(mp)
        for other in (m, n):
            moved = transform_rep(A, other, B)
            w = _kernel_certificate(m, moved)
            assert (w is not None) == (other == m)
            assert w is None or w.verify(m, moved)


# -- the trace stage ---------------------------------------------------------


def _traces(rep):
    """t(rep) from _kernel_data, or None when det rep leaves no point off
    the curve."""
    from cubicrep.detrep import _kernel_data

    data = _kernel_data(rep)
    return None if data is None else data[1]


def _random_matrix(spec, rng):
    """A 3x3 matrix of field elements drawn from the whole field."""
    el = _tables.scalar_field(spec).elems
    return [[el[rng.randrange(spec.q)] for _ in range(3)] for _ in range(3)]


def _random_invertible(spec, rng):
    while True:
        try:
            return LinearTransform(spec, _random_matrix(spec, rng))
        except ValueError:
            continue


def _smooth_trace_pairs(spec, seed, curves, per_curve):
    """Pairs of reps of one smooth curve, (m, n), (m, A n B) and the
    equivalent (m, A m B), at most per_curve of each per curve."""
    rng = random.Random(seed)
    pairs = []
    for F in _random_smooth_curves(spec, rng, curves):
        reps = [rep for _, rep, _ in all_reps(F)]
        combos = list(combinations(reps, 2))
        for m, n in rng.sample(combos, min(per_curve, len(combos))):
            A, B = _random_invertible(spec, rng), _random_invertible(spec, rng)
            pairs += [(m, n), (m, transform_rep(A, n, B)), (m, transform_rep(A, m, B))]
    return pairs


def test_trace_stage_rejects_only_certified_inequivalences(census_reps, monkeypatch):
    # whenever the traces of two smooth reps differ, the B solve proves the
    # pair inequivalent; the other pairs fall through to the solve
    from cubicrep.detrep import _kernel_certificate

    pairs = [pair for q in (2, 3) for _, reps in census_reps[q]
             for pair in combinations([rep for _, rep, _ in reps], 2)]
    for k, (p, m) in enumerate(((2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
                                (2, 4), (31, 1))):
        pairs += _smooth_trace_pairs(mk_field(p, m), 8100 + k, 4, 10)
    rejected = 0
    one_candidate_sweep(monkeypatch)
    for m1, m2 in pairs:
        t1, t2 = _traces(m1), _traces(m2)
        assert t1 is not None and t2 is not None
        if t1 != t2:
            assert _kernel_certificate(m1, m2) is None, (m1, m2)
            rejected += 1
    print(f"trace stage: {rejected} of {len(pairs)} smooth pairs rejected, "
          f"{len(pairs) - rejected} fell through to the solve")
    assert rejected


_TRACE_FIELDS = tuple(mk_field(p, m) for p, m in
                      ((2, 1), (3, 1), (2, 2), (3, 2), (13, 1), (2, 6)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_traces_are_invariant_under_equivalence(data):
    # K_u = B^-1 N_u B at the shared point off the curve, for any matrix of
    # linear forms, singular det included
    spec = data.draw(st.sampled_from(_TRACE_FIELDS))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans()):
        m = _triangular_rep(spec, rng)
    else:
        m = LinearMatrixRep(spec, *(_random_matrix(spec, rng) for _ in range(3)))
    assume(_traces(m) is not None)
    moved = transform_rep(_random_invertible(spec, rng), m, _random_invertible(spec, rng))
    assert _traces(moved) == _traces(m)


# -- the rank profile on the zeros of det against the whole plane -----------


def _full_rank_profile(rep):
    """rank M(P) at every point of P^2(F_q): the plain reference for
    _rank_profile, which ranks M(P) only where det(rep) vanishes."""
    from cubicrep.plane import projective_points

    sf = _tables.scalar_field(rep.spec)
    return tuple(object_reference.rank_at(rep, sf.encode_all(P.coords))
                 for P in projective_points(rep.spec))


def _profiles(reps):
    """(restricted, full) rank profile of each rep."""
    from cubicrep.detrep import _rank_profile

    return [(_rank_profile(m), _full_rank_profile(m)) for m in reps]


def _assert_profiles_decide_alike(p1, p2):
    assert (p1[0] == p2[0]) == (p1[1] == p2[1])


def _random_transform(spec, rng):
    el = list(spec.elements())
    while True:
        rows = [[rng.choice(el) for _ in range(3)] for _ in range(3)]
        try:
            return LinearTransform(spec, rows)
        except ValueError:
            continue


def _triangular_rep(spec, rng):
    """det = XYZ, with random linear forms above the diagonal, so the rank
    of M(P) on the three coordinate lines varies between 1 and 2."""
    el = list(spec.elements())
    lin = lambda: tuple(rng.choice(el) for _ in range(3))
    X, Y, Z, O = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    return LinearMatrixRep.from_entries(spec, ((X, lin(), lin()),
                                               (O, Y, lin()),
                                               (O, O, Z)))


def _seeded_pairs(spec, seed, count):
    """(rep, A rep B) and (rep, A rep' B) for reps of random smooth curves,
    plus pairs of triangular reps, whose profiles often differ."""
    rng = random.Random(seed)
    pairs = []
    for F in _random_smooth_curves(spec, rng, count):
        reps = [rep for _, rep, _ in all_reps(F)]
        m, n = rng.choice(reps), rng.choice(reps)
        A, B = _random_transform(spec, rng), _random_transform(spec, rng)
        pairs.append((m, transform_rep(A, m, B)))
        pairs.append((m, transform_rep(A, n, B)))
        t = _triangular_rep(spec, rng)
        pairs.append((t, _triangular_rep(spec, rng)))
        pairs.append((t, transform_rep(A, t, B)))
    return pairs


def test_rank_profile_on_census_pairs(census_reps):
    # every pair of census reps with proportional determinants: the reps
    # of one form (distinct census forms are not proportional)
    for q in (2, 3):
        for _, reps in census_reps[q]:
            profiles = _profiles(rep for _, rep, _ in reps)
            for p1, p2 in combinations(profiles, 2):
                _assert_profiles_decide_alike(p1, p2)


# -- a pinned digest of representations, rank profiles and witnesses --------

#: sha256 over the lines of _digest_lines; any change to an answer, a
#: witness or the order of the points changes it
WITNESS_DIGEST = "f6804ffc60fdc77f3e492d963e8f08954020c34f3b1fb65c02d15d8f09b7bdf1"
_DIGEST_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1), (31, 1),
                  (2, 6), (101, 1))


def _decide(m1, m2):
    """The reprs of both rank profiles and of the answer of equivalent."""
    from cubicrep.detrep import BudgetExceeded, _rank_profile

    try:
        w = equivalent(m1, m2)
    except BudgetExceeded:
        w = "BudgetExceeded"
    return [repr(_rank_profile(m)) for m in (m1, m2)] + [repr(w)]


def _digest_lines():
    """all_reps of four random smooth curves per field with the decisions on
    (rep, A rep B), (rep, rep') and (rep, A rep' B), then two rounds of
    triangular pairs (t, t') and (t, A t B) over q <= 9."""
    for p, m in _DIGEST_FIELDS:
        spec = mk_field(p, m)
        rng = random.Random(f"witness-digest/{spec.q}")
        for _ in range(4):
            F = _random_smooth_curves(spec, rng, 1)[0]
            reps = all_reps(F)
            yield repr(F)
            yield repr(reps)
            rep, other = (reps[rng.randrange(len(reps))][1] for _ in range(2))
            A, B = _random_transform(spec, rng), _random_transform(spec, rng)
            for m2 in (transform_rep(A, rep, B), other, transform_rep(A, other, B)):
                yield from _decide(rep, m2)
        for _ in range(2 if spec.q <= 9 else 0):
            t = _triangular_rep(spec, rng)
            A, B = _random_transform(spec, rng), _random_transform(spec, rng)
            for m2 in (_triangular_rep(spec, rng), transform_rep(A, t, B)):
                yield from _decide(t, m2)


def test_witness_digest():
    start = time.perf_counter()
    assert hashlib.sha256("\n".join(_digest_lines()).encode()).hexdigest() == WITNESS_DIGEST
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("q, count", [(5, 12), (7, 12), (31, 4)])
def test_rank_profile_on_seeded_pairs(q, count):
    spec = mk_field(q, 1)
    pairs = _seeded_pairs(spec, 4000 + q, count)
    for m1, m2 in pairs:
        _assert_profiles_decide_alike(*_profiles((m1, m2)))
    for m1, m2 in pairs[::4]:  # (rep, A rep B)
        w = equivalent(m1, m2)
        assert w is not None and w.verify(m1, m2)


def test_rank_profile_matches_the_per_zero_formula(census_reps):
    # _rank_profile ranks M(P) only at the singular zeros of det and reports
    # 2 at the others; the reference ranks it at every zero
    from cubicrep.detrep import _rank_profile

    reps = [rep for q in (2, 3) for _, rs in census_reps[q] for _, rep, _ in rs]
    for p, m, count in ((2, 2, 6), (5, 1, 6), (7, 1, 6), (3, 2, 4), (31, 1, 2)):
        spec = mk_field(p, m)
        reps += [rep for pair in _seeded_pairs(spec, 5000 + spec.q, count) for rep in pair]
    reps += [_vanishing_diag(), *_vanishing_pair()]
    assert any(1 in _rank_profile(rep) for rep in reps)
    for rep in reps:
        assert _rank_profile(rep) == object_reference.rank_profile(rep), rep


_TRANSFORM_FIELDS = tuple(mk_field(p, m) for p, m in
                          ((2, 1), (3, 1), (2, 2), (3, 2), (13, 1), (2, 6), (257, 1)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_transform_rep_matches_object_products(data):
    # transform_rep multiplies gf coefficient tuples; the reference uses the
    # FieldElement operators
    spec = data.draw(st.sampled_from(_TRANSFORM_FIELDS))
    sf = _tables.scalar_field(spec)
    digits = st.lists(st.integers(0, spec.q - 1), min_size=9, max_size=9)

    def matrix():
        d = [sf.decode(c) for c in data.draw(digits)]
        return [d[0:3], d[3:6], d[6:9]]

    def invertible():
        try:
            return LinearTransform(spec, matrix())
        except ValueError:
            assume(False)

    rep = LinearMatrixRep(spec, matrix(), matrix(), matrix())
    A, B = invertible(), invertible()
    assert transform_rep(A, rep, B) == object_reference.transform_rep(A, rep, B)


def test_verify_checks_every_coefficient_matrix():
    from cubicrep.detrep import EquivalenceWitness

    rep = all_reps(weierstrass_cubic(F7.element(1), F7.element(1)))[0][1]
    A = LinearTransform(F7, [[1, 2, 0], [0, 1, 3], [5, 0, 1]])
    B = LinearTransform(F7, [[2, 0, 1], [1, 1, 0], [0, 4, 1]])
    moved = transform_rep(A, rep, B)
    w = EquivalenceWitness(A, B)
    assert w.verify(rep, moved)
    for v in range(3):
        mats = [[list(row) for row in m] for m in moved.coefficient_matrices()]
        mats[v][2][1] = mats[v][2][1] + 1
        assert not w.verify(rep, LinearMatrixRep(F7, *mats)), v


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_matches_object_products(data):
    # verify compares gf coefficient tuples; the reference multiplies with
    # the FieldElement operators and compares representations
    from cubicrep.detrep import EquivalenceWitness

    spec = data.draw(st.sampled_from(_TRANSFORM_FIELDS))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    rep = LinearMatrixRep(spec, *(_random_matrix(spec, rng) for _ in range(3)))
    A, B = _random_invertible(spec, rng), _random_invertible(spec, rng)
    want = object_reference.transform_rep(A, rep, B)
    mats = [[list(row) for row in m] for m in want.coefficient_matrices()]
    if data.draw(st.booleans()):
        v, i, j = (data.draw(st.integers(0, 2)) for _ in range(3))
        nonzero = _tables.scalar_field(spec).elems[data.draw(st.integers(1, spec.q - 1))]
        mats[v][i][j] = mats[v][i][j] + nonzero
    target = LinearMatrixRep(spec, *mats)
    assert EquivalenceWitness(A, B).verify(rep, target) == (want == target)


def test_verify_is_false_across_fields():
    from cubicrep.detrep import EquivalenceWitness

    grid = [[1, 0, 1], [0, 1, 0], [1, 1, 0]]
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for a, b in ((F5, F7), (mk_field(2, 2), F2), (F2, mk_field(2, 3))):
        w = EquivalenceWitness(LinearTransform(a, ident), LinearTransform(a, ident))
        m = LinearMatrixRep(a, grid, ident, grid)
        assert w.verify(m, m)
        assert w.verify(m, LinearMatrixRep(b, grid, ident, grid)) is False


@pytest.mark.slow
def test_equivalence_past_the_table_cap():
    # past q = 256 the field tables compute each row on subscript instead of
    # holding q x q lists; the rank profile and the kernel certificate run
    # on them as on every smaller field
    spec = mk_field(257, 1)
    a, b = spec.element(1), spec.element(1)  # Y^2 Z = X^3 + X Z^2 + Z^3
    m = galinat_rep(a, b, ProjPoint(spec, (0, 1, 1)))
    A = LinearTransform(spec, [[1, 2, 0], [0, 1, 3], [5, 0, 1]])
    B = LinearTransform(spec, [[2, 0, 1], [1, 1, 0], [0, 4, 1]])
    moved = transform_rep(A, m, B)
    w = equivalent(m, moved)
    assert w is not None and w.verify(m, moved)
    assert equivalent(m, galinat_rep(a, b, ProjPoint(spec, (0, -1, 1)))) is None


# -- representations identified by their entry indices ----------------------


def test_lazy_and_constructed_reps_share_identity_and_determinant():
    # F_101 takes the array path of all_reps; the reps of the object
    # reference come from the public constructor and carry no determinant
    for spec in (F5, mk_field(2, 3), mk_field(13, 1), mk_field(101, 1)):
        F = _random_smooth_curves(spec, random.Random(7300 + spec.q), 1)[0]
        sf = _tables.scalar_field(spec)
        for (_, lazy, lam), (_, built, _) in zip(all_reps(F), object_reference.all_reps(F)):
            assert lazy == built and hash(lazy) == hash(built)
            # all_reps keeps the determinant it checked, lam * F
            assert lazy._det == tuple(sf.mul[sf.encode(lam)][c] for c in F.idx)
            assert built._det is None
            assert det_cubic(lazy) == det_cubic(built)
            assert lazy.coefficient_matrices() == built.coefficient_matrices()


@pytest.mark.parametrize("p, m, count, on_arrays", [
    (2, 1, 6, False), (2, 2, 6, False), (7, 1, 6, False), (31, 1, 3, False),
    (2, 6, 2, False), (101, 1, 3, True), (257, 1, 2, True), (2, 9, 1, False),
])
def test_all_reps_keep_the_determinant_they_checked(p, m, count, on_arrays):
    # the determinant a rep of all_reps carries is the one a fresh cofactor
    # expansion gives, and is_ldr_of reads lam off it: on the tables (F_2,
    # F_4, F_7, F_31, F_64), on the arrays (F_101, and F_257 past
    # MAX_TABLE_Q) and on an extension field past the cap (F_512).  About
    # 0.5 s in all, most of it the F_512 curve
    spec = mk_field(p, m)
    sf = _tables.scalar_field(spec)
    assert sf.on_arrays == on_arrays
    checked = 0
    for F in _random_smooth_curves(spec, random.Random(7600 + spec.q), count):
        for _, rep, lam in all_reps(F):
            assert rep._det == tuple(_tables.det_cubic_idx(rep.idx, sf))
            assert is_ldr_of(rep, F) == lam
            checked += 1
    assert checked


@pytest.mark.parametrize("p, m", [(2, 1), (2, 2), (7, 1), (3, 2), (101, 1), (257, 1)])
def test_cubics_keep_their_index_form(p, m):
    # every way of making a cubic leaves F.idx equal to the encoding of
    # F.coeffs: the constructor, from_dict, scaled, and the index paths of
    # act, normalize and det_cubic.  Under 0.5 s in all
    from cubicrep.plane import act

    spec = mk_field(p, m)
    sf = _tables.scalar_field(spec)
    rng = random.Random(7700 + spec.q)
    el = sf.elems

    def encoded(F):
        return F.idx == tuple(sf.encode_all(F.coeffs))

    for F in _random_smooth_curves(spec, rng, 3):
        assert encoded(F)
        assert encoded(TernaryCubic.from_dict(spec, F.nonzero_dict()))
        assert encoded(F.scaled(el[rng.randrange(1, spec.q)]))
        assert encoded(act(_random_transform(spec, rng), F))
        T, Fn = normalize(F, rational_points(F)[0])
        assert encoded(Fn)
        for _, rep, _ in all_reps(F):
            assert encoded(det_cubic(rep))
            assert encoded(det_cubic(transform_rep(T, rep, T)))


def test_equal_indices_over_different_fields_are_different_reps():
    grids = ([[1, 0, 2], [0, 3, 0], [4, 0, 1]], [[0, 1, 0], [2, 0, 0], [0, 0, 3]],
             [[0, 0, 1], [0, 4, 0], [1, 0, 0]])
    for a, b in ((F5, F7), (mk_field(2, 2), F2)):
        ms = [[[c % 2 if b is F2 else c for c in row] for row in g] for g in grids]
        m, n = LinearMatrixRep(a, *ms), LinearMatrixRep(b, *ms)
        assert m.idx == n.idx and m != n
        assert det_cubic(m).spec == a and det_cubic(n).spec == b


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_every_rep_satisfies_the_object_determinant_identity(data):
    spec = data.draw(st.sampled_from(_PROPERTY_FIELDS))
    el = list(spec.elements())
    digits = st.lists(st.integers(0, spec.q - 1), min_size=10, max_size=10).filter(any)
    F = TernaryCubic(spec, [el[d] for d in data.draw(digits)])
    assume(is_smooth(F))
    for _, rep, lam in all_reps(F):
        assert object_reference.is_ldr_of(rep, F) == lam


# -- the certificate stays on F_q ---------------------------------------------


def _norm_form_rep(spec):
    """X*I + Y*A + Z*A^2 for the companion matrix A of an irreducible cubic
    t^3 + c1 t + c0; det is a norm form of F_{q^3}, zero only at 0 over
    every field F_{q^k} with 3 not dividing k."""
    el = list(spec.elements())
    c1, c0 = next((c1, c0) for c1 in el for c0 in el[1:]
                  if all(x * x * x + c1 * x + c0 for x in el))
    zero, one = spec.zero(), spec.one()
    ident = LinearTransform.identity(spec)
    A = LinearTransform(spec, [[zero, zero, -c0], [one, zero, -c1], [zero, one, zero]])
    return LinearMatrixRep(spec, ident.rows, A.rows, (A @ A).rows)


def _record_plane_tables(monkeypatch):
    """The q of every plane_tables call from now on."""
    built = []
    real = _tables.plane_tables

    def recording(s):
        built.append(s.q)
        return real(s)

    monkeypatch.setattr(_tables, "plane_tables", recording)
    return built


@pytest.mark.parametrize("p", [13, 31, 101])
def test_certificate_skips_extensions_that_cannot_reach_four_points(monkeypatch, p):
    # B commutes with the companion matrix, a 3-dimensional solution space
    # of (q^3 - 1) / (q - 1) lines, which the sweep decides on F_q alone
    spec = mk_field(p, 1)
    M = _norm_form_rep(spec)
    assert rational_points(det_cubic(M)) == []
    built = _record_plane_tables(monkeypatch)
    start = time.perf_counter()
    w = equivalent(M, M)
    assert time.perf_counter() - start < 1
    assert w is not None and w.verify(M, M)
    assert set(built) == {p}


@pytest.mark.parametrize("p, m", [(2, 3), (3, 2), (101, 1),
                                  pytest.param(257, 1, marks=pytest.mark.slow)])
def test_triangular_pairs_fail_fast(monkeypatch, p, m):
    # det = XYZ has 3q rational zeros; every pair is decided on F_q, with
    # no pass over F_{q^2} and no BudgetExceeded
    spec = mk_field(p, m)
    rng = random.Random(10101)
    built = _record_plane_tables(monkeypatch)
    for _ in range(4):
        t = _triangular_rep(spec, rng)
        A, B = _random_transform(spec, rng), _random_transform(spec, rng)
        moved = transform_rep(A, t, B)
        for m2 in (_triangular_rep(spec, rng), moved):
            start = time.perf_counter()
            w = equivalent(t, m2)
            assert w.verify(t, m2) if w is not None else m2 is not moved
            assert time.perf_counter() - start < 2
    assert set(built) == {spec.q}


@pytest.mark.parametrize("p, m, coeffs", [
    (2, 3, [5, 4, 3, 0, 6, 6, 6, 3, 6, 4]),
    (3, 2, [6, 5, 5, 7, 2, 1, 0, 1, 4, 1]),
])
def test_certificate_extends_four_point_curves(monkeypatch, p, m, coeffs):
    """A smooth cubic with exactly 4 rational points (trace 5 over F_8,
    trace 6 over F_9), three of them collinear: the solve on F_q decides
    every pair with one candidate."""
    spec = mk_field(p, m)
    el = list(spec.elements())
    F = TernaryCubic(spec, [el[c] for c in coeffs])
    assert is_smooth(F) and len(rational_points(F)) == 4

    one_candidate_sweep(monkeypatch)
    rng = random.Random(8 + spec.q)

    def random_gl3():
        while True:
            rows = [[el[rng.randrange(spec.q)] for _ in range(3)] for _ in range(3)]
            try:
                return LinearTransform(spec, rows)
            except ValueError:
                pass

    for _, rep, _ in all_reps(F):
        moved = transform_rep(random_gl3(), rep, random_gl3())
        w = equivalent(rep, moved)
        assert w is not None and w.verify(rep, moved)
