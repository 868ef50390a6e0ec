import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import golden
import object_reference
from object_reference import is_smooth_by_search, mul_quad_lin
from cubicrep import _bulk, _tables
from cubicrep.gf import FieldMismatch, is_prime, mk_field
from cubicrep.plane import (
    LinearTransform,
    NotOnCurve,
    ProjPoint,
    SingularInput,
    SingularPoint,
    TernaryCubic,
    act,
    gradient,
    is_flex,
    is_normalized,
    is_smooth,
    normalize,
    partials,
    projective_points,
    rational_points,
    tangent_line,
)

F2 = mk_field(2, 1)
F3 = mk_field(3, 1)
F5 = mk_field(5, 1)


def cubic(spec, coeffs):
    return TernaryCubic.from_dict(spec, coeffs)


def test_projpoint_canonical_scaling():
    P = ProjPoint(F5, (2, 3, 1))
    assert P.coords[0] == 1  # scaled by 2^-1 = 3
    assert P == ProjPoint(F5, (4, 6, 2))
    with pytest.raises(ValueError):
        ProjPoint(F5, (0, 0, 0))


@pytest.mark.parametrize("p, m", [(5, 1), (7, 1), (3, 2), (2, 4), (3, 5), (2, 14)])
def test_projpoint_keeps_coordinates_that_lead_with_1(p, m):
    spec = mk_field(p, m)
    rng = random.Random(100 * p + m)

    def element():
        return spec.element([rng.randrange(p) for _ in range(m)])

    for lead in range(3):
        for _ in range(5):
            coords = (spec.zero(),) * lead + (spec.one(),) + tuple(element() for _ in range(2 - lead))
            assert ProjPoint(spec, coords).coords == coords
            scale = element()
            if scale:
                assert ProjPoint(spec, [scale * c for c in coords]).coords == coords


def test_evaluate_examples():
    F = golden.curve(2, {"002": 1, "022": 1, "111": 1, "112": 1, "222": 1})
    assert not F.evaluate(ProjPoint(F2, (1, 0, 0)))
    assert cubic(F5, {"000": 3}).evaluate(ProjPoint(F5, (1, 0, 0))) == 3
    G = cubic(F2, {"002": 1, "011": 1, "122": 1})
    assert G.evaluate(ProjPoint(F2, (1, 1, 1))) == 1


def test_partials_examples():
    G = cubic(F2, {"002": 1, "011": 1, "122": 1})
    fx, fy, fz = partials(G)
    # dG/dX = Y^2, dG/dY = Z^2, dG/dZ = X^2 over F_2
    assert fx.evaluate((F2.zero(), F2.one(), F2.zero())) == 1
    assert [c for c in fx.coeffs] == [F2.element(v) for v in (0, 0, 0, 1, 0, 0)]
    assert [c for c in fy.coeffs] == [F2.element(v) for v in (0, 0, 0, 0, 0, 1)]
    assert [c for c in fz.coeffs] == [F2.element(v) for v in (1, 0, 0, 0, 0, 0)]
    fy3 = partials(cubic(F3, {"111": 1}))
    assert all(not c for q in fy3 for c in q.coeffs)
    fx5 = partials(cubic(F5, {"000": 1}))[0]
    assert [c for c in fx5.coeffs] == [F5.element(v) for v in (3, 0, 0, 0, 0, 0)]


def test_is_smooth_examples():
    assert is_smooth(golden.curve(2, {"002": 1, "022": 1, "111": 1, "112": 1, "222": 1}))
    fermat3 = cubic(F3, {"000": 1, "111": 1, "222": 1})
    assert not is_smooth(fermat3)  # (X+Y+Z)^3 in characteristic 3
    fermat2 = cubic(F2, {"000": 1, "111": 1, "222": 1})
    assert is_smooth(fermat2)


def test_is_smooth_agrees_with_extension_search_f2_exhaustive():
    spec = F2
    sf = _tables.scalar_field(spec)
    forms = object_reference.forms_up_to_scalar(spec)
    fast = _bulk.smooth_mask(spec, forms)
    rng = random.Random(7)
    idx = rng.sample(range(len(forms)), 140)
    for i in idx:
        F = TernaryCubic(spec, [sf.decode(d) for d in forms[i]])
        assert is_smooth(F) == bool(fast[i]) == is_smooth_by_search(F)


@pytest.mark.slow
def test_is_smooth_agrees_with_extension_search_exhaustive_f2_full():
    spec = F2
    sf = _tables.scalar_field(spec)
    forms = object_reference.forms_up_to_scalar(spec)
    fast = _bulk.smooth_mask(spec, forms)
    for i in range(len(forms)):
        F = TernaryCubic(spec, [sf.decode(d) for d in forms[i]])
        assert is_smooth(F) == bool(fast[i]) == is_smooth_by_search(F)


def test_is_smooth_agrees_with_extension_search_f3_sample():
    spec = F3
    sf = _tables.scalar_field(spec)
    forms = object_reference.forms_up_to_scalar(spec)
    fast = _bulk.smooth_mask(spec, forms)
    rng = random.Random(11)
    for i in rng.sample(range(len(forms)), 12):
        F = TernaryCubic(spec, [sf.decode(d) for d in forms[i]])
        assert is_smooth(F) == bool(fast[i]) == is_smooth_by_search(F)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2)])
def test_smooth_mask_matches_closed_form_count(p, m):
    # the classical count of smooth plane cubics up to scalars,
    # q^4 (q^3 - 1)(q^2 - 1) = q |PGL_3(F_q)|, shares no code with the library
    spec = mk_field(p, m)
    q = spec.q
    smooth = _bulk.smooth_mask(spec, object_reference.forms_up_to_scalar(spec))
    assert smooth.sum() == q ** 4 * (q ** 3 - 1) * (q ** 2 - 1)


def _line_times_conic(spec):
    """(Z - bY - aX)(XZ - Y^2) with t^2 - bt - a irreducible over F_q: a
    smooth conic times a rational line that meets it in a conjugate pair."""
    elems = list(spec.elements())
    with_root = {(t * t - b * t, b) for t in elems for b in elems}
    a, b = next((a, b) for b in elems for a in elems if (a, b) not in with_root)
    line = (-a, -b, spec.one())
    conic = [spec.zero()] * 6
    conic[2], conic[3] = spec.one(), -spec.one()  # XZ - Y^2
    return TernaryCubic(spec, mul_quad_lin(conic, line, spec))


@pytest.mark.parametrize("p, m", [(5, 1), (7, 1), (2, 3), (3, 2), (31, 1), (101, 1)])
def test_line_times_conic_through_a_conjugate_pair_is_singular(p, m):
    # the one singular shape with rational points but no rational singular
    # point: only its point count 2q + 2 gives it away
    spec = mk_field(p, m)
    F = _line_times_conic(spec)
    points = rational_points(F)
    assert len(points) == 2 * spec.q + 2
    assert all(any(gradient(F, P)) for P in points)
    assert not is_smooth(F)
    sf = _tables.scalar_field(spec)
    row = np.array([[sf.encode(c) for c in F.coeffs]], dtype=np.uint8)
    assert not _bulk.smooth_mask(spec, row)[0]
    if spec.q <= 11:
        assert not is_smooth_by_search(F)


@pytest.mark.slow
def test_is_smooth_past_the_table_cap():
    # past q = 256 the field tables compute each row on subscript; is_smooth
    # reads the same line-by-line zero scan as on smaller fields
    spec = mk_field(257, 1)
    weierstrass = TernaryCubic.from_dict(spec, {"112": 1, "000": -1, "022": -1, "222": -1})
    assert is_smooth(weierstrass)  # Y^2 Z = X^3 + X Z^2 + Z^3, discriminant -496
    assert not is_smooth(_line_times_conic(spec))


_DIFFERENTIAL_FIELDS = (mk_field(2, 2), F5, mk_field(7, 1), mk_field(2, 3),
                        mk_field(3, 2))


@st.composite
def _field_and_rows(draw):
    """A field and nonzero cubic rows, some of them a rational line times a
    quadric (random rows almost never have a rational linear factor)."""
    spec = draw(st.sampled_from(_DIFFERENTIAL_FIELDS))
    sf = _tables.scalar_field(spec)
    digits = lambda n: st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            rows.append(draw(digits(10).filter(any)))
            continue
        line = [sf.decode(d) for d in draw(digits(3).filter(any))]
        quad = [sf.decode(d) for d in draw(digits(6).filter(any))]
        rows.append([sf.encode(c) for c in mul_quad_lin(quad, line, spec)])
    return spec, rows


@settings(max_examples=40, deadline=None)
@given(_field_and_rows())
def test_bulk_sweeps_agree_with_per_curve_path(case):
    # the batched kernels and the per-curve code read the same tables;
    # check they agree beyond the F_2 / F_3 censuses
    spec, rows = case
    sf = _tables.scalar_field(spec)
    A = np.array(rows, dtype=np.uint8)
    smooth = _bulk.smooth_mask(spec, A)
    counts = _bulk.point_counts(spec, A)
    for i, row in enumerate(rows):
        F = TernaryCubic(spec, [sf.decode(d) for d in row])
        assert bool(smooth[i]) == is_smooth(F)
        assert counts[i] == len(rational_points(F))


_ZERO_SET_FIELDS = tuple(mk_field(p, m) for p, m in
                         ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_zero_set_cache_matches_form_values(data):
    # PlaneTables.zeros scans line by line and caches one scan per form up
    # to scalars, with the singular zeros; check it against
    # TernaryCubic.evaluate at every point, for every multiple
    spec = data.draw(st.sampled_from(_ZERO_SET_FIELDS))
    pt = _tables.plane_tables(spec)
    row = data.draw(st.lists(st.integers(0, spec.q - 1), min_size=10, max_size=10)
                    .filter(any))
    F = TernaryCubic(spec, [pt.sf.decode(d) for d in row])
    scans = pt._zero_sets.cache_info().misses
    zeros = pt.zeros(row)
    assert zeros == tuple(i for i, P in enumerate(projective_points(spec))
                          if not F.evaluate(P))
    for c in range(1, spec.q):
        assert pt.zeros([pt.sf.mul[c][d] for d in row]) == zeros
    assert pt._zero_sets.cache_info().misses <= scans + 1


@pytest.mark.parametrize("p, m", [(257, 1), (2, 9), (3, 6)])
def test_zero_set_matches_evaluate_on_sampled_lines(p, m):
    # past q = 256 a whole-plane evaluation on objects is too slow for the
    # suite; check the scan of a random form and of a line times a quadric
    # against TernaryCubic.evaluate on sampled lines through [0:0:1], with
    # the line X = 0 and the point [0:0:1] always among them
    spec = mk_field(p, m)
    q = spec.q
    pt = _tables.plane_tables(spec)
    rng = random.Random(q)
    elems = list(spec.elements())
    line = [rng.choice(elems) for _ in range(3)]
    quad = [rng.choice(elems) for _ in range(6)]
    for F in (TernaryCubic(spec, [rng.choice(elems) for _ in range(10)]),
              TernaryCubic(spec, mul_quad_lin(quad, line, spec))):
        zeros = set(pt.zeros(pt.sf.encode_all(F.coeffs)))
        for y in rng.sample(range(q), 4) + [q]:
            for i in list(range(y * q, y * q + q)) + [q * q + q]:
                P = ProjPoint(spec, [pt.sf.decode(c) for c in pt.point(i)])
                assert (i in zeros) == (not F.evaluate(P)), (F, P)


def test_zero_points_past_the_table_cap_share_one_scan():
    # rational_points and is_smooth share one cached scan per form up to
    # scalars, on list tables and past q = 256, where the field tables
    # compute each row on subscript; there six multiples stand for all
    rng = random.Random(11)
    for q, n_forms in ((7, 8), (257, 3)):
        spec = mk_field(q, 1)
        pt = _tables.plane_tables(spec)
        rows = [[rng.randrange(q) for _ in range(10)] for _ in range(n_forms)]
        for F in (TernaryCubic(spec, row) for row in rows if any(row)):
            scans = pt._zero_sets.cache_info().misses
            expected = (rational_points(F), is_smooth(F))
            assert all(not F.evaluate(P) for P in expected[0])
            multiples = range(2, q) if q < 256 else rng.sample(range(2, q), 6)
            for c in multiples:
                G = F.scaled(c)
                assert (rational_points(G), is_smooth(G)) == expected
            assert pt._zero_sets.cache_info().misses <= scans + 1


def _array_scan_forms(p, rng):
    """Seeded coefficient index rows over F_p: two random forms, one
    singular at a random point, one with a222 = 0, a random line times a
    conic and X times a conic (the line X = 0 of the scan in the zero set)."""
    sf = _tables.scalar_field(mk_field(p, 1))

    def rand(n):
        return [rng.randrange(p) for _ in range(n)]

    while True:
        t = [rand(3) for _ in range(3)]
        if _tables.det3_idx(t, sf):
            break
    # a000 = a001 = a002 = 0: singular at [1:0:0], then moved by t
    singular = _tables.act_idx(t, [0, 0, 0] + rand(7), sf)
    return [rand(10), rand(10), singular, rand(9) + [0],
            list(_tables.quad_lin_idx(rand(6), rand(3), sf)),
            list(_tables.quad_lin_idx(rand(6), [1, 0, 0], sf))]


_ARRAY_SCAN_PRIMES = [p for p in range(_tables.ARRAY_Q, 258) if is_prime(p)] + [509, 1021]


@pytest.mark.parametrize("p", _ARRAY_SCAN_PRIMES)
def test_array_zero_scan_matches_the_table_scan(monkeypatch, p):
    # on prime fields from ARRAY_Q up PlaneTables scans on int64 arrays; the
    # table scan is the reference, on seeded forms, singular ones among them,
    # and on the zero form up to 257.  About 15 s in all, nearly all of it in
    # the table scans at 509 and 1021
    pt = _tables.plane_tables(mk_field(p, 1))
    assert pt.sf.on_arrays
    keys = _array_scan_forms(p, random.Random(3300 + p)) + ([[0] * 10] if p < 258 else [])
    got = [_bulk.prime_zero_sets(p, key) for key in keys]
    monkeypatch.setattr(pt.sf, "on_arrays", False)
    assert got == [pt._scan_zero_sets(key) for key in keys]
    assert got[2][1]  # the singular form
    if p < 258:
        assert got[-1] == (tuple(range(pt.n_points)),) * 2  # the zero form
    assert all(type(i) is int for zeros, singular in got for i in zeros + singular)


def _random_transform(spec, rng):
    elems = list(spec.elements())
    while True:
        try:
            return LinearTransform(spec, [[rng.choice(elems) for _ in range(3)]
                                          for _ in range(3)])
        except ValueError:
            continue


def _special_forms(spec, rng):
    """A line times a conic, nodal and cuspidal cubics, a triangle of lines
    and a double line times a line, each moved by a random transform."""
    elems = list(spec.elements())
    line = [rng.choice(elems) for _ in range(3)]
    conic = [rng.choice(elems) for _ in range(6)]
    forms = [mul_quad_lin(conic, line, spec)]
    for shape in ({"112": 1, "000": -1, "002": -1},  # Y^2 Z = X^3 + X^2 Z
                  {"112": 1, "000": -1},  # Y^2 Z = X^3
                  {"012": 1},  # XYZ
                  {"001": 1}):  # X^2 Y
        forms.append(act(_random_transform(spec, rng), cubic(spec, shape)).coeffs)
    return [TernaryCubic(spec, f) for f in forms if any(f)]


def _check_singular_zeros(F, multiples):
    """The singular zeros of PlaneTables.zero_sets against the gradient of plane.partials at every
    rational point, for F and its multiples."""
    spec = F.spec
    pt = _tables.plane_tables(spec)
    row = pt.sf.encode_all(F.coeffs)
    want = tuple(i for i, P in zip(pt.zeros(row), rational_points(F))
                 if not any(gradient(F, P)))
    assert pt.zero_sets(row) == (pt.zeros(row), want), F
    for c in multiples:
        assert pt.zero_sets([pt.sf.mul[c][d] for d in row])[1] == want


_SINGULAR_FIELDS = tuple(mk_field(p, m) for p, m in
                         ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                          (13, 1)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_singular_zeros_match_the_gradient_filter(data):
    spec = data.draw(st.sampled_from(_SINGULAR_FIELDS))
    pt = _tables.plane_tables(spec)
    row = data.draw(st.lists(st.integers(0, spec.q - 1), min_size=10, max_size=10)
                    .filter(any))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for F in [TernaryCubic(spec, [pt.sf.decode(d) for d in row])] + _special_forms(spec, rng):
        _check_singular_zeros(F, range(2, spec.q))


def test_singular_zeros_past_the_table_cap():
    # q = 257 computes table rows on subscript; one scan per form
    spec = mk_field(257, 1)
    rng = random.Random(257)
    forms = _special_forms(spec, rng)
    assert len(forms) == 5
    for F in forms:
        _check_singular_zeros(F, rng.sample(range(2, spec.q), 4))
    # every shape but the line times a conic has a rational singular point
    pt = _tables.plane_tables(spec)
    assert all(pt.zero_sets(pt.sf.encode_all(F.coeffs))[1] for F in forms[1:])


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                  (13, 1), (5, 2), (31, 1), (2, 6), (101, 1), (257, 1)])
def test_singular_zeros_match_the_table_gradient(p, m):
    # the early-exit pass of _scan_zero_sets against PlaneTables.gradient at
    # every zero, on seeded cubics and on singular ones: a line times a conic,
    # nodal, cuspidal, a triangle, a double line times a line and three
    # concurrent lines XY(X + Y), each moved by a random transform
    spec = mk_field(p, m)
    rng = random.Random(1500 + spec.q)
    pt = _tables.plane_tables(spec)
    special = _special_forms(spec, rng) + [
        act(_random_transform(spec, rng), cubic(spec, {"001": 1, "011": 1}))]
    rows = [[rng.randrange(spec.q) for _ in range(10)] for _ in range(4)]
    rows = [r for r in rows if any(r)] + [pt.sf.encode_all(F.coeffs) for F in special]
    for row in rows:
        zeros, singular = pt.zero_sets(row)
        assert singular == tuple(i for i in zeros if not any(pt.gradient(row, pt.point(i)))), row
    # the five moved shapes have a rational singular point
    assert all(pt.zero_sets(pt.sf.encode_all(F.coeffs))[1] for F in special[-5:])


@pytest.mark.slow
def test_is_smooth_agrees_with_extension_search_gallery_f4():
    from cubicrep import gallery

    for F in gallery.two_rep_curves()[4][:2]:
        assert is_smooth(F) and is_smooth_by_search(F)


def test_rational_points_examples():
    F = golden.curve(5, {"002": 1, "111": 1, "122": 2})
    assert rational_points(F) == [ProjPoint(F5, (1, 0, 0)), ProjPoint(F5, (0, 0, 1))]
    G = golden.curve(2, {"002": 1, "011": 1, "122": 1})
    assert rational_points(G) == [ProjPoint(F2, (1, 0, 0)), ProjPoint(F2, (0, 1, 0)),
                                  ProjPoint(F2, (0, 0, 1))]
    H = golden.curve(2, {"002": 1, "022": 1, "111": 1, "112": 1, "222": 1})
    assert rational_points(H) == [ProjPoint(F2, (1, 0, 0))]


def test_tangent_line_examples():
    G = cubic(F2, {"002": 1, "011": 1, "122": 1})
    assert tangent_line(G, ProjPoint(F2, (1, 0, 0))) == (F2.zero(), F2.zero(), F2.one())
    F = golden.curve(5, {"002": 1, "111": 1, "122": 2})
    assert tangent_line(F, ProjPoint(F5, (1, 0, 0))) == (F5.zero(), F5.zero(), F5.one())
    with pytest.raises(NotOnCurve):
        tangent_line(G, ProjPoint(F2, (1, 1, 1)))


def test_tangent_line_singular_point():
    F = cubic(F2, {"000": 1})  # X^3, singular along X = 0
    with pytest.raises(SingularPoint):
        tangent_line(F, ProjPoint(F2, (0, 1, 0)))


def test_is_flex_examples():
    F = cubic(F2, {"002": 1, "022": 1, "111": 1})
    assert is_flex(F, ProjPoint(F2, (1, 0, 0)))
    G = cubic(F2, {"002": 1, "011": 1, "122": 1})
    assert not is_flex(G, ProjPoint(F2, (0, 1, 0)))
    H = golden.curve(2, {"002": 1, "012": 1, "111": 1, "112": 1, "122": 1})
    assert is_flex(H, ProjPoint(F2, (1, 0, 0)))


def test_golden_points_and_flexes():
    for row in (golden.NO_REP_ROWS + golden.UNIQUE_REP_ROWS
                + golden.two_rep_rows_flat()):
        F = golden.row_curve(row)
        assert is_smooth(F)
        expected = golden.row_points(row)
        assert rational_points(F) == [P for P, _ in expected]
        for P, flex in expected:
            assert is_flex(F, P) == flex, (row["q"], row["coeffs"], P)


def _flex_outcome(flex_test, F, P):
    try:
        return flex_test(F, P)
    except (NotOnCurve, SingularPoint, FieldMismatch) as exc:
        return type(exc)


def _flex_test_forms(census2, census3):
    """Census representatives, golden rows, and seeded random forms over
    eleven fields, each with a line times a conic so singular points occur."""
    forms = [o.representative for cen in (census2, census3) for o in cen.orbits]
    forms += [golden.row_curve(row) for row in golden.NO_REP_ROWS + golden.all_matrix_rows()]
    rng = random.Random(13)
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (11, 1), (13, 1), (2, 4), (31, 1)):
        spec = mk_field(p, m)
        elems = list(spec.elements())
        for _ in range(8):
            coeffs = [rng.choice(elems) for _ in range(10)]
            if any(coeffs):
                forms.append(TernaryCubic(spec, coeffs))
        conic = [rng.choice(elems) for _ in range(6)]
        line = [rng.choice(elems) for _ in range(2)] + [spec.one()]
        if any(conic):
            forms.append(TernaryCubic(spec, mul_quad_lin(conic, line, spec)))
    return forms


def test_is_flex_matches_the_line_restriction(census2, census3):
    # is_flex reads a011 off the normal form; the reference restricts F to
    # the tangent line and counts the root multiplicity at P
    seen = set()
    for F in _flex_test_forms(census2, census3):
        pts = rational_points(F)
        off = next((P for P in projective_points(F.spec) if P not in pts), None)
        for P in pts + ([off] if off is not None else []):
            outcome = _flex_outcome(is_flex, F, P)
            assert outcome == _flex_outcome(object_reference.is_flex, F, P), (F, P)
            seen.add(outcome)
    assert seen == {True, False, NotOnCurve, SingularPoint}
    # X^2 Z + Y Z^2 = Z (X^2 + Y Z): the tangent Z = 0 at [1:0:0] is a component
    for spec in (F2, F3, F5):
        F = cubic(spec, {"002": 1, "122": 1})
        P = ProjPoint(spec, (1, 0, 0))
        assert is_flex(F, P) is object_reference.is_flex(F, P) is True
    F = cubic(F2, {"002": 1, "122": 1})
    assert _flex_outcome(is_flex, F, ProjPoint(F3, (1, 0, 0))) is FieldMismatch
    assert _flex_outcome(object_reference.is_flex, F, ProjPoint(F3, (1, 0, 0))) is FieldMismatch


def test_act_examples():
    G = cubic(F2, {"002": 1, "011": 1, "122": 1})
    ident = LinearTransform.identity(F2)
    assert act(ident, G) == G
    swap_xz = LinearTransform(F2, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert act(swap_xz, cubic(F2, {"002": 1})) == cubic(F2, {"022": 1})
    swap_xy = LinearTransform(F2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    moved = act(swap_xy, G)
    assert moved == cubic(F2, {"112": 1, "001": 1, "022": 1})
    inv = swap_xy.inverse()
    assert {ProjPoint(F2, inv.apply_coords(P.coords)) for P in rational_points(G)} \
        == set(rational_points(moved))


_PERMS3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def _transform_from_digits(spec, digits):
    """Invertible matrix built as permutation * lower-unit * diag * upper-unit."""
    lo, up = digits[0:3], digits[3:6]
    diag = [1 + d % (spec.q - 1) for d in digits[6:9]] if spec.q > 2 else [1, 1, 1]
    perm = _PERMS3[digits[9] % 6]
    rows = [[0] * 3 for _ in range(3)]
    l_rows = [[1, 0, 0], [lo[0], 1, 0], [lo[1], lo[2], 1]]
    u_rows = [[1, up[0], up[1]], [0, 1, up[2]], [0, 0, 1]]
    for i in range(3):
        for j in range(3):
            rows[i][j] = sum(l_rows[i][k] * diag[k] * u_rows[k][j]
                             for k in range(3))
    return LinearTransform(spec, [[spec.element(rows[perm[i]][j])
                                   for j in range(3)] for i in range(3)])


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 3]),
    sd=st.lists(st.integers(0, 2), min_size=10, max_size=10),
    td=st.lists(st.integers(0, 2), min_size=10, max_size=10),
    fd=st.lists(st.integers(0, 2), min_size=10, max_size=10),
)
def test_act_is_group_action(q, sd, td, fd):
    spec = F2 if q == 2 else F3
    s = _transform_from_digits(spec, sd)
    t = _transform_from_digits(spec, td)
    fd = [v % spec.q for v in fd]
    if not any(fd):
        fd = [1] + fd[1:]
    F = TernaryCubic(spec, [spec.element(v) for v in fd])
    assert act(s, act(t, F)) == act(t @ s, F)


_INVERSE_FIELDS = tuple(mk_field(p, m) for p, m in
                       ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                        (13, 1), (2, 4), (17, 1), (5, 2), (31, 1), (2, 6), (101, 1),
                        (257, 1)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_transform_inverse_is_two_sided(data):
    # F_257 runs the adjugate inverse on tables computed row by row on subscript
    spec = data.draw(st.sampled_from(_INVERSE_FIELDS))
    rows = data.draw(st.lists(st.lists(st.integers(0, spec.q - 1), min_size=3, max_size=3),
                              min_size=3, max_size=3))
    try:
        T = LinearTransform(spec, rows)
    except ValueError:
        assume(False)
    ident = LinearTransform.identity(spec)
    assert T @ T.inverse() == ident
    assert T.inverse() @ T == ident


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_transform_det_matches_object_expansion(data):
    # both constructors test singularity with det3_idx and decode det from it
    spec = data.draw(st.sampled_from(_INVERSE_FIELDS))
    sf = _tables.scalar_field(spec)
    idx = data.draw(st.lists(st.lists(st.integers(0, spec.q - 1), min_size=3, max_size=3),
                             min_size=3, max_size=3))
    rows = [[sf.decode(c) for c in row] for row in idx]
    want = object_reference.det3(rows)
    if not want:
        for build in (lambda: LinearTransform(spec, rows),
                      lambda: LinearTransform._from_idx(sf, idx)):
            with pytest.raises(ValueError, match="singular"):
                build()
        return
    T, U = LinearTransform(spec, rows), LinearTransform._from_idx(sf, idx)
    assert T == U and T.det == U.det == want


def test_normalize_examples():
    G = cubic(F2, {"002": 1, "011": 1, "122": 1})
    T, Gn = normalize(G, ProjPoint(F2, (1, 0, 0)))
    assert T == LinearTransform.identity(F2)
    assert Gn == G
    F = golden.curve(5, {"002": 1, "111": 1, "122": 2})
    T5, Fn5 = normalize(F, ProjPoint(F5, (1, 0, 0)))
    assert T5 == LinearTransform.identity(F5)
    assert Fn5 == F
    rotated = cubic(F2, {"022": 1, "112": 1, "001": 1})  # Z^2 X + Z Y^2 + Y X^2
    T2, F2n = normalize(rotated, ProjPoint(F2, (0, 0, 1)))
    assert F2n == G
    assert act(T2, rotated) == G


def test_normalize_errors():
    G = cubic(F2, {"002": 1, "011": 1, "122": 1})
    with pytest.raises(NotOnCurve):
        normalize(G, ProjPoint(F2, (1, 1, 1)))
    with pytest.raises(SingularInput):
        normalize(cubic(F2, {"000": 1}), ProjPoint(F2, (0, 1, 0)))


def test_normalize_postcondition_on_gallery():
    from cubicrep import gallery

    curves = ([f for f in gallery.no_rep_curves().values()]
              + [f for f in gallery.unique_rep_curves().values()]
              + [f for fs in gallery.two_rep_curves().values() for f in fs])
    for F in curves:
        for P0 in rational_points(F):
            T, Fn = normalize(F, P0)
            assert is_normalized(Fn)
            assert not Fn.evaluate(ProjPoint(F.spec, (1, 0, 0)))
            assert tangent_line(Fn, ProjPoint(F.spec, (1, 0, 0))) \
                == (F.spec.zero(), F.spec.zero(), F.spec.one())


def test_hasse_weil_bound_on_censuses(census_forms):
    rng = random.Random(3)
    for q, forms in census_forms.items():
        spec = forms[0].spec
        sf = _tables.scalar_field(spec)
        rows = __import__("numpy").array(
            [[sf.encode(c) for c in F.coeffs] for F in forms], dtype="uint8")
        counts = _bulk.point_counts(spec, rows)
        floor_bound = max(math.ceil((math.sqrt(q) - 1) ** 2), 1)
        assert (counts >= floor_bound).all()
        for i in rng.sample(range(len(forms)), 60):
            assert len(rational_points(forms[i])) == counts[i]


def test_hasse_weil_bound_on_gallery():
    from cubicrep import gallery

    for q, curves in gallery.two_rep_curves().items():
        bound = (math.sqrt(q) - 1) ** 2
        for F in curves:
            assert len(rational_points(F)) >= bound


def test_point_enumeration_starts_at_e1():
    pts = list(projective_points(F3))
    assert pts[0] == ProjPoint(F3, (1, 0, 0))
    assert len(pts) == 13
    assert len(set(pts)) == 13


def test_smoothness_at_the_field_size_cap():
    # the rational-data test works wherever the field itself fits the cap;
    # the degree-4 extension the search would need does not exist there
    from cubicrep.gf import UnsupportedSize

    f13 = mk_field(13, 1)
    F = TernaryCubic.from_dict(f13, {"000": 1, "111": 1, "222": 1})
    assert is_smooth(F)
    with pytest.raises(UnsupportedSize):
        mk_field(13, 4)
