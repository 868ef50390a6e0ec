"""The O(q) field rules of _tables.ScalarField, the symbolic determinant,
the substitution into a cubic and the kernel by row reduction of _tables
against FieldElement arithmetic."""

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import object_reference
from cubicrep import _bulk, _tables
from cubicrep.detrep import LinearMatrixRep
from cubicrep.gf import DivisionByZero, mk_field
from cubicrep.plane import TernaryCubic

# prime, binary and odd extension fields on both sides of MAX_TABLE_Q, up
# to the size cap
_RULE_FIELDS = tuple(mk_field(p, m) for p, m in
                     ((2, 1), (3, 1), (2, 2), (3, 2), (101, 1), (2, 6), (257, 1),
                      (2, 9), (3, 6), (5, 4), (16381, 1), (2, 14)))


def _check_pair(sf, a, b):
    x, y = sf.decode(a), sf.decode(b)
    assert sf.decode(sf.add[a][b]) == x + y
    assert sf.decode(sf.add[a][sf.neg[b]]) == x - y
    assert sf.decode(sf.mul[a][b]) == x * y
    assert sf.decode(sf.neg[a]) == -x
    if a:
        assert sf.decode(sf.inv[a]) == x.inverse()
    # the integer k has index k mod p
    for k in range(4):
        assert sf.decode(sf.mul[k % sf.spec.p][a]) == x * k


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_field_rules_agree_with_field_elements(data):
    spec = data.draw(st.sampled_from(_RULE_FIELDS))
    sf = _tables.scalar_field(spec)
    a, b = (data.draw(st.integers(0, spec.q - 1)) for _ in range(2))
    _check_pair(sf, a, b)
    assert sf.encode(sf.decode(a)) == a


def _check_rows(sf, rows):
    elems = sf.elems
    for a in rows:
        x = elems[a]
        assert [elems[v] for v in sf.add[a]] == [x + y for y in elems]
        assert [elems[sf.add[a][sf.neg[b]]] for b in range(sf.q)] == [x - y for y in elems]
        assert [elems[v] for v in sf.mul[a]] == [x * y for y in elems]
    # the uint8 copies of the batched kernels live in _bulk only
    assert not any(isinstance(v, np.ndarray) for v in vars(sf).values())
    arrays = _bulk._arrays(sf.spec)
    assert len(arrays) == 4
    for name, array in zip(("add", "mul", "neg", "inv"), arrays):
        assert array.dtype == np.uint8 and (array == np.array(getattr(sf, name))).all()


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                  (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)])
def test_list_tables_exhaustive_up_to_64(p, m):
    sf = _tables.scalar_field(mk_field(p, m))
    _check_rows(sf, range(sf.q))
    for a in range(sf.q):
        _check_pair(sf, a, 0)


@pytest.mark.parametrize("p, m", [(3, 4), (101, 1), (11, 2), (5, 3), (2, 7),
                                  (3, 5), (251, 1), (2, 8)])
def test_list_tables_sampled_rows_up_to_256(p, m):
    sf = _tables.scalar_field(mk_field(p, m))
    rng = random.Random(sf.q)
    _check_rows(sf, [0, 1, sf.q - 1] + rng.sample(range(2, sf.q - 1), 3))
    for a in range(sf.q):
        _check_pair(sf, a, rng.randrange(sf.q))


def test_tables_past_256_are_rows_on_subscript():
    # add and mul are lists of q rows on every field: list rows up to
    # MAX_TABLE_Q, rows computed on subscript past it, so that no structure
    # holds q^2 entries there; F_512 adds by XOR and F_729 by Zech logarithms
    for p, m in ((251, 1), (2, 8), (257, 1), (2, 9), (3, 6)):
        sf = _tables.scalar_field(mk_field(p, m))
        assert not any(hasattr(sf, name) for name in ("ADD", "sub", "int_mul"))
        assert len(sf.neg) == len(sf.inv) == len(sf.elems) == sf.q
        for table in (sf.add, sf.mul):
            assert isinstance(table, list) and len(table) == sf.q
            if sf.q <= _tables.MAX_TABLE_Q:
                assert all(isinstance(row, list) and len(row) == sf.q for row in table)
            else:
                assert not any(isinstance(row, list) for row in table)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_powers_and_inverses_on_extension_fields(data):
    spec = data.draw(st.sampled_from([s for s in _RULE_FIELDS if s.m > 1]))
    coeffs = data.draw(st.lists(st.integers(0, spec.p - 1), min_size=spec.m,
                                max_size=spec.m).filter(any))
    x = spec.element(coeffs)
    n = data.draw(st.integers(0, 2 * spec.q))
    assert x ** (spec.q - 1) == 1
    assert x ** -n == (x ** n).inverse()
    assert x * x.inverse() == 1
    with pytest.raises(DivisionByZero):
        spec.zero().inverse()
    with pytest.raises(DivisionByZero):
        spec.zero() ** -1


# prime and extension fields from F_2 to F_257, on both sides of MAX_TABLE_Q
_DET_FIELDS = tuple(mk_field(p, m) for p, m in
                    ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1),
                     (2, 4), (5, 2), (3, 3), (101, 1), (2, 8), (257, 1)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_det_cubic_idx_matches_the_permutation_expansion(data):
    spec = data.draw(st.sampled_from(_DET_FIELDS))
    sf = _tables.scalar_field(spec)
    coeff = st.integers(0, spec.q - 1)
    # zero entries come up often, so zero rows, columns and matrices do too
    entry = st.one_of(st.just((0, 0, 0)), st.tuples(coeff, coeff, coeff))
    rows = [data.draw(st.lists(entry, min_size=3, max_size=3)) for _ in range(3)]
    dependent = data.draw(st.sampled_from(("none", "rows", "columns")))
    if dependent != "none":
        # the last row (column) becomes c0 * the first + c1 * the second, so
        # the determinant vanishes identically
        c0, c1 = data.draw(coeff), data.draw(coeff)
        grid = rows if dependent == "rows" else [list(col) for col in zip(*rows)]
        grid[2] = [tuple(sf.add[sf.mul[c0][x]][sf.mul[c1][y]] for x, y in zip(e0, e1))
                   for e0, e1 in zip(grid[0], grid[1])]
        rows = grid if dependent == "rows" else [list(col) for col in zip(*grid)]
    rep = LinearMatrixRep.from_entries(spec, [[[sf.decode(c) for c in e] for e in row]
                                              for row in rows])
    want = object_reference.det_cubic(rep)
    got = _tables.det_cubic_idx(rows, sf)
    assert got == ([0] * 10 if want is None else sf.encode_all(want.coeffs))
    if dependent != "none":
        assert want is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_act_idx_matches_the_object_substitution(data):
    spec = data.draw(st.sampled_from(_DET_FIELDS))
    sf = _tables.scalar_field(spec)
    coeff = st.integers(0, spec.q - 1)
    nonzero = st.integers(1, spec.q - 1)
    # zero entries come up often, so zero rows and columns do too
    entry = st.one_of(st.just(0), coeff)
    t = [data.draw(st.lists(entry, min_size=3, max_size=3)) for _ in range(3)]
    if data.draw(st.booleans()):
        # singular T: the last row becomes c0 * the first + c1 * the second
        c0, c1 = data.draw(coeff), data.draw(coeff)
        t[2] = [sf.add[sf.mul[c0][x]][sf.mul[c1][y]] for x, y in zip(t[0], t[1])]
    shape = data.draw(st.sampled_from(("dense", "sparse", "one term")))
    f = [0] * 10
    if shape != "one term":
        f = data.draw(st.lists(coeff if shape == "dense" else entry, min_size=10, max_size=10))
    f[data.draw(st.integers(0, 9))] = data.draw(nonzero)
    # the reference reads only T.rows, so T may be singular here
    T = SimpleNamespace(rows=[[sf.decode(c) for c in row] for row in t])
    F = TernaryCubic(spec, [sf.decode(c) for c in f])
    got = _tables.act_idx(t, f, sf)
    if any(got):
        assert got == sf.encode_all(object_reference.act(T, F).coeffs)
    else:
        with pytest.raises(ValueError, match="zero form"):
            object_reference.act(T, F)


def _check_kernel(rows, sf):
    got = [tuple(sf.decode(v) for v in vec) for vec in _tables.right_kernel_idx(rows, sf)]
    ref = object_reference.right_kernel([[sf.decode(x) for x in row] for row in rows], sf.spec)
    assert got == ref, rows


_KERNEL_FIELDS = tuple(mk_field(p, m) for p, m in
                       ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3), (13, 1), (2, 6),
                        (101, 1), (257, 1)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_right_kernel_matches_row_reduction(data):
    spec = data.draw(st.sampled_from(_KERNEL_FIELDS))
    sf = _tables.scalar_field(spec)
    nrows, ncols = data.draw(st.integers(1, 18)), data.draw(st.integers(1, 10))
    coeff = st.integers(0, spec.q - 1)
    # zero entries come up often, so zero rows and columns do too
    entry = st.one_of(st.just(0), coeff)
    rows = [data.draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for k in range(data.draw(st.integers(0, nrows - 1))):
        # rank deficiency: row k becomes c0 * row k+1 + c1 * the last row
        c0, c1 = data.draw(coeff), data.draw(coeff)
        rows[k] = [sf.add[sf.mul[c0][x]][sf.mul[c1][y]] for x, y in zip(rows[k + 1], rows[-1])]
    _check_kernel(rows, sf)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2), (2, 6), (31, 1),
                                  pytest.param(257, 1, marks=pytest.mark.slow)])
def test_right_kernel_matches_row_reduction_on_solver_systems(monkeypatch, p, m):
    # the 18 x 9 B-systems of the kernel certificate, on pairs (m, A m B)
    # and (m, A n B), and the 9 x 9 systems of symmetrize
    from cubicrep.detrep import _kernel_certificate, all_reps, symmetrize, transform_rep
    from cubicrep.plane import LinearTransform, TernaryCubic, is_smooth

    spec = mk_field(p, m)
    sf = _tables.scalar_field(spec)
    systems = []
    solve = _tables.right_kernel_idx

    def recording(rows, sf):
        systems.append([list(r) for r in rows])
        return solve(rows, sf)

    monkeypatch.setattr(_tables, "right_kernel_idx", recording)
    rng = random.Random(9100 + spec.q)
    el = sf.elems
    curves = 0
    while curves < 3:
        F = TernaryCubic(spec, [el[rng.randrange(spec.q)] for _ in range(10)])
        if not is_smooth(F):
            continue
        curves += 1
        reps = [rep for _, rep, _ in all_reps(F)][:6]
        for k, rep in enumerate(reps):
            while True:
                try:
                    A, B = (LinearTransform(spec, [[el[rng.randrange(spec.q)] for _ in range(3)]
                                                   for _ in range(3)]) for _ in range(2))
                    break
                except ValueError:
                    continue
            for other in (rep, reps[k - 1]):
                _kernel_certificate(rep, transform_rep(A, other, B))
            symmetrize(rep)
    monkeypatch.undo()
    shapes = {(len(rows), len(rows[0])) for rows in systems}
    assert shapes == {(18, 9), (9, 9)}
    for rows in systems:
        _check_kernel(rows, sf)
