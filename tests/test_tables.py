"""The O(q) field rules of _tables.ScalarField and the symbolic determinant
of _tables against FieldElement arithmetic."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import object_reference
from cubicrep import _tables
from cubicrep.detrep import LinearMatrixRep
from cubicrep.gf import mk_field

# prime, binary and odd extension fields on both sides of MAX_TABLE_Q, up
# to the size cap
_RULE_FIELDS = tuple(mk_field(p, m) for p, m in
                     ((2, 1), (3, 1), (2, 2), (3, 2), (101, 1), (2, 6), (257, 1),
                      (2, 9), (3, 6), (5, 4), (16381, 1), (2, 14)))


def _check_pair(sf, a, b):
    x, y = sf.decode(a), sf.decode(b)
    assert sf.decode(sf.add[a][b]) == x + y
    assert sf.decode(sf.sub[a][b]) == x - y
    assert sf.decode(sf.mul[a][b]) == x * y
    assert sf.decode(sf.neg[a]) == -x
    if a:
        assert sf.decode(sf.inv[a]) == x.inverse()
    for k in range(4):
        assert sf.decode(sf.int_mul[k][a]) == x * k


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
        assert [elems[v] for v in sf.sub[a]] == [x - y for y in elems]
        assert [elems[v] for v in sf.mul[a]] == [x * y for y in elems]
    for name in ("add", "sub", "mul", "inv", "int_mul"):
        view = getattr(sf, name.upper().replace("_", ""))
        assert (view == np.array(getattr(sf, name))).all()


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
    sf = _tables.scalar_field(mk_field(257, 1))
    assert not isinstance(sf.add, list) and not hasattr(sf, "ADD")
    assert len(sf.neg) == len(sf.inv) == len(sf.elems) == 257


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
