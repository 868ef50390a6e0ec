"""The O(q) field rules of _tables.ScalarField against FieldElement arithmetic."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubicrep import _tables
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
