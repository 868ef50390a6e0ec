import pytest
from hypothesis import given, settings, strategies as st
from sympy import jacobi_symbol

from cubicrep.counting import (
    INFINITY,
    MAX_CLASS_NUMBER_DISC,
    BadDiscriminant,
    CountingError,
    CountReport,
    DiscriminantTooLarge,
    class_number_H,
    count_E,
    count_E3,
    count_E33,
    cub,
    cubics_with_points,
    epsilon,
    factor_prime_power,
    kronecker_symbol,
    t0,
    t1,
)

TABLE_FIELDS = (2, 3, 4, 5, 7)
LARGE_FIELDS = (8, 9, 11, 13)

# ingredient grid: per q, (#E(1..3), #E3(1..3), #E33(1..3), t0, t1, eps(q..q-2))
INGREDIENTS = {
    2: ((1, 1, 1), (0, 0, 1), (0, 0, 0), INFINITY, INFINITY, (0, 0, 0)),
    3: ((1, 1, 1), (0, 0, 1), (0, 0, 0), INFINITY, INFINITY, (0, 0, 0)),
    4: ((1, 1, 2), (0, 0, 2), (0, 0, 0), -4, -4, (0, 0, 0)),
    5: ((0, 1, 1), (0, 0, 1), (0, 0, 0), INFINITY, INFINITY, (0, 0, 0)),
    7: ((0, 0, 1), (0, 0, 1), (0, 0, 0), -1, INFINITY, (0, 0, 0)),
}

CUB_GRID = {
    0: (1, 1, 1, 0, 0),
    1: (1, 1, 1, 1, 0),
    2: (2, 2, 4, 2, 2),
}


def test_infinity_is_not_an_integer():
    assert INFINITY != 0
    assert INFINITY != -4
    assert INFINITY == INFINITY
    assert repr(INFINITY) == "∞"


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(13) == (13, 1)
    # trial division stops at the square root, so a large prime answers at once
    assert factor_prime_power(1000000007) == (1000000007, 1)
    assert factor_prime_power(3 ** 19) == (3, 19)
    with pytest.raises(ValueError):
        factor_prime_power(6)


def test_kronecker_examples():
    assert kronecker_symbol(-4, 2) == 0
    assert kronecker_symbol(-3, 2) == -1
    assert kronecker_symbol(-3, 7) == 1


@settings(max_examples=300, deadline=None)
@given(a=st.integers(-400, 400), n=st.integers(1, 400))
def test_kronecker_matches_jacobi_on_odd_n(a, n):
    n = 2 * n - 1  # force odd
    assert kronecker_symbol(a, n) == jacobi_symbol(a, n)


def test_kronecker_multiplicative_in_n():
    for a in range(-30, 31):
        for n1 in range(1, 40):
            for n2 in (2, 3, 4):
                assert (kronecker_symbol(a, n1 * n2)
                        == kronecker_symbol(a, n1) * kronecker_symbol(a, n2))


def test_class_number_examples():
    assert class_number_H(-3) == 1
    assert class_number_H(-7) == 1
    assert class_number_H(-8) == 1
    assert class_number_H(-12) == 2
    assert class_number_H(-15) == 2
    with pytest.raises(BadDiscriminant):
        class_number_H(-5)
    with pytest.raises(BadDiscriminant):
        class_number_H(4)


def test_class_number_past_the_bound_raises():
    # the loop runs about |disc|/3 steps; past the bound it does not start
    assert MAX_CLASS_NUMBER_DISC == 1 << 24
    for disc in (-MAX_CLASS_NUMBER_DISC - 4, -4 * 1000000007):
        with pytest.raises(DiscriminantTooLarge) as exc:
            class_number_H(disc)
        assert isinstance(exc.value, CountingError)


# -- independent oracle: reduce every form in a box and count the targets ----


def _reduce_form(a, b, c):
    """Gauss reduction of a positive definite form; independent code path."""
    while True:
        if not (-a < b <= a):
            # translate: x -> x - k*y puts b into (-a, a]
            k = -((a - b) // (2 * a))
            b, c = b - 2 * a * k, a * k * k - b * k + c
        if c < a:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return a, b, c


def _class_number_oracle(disc):
    seen = set()
    for a in range(1, 61):
        for b in range(-60, 61):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c <= 0 or c > 60:
                continue
            seen.add(_reduce_form(a, b, c))
    return len(seen)


def test_class_number_against_reduction_oracle():
    for disc in range(-200, -2):
        if disc % 4 not in (0, 1):
            continue
        assert class_number_H(disc) == _class_number_oracle(disc), disc


def test_count_E_examples():
    assert count_E(2, 1) == 1
    assert count_E(4, 3) == 2
    assert count_E(5, 1) == 0


def test_count_E3_examples():
    assert count_E3(2, 3) == 1
    assert count_E3(2, 2) == 0
    assert count_E3(4, 3) == 2


def test_count_E33_examples():
    assert count_E33(4, 3) == 0
    assert count_E33(7, 3) == 0
    assert count_E33(13, 12) == 0


def test_trace_examples():
    assert t0(4) == -4 and t1(4) == -4
    assert t0(7) == -1 and t1(7) is INFINITY
    assert t0(2) is INFINITY and t1(2) is INFINITY
    assert t0(13) == 5 and t1(13) == -4


def test_epsilon_examples():
    assert epsilon(4, 4) == 0
    assert epsilon(7, 5) == 0
    assert epsilon(2, 0) == epsilon(2, 1) == epsilon(2, 2) == 0
    # q = 16: t0 = t1 = 2*(2/3)^2*2^2 = 8, p = 2
    assert t0(16) == 8 and t1(16) == 8
    assert epsilon(16, 8) == 3
    # q = 13: t0 = 5 only
    assert epsilon(13, 5) == 2


def test_ingredient_grid():
    for q, (es, e3s, e33s, tt0, tt1, epss) in INGREDIENTS.items():
        assert tuple(count_E(q, n) for n in (1, 2, 3)) == es
        assert tuple(count_E3(q, n) for n in (1, 2, 3)) == e3s
        assert tuple(count_E33(q, n) for n in (1, 2, 3)) == e33s
        assert t0(q) == tt0
        assert t1(q) == tt1
        assert tuple(epsilon(q, q - k) for k in (0, 1, 2)) == epss


def test_cub_grid():
    for n, values in CUB_GRID.items():
        for q, expected in zip(TABLE_FIELDS, values):
            assert cub(q, n).total == expected, (q, n)
        for q in LARGE_FIELDS:
            assert cub(q, n).total == 0, (q, n)


def test_cubics_with_points_examples():
    assert cubics_with_points(2, 1).total == 1
    r = cubics_with_points(2, 3)
    assert (r.e, r.e3, r.e33, r.eps, r.total) == (1, 1, 0, 0, 2)
    assert cubics_with_points(11, 1).total == 0


def test_cub_examples():
    assert cub(4, 2).total == 4
    assert cub(7, 1).total == 0
    assert [cub(9, n).total for n in (0, 1, 2)] == [0, 0, 0]


def test_nonnegativity_sweep():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        for n in range(0, 2 * q + 1):
            report = cubics_with_points(q, n)
            assert report.total >= 0


def test_report_invariant_enforced():
    with pytest.raises(AssertionError):
        CountReport(q=2, n=1, e=1, e3=0, e33=0, t0=INFINITY, t1=INFINITY,
                    eps=0, total=5)
