import hashlib
import itertools
import time

import pytest
from sympy import primefactors

from cubicrep.gf import (
    DivisionByZero,
    FieldMismatch,
    NonPrime,
    NotAnExtension,
    SIZE_CAP,
    UnsupportedSize,
    arith,
    default_modulus,
    embed,
    enumerate_field,
    frobenius,
    is_prime,
    mk_field,
    parse_field_literal,
    prime_factors,
)

SMALL_QS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
            (11, 1), (13, 1), (2, 4)]


def test_default_modulus_f4_matches_omega_relation():
    f4 = mk_field(2, 2)
    assert f4.modulus == (1, 1, 1)
    g = f4.gen()
    assert g * g == g + 1


def test_prime_field_modulus_convention():
    f7 = mk_field(7, 1)
    assert f7.modulus == (0, 1)
    assert f7.q == 7


def test_default_moduli_are_pinned():
    # every prime power p^m <= 2^14 with m >= 2, p and then m ascending; the
    # digest pins each field's model, hence the element order of every table
    lines = [f"{p},{m}:{default_modulus(p, m)}" for p in range(2, 129) if is_prime(p)
             for m in range(2, 15) if p ** m <= SIZE_CAP]
    assert len(lines) == 61
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "c00f7418f2d1cf2effdd381efb15bb8ea56ff869f1ab0c938a4f3011ce506789")


def test_prime_factors_match_sympy():
    # the one trial division behind is_prime and the primitive elements of
    # _tables, over every n up to just past the size cap
    start = time.perf_counter()
    for n in range(1, SIZE_CAP + 3):
        assert prime_factors(n) == primefactors(n), n
        assert is_prime(n) == (primefactors(n) == [n]), n
    assert time.perf_counter() - start < 5


def test_nonprime_rejected():
    with pytest.raises(NonPrime):
        mk_field(4, 1)


def test_size_cap():
    assert SIZE_CAP == 2 ** 14
    with pytest.raises(UnsupportedSize):
        mk_field(2, 15)
    with pytest.raises(UnsupportedSize):
        parse_field_literal("2^15")
    assert mk_field(2, 14).q == SIZE_CAP  # exactly at the cap


def test_arith_examples():
    f4 = mk_field(2, 2)
    w = f4.gen()
    assert arith(w, w, "mul") == w + 1
    f7 = mk_field(7, 1)
    one = f7.one()
    assert arith(one, one, "div") == one
    assert arith(one, f7.element(3), "div") == f7.element(5)


def test_division_by_zero():
    f7 = mk_field(7, 1)
    with pytest.raises(DivisionByZero):
        f7.one() / f7.zero()


def test_field_mismatch():
    a = mk_field(2, 1).one()
    b = mk_field(3, 1).one()
    with pytest.raises(FieldMismatch):
        a + b


def test_frobenius_examples():
    f4 = mk_field(2, 2)
    w = f4.gen()
    assert frobenius(w) == w * w == w + 1
    f7 = mk_field(7, 1)
    assert frobenius(f7.element(3)) == f7.element(3)
    assert frobenius(f4.one()) == f4.one()


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3), (2, 4)])
def test_frobenius_is_field_automorphism(p, m):
    spec = mk_field(p, m)
    elems = enumerate_field(spec)
    for a in elems:
        b = a
        for _ in range(m):
            b = frobenius(b)
        assert b == a
    for a in elems:
        for b in elems:
            assert frobenius(a + b) == frobenius(a) + frobenius(b)
            assert frobenius(a * b) == frobenius(a) * frobenius(b)


def test_embed_examples():
    f2, f3 = mk_field(2, 1), mk_field(3, 1)
    f16, f9 = mk_field(2, 4), mk_field(3, 2)
    assert embed(f2.one(), f16) == f16.one()
    assert embed(f3.zero(), f9) == f9.zero()
    f4 = mk_field(2, 2)
    w = f4.gen()
    r = embed(w, f16)
    assert r * r + r + 1 == f16.zero()  # image is a root of x^2 + x + 1


def test_embed_not_an_extension():
    with pytest.raises(NotAnExtension):
        embed(mk_field(2, 2).one(), mk_field(2, 3))
    with pytest.raises(NotAnExtension):
        embed(mk_field(2, 1).one(), mk_field(3, 1))


@pytest.mark.parametrize("src,dst", [((2, 2), (2, 4)), ((2, 1), (2, 3))])
def test_embed_is_injective_ring_hom(src, dst):
    source = mk_field(*src)
    target = mk_field(*dst)
    images = {}
    for a in enumerate_field(source):
        images[a] = embed(a, target)
    assert len(set(images.values())) == source.q
    for a in enumerate_field(source):
        for b in enumerate_field(source):
            assert embed(a + b, target) == images[a] + images[b]
            assert embed(a * b, target) == images[a] * images[b]


def test_enumerate_examples():
    f2 = mk_field(2, 1)
    assert enumerate_field(f2) == [f2.zero(), f2.one()]
    f4 = mk_field(2, 2)
    w = f4.gen()
    assert enumerate_field(f4) == [f4.zero(), f4.one(), w, w + 1]
    f9 = mk_field(3, 2)
    elems = enumerate_field(f9)
    assert len(elems) == 9
    assert len(set(elems)) == 9


@pytest.mark.parametrize("p,m", SMALL_QS + [(2, 4)])
def test_field_axioms_exhaustive(p, m):
    spec = mk_field(p, m)
    elems = enumerate_field(spec)
    zero, one = spec.zero(), spec.one()
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if a:
            assert a * a.inverse() == one
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_int_coercion_in_ops():
    f5 = mk_field(5, 1)
    a = f5.element(3)
    assert a + 4 == f5.element(2)
    assert 2 * a == f5.element(1)
    assert a == 3
    assert a ** 4 == 1


def test_parse_field_literal():
    assert parse_field_literal("2^2").q == 4
    assert parse_field_literal("7").q == 7
    with pytest.raises(NonPrime):
        parse_field_literal("6")
