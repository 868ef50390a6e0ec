"""Exact arithmetic in small finite fields F_{p^m}.

A field is an explicit quotient F_p[x]/(f) for a monic irreducible f, and f
is always the default modulus of (p, m): the lexicographically smallest
monic irreducible of degree m, comparing coefficient tuples constant term
first.  With that convention F_4 is built on x^2 + x + 1, so its generator g
satisfies g^2 = g + 1.

Elements are stored as reduced coefficient tuples (low degree first) and are
immutable value objects; all operations are pure and exact.  There is one
polynomial reduction, by a monic polynomial, behind multiplication and the
irreducibility test, and one square-and-multiply, FieldSpec._pow, behind
powers and inverses: a nonzero a has inverse a^(q-2).  Fields are capped at
q <= SIZE_CAP = 2^14, which keeps irreducibility testing and root searches
exhaustive and cheap; a larger q raises UnsupportedSize.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

SIZE_CAP = 1 << 14


class FieldError(Exception):
    """Base class for field construction and arithmetic failures."""


class NonPrime(FieldError):
    pass


class UnsupportedSize(FieldError):
    pass


class FieldMismatch(FieldError):
    pass


class DivisionByZero(FieldError, ZeroDivisionError):
    pass


class NotAnExtension(FieldError):
    pass


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division up
    to the square root of what is left; [] for n = 1."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def is_prime(n: int) -> bool:
    """Whether n is prime: n >= 2 and n is its own only prime factor."""
    return n >= 2 and prime_factors(n) == [n]


# ---------------------------------------------------------------------------
# polynomial helpers on int-coefficient tuples, low degree first

def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _poly_mod(a, mod, p):
    """Remainder of a modulo the monic polynomial mod."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _trim(a[:dm])


def poly_string(coeffs, var: str) -> str:
    """The polynomial with these coefficients in var, e.g. '1 + 2x^2' for
    var = 'x'; '0' when every coefficient is zero."""
    terms = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            v = var if i == 1 else f"{var}^{i}"
            terms.append(v if c == 1 else f"{c}{v}")
    return " + ".join(terms) if terms else "0"


def _is_irreducible(coeffs, p) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    m = len(coeffs) - 1
    if m == 1:
        return True
    for d in range(1, m // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not _poly_mod(coeffs, tail + (1,), p):
                return False
    return True


@lru_cache(maxsize=None)
def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over F_p."""
    for tail in itertools.product(range(p), repeat=m):
        cand = tail + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class FieldSpec:
    """An explicit model of F_{p^m}; immutable and hashable by value."""

    __slots__ = ("p", "m", "q", "modulus", "_hash")

    def __init__(self, p: int, m: int):
        # the size check runs before a trial division up to sqrt(p), minutes
        # on an 18-digit p, and before p ** m, seconds at m = 3 * 10^7; p >= 2
        # there, so every m >= 15 is past the cap
        if not isinstance(p, int) or not (p > SIZE_CAP or is_prime(p)):
            raise NonPrime(f"p = {p} is not prime")
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"m = {m} must be a positive integer")
        if p > SIZE_CAP or m >= SIZE_CAP.bit_length() or p ** m > SIZE_CAP:
            raise UnsupportedSize(f"q = {p}^{m} exceeds the size cap {SIZE_CAP}")
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = default_modulus(p, m)
        self._hash = hash((p, m))

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p and self.m == other.m

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    # -- element construction ------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Coerce an int, coefficient sequence, or FieldElement into this field."""
        if isinstance(value, FieldElement):
            if value.spec is not self and value.spec != self:
                raise FieldMismatch(f"{value!r} is not in {self!r}")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.m - 1)
            return FieldElement(self, coeffs)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.m:
            coeffs = _poly_mod(coeffs, self.modulus, self.p)
        coeffs = coeffs + (0,) * (self.m - len(coeffs))
        return FieldElement(self, coeffs)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def gen(self) -> "FieldElement":
        """The coset of x; for m = 1 this is 0 under the x-modulus convention."""
        return self.element([0, 1])

    def elements(self) -> Iterator["FieldElement"]:
        """All q elements, constant coefficient varying fastest: 0, 1, ..., g, 1+g, ..."""
        for n in range(self.q):
            coeffs = []
            k = n
            for _ in range(self.m):
                coeffs.append(k % self.p)
                k //= self.p
            yield FieldElement(self, tuple(coeffs))

    # -- tuple-level arithmetic ----------------------------------------------

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _mul(self, a, b):
        p = self.p
        if self.m == 1:
            return ((a[0] * b[0]) % p,)
        prod = _poly_mul(a, b, p)
        red = _poly_mod(prod, self.modulus, p)
        return red + (0,) * (self.m - len(red))

    def _pow(self, a, n: int):
        """a^n for n >= 0, by square-and-multiply; the builtin pow on prime fields."""
        if self.m == 1:
            return (pow(a[0], n, self.p),)
        out = (1,) + (0,) * (self.m - 1)
        while n:
            if n & 1:
                out = self._mul(out, a)
            a = self._mul(a, a)
            n >>= 1
        return out

    def _inv(self, a):
        """a^(q-2), the inverse of a nonzero a by Fermat's little theorem."""
        if not any(a):
            raise DivisionByZero("division by zero field element")
        return self._pow(a, self.q - 2)


class FieldElement:
    """An element of a FieldSpec, always in reduced canonical form."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...]):
        self.spec = spec
        self.coeffs = coeffs

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise FieldMismatch("operands live in different fields")
            return other
        if isinstance(other, int):
            return self.spec.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec._add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec._sub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec._sub(other.coeffs, self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec._mul(self.coeffs, self.spec._inv(other.coeffs)))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __neg__(self):
        p = self.spec.p
        return FieldElement(self.spec, tuple((-c) % p for c in self.coeffs))

    def __pow__(self, n: int):
        base = self.spec._inv(self.coeffs) if n < 0 else self.coeffs
        return FieldElement(self.spec, self.spec._pow(base, abs(n)))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec._inv(self.coeffs))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.spec.element(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return ((self.spec is other.spec or self.spec == other.spec)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return poly_string(self.coeffs, "g")


# ---------------------------------------------------------------------------
# operations


def mk_field(p: int, m: int) -> FieldSpec:
    """Build a validated FieldSpec on the default modulus of (p, m)."""
    return FieldSpec(p, m)


def arith(a: FieldElement, b: FieldElement, op: str) -> FieldElement:
    """Named-operation dispatch: op in {'add', 'sub', 'mul', 'div'}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def frobenius(a: FieldElement) -> FieldElement:
    """The p-power Frobenius a -> a^p."""
    return a ** a.spec.p


def enumerate_field(spec: FieldSpec) -> list[FieldElement]:
    """All q elements in the fixed canonical order."""
    return list(spec.elements())


def _value_at(coeffs, r: FieldElement) -> FieldElement:
    """The polynomial with these int coefficients, low degree first, at r."""
    acc = r.spec.zero()
    pw = r.spec.one()
    for c in coeffs:
        if c:
            acc = acc + pw * c
        pw = pw * r
    return acc


@lru_cache(maxsize=None)
def _embedding_root(source: FieldSpec, target: FieldSpec) -> FieldElement:
    """First root of the source modulus in the target, in enumeration order."""
    for r in target.elements():
        if not _value_at(source.modulus, r):
            return r
    raise AssertionError("no root of source modulus in target")  # unreachable


def embed(a: FieldElement, target: FieldSpec) -> FieldElement:
    """Ring-homomorphic image of a in an extension of its field.

    The embedding is pinned by sending the source generator to the first
    root of the source modulus in the target's enumeration order.
    """
    source = a.spec
    if source == target:
        return a
    if source.p != target.p or target.m % source.m != 0:
        raise NotAnExtension(f"{target!r} does not extend {source!r}")
    return _value_at(a.coeffs, _embedding_root(source, target))


def parse_field_literal(text: str) -> FieldSpec:
    """Parse a field literal "p" or "p^m" into a FieldSpec with the default modulus."""
    text = text.strip()
    if "^" in text:
        ps, ms = text.split("^", 1)
        return mk_field(int(ps), int(ms))
    return mk_field(int(text), 1)


def field_literal(spec: FieldSpec) -> str:
    return f"{spec.p}^{spec.m}" if spec.m > 1 else str(spec.p)
