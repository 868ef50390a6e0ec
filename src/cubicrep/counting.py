"""Class numbers and the counting formulas for smooth plane cubics.

The central quantity is the number of projective equivalence classes of
smooth plane cubics over F_q with a prescribed number n of rational points:

    #E_q(n) + #E_{q,3}(n) + 3 #E_{q,3,3}(n) - eps_q(q + 1 - n)

where the E-counts run over isomorphism classes of elliptic curves with n
points (optionally with 3-torsion constraints) and eps corrects for the
special traces t0, t1.  The number of representation classes of a cubic is
one less than its point count, so the class count with exactly n
representation classes is the same expression evaluated at n + 1 points.

All ingredients are exact integer arithmetic.  The Kronecker symbol is used
where the classical Jacobi symbol is undefined (even second argument); the
m-even branches at p = 2 force that extension, and the brute-force census
confirms it end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union


class CountingError(Exception):
    pass


class BadDiscriminant(CountingError):
    pass


class DiscriminantTooLarge(CountingError):
    """|disc| exceeds MAX_CLASS_NUMBER_DISC, the bound on the about |disc|/3
    steps of class_number_H."""


class NotPrimePower(CountingError, ValueError):
    """There is no field F_q: q is not a prime power."""


class AmbiguousT(CountingError):
    """More than one trace satisfied a condition asserted to be unique."""


class NoSolution(CountingError):
    """No trace satisfied a condition asserted to be satisfiable."""


class _Infinity:
    """The type of INFINITY, the value of t0 or t1 where that trace does not
    exist.  INFINITY is its only instance and compares and hashes by
    identity, so it is unequal to every integer; it prints as "∞"."""

    def __repr__(self):
        return "∞"


INFINITY = _Infinity()

ExtInt = Union[int, _Infinity]

#: largest |disc| that class_number_H accepts; at the bound its loop takes
#: about 0.6 s on a 2-core VM with Python 3.11
MAX_CLASS_NUMBER_DISC = 1 << 24


def factor_prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m, or NotPrimePower, a ValueError, if q is not a
    prime power."""
    if q < 2:
        raise NotPrimePower(f"q = {q} is not a prime power")
    # a q with no divisor up to its square root is prime
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    m, r = 0, q
    while r % p == 0:
        r //= p
        m += 1
    if r != 1:
        raise NotPrimePower(f"q = {q} is not a prime power")
    return p, m


def kronecker_symbol(a: int, n: int) -> int:
    """The Kronecker symbol (a | n) for n >= 1; equals Jacobi for odd n."""
    if n < 1:
        raise ValueError("n must be positive")
    result = 1
    while n % 2 == 0:
        if a % 2 == 0:
            return 0
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    # Jacobi symbol for odd n
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@lru_cache(maxsize=None)
def class_number_H(disc: int) -> int:
    """Kronecker class number: SL_2(Z)-classes of positive definite integral
    binary quadratic forms of discriminant disc, imprimitive forms included.

    Counts reduced forms (a, b, c): b^2 - 4ac = disc, -a < b <= a <= c, and
    b >= 0 whenever a = c.  The count takes about |disc|/3 steps, so a disc
    with |disc| > MAX_CLASS_NUMBER_DISC raises DiscriminantTooLarge.
    """
    if disc >= 0 or disc % 4 not in (0, 1):
        raise BadDiscriminant(f"need disc < 0 and disc = 0, 1 mod 4; got {disc}")
    if -disc > MAX_CLASS_NUMBER_DISC:
        raise DiscriminantTooLarge(f"|disc| = {-disc} exceeds the class-number bound "
                                   f"{MAX_CLASS_NUMBER_DISC}")
    count = 0
    for a in range(1, math.isqrt(-disc // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            count += 1
    return count


def count_E(q: int, n: int) -> int:
    """Isomorphism classes of elliptic curves over F_q with n rational points."""
    p, m = factor_prime_power(q)
    t = q + 1 - n
    if t * t > 4 * q:
        return 0
    if t % p:
        return class_number_H(t * t - 4 * q)
    if m % 2:
        if t == 0:
            return class_number_H(-4 * p)
        if (t * t, p) in ((2 * q, 2), (3 * q, 3)):
            return 1
        return 0
    if t == 0:
        return 1 - kronecker_symbol(-4, p)
    if t * t == q:
        return 1 - kronecker_symbol(-3, p)
    if t * t == 4 * q:
        num = p + 6 - 4 * kronecker_symbol(-3, p) - 3 * kronecker_symbol(-4, p)
        if num % 12:
            raise AssertionError(f"p + 6 - 4(-3/p) - 3(-4/p) = {num} is not divisible by 12")
        return num // 12
    return 0


def count_E3(q: int, n: int) -> int:
    """Classes in count_E(q, n) whose curves have a nontrivial 3-torsion point."""
    return count_E(q, n) if n % 3 == 0 else 0


def count_E33(q: int, n: int) -> int:
    """Classes in count_E(q, n) with full rational 3-torsion (Z/3)^2."""
    p, m = factor_prime_power(q)
    t = q + 1 - n
    if (q % 3 == 1 and t * t <= 4 * q and t % p != 0
            and t % 9 == (q + 1) % 9):
        return class_number_H((t * t - 4 * q) // 9)
    if m % 2 == 0 and p != 3 and t == _special_trace(q):
        return count_E(q, n)
    return 0


def _special_trace(q: int) -> int:
    p, m = factor_prime_power(q)
    if m % 2:
        raise AssertionError(f"the special trace needs an even exponent, got q = {p}^{m}")
    return 2 * kronecker_symbol(p, 3) ** (m // 2) * p ** (m // 2)


def _trace_scan(q: int, p: int, form_coeff: int) -> int:
    """The unique t with t = q+1 mod 9, p not dividing t, and
    t^2 + form_coeff * x^2 = 4q solvable; errors if zero or several qualify."""
    bound = math.isqrt(4 * q)
    found = []
    for t in range(-bound, bound + 1):
        if t % p == 0 or t % 9 != (q + 1) % 9:
            continue
        rest = 4 * q - t * t
        if rest % form_coeff:
            continue
        x2 = rest // form_coeff
        x = math.isqrt(x2)
        if x * x == x2:
            found.append(t)
    if not found:
        raise NoSolution(f"no qualifying trace for q = {q}")
    if len(found) > 1:
        raise AmbiguousT(f"several qualifying traces for q = {q}: {found}")
    return found[0]


def t0(q: int) -> ExtInt:
    """The first special trace; INFINITY when q is not 1 mod 3."""
    p, m = factor_prime_power(q)
    if q % 3 != 1:
        return INFINITY
    if p % 3 != 1:
        return _special_trace(q)
    return _trace_scan(q, p, 3)


def t1(q: int) -> ExtInt:
    """The second special trace; INFINITY when q is neither 1 nor 4 mod 12.

    The remaining p = 1 mod 4 case uses the congruence t = q + 1 mod 9 as
    its side condition (the same one as for t0); the scan raises rather
    than guess if that ever fails to pin down a unique trace.
    """
    p, m = factor_prime_power(q)
    if q % 12 not in (1, 4):
        return INFINITY
    if p % 4 != 1:
        return _special_trace(q)
    return _trace_scan(q, p, 4)


def epsilon(q: int, t: int) -> int:
    """The correction term: 0, 2, 3, or 4 depending on whether t hits t0, t1."""
    s0 = t0(q)
    s1 = t1(q)
    hit0 = t == s0
    hit1 = t == s1
    if hit0 and hit1:
        p, _ = factor_prime_power(q)
        return 3 if p == 2 else 4
    if hit0 or hit1:
        return 2
    return 0


@dataclass(frozen=True)
class CountReport:
    """The counting-formula ingredients at (q, n) and their combination."""

    q: int
    n: int
    e: int
    e3: int
    e33: int
    t0: ExtInt
    t1: ExtInt
    eps: int
    total: int

    def __post_init__(self):
        if self.total != self.e + self.e3 + 3 * self.e33 - self.eps:
            raise AssertionError("total is not e + e3 + 3 e33 - eps")
        if self.total < 0:
            raise AssertionError(f"negative class count {self.total}")

    def to_obj(self) -> dict:
        def ext(v):
            return None if v is INFINITY else v
        return {
            "q": self.q, "n": self.n,
            "e": self.e, "e3": self.e3, "e33": self.e33,
            "t0": ext(self.t0), "t1": ext(self.t1),
            "eps": self.eps, "total": self.total,
        }


def cubics_with_points(q: int, n: int) -> CountReport:
    """Projective classes of smooth plane cubics over F_q with n points."""
    e = count_E(q, n)
    e3 = count_E3(q, n)
    e33 = count_E33(q, n)
    eps = epsilon(q, q + 1 - n)
    return CountReport(q=q, n=n, e=e, e3=e3, e33=e33,
                       t0=t0(q), t1=t1(q), eps=eps,
                       total=e + e3 + 3 * e33 - eps)


def cub(q: int, n: int) -> CountReport:
    """Projective classes of smooth plane cubics over F_q with exactly n
    equivalence classes of determinantal representations.

    A class has n representation classes iff its curves have n + 1 points,
    so this is cubics_with_points(q, n + 1); note eps lands at q - n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return cubics_with_points(q, n + 1)
