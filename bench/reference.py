"""An independent reference that the benchmark checks cubicrep's answers against.

It shares no code with the library: finite-field tables are built here from
the field's modulus, and the points of P^2, cubic values and the smoothness
test are numpy array work over those tables.  Elements are ints
0..q-1 whose base-p digits (constant digit first) are the polynomial
coefficients, which is the library's canonical enumeration order.
"""

from __future__ import annotations

import numpy as np

# the library's public coefficient order: X^3, X^2Y, X^2Z, XY^2, XYZ, XZ^2,
# Y^3, Y^2Z, YZ^2, Z^3, as exponent triples
CUBIC_EXPONENTS = ((3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
                   (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3))


def factor_prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    if q != 1:
        raise ValueError("not a prime power")
    return p, m


class Field:
    """Addition, multiplication and inverse tables of F_{p^m}."""

    def __init__(self, p: int, m: int, modulus):
        q = p ** m
        self.p, self.m, self.q = p, m, q
        digits = np.array([[(n // p ** i) % p for i in range(m)] for n in range(q)],
                          dtype=np.int64)
        weights = p ** np.arange(m, dtype=np.int64)
        self.add = (digits[:, None, :] + digits[None, :, :]) % p @ weights
        polys = digits.tolist()
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            for b in range(a, q):
                mul[a, b] = mul[b, a] = self._polymul(polys[a], polys[b], modulus)
        self.mul = mul
        self.inv = np.argmax(mul == 1, axis=1)
        self.inv[0] = 0
        self.neg = (-digits) % p @ weights
        self.add_l = self.add.tolist()
        self.mul_l = mul.tolist()

    def _polymul(self, a, b, modulus) -> int:
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for d in range(2 * m - 2, m - 1, -1):  # reduce by the monic modulus
            c = prod[d]
            if c:
                for k in range(m + 1):
                    prod[d - m + k] = (prod[d - m + k] - c * modulus[k]) % p
        return sum(c * p ** i for i, c in enumerate(prod[:m]))

    def to_int(self, element) -> int:
        return sum(c * self.p ** i for i, c in enumerate(element.coeffs))

    def digits(self, n: int) -> list[int]:
        return [(n // self.p ** i) % self.p for i in range(self.m)]

    def matmul(self, x, y):
        add, mul = self.add_l, self.mul_l
        return [[add[add[mul[x[i][0]][y[0][j]]][mul[x[i][1]][y[1][j]]]][mul[x[i][2]][y[2][j]]]
                 for j in range(3)] for i in range(3)]

    def det3(self, a) -> int:
        add, mul, neg = self.add_l, self.mul_l, self.neg
        def minor(r0, r1, c0, c1):
            return add[mul[a[r0][c0]][a[r1][c1]]][int(neg[mul[a[r0][c1]][a[r1][c0]]])]
        t0 = mul[a[0][0]][minor(1, 2, 1, 2)]
        t1 = int(neg[mul[a[0][1]][minor(1, 2, 0, 2)]])
        t2 = mul[a[0][2]][minor(1, 2, 0, 1)]
        return add[add[t0][t1]][t2]


class Plane:
    """P^2 over one field: its points in the library's order, the cubic
    monomials at every point, and (for q >= 3) the points on every line."""

    def __init__(self, f: Field, with_lines: bool):
        self.f = f
        q = f.q
        self.n = q * q + q + 1
        ys, zs = np.divmod(np.arange(q * q), q)
        x = np.concatenate([np.ones(q * q, np.int64), np.zeros(q + 1, np.int64)])
        y = np.concatenate([ys, np.ones(q, np.int64), [0]])
        z = np.concatenate([zs, np.arange(q), [1]])
        self.coords = np.stack([x, y, z])
        self.mono = np.stack([self._power(self.coords, e) for e in CUBIC_EXPONENTS])
        # partial derivatives: per variable, (cubic position, multiplier, monomial)
        self.grad_terms = []
        for v in range(3):
            terms = []
            for k, e in enumerate(CUBIC_EXPONENTS):
                if e[v] % f.p:
                    lowered = tuple(ei - (i == v) for i, ei in enumerate(e))
                    terms.append((k, e[v] % f.p, self._power(self.coords, lowered)))
            self.grad_terms.append(terms)
        self.lines = self._points_on_lines() if with_lines else None

    def _power(self, coords, exps):
        acc = np.ones(coords.shape[1:], np.int64)
        for base, e in zip(coords, exps):
            for _ in range(e):
                acc = self.f.mul[acc, base]
        return acc

    def index(self, coords):
        """Normalize (first nonzero coordinate 1) and index triples of arrays."""
        f, q = self.f, self.f.q
        x, y, z = coords
        lead = np.where(x != 0, x, np.where(y != 0, y, z))
        inv = f.inv[lead]
        x, y, z = f.mul[x, inv], f.mul[y, inv], f.mul[z, inv]
        return np.where(x == 1, y * q + z, np.where(y == 1, q * q + z, q * q + q))

    def _points_on_lines(self):
        """Row l lists the q+1 points of the line whose coefficients are point l."""
        f, q = self.f, self.f.q
        a, b, c = self.coords
        zero, one = np.zeros_like(a), np.ones_like(a)
        # two independent solutions u, v of a x + b y + c z = 0
        u = np.where(a == 1, np.stack([f.neg[b], one, zero]),
                     np.stack([one, zero, zero]))
        v = np.where(a == 1, np.stack([f.neg[c], zero, one]),
                     np.where(b == 1, np.stack([zero, f.neg[c], one]),
                              np.stack([zero, one, zero])))
        t = np.arange(q)[None, :]
        pts = [f.add[u[i][:, None], f.mul[t, v[i][:, None]]] for i in range(3)]
        rows = self.index(pts)
        return np.concatenate([rows, self.index(v)[:, None]], axis=1)

    def values(self, coeffs):
        f = self.f
        acc = np.zeros(self.n, np.int64)
        for k, c in enumerate(coeffs):
            if c:
                acc = f.add[acc, f.mul[c, self.mono[k]]]
        return acc

    def gradient_vanishes(self, coeffs, where):
        f = self.f
        out = np.ones(int(where.sum()), bool)
        for terms in self.grad_terms:
            acc = np.zeros_like(out, dtype=np.int64)
            for k, mult, mono in terms:
                if coeffs[k]:
                    acc = f.add[acc, f.mul[f.mul[coeffs[k], mult], mono[where]]]
            out &= acc == 0
        return out


class Reference:
    """Per-field reference answers, built on first use of each field."""

    def __init__(self, spec_for):
        self._spec_for = spec_for
        self.fields: dict[int, Field] = {}
        self.planes: dict[int, Plane] = {}

    def field(self, q: int) -> Field:
        if q not in self.fields:
            spec = self._spec_for(q)
            self.fields[q] = Field(spec.p, spec.m, spec.modulus)
        return self.fields[q]

    def plane(self, q: int) -> Plane:
        if q not in self.planes:
            self.planes[q] = Plane(self.field(q), with_lines=q >= 3)
        return self.planes[q]

    def points(self, q: int, coeffs) -> list[int]:
        """Indices of the rational points of the curve, in enumeration order."""
        return np.flatnonzero(self.plane(q).values(coeffs) == 0).tolist()

    def is_smooth(self, q: int, coeffs) -> bool:
        """Exact: a cubic over F_q is singular iff it has no rational point,
        a rational singular point, or a rational line as a factor.  For
        q >= 3 a line is a factor iff all its q+1 >= 4 points are zeros; for
        q = 2 the singular points are searched directly over F_64, which
        holds every F_{2^k} with k <= 3 where they can lie."""
        if q == 2:
            big = self.plane(64)
            on = big.values(coeffs) == 0
            return not big.gradient_vanishes(coeffs, on).any()
        pl = self.plane(q)
        on = pl.values(coeffs) == 0
        if not on.any() or pl.gradient_vanishes(coeffs, on).any():
            return False
        hits = np.bincount(pl.lines[on].ravel(), minlength=pl.n)
        return not (hits == q + 1).any()

    def point_index(self, q: int, point) -> int:
        f = self.field(q)
        x, y, z = (f.to_int(c) for c in point.coords)
        if x == 1:
            return y * q + z
        return q * q + z if y == 1 else q * q + q
