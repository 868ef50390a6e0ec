"""Index arithmetic and plane geometry over one finite field.

Field elements are referred to by their position in the canonical
enumeration of gf, so 0 and 1 keep their values, and the integer k has
index k mod p in every F_{p^m}.  ScalarField holds four tables, the four
operations the construction and the equivalence test need: add and mul,
lists of q rows on every field read as add[a][b], and the lists neg and
inv.  A difference a - b is add[a][neg[b]], and k times a is
mul[k % p][a].  The tables derive from rules of size O(q): the log/antilog
pair of a fixed primitive element for multiplication, and addition by
integers mod p (prime fields), XOR (q = 2^m) or Zech logarithms (other
extension fields).  For q <= MAX_TABLE_Q a row is a list; past that it is
a _Row that computes its entries on subscript, so memory stays O(q) up to
the field size cap of 2^14.  The batched kernels of _bulk copy the lists
into uint8 arrays of their own.

PlaneTables enumerates P^2 in the public order and finds the zeros of a
cubic line by line through [0:0:1], together with its singular zeros, where
the gradient vanishes too: one cached entry per form up to scalars, the
singular zeros filled by one pass over the zeros that stops at the first
nonzero partial of each.  Its plan is the derivative plan of _forms on
this field, read by the gradient, by that pass and by _bulk.smooth_mask.
On a prime field from ARRAY_Q up, where element indices are the integers
mod p and int64 arrays need no tables, the scan is _bulk.prime_zero_sets
instead, and detrep.all_reps builds on arrays too; ScalarField.on_arrays is
the one predicate both read.  This module does not import numpy.  Below
ARRAY_Q and on extension fields the tables are the only path, and on every
field they are the tests' reference for the arrays.  The kernels below it
cover the rest of the per-curve work: kernels by row reduction, which also
give ranks, determinants, products and inverses of small index matrices,
and two straight-line products of forms on pre-fetched mul rows, minor_idx
(u*v - s*t for linear forms) and quad_lin_idx (quadratic by linear),
behind both the symbolic determinant, expanded by cofactors along row 0,
and the substitution of coordinates into a cubic.
This module owns the encoding; every per-curve path in plane and detrep
runs on it and decodes only its results.
"""

from __future__ import annotations

from functools import lru_cache

from . import _forms
from .gf import FieldSpec, prime_factors

#: largest field whose table rows are materialised as lists
MAX_TABLE_Q = 256

#: smallest prime field whose zero scan and all_reps run on the int64 array
#: kernels of _bulk; below it, and on extension fields, the tables do
ARRAY_Q = 37


def _primitive_element(spec: FieldSpec):
    """The first element in enumeration order that generates F_q^*."""
    order = spec.q - 1
    for g in spec.elements():
        if g and all(g ** (order // r) != 1 for r in prime_factors(order)):
            return g
    raise AssertionError("F_q^* is cyclic")  # unreachable


class _Row:
    """Row a of an operation table, computed on subscript."""

    __slots__ = ("op", "a")

    def __init__(self, op, a):
        self.op = op
        self.a = a

    def __getitem__(self, b):
        return self.op(self.a, b)


class ScalarField:
    """Arithmetic for one field; elements are ints 0..q-1."""

    def __init__(self, spec: FieldSpec):
        p, q = spec.p, spec.q
        self.spec = spec
        self.q = q
        #: whether the zero scan and all_reps take the int64 kernels of _bulk
        self.on_arrays = spec.m == 1 and q >= ARRAY_Q
        self.elems = list(spec.elements())
        self.index = {e.coeffs: i for i, e in enumerate(self.elems)}
        # exp[k] = g^k for the primitive element g, stored twice over so that
        # exp[log[a] + log[b]] needs no reduction mod q - 1
        g = _primitive_element(spec).coeffs
        exp = [1]
        for _ in range(q - 2):
            exp.append(self.index[spec._mul(self.elems[exp[-1]].coeffs, g)])
        log = [0] * q
        for k, a in enumerate(exp):
            log[a] = k
        exp += exp
        half = (q - 1) // 2  # g^half = -1 in odd characteristic
        self.neg = list(range(q)) if p == 2 else [exp[log[a] + half] if a else 0
                                                  for a in range(q)]
        self.inv = [exp[q - 1 - log[a]] if a else 0 for a in range(q)]

        def mul(a, b):
            return exp[log[a] + log[b]] if a and b else 0

        if spec.m == 1:
            def add(a, b):
                return (a + b) % p
        elif p == 2:
            def add(a, b):
                return a ^ b
        else:
            # zech[n] = log(1 + g^n), -1 where 1 + g^n = 0; 1 + a changes
            # only the constant coefficient, the lowest base-p digit of a
            zech = []
            for a in exp[:q - 1]:
                c = a % p
                one_plus = a - c + (c + 1) % p
                zech.append(log[one_plus] if one_plus else -1)

            def add(a, b):
                if not (a and b):
                    return a or b
                z = zech[log[b] - log[a]]  # a negative difference wraps around
                return exp[log[a] + z] if z >= 0 else 0

        row = _Row if q > MAX_TABLE_Q else lambda op, a: [op(a, b) for b in range(q)]
        self.add, self.mul = ([row(op, a) for a in range(q)] for op in (add, mul))

    def encode(self, element) -> int:
        return self.index[element.coeffs]

    def encode_all(self, elements) -> list[int]:
        index = self.index
        return [index[e.coeffs] for e in elements]

    def decode(self, idx: int):
        return self.elems[idx]


@lru_cache(maxsize=None)
def scalar_field(spec: FieldSpec) -> ScalarField:
    return ScalarField(spec)


class PlaneTables:
    """The points of P^2 over one field and the zero sets of cubics there.

    Point i is [1:y:z] for i = y*q + z, then [0:1:z] for i = q^2 + z, then
    [0:0:1]; point() gives its coordinate indices.  The zero sets are
    scanned on the tables, or on int64 arrays where sf.on_arrays holds
    (prime fields from ARRAY_Q up); both give the same tuples.
    """

    def __init__(self, sf: ScalarField):
        self.sf = sf
        self.n_points = sf.q * sf.q + sf.q + 1
        # the integer k has index k mod p, so each multiplier k of the
        # derivative plan is the row mul[k % p]; the terms with k = 0 mod p
        # vanish and are dropped
        p = sf.spec.p
        self.plan = tuple(tuple((cpos, qpos, k % p) for cpos, qpos, k in terms if k % p)
                          for terms in _forms.DERIVATIVE_PLAN)
        # one cache per field; an entry holds about q point indices
        self._zero_sets = lru_cache(maxsize=1 << 10)(self._scan_zero_sets)

    def point(self, i: int) -> tuple[int, int, int]:
        q = self.sf.q
        if i < q * q:
            return (1,) + divmod(i, q)
        if i < q * q + q:
            return (0, 1, i - q * q)
        return (0, 0, 1)

    # -- form evaluation ------------------------------------------------------

    def value(self, coeff_idx, coords) -> int:
        """Value index of the cubic at one point, given as coordinate indices."""
        add, mul = self.sf.add, self.sf.mul
        x, y, z = coords
        xx, yy, zz = mul[x][x], mul[y][y], mul[z][z]
        mono = (mul[xx][x], mul[xx][y], mul[xx][z], mul[x][yy], mul[mul[x][y]][z],
                mul[x][zz], mul[yy][y], mul[yy][z], mul[y][zz], mul[zz][z])
        acc = 0
        for c, m in zip(coeff_idx, mono):
            if c:
                acc = add[acc][mul[c][m]]
        return acc

    def gradient(self, coeff_idx, coords) -> list[int]:
        """(dF/dX, dF/dY, dF/dZ) value indices at one point."""
        add, mul = self.sf.add, self.sf.mul
        x, y, z = coords
        quad = (mul[x][x], mul[x][y], mul[x][z], mul[y][y], mul[y][z], mul[z][z])
        out = []
        for terms in self.plan:
            acc = 0
            for cpos, qpos, k in terms:
                c = coeff_idx[cpos]
                if c:
                    acc = add[acc][mul[mul[k][c]][quad[qpos]]]
            out.append(acc)
        return out

    def _key(self, coeff_idx) -> tuple[int, ...]:
        """The coefficients scaled to lead with 1, the key of the cache."""
        lead = next((c for c in coeff_idx if c), 1)
        if lead == 1:
            return tuple(coeff_idx)
        return tuple(map(self.sf.mul[self.sf.inv[lead]].__getitem__, coeff_idx))

    def zeros(self, coeff_idx) -> tuple[int, ...]:
        """Indices of the points where the cubic vanishes, in enumeration order.

        The first half of zero_sets, cached with it.  The zero form vanishes
        everywhere.
        """
        return self._zero_sets(self._key(coeff_idx))[0]

    def zero_sets(self, coeff_idx) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(zeros, singular zeros) of the cubic: the second are the zeros
        where the gradient vanishes too.

        Nonzero multiples of a form have the same zeros and singular zeros,
        so both are cached on the coefficients scaled to lead with 1: F,
        det(rep) = lam*F and det(A*rep*B) share one entry.
        """
        return self._zero_sets(self._key(coeff_idx))

    def _scan_zero_sets(self, key):
        """The zeros and those among them where the gradient vanishes.

        Each zero is tested partial by partial, on the terms of the form with a
        nonzero coefficient, and the first nonzero partial shows it smooth, so
        a smooth curve mostly pays for one partial per zero.  On prime fields
        from ARRAY_Q up, _bulk.prime_zero_sets gives the same two tuples.
        """
        if self.sf.on_arrays:
            from . import _bulk  # _bulk imports this module
            return _bulk.prime_zero_sets(self.sf.q, key)
        zeros = self._scan_zeros(key)
        add, mul = self.sf.add, self.sf.mul
        partials = [[(mul[mul[k][key[cpos]]], qpos) for cpos, qpos, k in terms if key[cpos]]
                    for terms in self.plan]
        singular = []
        for i in zeros:
            x, y, z = self.point(i)
            mx, mz = mul[x], mul[z]
            quad = (mx[x], mx[y], mx[z], mul[y][y], mul[y][z], mz[z])
            for terms in partials:
                acc = 0
                for mc, qpos in terms:
                    acc = add[acc][mc[quad[qpos]]]
                if acc:
                    break
            else:
                singular.append(i)
        return zeros, tuple(singular)

    def _scan_zeros(self, coeff_idx):
        """F restricted to each line through [0:0:1] is a cubic in z, which
        Horner's rule evaluates at every z of the line."""
        add, mul = self.sf.add, self.sf.mul
        q = self.sf.q
        a000, a001, a002, a011, a012, a022, a111, a112, a122, a222 = coeff_idx
        out = []
        # the line [1:y:z] carries F(1, y, z) = c0 + c1 z + c2 z^2 + a222 z^3
        for y in range(q):
            my = mul[y]
            c0 = add[a000][my[add[a001][my[add[a011][my[a111]]]]]]
            c1 = add[a002][my[add[a012][my[a112]]]]
            c2 = add[a022][my[a122]]
            out.extend(y * q + z for z in self._line_roots(c0, c1, c2, a222))
        # the line X = 0 carries F(0, 1, z), and [0:0:1] is where it meets Y = 0
        out.extend(q * q + z for z in self._line_roots(a111, a112, a122, a222))
        if not a222:
            out.append(q * q + q)
        return tuple(out)

    def _line_roots(self, c0, c1, c2, c3) -> list[int]:
        """The z with c0 + c1 z + c2 z^2 + c3 z^3 = 0, in increasing order."""
        add, mul = self.sf.add, self.sf.mul
        a0, a1, a2 = add[c0], add[c1], add[c2]
        out = []
        for z in range(self.sf.q):
            mz = mul[z]
            if not a0[mz[a1[mz[a2[mz[c3]]]]]]:
                out.append(z)
        return out


@lru_cache(maxsize=None)
def plane_tables(spec: FieldSpec) -> PlaneTables:
    return PlaneTables(scalar_field(spec))


# ---------------------------------------------------------------------------
# small exact linear algebra on index matrices


def right_kernel_idx(rows, sf: ScalarField):
    """Kernel basis of a matrix of element indices; returns index vectors.

    The basis is the reduced echelon one: a vector per free column, 1 there
    and 0 at the other free columns.  Forward elimination touches only the
    columns from the pivot rightwards, and back-substitution runs only when
    there is a kernel.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    add, mul, inv, neg = sf.add, sf.mul, sf.inv, sf.neg
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        mr = m[r]
        f = inv[mr[c]]
        if f != 1:
            mr[c:] = [mul[x][f] for x in mr[c:]]
        tail = mr[c + 1:]
        for i in range(r + 1, nrows):
            mi = m[i]
            if mi[c]:
                mg = mul[neg[mi[c]]]
                mi[c + 1:] = [add[x][mg[y]] for x, y in zip(mi[c + 1:], tail)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if r == ncols:
        return []
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for pi in range(r - 1, -1, -1):
            pc, row = pivots[pi], m[pi]
            acc = 0
            for j in range(pc + 1, ncols):
                if vec[j] and row[j]:
                    acc = add[acc][mul[row[j]][vec[j]]]
            vec[pc] = neg[acc]
        basis.append(tuple(vec))
    return basis


def det3_idx(m, sf: ScalarField) -> int:
    add, mul, neg = sf.add, sf.mul, sf.neg
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    t1 = mul[a][add[mul[e][i]][mul[neg[f]][h]]]
    t2 = mul[b][add[mul[f][g]][mul[neg[d]][i]]]
    t3 = mul[c][add[mul[d][h]][mul[neg[e]][g]]]
    return add[add[t1][t2]][t3]


def minor_idx(u, v, s, t, sf: ScalarField):
    """The 6 coefficient indices of the quadratic u*v - s*t, for linear forms
    given as coefficient index triples."""
    add, mul, neg = sf.add, sf.mul, sf.neg
    u0, u1, u2 = mul[u[0]], mul[u[1]], mul[u[2]]
    s0, s1, s2 = mul[neg[s[0]]], mul[neg[s[1]]], mul[neg[s[2]]]  # rows of -s
    (v0, v1, v2), (t0, t1, t2) = v, t
    return (add[u0[v0]][s0[t0]], add[add[u0[v1]][u1[v0]]][add[s0[t1]][s1[t0]]],
            add[add[u0[v2]][u2[v0]]][add[s0[t2]][s2[t0]]], add[u1[v1]][s1[t1]],
            add[add[u1[v2]][u2[v1]]][add[s1[t2]][s2[t1]]], add[u2[v2]][s2[t2]])


def quad_lin_idx(quad, w, sf: ScalarField):
    """The 10 coefficient indices of quad*w, for a quadratic quad (6
    coefficients) and a linear form w, all element indices."""
    add, mul = sf.add, sf.mul
    q00, q01, q02, q11, q12, q22 = quad
    w0, w1, w2 = mul[w[0]], mul[w[1]], mul[w[2]]
    return (w0[q00], add[w1[q00]][w0[q01]], add[w2[q00]][w0[q02]],
            add[w1[q01]][w0[q11]], add[add[w2[q01]][w1[q02]]][w0[q12]],
            add[w2[q02]][w0[q22]], w1[q11], add[w2[q11]][w1[q12]],
            add[w2[q12]][w1[q22]], w2[q22])


def det_cubic_idx(m_idx, sf: ScalarField):
    """10 coefficient indices of det(X m0 + Y m1 + Z m2).

    m_idx[i][j] is the entry's coefficient triple (index-encoded).  The
    expansion runs along row 0: each 2x2 minor of rows 1 and 2 is one
    minor_idx quadratic u*v - s*t, the sign of its cofactor folded into
    the order of the two products, and one quad_lin_idx multiplies it by
    its row-0 entry.  A zero row-0 entry drops its term; entry (0, 0) of
    every all_reps representation is zero, so that saves a third there.
    """
    add = sf.add
    (a, b, c), (d, e, f), (g, h, i) = m_idx
    ca = quad_lin_idx(minor_idx(e, i, f, h, sf), a, sf) if any(a) else (0,) * 10
    cb = quad_lin_idx(minor_idx(f, g, d, i, sf), b, sf) if any(b) else (0,) * 10
    cc = quad_lin_idx(minor_idx(d, h, e, g, sf), c, sf) if any(c) else (0,) * 10
    return [add[add[x][y]][z] for x, y, z in zip(ca, cb, cc)]


def act_idx(t, f, sf: ScalarField):
    """Coefficient indices of the cubic f with (X, Y, Z) -> t (X, Y, Z)^t
    substituted, for a 3x3 index matrix t: each monomial X_i X_j X_k becomes
    (t_i t_j) t_k, with t_i t_j from minor_idx and a zero second product."""
    add, mul = sf.add, sf.mul
    zero = (0, 0, 0)
    quads = [minor_idx(t[i], t[j], zero, zero, sf) for i, j in _forms.QUAD_VARS]
    acc = [0] * 10
    for c, (i, j, k) in zip(f, _forms.CUBIC_VARS):
        mc = mul[c]
        term = quad_lin_idx(quads[_forms.QUAD_POS2[i][j]], [mc[x] for x in t[k]], sf)
        acc = [add[x][y] for x, y in zip(acc, term)]
    return acc


def matmul3_idx(a, b, sf: ScalarField):
    """The 3x3 product a @ b of index matrices."""
    add, mul = sf.add, sf.mul
    cols = list(zip(*b))
    return [[add[add[mul[r0][c0]][mul[r1][c1]]][mul[r2][c2]] for c0, c1, c2 in cols]
            for r0, r1, r2 in a]


def inv3_idx(m, sf: ScalarField):
    """Inverse of an invertible 3x3 index matrix, by the adjugate."""
    add, mul, neg = sf.add, sf.mul, sf.neg
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    na, nb, nc, nd, ne, nf = neg[a], neg[b], neg[c], neg[d], neg[e], neg[f]
    adj = ((add[mul[e][i]][mul[nf][h]], add[mul[c][h]][mul[nb][i]], add[mul[b][f]][mul[nc][e]]),
           (add[mul[f][g]][mul[nd][i]], add[mul[a][i]][mul[nc][g]], add[mul[c][d]][mul[na][f]]),
           (add[mul[d][h]][mul[ne][g]], add[mul[b][g]][mul[na][h]], add[mul[a][e]][mul[nb][d]]))
    s = mul[sf.inv[det3_idx(m, sf)]]
    return [[s[x] for x in row] for row in adj]
