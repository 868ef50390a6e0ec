"""Linear determinantal representations of plane cubics.

A representation is a 3x3 matrix M = X*M0 + Y*M1 + Z*M2 of linear forms with
det(M) proportional to the curve's defining cubic.  This module constructs
the representation attached to each rational point of a cubic with a marked
base point, decides equivalence M' = A M B under pairs of invertible
constant matrices, and builds the classical alternative shapes for
Weierstrass and Hesse models.

A LinearMatrixRep is identified by its field and the element indices of
its 27 coefficients in _tables, and the caches of this module, the rank
profile and the kernel data, are keyed on it.  It keeps its determinant:
all_reps stores the one it has just computed and checked, and any other
representation computes its own on first use.  The public constructor
encodes its matrices once; a representation built on indices decodes its
constant matrices only when they are first read.  is_ldr_of and all_reps
read a form's indices off the TernaryCubic, which encoded them once.

all_reps moves the curve to a normal form once per base point, builds each
point's representation there and pulls it back.  On every field that whole
construction runs on the element indices of _tables, with the points read
from PlaneTables.zeros, and only the returned points and scalars are field
element objects; mp_case1 and mp_case2 encode their input and call the
same index formula, _mp_idx.  The pullback maps each entry by one
expression on the mul rows of the inverse coordinate change, read once per
curve, over the nonzero slots of the entry only: a point off the tangent
line (case 1) has a fixed zero pattern, and row 0 of every normal-form
matrix, (0, Z, -Y), is pulled back once per curve.  Every representation is
checked twice.  _mp_idx checks det(rep_n) = lam_n * Fn in normal form, for
case 1 on _det_case1_idx, which expands det(rep_n) = Z (f g - d i) - Y d h
on the nonzero slots, and for the one case-2 point per curve on the
cofactor kernel _tables.det_cubic_idx.  all_reps checks det(rep) = lam * F
after the pullback on det_cubic_idx, so the two checks of a case-1
representation run on independent kernels, and the representation keeps
that determinant.  On prime fields from _tables.ARRAY_Q up,
_bulk.case1_reps builds every case-1 representation of a curve at once on
int64 arrays, with the same three checks in the same order and on the same
two independent expansions: the normal-form one on the nonzero slots, as
_det_case1_idx, and the pullback one along row 0 with full 2x2 minors, as
det_cubic_idx.  Each representation keeps the determinant case1_reps
checked, and the case-2 point stays on _mp_idx.
symmetrize runs on _sweep, the sweep of equivalent, and it and the
completion of a candidate B into a witness run on indices as well.
EquivalenceWitness.verify and transform_rep run on the coefficient tuples
of gf, each output entry summed in Z[x] and reduced once, off the tables of
_tables: they are the independent check of every witness returned.

equivalent decides a pair in stages: det ratio -> rank profile -> traces ->
sweep.  Equivalence needs proportional determinants, so both
representations vanish at the same points and M(P) has rank 3 everywhere
else; the pointwise ranks, which M -> A M B preserves, are therefore
compared only at the rational zeros of the determinant.  By Jacobi's formula
a zero of rank at most 1 is a singular zero of det M, so the rank is
computed only at the cached singular zeros, which a smooth curve does not
have, and is 2 at every other zero.  At the first point P off the curve,
N_u = M1(P)^-1 M1_u and K_u = M2(P)^-1 M2_u; a witness M2 = A M1 B gives
K_u = B^-1 N_u B, so the trace of every word in the N_u equals that of the
same word in the K_u.  The trace stage compares tr(N_v^2 N_w^2) and
tr(N_v^2 N_w^2 N_v N_w), cached with the N_u, and a difference proves
inequivalence.  Words of degree 3 or less would not help: their traces come
from det(sum_u x_u N_u - t I), which the curve fixes, and in characteristic
2 and 3 too they agreed on every pair of representations of one curve
tried, while these two words told every inequivalent pair tried apart.  Pairs
with equal traces go to the sweep over the solutions of one linear system
over F_q for B, B K_u = N_u B.  They are Hom(coker M1, coker M2) and hold
the B of every witness, so completing each line of the solution space to
the one A that can go with it, and verifying, decides every pair.  For a
smooth curve, whose cokernels are line bundles (Beauville), the space has
dimension 1 or 0: one candidate or none.  Only a singular det leaves a
larger space, and the sweep gives up with BudgetExceeded after
SWEEP_BUDGET candidates.  The rank comparison and the sweep read the zeros
from PlaneTables, one cached scan and one gradient pass per curve up to
scalars; the trace stage, the linear system and the witness completion
take P from the first gap in that zero set.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Optional

from . import _bulk, _tables
from .gf import FieldElement, FieldMismatch, FieldSpec, _poly_mod
from .plane import (
    LinearTransform,
    NotOnCurve,
    ProjPoint,
    SingularInput,
    TernaryCubic,
    _element_matrix,
    _normalize_idx,
    is_normalized,
    is_smooth,
    rational_points,
)

#: lines that _sweep (for equivalent and symmetrize) may try before giving
#: up with BudgetExceeded
SWEEP_BUDGET = 10**5


class DetRepError(Exception):
    """Base class for representation-construction failures."""


class NotNormalized(DetRepError):
    pass


class WrongCase(DetRepError):
    pass


class IsBasePoint(DetRepError):
    pass


class BrokenInvariant(DetRepError):
    """An internal postcondition failed; signals a bug, not a user error."""


class BadCharacteristic(DetRepError):
    pass


class SingularCurve(DetRepError):
    pass


class ZeroCoordinate(DetRepError):
    pass


class BudgetExceeded(DetRepError):
    pass


class NoRationalPoint(DetRepError):
    """Cannot occur for smooth cubics over finite fields; internal error."""


# ---------------------------------------------------------------------------
# types


class LinearMatrixRep:
    """A 3x3 matrix of linear forms X*m0 + Y*m1 + Z*m2.

    Its identity is (spec, idx): idx[i][j] = (cX, cY, cZ) holds the element
    indices of entry (i, j) in _tables, and equality and hashing compare that
    pair, the hash computed once.  The constant matrices m0, m1, m2 of
    coefficient_matrices() are decoded from idx on first access and kept,
    and so is the determinant of _determinant(), unless all_reps set it.
    """

    __slots__ = ("spec", "idx", "_hash", "_mats", "_det")

    def __init__(self, spec: FieldSpec, m0, m1, m2):
        mats = tuple(_element_matrix(spec, m) for m in (m0, m1, m2))
        index = _tables.scalar_field(spec).index
        self._set(spec, tuple(tuple(tuple(index[m[i][j].coeffs] for m in mats)
                                    for j in range(3)) for i in range(3)))
        self._mats = mats

    def _set(self, spec, idx, det=None):
        self.spec = spec
        self.idx = idx
        self._hash = hash((spec, idx))
        self._mats = None
        self._det = det

    def _determinant(self) -> tuple[int, ...]:
        """The 10 coefficient indices of the determinant, computed once."""
        if self._det is None:
            self._det = tuple(_tables.det_cubic_idx(self.idx, _tables.scalar_field(self.spec)))
        return self._det

    @classmethod
    def from_entries(cls, spec: FieldSpec, entries) -> "LinearMatrixRep":
        """Build from a 3x3 grid of linear forms given as (cX, cY, cZ) triples."""
        ms = []
        for v in range(3):
            ms.append([[spec.element(entries[i][j][v]) for j in range(3)]
                       for i in range(3)])
        return cls(spec, *ms)

    def coefficient_matrices(self):
        if self._mats is None:
            el = _tables.scalar_field(self.spec).elems
            self._mats = tuple(tuple(tuple(el[e[v]] for e in row) for row in self.idx)
                               for v in range(3))
        return self._mats

    def entry(self, i: int, j: int):
        """The (i, j) entry as a coefficient triple (cX, cY, cZ)."""
        return tuple(m[i][j] for m in self.coefficient_matrices())

    def __eq__(self, other):
        return (isinstance(other, LinearMatrixRep) and self._hash == other._hash
                and self.spec == other.spec and self.idx == other.idx)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        rows = []
        for i in range(3):
            rows.append("[" + ", ".join(format_linear_form(self.entry(i, j))
                                        for j in range(3)) + "]")
        return "LinearMatrixRep(" + "; ".join(rows) + ")"


def format_linear_form(triple) -> str:
    """Human-readable linear form, e.g. 'X+Z' or '2X + g*Y'."""
    names = ("X", "Y", "Z")
    terms = []
    for c, n in zip(triple, names):
        if not c:
            continue
        cs = repr(c)
        if cs == "1":
            terms.append(n)
        elif " " in cs or "+" in cs:
            terms.append(f"({cs})*{n}")
        else:
            terms.append(f"{cs}{n}")
    return " + ".join(terms) if terms else "0"


class EquivalenceWitness:
    """An invertible pair (a, b) with m2 = a * m1 * b."""

    __slots__ = ("a", "b")

    def __init__(self, a: LinearTransform, b: LinearTransform):
        self.a = a
        self.b = b

    def verify(self, m1: LinearMatrixRep, m2: LinearMatrixRep) -> bool:
        """Whether m2 = a * m1 * b, compared on gf coefficient tuples."""
        if m1.spec != m2.spec:
            return False
        got = _product_coeffs(self.a, m1, self.b)
        return all(tuple(tuple(e.coeffs for e in row) for row in mv) == g
                   for mv, g in zip(m2.coefficient_matrices(), got))

    def inverse(self) -> "EquivalenceWitness":
        return EquivalenceWitness(self.a.inverse(), self.b.inverse())

    def __repr__(self):
        return f"EquivalenceWitness(a={self.a!r}, b={self.b!r})"


def transform_rep(a: LinearTransform, rep: LinearMatrixRep,
                  b: LinearTransform) -> LinearMatrixRep:
    """The representation a * rep * b (constant matrices act entrywise)."""
    index = _tables.scalar_field(rep.spec).index
    out = _product_coeffs(a, rep, b)
    return _rep_from_idx(rep.spec, tuple(tuple(tuple(index[mv[i][j]] for mv in out)
                                               for j in range(3)) for i in range(3)))


def _product_coeffs(a, rep, b):
    """The gf coefficient tuples of a * m_v * b for v = 0, 1, 2, off the
    tables of _tables.

    An element with coefficients c_k is packed into the integer
    sum_k c_k 2^(s k), its polynomial at x = 2^s; over a prime field that is
    the element itself.  An output entry, a sum of nine triple products, is
    then one integer whose base-2^s digits are its coefficients in Z[x], as
    none exceeds 9 m^2 (p-1)^3 < 2^s, and it is reduced once: mod p, and for
    m > 1 mod the field's modulus with gf's _poly_mod.
    """
    spec = rep.spec
    p, m = spec.p, spec.m
    s = (9 * m * m * (p - 1) ** 3).bit_length()
    mask = (1 << s) - 1

    def pack(mat):
        if m == 1:
            return [[e.coeffs[0] for e in row] for row in mat]
        return [[sum(c << (s * k) for k, c in enumerate(e.coeffs)) for e in row] for row in mat]

    def reduce(n):
        if m == 1:
            return (n % p,)
        red = _poly_mod([((n >> (s * k)) & mask) % p for k in range(3 * m - 2)],
                        spec.modulus, p)
        return red + (0,) * (m - len(red))

    pa, cols_b = pack(a.rows), tuple(zip(*pack(b.rows)))
    out = []
    for mv in rep.coefficient_matrices():
        cols_m = tuple(zip(*pack(mv)))
        am = [[r0 * c0 + r1 * c1 + r2 * c2 for c0, c1, c2 in cols_m] for r0, r1, r2 in pa]
        out.append(tuple(tuple(reduce(r0 * c0 + r1 * c1 + r2 * c2) for c0, c1, c2 in cols_b)
                         for r0, r1, r2 in am))
    return out


# ---------------------------------------------------------------------------
# determinant and validity


def det_cubic(rep: LinearMatrixRep) -> Optional[TernaryCubic]:
    """The symbolic determinant of X*m0 + Y*m1 + Z*m2 as a ternary cubic.

    Returns None when the determinant vanishes identically (no cubic form
    can represent it; such a matrix is not a representation of anything).
    """
    d = rep._determinant()
    return TernaryCubic._from_idx(_tables.scalar_field(rep.spec), d) if any(d) else None


def _ratio_idx(d, f, sf) -> int:
    """The index of lam != 0 with d = lam * f for the nonzero cubic f, or 0
    when there is none; d is a tuple, as _determinant returns it."""
    lead = next(k for k, c in enumerate(f) if c)
    lam = sf.mul[d[lead]][sf.inv[f[lead]]]
    return lam if lam and tuple(map(sf.mul[lam].__getitem__, f)) == d else 0


def is_ldr_of(rep: LinearMatrixRep, F: TernaryCubic) -> Optional[FieldElement]:
    """The scalar lam != 0 with det(rep) = lam * F, or None if there is none."""
    if rep.spec != F.spec:
        raise FieldMismatch("representation and form live in different fields")
    f = F.idx
    if not any(f):
        return None
    sf = _tables.scalar_field(F.spec)
    lam = _ratio_idx(rep._determinant(), f, sf)
    return sf.decode(lam) if lam else None


# ---------------------------------------------------------------------------
# the point-to-representation construction


def _require_normalized(Fn: TernaryCubic):
    if not is_normalized(Fn):
        raise NotNormalized("need zero X^3 and X^2 Y coefficients and X^2 Z coefficient 1")


def mp_case1(Fn: TernaryCubic, P: ProjPoint) -> LinearMatrixRep:
    """Representation attached to a point P = [s:t:u] with u != 0.

    Fn must be in normal form (base point [1:0:0], tangent Z = 0).  The
    output satisfies det = -u^3 * Fn exactly, with u read from the
    canonical scaling of P.
    """
    return _mp_checked(Fn, P, case2=False)


def mp_case2(Fn: TernaryCubic, P: ProjPoint) -> LinearMatrixRep:
    """Representation attached to a point P = [s:t:0] on the tangent line.

    For a normal form, the only curve point on Z = 0 other than [1:0:0] is
    [a111 : -a011 : 0], which forces a011 != 0.  The output satisfies
    det = a011 * Fn exactly.
    """
    return _mp_checked(Fn, P, case2=True)


def _mp_checked(Fn, P, case2: bool):
    """The representation of _mp_idx at P, after the checks of mp_case1 and
    mp_case2 in this order: Fn normalized, P on it, P not the base point,
    and last the case asked for, case 2 when P.z = 0."""
    spec = Fn.spec
    _require_normalized(Fn)
    if Fn.evaluate(P):
        raise NotOnCurve(f"{P!r} is not on the curve")
    if P == ProjPoint(spec, (1, 0, 0)):
        raise IsBasePoint("no representation is attached to the base point")
    if bool(P.z) == case2:
        raise WrongCase("third coordinate is "
                        + ("nonzero; use mp_case1" if case2 else "zero; use mp_case2"))
    sf = _tables.scalar_field(spec)
    return _rep_from_idx(spec, _mp_idx(Fn.idx, *sf.encode_all(P.coords), sf))


def _mp_idx(f, s, t, u, sf):
    """Entries of the representation at the point [s:t:u] of the normal form
    with coefficients f, all as element indices, entry (i, j) = [i][j].

    [s:t:u] must be a canonically scaled curve point other than [1:0:0].
    Case 1 (u != 0) has det = -u^3 * Fn, checked on _det_case1_idx, and case 2
    (u = 0) det = a011 * Fn, checked on _tables.det_cubic_idx; BrokenInvariant
    is raised when the identity fails.
    """
    add, mul, neg = sf.add, sf.mul, sf.neg
    a011, a012, a022, a111, a112, a122, a222 = f[3:]
    row0 = ((0, 0, 0), (0, 0, 1), (0, neg[1], 0))
    if u:
        uu, tt, tu = mul[u][u], mul[t][t], mul[t][u]
        q_tu = add[add[mul[a011][tt]][mul[a012][tu]]][mul[a022][uu]]
        row1 = ((0, u, neg[t]), (0, 0, 0), (neg[uu], 0, neg[add[q_tu][mul[s][u]]]))
        l1 = (mul[uu][a011], mul[uu][a111], mul[u][add[mul[a111][t]][mul[a112][u]]])
        l2 = (mul[u][add[mul[a011][t]][mul[a012][u]]], 0,
              add[add[mul[a111][tt]][mul[a112][tu]]][mul[a122][uu]])
        row2 = ((u, 0, neg[s]), l1, l2)
        det, lam, identity = _det_case1_idx, neg[mul[uu][u]], "det = -u^3 * F"
    else:
        if not a011:
            raise BrokenInvariant("a011 = 0 cannot happen for a curve point with u = 0")
        row1 = ((0, 0, 1), (0, a011, 0), (1, a012, a022))
        minus = mul[neg[a011]]
        lt1 = (a111, add[mul[a012][a111]][minus[a112]], 0)
        lt2 = (0, add[mul[a022][a111]][minus[a122]], minus[a222])
        row2 = ((a011, a111, 0), lt1, lt2)
        det, lam, identity = _tables.det_cubic_idx, a011, "det = a011 * F"
    m_idx = (row0, row1, row2)
    if det(m_idx, sf) != list(map(mul[lam].__getitem__, f)):
        raise BrokenInvariant(f"determinant identity {identity} failed")
    return m_idx


def _det_case1_idx(m_idx, sf):
    """The 10 coefficient indices of det(m_idx) for a case-1 matrix of _mp_idx,
    read on its nonzero slots only.

    Row 0 is (0, Z, -Y) and entry (1, 1) is the zero form, so with d, f = the
    entries (1, 0), (1, 2) and g, h, i = row 2, det = Z (f g - d i) - Y d h;
    the X slot of d and the Y slots of f, g and i are zero too.
    """
    add, mul, neg = sf.add, sf.mul, sf.neg
    _, ((_, d1, d2), _, (f0, _, f2)), ((g0, _, g2), (h0, h1, h2), (i0, _, i2)) = m_idx
    # d enters every term negated, so its rows are those of -d
    md1, md2, mf0, mf2 = mul[neg[d1]], mul[neg[d2]], mul[f0], mul[f2]
    return [0, 0, mf0[g0], md1[h0], add[md1[i0]][md2[h0]],
            add[add[mf0[g2]][mf2[g0]]][md2[i0]], md1[h1],
            add[md1[h2]][md2[h1]], add[md1[i2]][md2[h2]], add[mf2[g2]][md2[i2]]]


def _rep_from_idx(spec, m_idx, det=None) -> LinearMatrixRep:
    """The representation with entries m_idx, a nested tuple of coefficient
    index triples, entry (i, j) = [i][j], and its determinant det if the
    caller has it; nothing is encoded or decoded."""
    rep = object.__new__(LinearMatrixRep)
    rep._set(spec, m_idx, det)
    return rep


def all_reps(F: TernaryCubic, p0: Optional[ProjPoint] = None):
    """One representation per rational point other than the base point.

    Returns a list of (point, representation, lam) with det = lam * F for
    the original form.  The list has length #C(F_q) - 1 and realizes the
    bijection between representation classes and C(F_q) \\ {p0}.

    F is moved to the normal form Fn of plane.normalize(F, p0) once; each point is
    mapped there, checked to lie on Fn, given its representation by _mp_idx
    and pulled back, a case-1 entry on its nonzero slots only.  Both
    identities, det(rep_n) = lam_n * Fn (in _mp_idx) and det(rep) = lam * F,
    are checked for every representation (BrokenInvariant when one fails),
    the second on _tables.det_cubic_idx, and each representation keeps the
    determinant of that check, which the callers' own is_ldr_of(rep, F)
    reads.  The points come from PlaneTables.zeros and the construction runs
    on element indices; only the output is decoded.  On prime fields from
    _tables.ARRAY_Q up, _bulk.case1_reps builds and checks every case-1
    representation at once, the same three checks in the same order, and
    each keeps the determinant computed there; the one case-2 point, if
    any, stays on _mp_idx.
    """
    if not is_smooth(F):
        raise SingularInput("the form is singular")
    pts = rational_points(F)
    if not pts:
        raise NoRationalPoint("smooth cubics over finite fields always have one")
    if p0 is None:
        p0 = pts[0]
    elif F.evaluate(p0):
        raise NotOnCurve(f"{p0!r} is not on the curve")
    skip = pts.index(p0)
    spec = F.spec
    pt = _tables.plane_tables(spec)
    sf = pt.sf
    add, mul, inv = sf.add, sf.mul, sf.inv
    f = F.idx
    t, fn = _normalize_idx(pt, f, sf.encode_all(p0.coords))
    ti = _tables.inv3_idx(t, sf)
    # pull back through w = t_inv * v, on the mul rows of t_inv: coefficient j
    # of an entry is sum_i t_inv[i][j] * (coefficient i of the normal-form entry)
    rows = [[mul[c] for c in row] for row in ti]
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows

    def pull(entry):
        e0, e1, e2 = entry
        return (add[add[r00[e0]][r10[e1]]][r20[e2]],
                add[add[r01[e0]][r11[e1]]][r21[e2]],
                add[add[r02[e0]][r12[e1]]][r22[e2]])

    # the case-1 entries with a zero X slot or a zero Y slot (see _det_case1_idx)
    def pull_yz(entry):
        _, e1, e2 = entry
        return (add[r10[e1]][r20[e2]], add[r11[e1]][r21[e2]], add[r12[e1]][r22[e2]])

    def pull_xz(entry):
        e0, _, e2 = entry
        return (add[r00[e0]][r20[e2]], add[r01[e0]][r21[e2]], add[r02[e0]][r22[e2]])

    # row 0 of every normal-form matrix is (0, Z, -Y): pulled back once per curve
    row0 = tuple(map(pull, ((0, 0, 0), (0, 0, 1), (0, sf.neg[1], 0))))
    zero = (0, 0, 0)

    def on_tables(i):
        # Pn = t_inv * P in canonical scaling, which must lie on Fn
        x, y, z = pt.point(i)
        v = [add[add[r0[x]][r1[y]]][r2[z]] for r0, r1, r2 in rows]
        scale = mul[inv[next(c for c in v if c)]]
        pn = [scale[c] for c in v]
        if pt.value(fn, pn):
            raise _failed_check(1, spec, pn)
        m_n = _mp_idx(fn, *pn, sf)
        if pn[2]:
            (m10, _, m12), (m20, m21, m22) = m_n[1:]
            m_idx = (row0, (pull_yz(m10), zero, pull_xz(m12)),
                     (pull_xz(m20), pull(m21), pull_xz(m22)))
        else:
            m_idx = (row0, tuple(map(pull, m_n[1])), tuple(map(pull, m_n[2])))
        d = tuple(_tables.det_cubic_idx(m_idx, sf))
        lam = _ratio_idx(d, f, sf)
        if not lam:
            raise _failed_check(3, spec, pn)
        return m_idx, d, lam

    zeros = pt.zeros(f)
    zeros = zeros[:skip] + zeros[skip + 1:]
    built = (_bulk.case1_reps(sf, f, fn, ti, zeros) if sf.on_arrays
             else [None] * len(zeros))
    out = []
    for P, i, b in zip(pts[:skip] + pts[skip + 1:], zeros, built):
        if b is None:
            m_idx, d, lam = on_tables(i)
        else:
            pn, check, m_idx, d, lam = b
            if check:
                raise _failed_check(check, spec, pn)
        out.append((P, _rep_from_idx(spec, m_idx, d), sf.decode(lam)))
    return out


def _failed_check(check: int, spec, pn) -> Exception:
    """The error of all_reps when check 1 (Pn on Fn), 2 (det(rep_n) = lam_n * Fn)
    or 3 (det(rep) = lam * F) fails at the point with normal-form coordinates pn."""
    if check == 1:
        el = _tables.scalar_field(spec).elems
        return NotOnCurve(f"{ProjPoint(spec, [el[c] for c in pn])!r} is not on the curve")
    if check == 2:
        return BrokenInvariant("determinant identity det = -u^3 * F failed")
    return BrokenInvariant("pullback lost the determinant identity")


# ---------------------------------------------------------------------------
# equivalence


def _matrix_at_point(m_idx, coords, sf):
    add, mul = sf.add, sf.mul
    x, y, z = coords
    return [
        [add[add[mul[m_idx[i][j][0]][x]][mul[m_idx[i][j][1]][y]]][mul[m_idx[i][j][2]][z]]
         for j in range(3)]
        for i in range(3)
    ]


@lru_cache(maxsize=1 << 12)
def _rank_profile(rep: LinearMatrixRep):
    """rank M(P) at the rational zeros of det M, in enumeration order, for
    the representation M = rep.

    det M must not vanish identically.  Off its zeros M(P) has rank 3, so
    for two representations with proportional determinants, which share
    their zeros, the profiles agree iff the ranks agree on all of P^2(F_q).
    By Jacobi's formula dD/dX_k = sum_ij cof_ij(M) (M_k)_ij for D = det M,
    so where rank M(P) <= 1, every cofactor and with them the gradient of D
    vanish at P.  The rank is therefore 2 at every smooth zero of D and is
    computed only at the singular ones, none for a smooth curve, as 3 minus
    the dimension of the kernel of M(P).
    """
    pt = _tables.plane_tables(rep.spec)
    sf = pt.sf
    zeros, singular = pt.zero_sets(rep._determinant())
    if not singular:
        return (2,) * len(zeros)
    singular = set(singular)
    kernel = _tables.right_kernel_idx
    return tuple(3 - len(kernel(_matrix_at_point(rep.idx, pt.point(i), sf), sf))
                 if i in singular else 2 for i in zeros)


@lru_cache(maxsize=1 << 12)
def _kernel_data(rep: LinearMatrixRep):
    """((N_v, N_w), traces) with N_u = M(P)^-1 M_u for the representation
    M = rep, or None when det M vanishes on all of P^2(F_q);
    traces = (tr(N_v^2 N_w^2), tr(N_v^2 N_w^2 N_v N_w)).

    P is the first point off the curve det M = 0 (_off_curve_point), which
    representations with proportional determinants share, and v < w are
    the two coordinates other than the first nonzero one of P.
    """
    pt = _tables.plane_tables(rep.spec)
    sf = pt.sf
    at = _off_curve_point(pt, rep._determinant())
    if at is None:
        return None
    idx = rep.idx
    mm = _tables.matmul3_idx
    m_inv = _tables.inv3_idx(_matrix_at_point(idx, at, sf), sf)
    first = next(u for u in range(3) if at[u])
    n_v, n_w = (mm(m_inv, [[e[u] for e in row] for row in idx], sf)
                for u in range(3) if u != first)
    word = mm(mm(n_v, n_v, sf), mm(n_w, n_w, sf), sf)
    add = sf.add
    traces = tuple(add[add[x[0][0]][x[1][1]]][x[2][2]]
                   for x in (word, mm(word, mm(n_v, n_w, sf), sf)))
    return tuple(tuple(map(tuple, n)) for n in (n_v, n_w)), traces


def _off_curve_point(pt, d_idx):
    """Coordinates of the first point of P^2 where the cubic d_idx does not
    vanish, read off as the first gap in its cached zero set; None if none."""
    zeros = pt.zeros(d_idx)
    i = next((k for k, z in enumerate(zeros) if k != z), len(zeros))
    return pt.point(i) if i < pt.n_points else None


def _witness_from_b(m1: LinearMatrixRep, m2: LinearMatrixRep, vec):
    """Complete a candidate B, given as 9 indices row by row and scaled here
    to lead with 1, into a verified witness, or return None."""
    pt = _tables.plane_tables(m1.spec)
    sf = pt.sf
    s = sf.mul[sf.inv[next(v for v in vec if v)]]
    b = [[s[v] for v in vec[k:k + 3]] for k in (0, 3, 6)]
    if not _tables.det3_idx(b, sf):
        return None
    at = _off_curve_point(pt, m1._determinant())
    # m1(P) is invertible where det m1 does not vanish, and so is m2(P), det m2
    # being a nonzero multiple of det m1; so A = m2(P) (m1(P) B)^-1 is too
    m1b = _tables.matmul3_idx(_matrix_at_point(m1.idx, at, sf), b, sf)
    a = _tables.matmul3_idx(_matrix_at_point(m2.idx, at, sf),
                            _tables.inv3_idx(m1b, sf), sf)
    w = EquivalenceWitness(LinearTransform._from_idx(sf, a), LinearTransform._from_idx(sf, b))
    return w if w.verify(m1, m2) else None


def _kernel_certificate(m1, m2):
    """A verified witness with m2 = A m1 B, or None when there is none, from
    the solutions of one linear system over F_q.

    A witness m2 = A m1 B gives C m2 = m1 B with C = A^-1 = m1(P) B m2(P)^-1
    at the shared point P off the curve, hence B K_u = N_u B for each u,
    where N_u and K_u are the _kernel_data of m1 and m2.  Since
    sum_u P_u N_u = I = sum_u P_u K_u, the equation for the first u with
    P_u != 0 follows from the other two, which leave 18 rows in the 9
    entries of B.  Their solutions are Hom(coker m1, coker m2): a map of
    cokernels lifts to a unique pair (C, B), there being no constant maps
    of negative degree.  For a smooth det both cokernels are line bundles
    of one degree, so the space has dimension d = 1 if they are isomorphic
    and 0 otherwise; only a singular det leaves d >= 2.  Every witness has
    a multiple of a solution as B, and _witness_from_b completes a B to the
    only A that can go with it, so _sweep over the lines of the solution
    space either finds a verified witness or proves there is none.  At
    d = 1 that is one candidate.  A solution B with det B != 0 always
    completes to a witness, so a candidate is rejected only for det B = 0,
    at the cost of one determinant; the verify is the independent check.

    Only a det vanishing on all of P^2(F_q) leaves no P.  The ideal of
    P^2(F_q) is generated in degree q + 1, so a nonzero cubic vanishes on
    all of it only when q + 1 <= 3, over F_2.  There the sweep runs on the
    27 rows C m2_v = m1_v B in the 18 entries of (C, B), with A = C^-1.
    """
    k1, k2 = _kernel_data(m1), _kernel_data(m2)
    sf = _tables.scalar_field(m1.spec)
    add, neg = sf.add, sf.neg
    rows = []
    if k1 is None or k2 is None:
        for v in range(3):
            for i in range(3):
                for j in range(3):
                    # entry (i, j) of C m2_v - m1_v B
                    row = [0] * 18
                    for l in range(3):
                        row[3 * i + l] = m2.idx[l][j][v]
                        row[9 + 3 * l + j] = neg[m1.idx[i][l][v]]
                    rows.append(row)
        return _sweep(_tables.right_kernel_idx(rows, sf), sf,
                      lambda vec: _witness_from_cb(m1, m2, vec, sf))
    for n, k in zip(k1[0], k2[0]):
        n = [[neg[x] for x in row] for row in n]
        # entry (i, j) of B K - N B: sum_l B[i][l] K[l][j] + (-N)[i][l] B[l][j]
        for i in range(3):
            for j in range(3):
                row = [0] * 9
                for l in range(3):
                    row[3 * i + l] = add[row[3 * i + l]][k[l][j]]
                    row[3 * l + j] = add[row[3 * l + j]][n[i][l]]
                rows.append(row)
    return _sweep(_tables.right_kernel_idx(rows, sf), sf,
                  lambda vec: _witness_from_b(m1, m2, vec))


def _witness_from_cb(m1, m2, vec, sf):
    """Complete a solution (C, B) of C m2 = m1 B, given as 18 indices and
    scaled here to lead with 1, into the verified witness (C^-1, B), or
    return None."""
    s = sf.mul[sf.inv[next(v for v in vec if v)]]
    c, b = ([[s[v] for v in vec[k:k + 3]] for k in (j, j + 3, j + 6)] for j in (0, 9))
    if not (_tables.det3_idx(c, sf) and _tables.det3_idx(b, sf)):
        return None
    w = EquivalenceWitness(LinearTransform._from_idx(sf, _tables.inv3_idx(c, sf)),
                           LinearTransform._from_idx(sf, b))
    return w if w.verify(m1, m2) else None


def _sweep(basis, sf, complete):
    """The first result other than None of complete(vec), with one vec per
    line of the span of basis, or None when every line is tried.

    The lines are taken in a fixed order: the coefficient vectors c with
    first nonzero entry 1, ascending lexicographically on element indices,
    and vec = sum_k c_k basis[k] is passed on unscaled.  This is the one
    count of candidates against SWEEP_BUDGET: BudgetExceeded is raised
    before the line after the first SWEEP_BUDGET.
    """
    add, mul = sf.add, sf.mul
    tried = 0
    for lead in range(len(basis) - 1, -1, -1):
        for tail in product(range(sf.q), repeat=len(basis) - 1 - lead):
            if tried == SWEEP_BUDGET:
                raise BudgetExceeded(f"no decision after {tried} of the lines of a "
                                     f"{len(basis)}-dimensional solution space")
            tried += 1
            vec = basis[lead]
            for c, bs in zip(tail, basis[lead + 1:]):
                if c:
                    vec = [add[x][mul[c][y]] for x, y in zip(vec, bs)]
            found = complete(vec)
            if found is not None:
                return found
    return None


def equivalent(m1: LinearMatrixRep, m2: LinearMatrixRep) -> Optional[EquivalenceWitness]:
    """A witness (A, B) with m2 = A m1 B, or None when no such pair exists.

    Both inputs must be valid representations of proportional cubics;
    otherwise the answer is immediately None.  The stages are det ratio ->
    rank profile -> traces -> sweep; each of the first three returns None
    on an invariant that differs.  The traces are those of _kernel_data: a
    witness gives K_u = B^-1 N_u B at the shared point off the curve, so
    the trace of any word in the N_u is that of the same word in the K_u.
    The sweep (_kernel_certificate) tries the lines of the solution space
    of a linear system that holds every witness's B, so it decides every
    pair.  Witnesses are deterministic.  Raises BudgetExceeded when
    SWEEP_BUDGET candidates are tried without a decision.
    """
    if m1.spec != m2.spec:
        raise FieldMismatch("representations live in different fields")
    d1 = m1._determinant()
    if not any(d1) or not _ratio_idx(m2._determinant(), d1, _tables.scalar_field(m1.spec)):
        return None
    if _rank_profile(m1) != _rank_profile(m2):
        return None  # pointwise ranks are invariant under M -> A M B
    k1, k2 = _kernel_data(m1), _kernel_data(m2)
    if k1 and k2 and k1[1] != k2[1]:
        return None  # so are the traces of words in the kernel pencil
    return _kernel_certificate(m1, m2)


# ---------------------------------------------------------------------------
# classical shapes


def weierstrass_cubic(a: FieldElement, b: FieldElement) -> TernaryCubic:
    """The cubic Y^2 Z - X^3 - a X Z^2 - b Z^3."""
    spec = a.spec
    return TernaryCubic.from_dict(spec, {
        "000": -spec.one(), "112": spec.one(), "022": -a, "222": -b,
    })


def hesse_cubic(h: FieldElement) -> TernaryCubic:
    """The cubic X^3 + Y^3 + Z^3 + h X Y Z."""
    spec = h.spec
    return TernaryCubic.from_dict(spec, {
        "000": 1, "111": 1, "222": 1, "012": h,
    })


def galinat_rep(a: FieldElement, b: FieldElement, P: ProjPoint) -> LinearMatrixRep:
    """Representation of the Weierstrass cubic attached to an affine point.

    Needs characteristic at least 5 and 4a^3 + 27b^2 != 0; P must be an
    affine point [x:y:1] of Y^2 Z = X^3 + a X Z^2 + b Z^3.
    """
    spec = a.spec
    if b.spec != spec or P.spec != spec:
        raise FieldMismatch("arguments live in different fields")
    if spec.p in (2, 3):
        raise BadCharacteristic("this shape needs characteristic at least 5")
    if not (a * a * a * 4 + b * b * 27):
        raise SingularCurve("4a^3 + 27b^2 = 0")
    W = weierstrass_cubic(a, b)
    if W.evaluate(P):
        raise NotOnCurve(f"{P!r} is not on the curve")
    if not P.z:
        raise ValueError("an affine point [x:y:1] is required")
    lx = P.x / P.z
    mu = P.y / P.z
    zero, one = spec.zero(), spec.one()
    rep = LinearMatrixRep.from_entries(spec, (
        ((one, zero, -lx), (zero, zero, zero), (zero, -one, -mu)),
        ((zero, -one, mu), (one, zero, lx), (zero, zero, a + lx * lx)),
        ((zero, zero, zero), (zero, zero, one), (-one, zero, zero)),
    ))
    if is_ldr_of(rep, W) is None:
        raise BrokenInvariant("determinant identity failed for the Weierstrass shape")
    return rep


def moore_rep(h: FieldElement, P: ProjPoint) -> LinearMatrixRep:
    """The circulant-shaped representation of a Hesse cubic at a point with
    all coordinates nonzero; det comes out as a0*a1*a2 times the form."""
    spec = h.spec
    if P.spec != spec:
        raise FieldMismatch("arguments live in different fields")
    H = hesse_cubic(h)
    if not is_smooth(H):
        raise SingularCurve("the Hesse form is singular")
    if H.evaluate(P):
        raise NotOnCurve(f"{P!r} is not on the curve")
    a0, a1, a2 = P.coords
    if not (a0 and a1 and a2):
        raise ZeroCoordinate("all three coordinates must be nonzero")
    zero = spec.zero()
    rep = LinearMatrixRep.from_entries(spec, (
        ((a0, zero, zero), (zero, zero, a1), (zero, a2, zero)),
        ((zero, a1, zero), (a2, zero, zero), (zero, zero, a0)),
        ((zero, zero, a2), (zero, a0, zero), (a1, zero, zero)),
    ))
    if is_ldr_of(rep, H) is None:
        raise BrokenInvariant("determinant identity failed for the Hesse shape")
    return rep


def is_symmetric(rep: LinearMatrixRep) -> bool:
    idx = rep.idx
    return idx[0][1] == idx[1][0] and idx[0][2] == idx[2][0] and idx[1][2] == idx[2][1]


def symmetrize(rep: LinearMatrixRep) -> Optional[tuple[EquivalenceWitness, LinearMatrixRep]]:
    """A symmetric representation A * rep equivalent to rep, if row moves suffice.

    Solves the linear system (A M)^t = A M for A and returns the first
    invertible solution that _sweep reaches on the kernel basis in reverse
    order, so the lines come by their coefficients on the last basis vector
    first.  A multiple of a rejected A is rejected too (it is singular or
    A M is not symmetric), so one candidate per line decides as much as
    every vector would.  Raises BudgetExceeded from _sweep.
    """
    spec = rep.spec
    sf = _tables.scalar_field(spec)
    neg = sf.neg
    m_idx = rep.idx
    rows = []
    for v in range(3):
        for i in range(3):
            for j in range(i + 1, 3):
                row = [0] * 9
                for k in range(3):
                    row[3 * i + k] = m_idx[k][j][v]
                    row[3 * j + k] = neg[m_idx[k][i][v]]
                rows.append(row)
    ident = LinearTransform.identity(spec)

    def complete(vec):
        rows_a = [vec[0:3], vec[3:6], vec[6:9]]
        if not _tables.det3_idx(rows_a, sf):
            return None
        a = LinearTransform._from_idx(sf, rows_a)
        sym = transform_rep(a, rep, ident)
        return (EquivalenceWitness(a, ident), sym) if is_symmetric(sym) else None

    return _sweep(_tables.right_kernel_idx(rows, sf)[::-1], sf, complete)
