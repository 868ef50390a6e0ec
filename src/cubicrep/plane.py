"""Plane cubics over finite fields: points, tangency, smoothness, coordinates.

Forms are ternary cubics F(X, Y, Z) stored as the 10 coefficients a_ijk of
the monomials X_i X_j X_k (X_0 = X, X_1 = Y, X_2 = Z, indices sorted), so
"011" is the XY^2 coefficient.  Points of P^2 carry a canonical scaling
(first nonzero coordinate equal to 1), which makes point sets comparable
by plain equality.

Points, zero sets and smoothness run on the element indices of _tables:
rational_points decodes the cached zero scan of PlaneTables, and the
smoothness test works from the rational points alone, their number and
whether one of them is singular, as PlaneTables caches them (see is_smooth
for why that suffices).
A TernaryCubic and a LinearTransform keep the element indices of their
coefficients (idx) from construction on, so normalize, act and the product
and inverse of LinearTransform read idx, run the index kernels of _tables
and decode only the result; all_reps calls _normalize_idx and stays on
indices throughout, and is_flex reads its answer off the same normal form.
The direct search for singular points over extension fields and the flex
test by restriction to the tangent line live in the test suite, as the
references these are checked against.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from . import _tables
from ._forms import (CUBIC_EXPONENTS, CUBIC_INDICES, CUBIC_POS, DERIVATIVE_PLAN,
                     QUAD_EXPONENTS)
from .gf import FieldElement, FieldMismatch, FieldSpec


class PlaneError(Exception):
    """Base class for plane-geometry precondition failures."""


class NotOnCurve(PlaneError):
    pass


class SingularPoint(PlaneError):
    pass


class SingularInput(PlaneError):
    pass


# ---------------------------------------------------------------------------
# types


class ProjPoint:
    """A point of P^2(F_q) in canonical scaling (first nonzero coordinate 1)."""

    __slots__ = ("spec", "coords")

    def __init__(self, spec: FieldSpec, coords: Sequence):
        coords = tuple(spec.element(c) for c in coords)
        if len(coords) != 3:
            raise ValueError("a projective point needs three coordinates")
        for c in coords:
            if c:
                if c != 1:
                    inv = c.inverse()
                    coords = tuple(x * inv for x in coords)
                break
        else:
            raise ValueError("all coordinates are zero")
        self.spec = spec
        self.coords = coords

    @property
    def x(self):
        return self.coords[0]

    @property
    def y(self):
        return self.coords[1]

    @property
    def z(self):
        return self.coords[2]

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.spec == other.spec
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.spec, self.coords))

    def __repr__(self):
        return "[" + ":".join(repr(c) for c in self.coords) + "]"


class TernaryQuadratic:
    """A ternary quadratic form, six coefficients in QUAD_INDICES order."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Sequence):
        self.spec = spec
        self.coeffs = tuple(spec.element(c) for c in coeffs)
        if len(self.coeffs) != 6:
            raise ValueError("a ternary quadratic has six coefficients")

    def evaluate(self, coords) -> FieldElement:
        x, y, z = coords
        vals = (x, y, z)
        acc = self.spec.zero()
        for c, (ex, ey, ez) in zip(self.coeffs, QUAD_EXPONENTS):
            if c:
                acc = acc + c * vals[0] ** ex * vals[1] ** ey * vals[2] ** ez
        return acc

    def __eq__(self, other):
        return (isinstance(other, TernaryQuadratic) and self.spec == other.spec
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return _format_form(self.coeffs, QUAD_EXPONENTS)


class TernaryCubic:
    """A nonzero ternary cubic form over a fixed field.

    idx, the element indices in _tables of the coefficients, is encoded once
    at construction and read by every index path; _from_idx builds a cubic
    from indices and encodes nothing.
    """

    __slots__ = ("spec", "coeffs", "idx")

    def __init__(self, spec: FieldSpec, coeffs: Sequence):
        self.spec = spec
        self.coeffs = tuple(spec.element(c) for c in coeffs)
        if len(self.coeffs) != 10:
            raise ValueError("a ternary cubic has ten coefficients")
        if not any(self.coeffs):
            raise ValueError("the zero form does not define a cubic")
        self.idx = tuple(_tables.scalar_field(spec).encode_all(self.coeffs))

    @classmethod
    def _from_idx(cls, sf, idx) -> "TernaryCubic":
        """The nonzero cubic with coefficient indices idx over the field of sf."""
        F = object.__new__(cls)
        F.spec, F.idx = sf.spec, tuple(idx)
        F.coeffs = tuple(map(sf.elems.__getitem__, F.idx))
        return F

    @classmethod
    def from_dict(cls, spec: FieldSpec, coeffs: dict) -> "TernaryCubic":
        """Build from a {index: coefficient} mapping; missing indices are zero."""
        unknown = set(coeffs) - set(CUBIC_INDICES)
        if unknown:
            raise ValueError(f"unknown monomial indices {sorted(unknown)}")
        return cls(spec, [coeffs.get(idx, 0) for idx in CUBIC_INDICES])

    def coeff(self, idx: str) -> FieldElement:
        return self.coeffs[CUBIC_POS[idx]]

    def nonzero_dict(self) -> dict:
        return {idx: c for idx, c in zip(CUBIC_INDICES, self.coeffs) if c}

    def evaluate(self, point) -> FieldElement:
        coords = point.coords if isinstance(point, ProjPoint) else tuple(point)
        x, y, z = coords
        x2, y2, z2 = x * x, y * y, z * z
        mono = (x2 * x, x2 * y, x2 * z, x * y2, x * y * z, x * z2,
                y2 * y, y2 * z, y * z2, z2 * z)
        acc = self.spec.zero()
        for c, v in zip(self.coeffs, mono):
            if c:
                acc = acc + c * v
        return acc

    def scaled(self, factor) -> "TernaryCubic":
        factor = self.spec.element(factor)
        return TernaryCubic(self.spec, tuple(factor * c for c in self.coeffs))

    def __eq__(self, other):
        return (isinstance(other, TernaryCubic) and self.spec == other.spec
                and self.idx == other.idx)

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __repr__(self):
        return _format_form(self.coeffs, CUBIC_EXPONENTS)


def _element_matrix(spec: FieldSpec, m: Sequence[Sequence]) -> tuple:
    """The rows of m with every entry coerced into spec by spec.element, as
    a tuple of tuples; ValueError unless m is 3x3.  The constructors of
    LinearTransform and detrep.LinearMatrixRep read their matrices here."""
    rows = tuple(tuple(spec.element(c) for c in row) for row in m)
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("need a 3x3 matrix")
    return rows


class LinearTransform:
    """An invertible 3x3 matrix over a fixed field (an element of GL_3)."""

    __slots__ = ("spec", "rows", "idx", "det")

    def __init__(self, spec: FieldSpec, rows: Sequence[Sequence]):
        rows = _element_matrix(spec, rows)
        sf = _tables.scalar_field(spec)
        self._set(sf, rows, [sf.encode_all(row) for row in rows])

    def _set(self, sf, rows, idx):
        det = _tables.det3_idx(idx, sf)
        if not det:
            raise ValueError("transform is singular")
        self.spec = sf.spec
        self.rows = rows
        self.idx = tuple(map(tuple, idx))
        self.det = sf.decode(det)

    @classmethod
    def identity(cls, spec: FieldSpec) -> "LinearTransform":
        return cls(spec, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    @classmethod
    def _from_idx(cls, sf, rows) -> "LinearTransform":
        """The transform with element-index rows over the field of sf."""
        t = object.__new__(cls)
        t._set(sf, tuple(tuple(sf.elems[c] for c in row) for row in rows), rows)
        return t

    def __matmul__(self, other: "LinearTransform") -> "LinearTransform":
        if self.spec != other.spec:
            raise FieldMismatch("transforms live in different fields")
        sf = _tables.scalar_field(self.spec)
        return LinearTransform._from_idx(sf, _tables.matmul3_idx(self.idx, other.idx, sf))

    def inverse(self) -> "LinearTransform":
        sf = _tables.scalar_field(self.spec)
        return LinearTransform._from_idx(sf, _tables.inv3_idx(self.idx, sf))

    def apply_coords(self, coords):
        """Matrix-vector product on a coordinate triple."""
        return tuple(sum((self.rows[i][j] * coords[j] for j in range(3)),
                         self.spec.zero()) for i in range(3))

    def __eq__(self, other):
        return (isinstance(other, LinearTransform) and self.spec == other.spec
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.spec, self.rows))

    def __repr__(self):
        return "LinearTransform(" + repr([[c for c in r] for r in self.rows]) + ")"


# ---------------------------------------------------------------------------
# formatting


def _format_form(coeffs, exponents):
    names = ("X", "Y", "Z")
    terms = []
    for c, exps in zip(coeffs, exponents):
        if not c:
            continue
        mono = "*".join(
            (n if e == 1 else f"{n}^{e}") for n, e in zip(names, exps) if e
        )
        cs = repr(c)
        if cs == "1":
            terms.append(mono)
        elif " " in cs or "+" in cs:
            terms.append(f"({cs})*{mono}")
        else:
            terms.append(f"{cs}*{mono}")
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# enumeration of P^2


def _point_at(pt, i: int) -> ProjPoint:
    """Point i of the enumeration as an object; its coordinates are already
    in canonical scaling."""
    P = object.__new__(ProjPoint)
    P.spec = pt.sf.spec
    el = pt.sf.elems
    x, y, z = pt.point(i)
    P.coords = (el[x], el[y], el[z])
    return P


def projective_points(spec: FieldSpec) -> Iterator[ProjPoint]:
    """All points of P^2(F_q) in a fixed order starting at [1:0:0]."""
    pt = _tables.plane_tables(spec)
    return (_point_at(pt, i) for i in range(pt.n_points))


# ---------------------------------------------------------------------------
# operations


def evaluate(F: TernaryCubic, P: ProjPoint) -> FieldElement:
    return F.evaluate(P)


def partials(F: TernaryCubic) -> tuple[TernaryQuadratic, TernaryQuadratic, TernaryQuadratic]:
    """Formal partial derivatives (dF/dX, dF/dY, dF/dZ); exponents reduce mod p.

    Each term of the derivative plan puts one cubic coefficient, times its
    exponent, on its own quadratic monomial.
    """
    out = []
    for terms in DERIVATIVE_PLAN:
        q = [F.spec.zero()] * 6
        for cpos, qpos, k in terms:
            q[qpos] = F.coeffs[cpos] * k
        out.append(TernaryQuadratic(F.spec, q))
    return tuple(out)


def gradient(F: TernaryCubic, P: ProjPoint):
    fx, fy, fz = partials(F)
    return (fx.evaluate(P.coords), fy.evaluate(P.coords), fz.evaluate(P.coords))


def rational_points(F: TernaryCubic) -> list[ProjPoint]:
    """All F_q-points of the curve, in the fixed enumeration order of P^2."""
    pt = _tables.plane_tables(F.spec)
    return [_point_at(pt, i) for i in pt.zeros(F.idx)]


def tangent_line(F: TernaryCubic, P: ProjPoint):
    """Tangent line at a smooth point, as a canonical coefficient triple."""
    if F.evaluate(P):
        raise NotOnCurve(f"{P!r} is not on the curve")
    grad = gradient(F, P)
    for g in grad:
        if g:
            inv = g.inverse()
            return tuple(x * inv for x in grad)
    raise SingularPoint(f"{P!r} is a singular point")


def is_flex(F: TernaryCubic, P: ProjPoint) -> bool:
    """True iff the tangent at P meets the curve with multiplicity >= 3 there.

    Read off the normal form at P (see normalize): P goes to [1:0:0] and its
    tangent to Z = 0, so F(X, Y, 0) = Y^2 (a011 X + a111 Y).  The tangent
    meets the curve at P with multiplicity >= 3 iff a011 = 0, in every
    characteristic; when a111 = 0 too, the tangent is a component of the
    curve.
    """
    if P.spec != F.spec:
        raise FieldMismatch("point and form live in different fields")
    pt = _tables.plane_tables(F.spec)
    f, p = F.idx, pt.sf.encode_all(P.coords)
    if pt.value(f, p):
        raise NotOnCurve(f"{P!r} is not on the curve")
    if not any(pt.gradient(f, p)):
        raise SingularPoint(f"{P!r} is a singular point")
    return not _normalize_idx(pt, f, p)[1][3]


def is_smooth(F: TernaryCubic) -> bool:
    """True iff F = dF/dX = dF/dY = dF/dZ = 0 has no solution over any
    extension field (equivalently over F_{q^k}, k <= 4).

    Decided from the rational points alone: with N = #C(F_q), the curve C
    is smooth iff N is neither 0 nor 2q+2 and no rational point of C is
    singular.

    A smooth cubic has genus 1, so by the Hasse-Weil bound
    0 < q+1-2*sqrt(q) <= N <= q+1+2*sqrt(q) < 2q+2.  Conversely, let C be
    singular with no rational singular point.  Frobenius permutes the
    components of C and its singular points over the algebraic closure:

    * C geometrically irreducible: its one singular point is fixed by
      Frobenius, so it is rational.
    * C three conjugate lines: if they are concurrent, the common point is
      rational and singular; if they form a triangle, a rational point on
      one line lies on all three, so N = 0.
    * Otherwise some component is a line fixed by Frobenius, so C = L*Q
      with L a rational line and Q a rational conic.  If Q is two lines,
      their meeting point is rational and singular; if Q is a double line,
      all its points are.  If Q is smooth, the singular points of C are
      L cap Q, and a tangency point or two rational points would be
      rational singular points.
    * That leaves C = L*Q with Q a smooth conic and L cap Q a conjugate
      pair.  L and Q each have q+1 rational points and share none, so
      N = 2q+2.

    The zeros and the singular zeros come from PlaneTables.zero_sets,
    cached up to scalars, so the gradient is taken once per form and
    all_reps, det(rep) and the rank profile reuse that pass.  A direct
    extension-field search agrees with this on every input; the test suite
    checks that exhaustively for small q.
    """
    pt = _tables.plane_tables(F.spec)
    on_curve, singular = pt.zero_sets(F.idx)
    return not singular and len(on_curve) not in (0, 2 * F.spec.q + 2)


def act(T: LinearTransform, F: TernaryCubic) -> TernaryCubic:
    """Pullback of F along T: substitute (X, Y, Z) -> T (X, Y, Z)^t and expand.

    Satisfies act(S, act(T, F)) = act(T @ S, F); point sets transform by the
    inverse matrix.
    """
    spec = F.spec
    if T.spec != spec:
        raise FieldMismatch("transform and form live in different fields")
    sf = _tables.scalar_field(spec)
    return TernaryCubic._from_idx(sf, _tables.act_idx(T.idx, F.idx, sf))


def normalize(F: TernaryCubic, P0: ProjPoint) -> tuple[LinearTransform, TernaryCubic]:
    """Move P0 to [1:0:0] with tangent Z = 0 and rescale.

    Returns (T, F') with F' = act(T, F) divided by its X^2 Z coefficient, so
    that F' has zero X^3 and X^2 Y coefficients and X^2 Z coefficient 1.
    The first column of T is P0; the remaining columns are completed
    deterministically from standard basis vectors (corrected into the
    tangent plane for the middle column).  Representations of F' pull back
    to representations of F up to a nonzero scalar.
    """
    spec = F.spec
    if not is_smooth(F):
        raise SingularInput("the form is singular")
    if F.evaluate(P0):
        raise NotOnCurve(f"{P0!r} is not on the curve")
    pt = _tables.plane_tables(spec)
    sf = pt.sf
    t, fn = _normalize_idx(pt, F.idx, sf.encode_all(P0.coords))
    return LinearTransform._from_idx(sf, t), TernaryCubic._from_idx(sf, fn)


def _normalize_idx(pt, f, p0):
    """normalize on element indices: (t, fn) for the smooth cubic f and its
    point p0, both as index lists, with t a 3x3 index matrix."""
    sf = pt.sf
    add, mul, inv = sf.add, sf.mul, sf.inv
    grad = pt.gradient(f, p0)  # nonzero at a smooth point
    i3 = next(i for i in range(3) if grad[i])
    col3 = [0, 0, 0]
    col3[i3] = 1
    scale = mul[sf.neg[inv[grad[i3]]]]
    for j in range(3):
        # e_j minus its tangent component along e_i3, so that grad . col2 = 0
        col2 = [0, 0, 0]
        col2[j] = 1
        col2[i3] = add[col2[i3]][scale[grad[j]]]
        t = [list(row) for row in zip(p0, col2, col3)]
        if _tables.det3_idx(t, sf):
            break
    else:
        raise AssertionError("tangent kernel completion failed")
    fn = _tables.act_idx(t, f, sf)
    s = mul[inv[fn[2]]]
    fn = [s[c] for c in fn]
    if fn[0] or fn[1] or fn[2] != 1:
        raise AssertionError("normalization did not reach the normal form")
    return t, fn


def is_normalized(F: TernaryCubic) -> bool:
    return (not F.coeff("000")) and (not F.coeff("001")) and F.coeff("002") == 1
