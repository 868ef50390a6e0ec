"""The plane-geometry and point-to-representation steps on field element
objects.

A plain reference for the index paths of cubicrep.plane and cubicrep.detrep:
every step here uses FieldElement arithmetic only, from normalize, act and
the inverse of T down to the determinant.  The differential tests compare
normalize, act, all_reps, mp_case1 and mp_case2 against it.  mp_case1 and
mp_case2 here are the bare formulas; all_reps checks det(rep) = lam * F for
every representation it returns, which is where lam comes from.  The
gradient comes from plane.partials, which runs on objects, and the points
from rational_points, which the zero-set tests of test_plane check against
TernaryCubic.evaluate.

transform_rep multiplies the constant matrices with the FieldElement
operators, and right_kernel reads a kernel basis off the reduced row echelon
form.  rank_at ranks M(P) as 3 minus the dimension of that kernel, on its
decoded entries, and rank_profile applies it at every rational zero of
det M, the plain formula that detrep._rank_profile shortens to the
singular zeros.

is_flex restricts F to a parametrization of the tangent line at P and
counts the root multiplicity there, the reference for plane.is_flex, which
reads the answer off the normal form instead; restrict_to_line and
_root_multiplicity work for any line and any point on it.
is_smooth_by_search looks for a singular point over every F_{q^k}, k <= 4,
the reference for plane.is_smooth, which decides from the rational points.

exhaustive_scan decides equivalence by brute force over GL_3(F_q), the
plain reference for the sweep of detrep.equivalent: scan_equivalence and
its helpers run with numpy on the uint8 tables that _bulk._arrays copies
from _tables.ScalarField, so they need q <= _tables.MAX_TABLE_Q and are
practical up to q = 4 or so.

census_by_full_sweep is the census as it was first built: smooth_mask over
every form up to scalar (forms_up_to_scalar, which the census fixtures of
conftest read too), then one orbit per smooth form not yet visited, in
lexicographic order.  It is the reference for oracle.census, which tests
only the normal forms a000 = a001 = 0, a002 = 1 for smoothness.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np

from cubicrep import _bulk, _tables
from cubicrep._forms import CUBIC_EXPONENTS, CUBIC_INDICES, CUBIC_POS3, QUAD_INDICES, QUAD_POS2
from cubicrep._tables import ScalarField
from cubicrep.detrep import (
    BrokenInvariant,
    EquivalenceWitness,
    LinearMatrixRep,
    _matrix_at_point,
    _off_curve_point,
)
from cubicrep.gf import embed, mk_field
from cubicrep.oracle import OrbitCensus, OrbitEntry, _field_for
from cubicrep.plane import (
    LinearTransform,
    NotOnCurve,
    ProjPoint,
    TernaryCubic,
    gradient,
    partials,
    projective_points,
    rational_points,
    tangent_line,
)


#: signed permutations for the 3x3 determinant
DET_PERMS = (
    ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
    ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1),
)


def mul_lin_lin(u, v, spec):
    """Product of two linear forms as a 6-tuple of quadratic coefficients."""
    out = [spec.zero()] * 6
    for i in range(3):
        if not u[i]:
            continue
        for j in range(3):
            if v[j]:
                pos = QUAD_POS2[i][j]
                out[pos] = out[pos] + u[i] * v[j]
    return tuple(out)


def mul_quad_lin(q, u, spec):
    """Product of a quadratic (6-tuple) and a linear form as a cubic 10-tuple."""
    out = [spec.zero()] * 10
    for pos, idx in enumerate(QUAD_INDICES):
        if not q[pos]:
            continue
        i, j = int(idx[0]), int(idx[1])
        for k in range(3):
            if u[k]:
                cp = CUBIC_POS3[i][j][k]
                out[cp] = out[cp] + q[pos] * u[k]
    return tuple(out)


def act(T: LinearTransform, F: TernaryCubic) -> TernaryCubic:
    """F with (X, Y, Z) -> T (X, Y, Z)^t substituted, expanded term by term."""
    spec = F.spec
    rows = T.rows
    out = [spec.zero()] * 10
    for cf, idx in zip(F.coeffs, CUBIC_INDICES):
        if not cf:
            continue
        i, j, k = (int(ch) for ch in idx)
        cub = mul_quad_lin(mul_lin_lin(rows[i], rows[j], spec), rows[k], spec)
        out = [o + cf * c for o, c in zip(out, cub)]
    return TernaryCubic(spec, out)


def det3(rows):
    """The determinant of a 3x3 matrix of FieldElements, along row 0."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def inverse(T: LinearTransform) -> LinearTransform:
    """T^-1 as the adjugate divided by the determinant."""
    (a, b, c), (d, e, f), (g, h, i) = T.rows
    adj = ((e * i - f * h, c * h - b * i, b * f - c * e),
           (f * g - d * i, a * i - c * g, c * d - a * f),
           (d * h - e * g, b * g - a * h, a * e - b * d))
    inv_det = T.det.inverse()
    return LinearTransform(T.spec, [[x * inv_det for x in row] for row in adj])


def normalize(F: TernaryCubic, P0: ProjPoint):
    """(T, Fn): the first column of T is P0, the third the first standard
    basis vector e_i with dF/dX_i(P0) != 0, the middle one the first e_j
    moved into the tangent plane along e_i that makes T invertible; Fn is
    act(T, F) scaled to X^2 Z coefficient 1."""
    spec = F.spec
    grad = gradient(F, P0)
    one, zero = spec.one(), spec.zero()
    basis = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
    i = next(i for i in range(3) if grad[i])
    col3 = basis[i]
    for j in range(3):
        col2 = tuple(basis[j][k] - grad[j] / grad[i] * col3[k] for k in range(3))
        try:
            T = LinearTransform(spec, tuple(zip(P0.coords, col2, col3)))
            break
        except ValueError:
            continue
    else:
        raise AssertionError("tangent kernel completion failed")
    Fn = act(T, F)
    return T, Fn.scaled(Fn.coeff("002").inverse())


def det_cubic(rep: LinearMatrixRep):
    """det(X*m0 + Y*m1 + Z*m2) as a TernaryCubic, None when it vanishes."""
    spec = rep.spec
    acc = [spec.zero()] * 10
    for perm, sign in DET_PERMS:
        u = rep.entry(0, perm[0])
        v = rep.entry(1, perm[1])
        w = rep.entry(2, perm[2])
        cub = mul_quad_lin(mul_lin_lin(u, v, spec), w, spec)
        if sign > 0:
            acc = [a + c for a, c in zip(acc, cub)]
        else:
            acc = [a - c for a, c in zip(acc, cub)]
    if not any(acc):
        return None
    return TernaryCubic(spec, acc)


def is_ldr_of(rep: LinearMatrixRep, F: TernaryCubic):
    """The scalar lam != 0 with det(rep) = lam * F, or None."""
    D = det_cubic(rep)
    if D is None:
        return None
    lam = next(df / ff for df, ff in zip(D.coeffs, F.coeffs) if ff)
    if not lam or any(df != lam * ff for df, ff in zip(D.coeffs, F.coeffs)):
        return None
    return lam


def mp_case1(Fn: TernaryCubic, P: ProjPoint) -> LinearMatrixRep:
    """The representation at a curve point [s:t:u] with u != 0 of a normal form."""
    spec = Fn.spec
    s, t, u = P.coords
    a011, a012, a022 = Fn.coeff("011"), Fn.coeff("012"), Fn.coeff("022")
    a111, a112, a122 = Fn.coeff("111"), Fn.coeff("112"), Fn.coeff("122")
    zero = spec.zero()
    q_tu = a011 * t * t + a012 * t * u + a022 * u * u
    row0 = ((zero, zero, zero), (zero, zero, spec.one()), (zero, -spec.one(), zero))
    row1 = ((zero, u, -t), (zero, zero, zero), (-u * u, zero, -(q_tu + s * u)))
    l1 = (u * u * a011, u * u * a111, u * (a111 * t + a112 * u))
    l2 = (u * (a011 * t + a012 * u), zero, a111 * t * t + a112 * t * u + a122 * u * u)
    row2 = ((u, zero, -s), l1, l2)
    return LinearMatrixRep.from_entries(spec, (row0, row1, row2))


def mp_case2(Fn: TernaryCubic, P: ProjPoint) -> LinearMatrixRep:
    """The representation at the curve point [s:t:0] other than [1:0:0]."""
    spec = Fn.spec
    a011, a012, a022 = Fn.coeff("011"), Fn.coeff("012"), Fn.coeff("022")
    a111, a112 = Fn.coeff("111"), Fn.coeff("112")
    a122, a222 = Fn.coeff("122"), Fn.coeff("222")
    if not a011:
        raise BrokenInvariant("a011 = 0 cannot happen for a curve point with u = 0")
    zero, one = spec.zero(), spec.one()
    row0 = ((zero, zero, zero), (zero, zero, one), (zero, -one, zero))
    row1 = ((zero, zero, one), (zero, a011, zero), (one, a012, a022))
    lt1 = (a111, a012 * a111 - a011 * a112, zero)
    lt2 = (zero, a022 * a111 - a011 * a122, -a011 * a222)
    row2 = ((a011, a111, zero), lt1, lt2)
    return LinearMatrixRep.from_entries(spec, (row0, row1, row2))


def pullback_rep(rep: LinearMatrixRep, t_inv) -> LinearMatrixRep:
    """Substitute the coordinate change w = t_inv * v into every entry."""
    spec = rep.spec
    n = rep.coefficient_matrices()
    ms = []
    for j in range(3):
        mj = [[spec.zero()] * 3 for _ in range(3)]
        for i in range(3):
            c = t_inv.rows[i][j]
            if not c:
                continue
            for r in range(3):
                for s in range(3):
                    mj[r][s] = mj[r][s] + c * n[i][r][s]
        ms.append(mj)
    return LinearMatrixRep(spec, *ms)


def all_reps(F: TernaryCubic, p0: ProjPoint | None = None):
    """(point, representation, lam) for every rational point but p0, the
    output that detrep.all_reps must reproduce exactly."""
    pts = rational_points(F)
    p0 = pts[0] if p0 is None else p0
    T, Fn = normalize(F, p0)
    t_inv = inverse(T)
    out = []
    for P in pts:
        if P == p0:
            continue
        Pn = ProjPoint(F.spec, t_inv.apply_coords(P.coords))
        if Fn.evaluate(Pn):
            raise NotOnCurve(f"{Pn!r} is not on the curve")
        rep = pullback_rep(mp_case1(Fn, Pn) if Pn.z else mp_case2(Fn, Pn), t_inv)
        lam = is_ldr_of(rep, F)
        if lam is None:
            raise BrokenInvariant("pullback lost the determinant identity")
        out.append((P, rep, lam))
    return out


def transform_rep(a: LinearTransform, rep: LinearMatrixRep, b: LinearTransform):
    """a * rep * b, each constant matrix multiplied with FieldElement objects."""
    spec = rep.spec

    def matmul(x, y):
        return tuple(tuple(sum((x[i][k] * y[k][j] for k in range(3)), spec.zero())
                           for j in range(3)) for i in range(3))

    return LinearMatrixRep(spec, *(matmul(matmul(a.rows, mv), b.rows)
                                   for mv in rep.coefficient_matrices()))


def right_kernel(rows, spec):
    """Kernel basis of a matrix of FieldElements read off its reduced row
    echelon form by Gauss-Jordan elimination: one vector per free column,
    1 there and 0 at the other free columns."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                g = m[i][c]
                m[i] = [x - g * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [spec.zero()] * ncols
        vec[fc] = spec.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(tuple(vec))
    return basis


def rank_at(rep: LinearMatrixRep, coords):
    """rank M(P) at the point with coordinate indices coords: M(P) decoded
    to FieldElements and ranked as 3 minus the dimension of its
    right_kernel."""
    sf = _tables.scalar_field(rep.spec)
    m = [[sf.decode(e) for e in row] for row in _matrix_at_point(rep.idx, coords, sf)]
    return 3 - len(right_kernel(m, rep.spec))


def rank_profile(rep: LinearMatrixRep):
    """rank M(P) at every rational zero of det M, in enumeration order."""
    pt = _tables.plane_tables(rep.spec)
    return tuple(rank_at(rep, pt.point(i))
                 for i in pt.zeros(_tables.det_cubic_idx(rep.idx, pt.sf)))


# ---------------------------------------------------------------------------
# flexes by restriction to the tangent line, smoothness by search


def line_basis(line, spec):
    """Two independent points spanning the line with coefficients (a, b, c).

    The construction is deterministic in the canonical scaling of the line.
    """
    a, b, c = line
    one, zero = spec.one(), spec.zero()
    if a:
        inv = a.inverse()
        return (-b * inv, one, zero), (-c * inv, zero, one)
    if b:
        inv = b.inverse()
        return (one, zero, zero), (zero, -c * inv, one)
    return (one, zero, zero), (zero, one, zero)


def restrict_to_line(F: TernaryCubic, v, w):
    """Coefficients (b0, b1, b2, b3) of F(s*v + t*w) in s^3, s^2 t, s t^2, t^3."""
    spec = F.spec
    out = [spec.zero()] * 4
    for cf, (ex, ey, ez) in zip(F.coeffs, CUBIC_EXPONENTS):
        if not cf:
            continue
        # expand the product of linear binary forms (v_i s + w_i t)^e_i
        poly = [spec.one()]
        for coord in range(3):
            e = (ex, ey, ez)[coord]
            for _ in range(e):
                nxt = [spec.zero()] * (len(poly) + 1)
                for d, pc in enumerate(poly):
                    if pc:
                        nxt[d] = nxt[d] + pc * v[coord]
                        nxt[d + 1] = nxt[d + 1] + pc * w[coord]
                poly = nxt
        for d in range(4):
            out[d] = out[d] + cf * poly[d]
    return tuple(out)


def is_flex(F: TernaryCubic, P: ProjPoint) -> bool:
    """True iff the tangent at P meets the curve with multiplicity >= 3 there.

    Computed by restricting F to a parametrization of the tangent line and
    counting the root multiplicity at the parameter of P, which stays valid
    in characteristics 2 and 3.
    """
    line = tangent_line(F, P)  # raises NotOnCurve / SingularPoint
    spec = F.spec
    v, w = line_basis(line, spec)
    b = restrict_to_line(F, v, w)
    if not any(b):
        return True  # tangent line contained in the curve
    s, t = _parameters_on_line(P, v, w, spec)
    return _root_multiplicity(b, s, t, spec) >= 3


def _parameters_on_line(P, v, w, spec):
    """(s, t) with P = s*v + t*w, for P known to lie on the line span(v, w)."""
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            det = v[i] * w[j] - v[j] * w[i]
            if det:
                inv = det.inverse()
                s = (P.coords[i] * w[j] - P.coords[j] * w[i]) * inv
                t = (v[i] * P.coords[j] - v[j] * P.coords[i]) * inv
                # guard against P off the line
                if all(s * v[k] + t * w[k] == P.coords[k] for k in range(3)):
                    return s, t
                raise NotOnCurve(f"{P!r} does not lie on the expected line")
    raise AssertionError("degenerate line basis")


def _root_multiplicity(b, s, t, spec):
    """Multiplicity of the root (s:t) in a binary cubic b0 s^3 + ... + b3 t^3."""
    if not t:
        # root (1:0) corresponds to leading zero coefficients
        for k, c in enumerate(b):
            if c:
                return k
        return 4
    # dehomogenize at u = s/t: p(u) = b0 u^3 + b1 u^2 + b2 u + b3
    u = s / t
    poly = list(b)
    mult = 0
    while poly:
        # value and synthetic division by (x - u), highest degree first
        acc = spec.zero()
        quot = []
        for c in poly:
            acc = acc * u + c
            quot.append(acc)
        if acc:
            break
        mult += 1
        poly = quot[:-1]
    return mult


def is_smooth_by_search(F: TernaryCubic, max_degree: int = 4) -> bool:
    """Smoothness by brute-force singular point search over F_{q^k}, k <= max_degree.

    Degree 4 suffices for cubics: a zero-dimensional singular locus has at
    most four geometric points, each of residue degree at most 4, and a
    positive-dimensional singular locus meets low-degree extensions.  May
    raise UnsupportedSize when q^max_degree exceeds the field size cap.
    """
    spec = F.spec
    for k in range(1, max_degree + 1):
        big = spec if k == 1 else mk_field(spec.p, spec.m * k)
        coeffs = [embed(c, big) for c in F.coeffs]
        Fk = TernaryCubic(big, coeffs)
        fx, fy, fz = partials(Fk)
        for P in projective_points(big):
            if Fk.evaluate(P):
                continue
            c = P.coords
            if not fx.evaluate(c) and not fy.evaluate(c) and not fz.evaluate(c):
                return False
    return True


# ---------------------------------------------------------------------------
# exhaustive equivalence scan


def exhaustive_scan(m1: LinearMatrixRep, m2: LinearMatrixRep):
    """The first witness of scan_equivalence for m2 = A m1 B, or None."""
    pt = _tables.plane_tables(m1.spec)
    sf = pt.sf
    at = _off_curve_point(pt, _tables.det_cubic_idx(m1.idx, sf))
    # With no rational point where det m1 is nonzero, the scan also sweeps B.
    at_point = None if at is None else (_matrix_at_point(m1.idx, at, sf),
                                        _matrix_at_point(m2.idx, at, sf))
    found = scan_equivalence(sf, m1.idx, m2.idx, at_point)
    if found is None:
        return None
    a, b = found
    return EquivalenceWitness(LinearTransform._from_idx(sf, a), LinearTransform._from_idx(sf, b))


def matmul3(sf: ScalarField, a, b):
    """(..., 3, 3) @ (..., 3, 3) under table arithmetic."""
    ADD, MUL = _bulk._arrays(sf.spec)[:2]
    acc = MUL[a[..., :, 0:1], b[..., 0:1, :]]
    for k in range(1, 3):
        term = MUL[a[..., :, k:k + 1], b[..., k:k + 1, :]]
        acc = ADD[acc, term]
    return acc


def inv3(sf: ScalarField, m):
    """Inverses of a batch of invertible 3x3 matrices."""
    ADD, MUL, NEG, INV = _bulk._arrays(sf.spec)

    def minor(w, x, y, z):  # w x - y z
        return ADD[MUL[w, x], MUL[NEG[y], z]]

    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    d, e, f = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    g, h, i = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    adj = np.stack([
        np.stack([minor(e, i, f, h), minor(c, h, b, i), minor(b, f, c, e)], axis=-1),
        np.stack([minor(f, g, d, i), minor(a, i, c, g), minor(c, d, a, f)], axis=-1),
        np.stack([minor(d, h, e, g), minor(b, g, a, h), minor(a, e, b, d)], axis=-1),
    ], axis=-2)
    det_inv = INV[_bulk.det3(sf.spec, m)]
    return MUL[adj, det_inv[..., None, None]]


def _all_matrices_blocks(q: int):
    """Yield all 3x3 index matrices over F_q in lexicographic blocks, one per
    value of the first two entries."""
    tail = np.indices((q,) * 7, dtype=np.uint8).reshape(7, -1).T
    for lead in np.ndindex(q, q):
        block = np.empty((tail.shape[0], 9), dtype=np.uint8)
        block[:, :2] = np.array(lead, dtype=np.uint8)
        block[:, 2:] = tail
        yield block.reshape(-1, 3, 3)


@lru_cache(maxsize=None)
def gl3_array(spec) -> np.ndarray:
    """All of GL_3 as (G, 3, 3) index matrices, lexicographic order."""
    blocks = [block[_bulk.det3(spec, block) != 0] for block in _all_matrices_blocks(spec.q)]
    return np.concatenate(blocks, axis=0)


def _gl3_blocks(sf: ScalarField):
    """GL_3 in blocks: the identity first, then the rest in lexicographic order."""
    ident = np.eye(3, dtype=np.uint8)
    yield ident[None]
    for block in _all_matrices_blocks(sf.q):
        keep = (_bulk.det3(sf.spec, block) != 0) & (block != ident).any(axis=(1, 2))
        if keep.any():
            yield block[keep]


def _sandwich(sf: ScalarField, a, mc, b):
    """a @ M @ b for the linear-form matrix mc[row, col, var]; a and b are
    (..., 3, 3) batches that broadcast against each other."""
    ADD, MUL = _bulk._arrays(sf.spec)[:2]
    # t[..., i, k, v] = sum_j a[..., i, j] * mc[j, k, v]
    t = MUL[a[..., :, 0, None, None], mc[0]]
    for j in range(1, 3):
        t = ADD[t, MUL[a[..., :, j, None, None], mc[j]]]
    # u[..., i, l, v] = sum_k t[..., i, k, v] * b[..., k, l]
    u = MUL[t[..., :, 0, None, :], b[..., None, 0, :, None]]
    for k in range(1, 3):
        u = ADD[u, MUL[t[..., :, k, None, :], b[..., None, k, :, None]]]
    return u


def scan_equivalence(sf: ScalarField, m1_idx, m2_idx, at_point=None):
    """First (A, B) with A @ m1 @ B == m2, A identity-first then lex order.

    m1_idx and m2_idx hold each entry's coefficient indices as [row][col][var].
    at_point is the pair (m1(P), m2(P)) of index matrices at a point P where
    det m1 is nonzero; B is then determined by each A (it is unique for valid
    representations), so only the 27-coefficient identity needs checking.
    Without such a point every B in GL_3 is tried against each A.  Returns
    the pair as index matrices, or None.
    """
    m1c = np.array(m1_idx, dtype=np.uint8)
    m2c = np.array(m2_idx, dtype=np.uint8)
    if at_point is not None:
        m1pt, m2pt = (np.array(m, dtype=np.uint8)[None] for m in at_point)
    for a in _gl3_blocks(sf):
        if at_point is None:
            a, b = a[:, None], gl3_array(sf.spec)[None]
        else:
            b = matmul3(sf, inv3(sf, matmul3(sf, a, m1pt)), m2pt)
        ok = (_sandwich(sf, a, m1c, b) == m2c).all(axis=(-3, -2, -1))
        hit = np.argwhere(ok)
        if hit.size:
            g = tuple(hit[0])
            return (np.broadcast_to(a, ok.shape + (3, 3))[g],
                    np.broadcast_to(b, ok.shape + (3, 3))[g])
    return None


def forms_up_to_scalar(spec) -> np.ndarray:
    """All nonzero cubic coefficient vectors with first nonzero entry 1,
    as (N, 10) element-index rows in ascending lexicographic order."""
    return _bulk._lead_with_one(spec.q, 10)


def census_by_full_sweep(q: int) -> OrbitCensus:
    """oracle.census by a smoothness test of all (q^10 - 1)/(q - 1) forms.

    About 4 s and 230 MB at q = 4, most of it in the smooth_mask fold.
    """
    spec = _field_for(q)
    sf = _tables.scalar_field(spec)
    forms = forms_up_to_scalar(spec)
    smooth = _bulk.smooth_mask(spec, forms)
    encodings = _bulk.encode_forms(q, forms)
    visited = np.zeros(q ** 10, dtype=bool)
    orbits = []
    histogram = Counter()
    for fi in np.flatnonzero(smooth):
        if visited[encodings[fi]]:
            continue
        orbit = _bulk.orbit_of(spec, forms[fi])
        visited[orbit] = True
        rep = TernaryCubic(spec, [sf.decode(d) for d in _bulk.decode_form(q, int(orbit.min()))])
        n_points = int(_bulk.point_counts(spec, forms[fi:fi + 1])[0])
        orbits.append(OrbitEntry(rep, len(orbit), n_points))
        histogram[n_points] += 1
    if int(visited.sum()) != int(smooth.sum()):
        raise AssertionError("orbits do not partition the smooth forms")
    return OrbitCensus(q=q, orbits=tuple(orbits), histogram=dict(histogram))
