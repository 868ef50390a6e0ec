"""Vectorized sweeps over whole coefficient spaces and matrix groups, and the
per-curve kernels of prime fields on int64 arrays.

Field elements are encoded as their position in the field's canonical
enumeration.  For the census sweeps all arithmetic goes through uint8
arrays, copied once per field by _arrays from the four tables of
_tables.ScalarField, add, mul, neg and inv (q <= _tables.MAX_TABLE_Q), so
the same code drives prime and extension fields: a difference is an ADD of
a NEG, and the multipliers of the derivative plan are MUL rows.  This is
the only module that builds or reads them.  The
group kernels, pgl3_cubic_action and orbit_of, gather two-operand sums and
products from the flattened tables as flat[a * q + b], on uint16 indices,
and keep the images of each basis monomial under the whole group in one
contiguous block.

On a prime field the indices are the integers mod p, so prime_zero_sets (the
zero scan of PlaneTables) and case1_reps (the case-1 construction of
detrep.all_reps) take no tables: they compute in int64 and reduce mod p.
_tables.ARRAY_Q, a measured crossover, is the smallest prime they run on.
They return plain tuples and ints, so no numpy value leaves this module.
Nothing here is part of the public surface.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

import numpy as np

from . import _forms
from ._tables import plane_tables, scalar_field
from .gf import FieldSpec


@lru_cache(maxsize=None)
def _arrays(spec: FieldSpec):
    """ADD, MUL, NEG, INV: the four tables add, mul, neg and inv of
    _tables.ScalarField as uint8 arrays."""
    sf = scalar_field(spec)
    return tuple(np.array(t, dtype=np.uint8) for t in (sf.add, sf.mul, sf.neg, sf.inv))


# ---------------------------------------------------------------------------
# batched 3x3 linear algebra


def det3(spec: FieldSpec, m):
    ADD, MUL, NEG = _arrays(spec)[:3]
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    d, e, f = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    g, h, i = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    t1 = MUL[a, ADD[MUL[e, i], MUL[NEG[f], h]]]
    t2 = MUL[b, ADD[MUL[f, g], MUL[NEG[d], i]]]
    t3 = MUL[c, ADD[MUL[d, h], MUL[NEG[e], g]]]
    return ADD[ADD[t1, t2], t3]


@lru_cache(maxsize=None)
def _plane_arrays(spec: FieldSpec):
    """Cubic and quadratic monomial values at every point of P^2, one row per
    point in enumeration order; q^2 rows, so only for the census fields."""
    MUL, pt = _arrays(spec)[1], plane_tables(spec)
    coords = np.array([pt.point(i) for i in range(pt.n_points)], dtype=np.uint8)

    def monomials(exponents):
        out = np.ones((len(coords), len(exponents)), dtype=np.uint8)
        for k, exps in enumerate(exponents):
            for v, e in enumerate(exps):
                for _ in range(e):
                    out[:, k] = MUL[out[:, k], coords[:, v]]
        return out

    return monomials(_forms.CUBIC_EXPONENTS), monomials(_forms.QUAD_EXPONENTS)


# ---------------------------------------------------------------------------
# whole-space form sweeps


def _lead_with_one(q: int, n: int) -> np.ndarray:
    """All nonzero n-vectors over F_q with first nonzero entry 1, as (N, n)
    element-index rows in ascending lexicographic order."""
    blocks = []
    for pivot in range(n - 1, -1, -1):
        free = n - 1 - pivot
        tail = np.indices((q,) * free, dtype=np.uint8).reshape(free, -1).T \
            if free else np.zeros((1, 0), dtype=np.uint8)
        block = np.zeros((tail.shape[0], n), dtype=np.uint8)
        block[:, pivot] = 1
        block[:, pivot + 1:] = tail
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def normal_forms(spec: FieldSpec) -> np.ndarray:
    """The cubic coefficient rows with a000 = a001 = 0 and a002 = 1, as
    (q^7, 10) element-index rows in ascending lexicographic order: the forms
    through [1:0:0] with tangent Z = 0 there."""
    q = spec.q
    rows = np.zeros((q ** 7, 10), dtype=np.uint8)
    rows[:, 2] = 1
    rows[:, 3:] = np.indices((q,) * 7, dtype=np.uint8).reshape(7, -1).T
    return rows


def _fold_values(spec, A, table):
    """sum_k A[:, k] * table[:, k] over points: returns (n_forms, n_points)."""
    ADD, MUL = _arrays(spec)[:2]
    add = ADD.ravel().astype(np.intp)
    acc = np.zeros((A.shape[0], table.shape[0]), dtype=np.intp)
    for k in range(A.shape[1]):
        # row A[f, k] of the products with column k, added through the flat table
        acc = add[acc * spec.q + MUL[:, table[:, k]][A[:, k]]]
    return acc.astype(np.uint8)


def point_counts(spec: FieldSpec, A: np.ndarray) -> np.ndarray:
    """The number of points of P^2 where each form among the rows of A vanishes."""
    return (_fold_values(spec, A, _plane_arrays(spec)[0]) == 0).sum(axis=1)


def smooth_mask(spec: FieldSpec, A: np.ndarray) -> np.ndarray:
    """Boolean mask of smooth forms among the rows of A.

    The batched form of plane.is_smooth: a cubic over F_q is smooth iff it
    has neither 0 nor 2q+2 rational points and none of them is singular;
    the docstring there gives the case analysis that makes this complete.
    """
    MUL = _arrays(spec)[1]
    cubic_mono, quad_mono = _plane_arrays(spec)
    on_curve = _fold_values(spec, A, cubic_mono) == 0
    n_points = on_curve.sum(axis=1)

    sing = on_curve.copy()
    for terms in plane_tables(spec).plan:
        cpos, qpos, mult = (list(col) for col in zip(*terms))
        sing &= _fold_values(spec, MUL[mult, A[:, cpos]], quad_mono[:, qpos]) == 0
    has_singular = sing.any(axis=1)
    return (n_points != 0) & (n_points != 2 * spec.q + 2) & ~has_singular


# ---------------------------------------------------------------------------
# matrix groups and their action on cubic coefficients


@lru_cache(maxsize=None)
def pgl3_array(spec: FieldSpec) -> np.ndarray:
    """One representative per scalar class of GL_3, the one whose first
    nonzero entry is 1, in lexicographic order."""
    m = _lead_with_one(spec.q, 9).reshape(-1, 3, 3)
    return m[det3(spec, m) != 0]


@lru_cache(maxsize=None)
def pgl3_cubic_action(spec: FieldSpec) -> np.ndarray:
    """(10, G, 10) index tensor: cube[m, g] holds the coefficients of
    act(T_g, basis monomial m), so the images of one input monomial are one
    contiguous (G, 10) block.  The image of X_i X_j is built once per pair
    i <= j and shared by every monomial X_i X_j X_k."""
    ADD, MUL = _arrays(spec)[:2]
    add, mul, w = ADD.ravel(), MUL.ravel(), np.uint16(spec.q)
    group = pgl3_array(spec)
    G = group.shape[0]
    col = [[np.ascontiguousarray(group[:, i, a]) for a in range(3)] for i in range(3)]
    quads = {}
    for i in range(3):
        for j in range(i, 3):
            quad = quads[i, j] = np.zeros((6, G), dtype=np.uint8)
            for a in range(3):
                for b in range(3):
                    pos = _forms.QUAD_POS2[a][b]
                    quad[pos] = add[quad[pos] * w + mul[col[i][a] * w + col[j][b]]]
    cube = np.empty((10, G, 10), dtype=np.uint8)
    for in_pos, (i, j, k) in enumerate(_forms.CUBIC_VARS):
        quad = quads[i, j]
        out = np.zeros((10, G), dtype=np.uint8)
        for qpos, (a, b) in enumerate(_forms.QUAD_VARS):
            for c in range(3):
                pos = _forms.CUBIC_POS3[a][b][c]
                out[pos] = add[out[pos] * w + mul[quad[qpos] * w + col[k][c]]]
        cube[in_pos] = out.T
    return cube


def orbit_of(spec: FieldSpec, form_row: np.ndarray) -> np.ndarray:
    """Encodings of the full projective-group orbit of one coefficient row."""
    ADD, MUL, _, INV = _arrays(spec)
    add, mul, w = ADD.ravel(), MUL.ravel(), np.uint16(spec.q)
    cube = pgl3_cubic_action(spec)
    images = np.zeros(cube.shape[1:], dtype=np.uint8)
    for in_pos in range(10):
        c = int(form_row[in_pos])
        if c:
            images = add[images * w + MUL[c][cube[in_pos]]]
    lead = np.take_along_axis(images, (images != 0).argmax(axis=1)[:, None], axis=1)
    images = mul[INV[lead] * w + images]
    # np.unique would import numpy.ma on its first call in a process
    enc = np.sort(encode_forms(spec.q, images))
    return enc[np.concatenate(([True], enc[1:] != enc[:-1]))]


def encode_forms(q: int, rows: np.ndarray) -> np.ndarray:
    """Big-endian base-q encoding, so numeric order equals lex order."""
    weights = (q ** np.arange(9, -1, -1)).astype(np.int64)
    return rows.astype(np.int64) @ weights


def decode_form(q: int, enc: int) -> list[int]:
    digits = []
    for _ in range(10):
        digits.append(enc % q)
        enc //= q
    return digits[::-1]


# ---------------------------------------------------------------------------
# prime fields on int64 arrays
#
# Over F_p the element indices are the integers mod p, so these kernels take
# no tables: sums and products of indices are exact in int64, as no
# expression below exceeds 10 p^4 < 2^60 for p < 2^14, and each is reduced
# mod p once.  PlaneTables and detrep.all_reps call them on prime fields
# from _tables.ARRAY_Q up (ScalarField.on_arrays).

#: cells of the zero scan's grid evaluated at once, whatever p is
_GRID_CELLS = 1 << 16

#: the variables of each cubic and each quadratic monomial, as array rows
_CUBIC_VARS = np.array(_forms.CUBIC_VARS)
_QUAD_VARS = np.array(_forms.QUAD_VARS)


def _fold(n_in: int, n_out: int, positions) -> np.ndarray:
    """The 0/1 matrix that adds input k into output positions[k]."""
    out = np.zeros((n_in, n_out), dtype=np.int64)
    out[np.arange(n_in), positions] = 1
    return out


#: _FOLD2 adds the product of X_a and X_b, at 3a + b, into the coefficient
#: of its quadratic monomial; _FOLD3 the product of quadratic monomial k and
#: X_c, at 3k + c, into that of its cubic monomial
_FOLD2 = _fold(9, 6, [_forms.QUAD_POS2[a][b] for a in range(3) for b in range(3)])
_FOLD3 = _fold(18, 10, [_forms.CUBIC_POS3[a][b][c]
                        for a, b in _forms.QUAD_VARS for c in range(3)])


def _coords(p: int, idx: np.ndarray) -> np.ndarray:
    """Coordinates (N, 3) of the points of P^2(F_p) with the given indices
    in the enumeration order of PlaneTables."""
    row, z = np.divmod(idx, p)  # row p is the line X = 0, row p + 1 [0:0:1]
    pts = np.empty((len(idx), 3), dtype=np.int64)
    pts[:, 0] = row < p
    pts[:, 1] = np.where(row < p, row, row == p)
    pts[:, 2] = np.where(row <= p, z, 1)
    return pts


def _monomials(pts: np.ndarray, variables: np.ndarray) -> np.ndarray:
    """Values (N, k), not reduced, at the points pts (N, 3) of the k
    monomials whose variables are the rows of variables."""
    return pts[:, variables].prod(axis=2)


def prime_zero_sets(p: int, key) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(zeros, singular zeros) of the cubic with coefficient indices key
    over F_p, as PlaneTables.zero_sets gives them.

    Row y < p of a (lines x z) grid is the line [1:y:z] and row p the line
    X = 0, [0:1:z], so cell (row, z) is point row * p + z.  On each row the
    cubic is c0 + c1 z + c2 z^2 + a222 z^3, which one Horner pass evaluates
    at every cell, _GRID_CELLS at a time; [0:0:1] is a zero when a222 is.
    The singular zeros are those where the three partials vanish too.
    """
    a000, a001, a002, a011, a012, a022, a111, a112, a122, a222 = key
    z = np.arange(p, dtype=np.int64)
    c0 = np.append((a000 + z * (a001 + z * (a011 + z * a111))) % p, a111)[:, None]
    c1 = np.append((a002 + z * (a012 + z * a112)) % p, a112)[:, None]
    c2 = np.append((a022 + z * a122) % p, a122)[:, None]
    top = a222 * z
    step = max(1, _GRID_CELLS // p)
    found = []
    for r in range(0, p + 1, step):
        rows = slice(r, r + step)
        v = (top + c2[rows]) * z
        v += c1[rows]
        v *= z
        v += c0[rows]
        v %= p
        found.append(np.flatnonzero(v == 0) + r * p)
    if not a222:
        found.append(np.array([p * p + p]))
    zeros = np.concatenate(found)
    # column v of grad: the coefficients of dF/dX_v on the quadratic monomials
    grad = np.zeros((6, 3), dtype=np.int64)
    for v, plan in enumerate(_forms.DERIVATIVE_PLAN):
        for cpos, qpos, k in plan:
            grad[qpos, v] = k * key[cpos]
    partials = _monomials(_coords(p, zeros), _QUAD_VARS) @ grad % p
    singular = zeros[~partials.any(axis=1)]
    return tuple(zeros.tolist()), tuple(singular.tolist())


def _det_case1(p: int, m: np.ndarray) -> np.ndarray:
    """det of case-1 normal-form matrices (N, 3, 3, 3) on their nonzero
    slots, as _det_case1_idx of detrep reads them: det = Z (f g - d i) - Y d h
    with d, f the entries (1, 0), (1, 2) and g, h, i row 2."""
    d1, d2 = m[:, 1, 0, 1], m[:, 1, 0, 2]
    f0, f2 = m[:, 1, 2, 0], m[:, 1, 2, 2]
    g0, g2 = m[:, 2, 0, 0], m[:, 2, 0, 2]
    h0, h1, h2 = m[:, 2, 1].T
    i0, i2 = m[:, 2, 2, 0], m[:, 2, 2, 2]
    zero = np.zeros_like(d1)
    return np.stack([zero, zero, f0 * g0, -d1 * h0, -(d1 * i0 + d2 * h0),
                     f0 * g2 + f2 * g0 - d2 * i0, -d1 * h1, -(d1 * h2 + d2 * h1),
                     -(d1 * i2 + d2 * h2), f2 * g2 - d2 * i2], axis=1) % p


def _det_cubic(p: int, m: np.ndarray) -> np.ndarray:
    """det of matrices of linear forms (N, 3, 3, 3), expanded along row 0
    with full 2x2 minors, as _tables.det_cubic_idx does: the minor of row-0
    entry k is the quadratic r1[k1] r2[k2] - r1[k2] r2[k1] of rows 1 and 2,
    (k1, k2) the next two columns in cyclic order, which folds in the sign
    of its cofactor."""
    n = len(m)
    r1, r2 = m[:, 1], m[:, 2]
    k1, k2 = [1, 2, 0], [2, 0, 1]
    prod = (r1[:, k1, :, None] * r2[:, k2, None, :]
            - r1[:, k2, :, None] * r2[:, k1, None, :])
    minors = prod.reshape(n * 3, 9) @ _FOLD2 % p
    # each minor times its row-0 entry, summed over the row before the fold
    terms = (minors.reshape(n, 3, 6, 1) * m[:, 0, :, None, :]).sum(axis=1)
    return terms.reshape(n, 18) @ _FOLD3 % p


@lru_cache(maxsize=None)
def _inverses(spec: FieldSpec) -> np.ndarray:
    """The inverse of each element index of F_p as int64, 0 for 0."""
    return np.array(scalar_field(spec).inv, dtype=np.int64)


def case1_reps(sf, f, fn, ti, points) -> list:
    """The representations of detrep.all_reps at the given points of the
    curve f, built at once for every point off the tangent line (case 1).

    fn is the normal form of f and ti the inverse coordinate change, all
    element indices of the prime field of sf.  Each point P is mapped to
    its normal-form coordinates pn = ti P, scaled to lead with 1, and three
    checks run on every case-1 point: 1, pn lies on fn; 2, the entries of
    _mp_idx at pn have det = -u^3 * fn, read on their nonzero slots
    (_det_case1); 3, pulled back entry by entry through ti, they have
    det = lam * f for some lam != 0 (_det_cubic).  Returns one item per
    point: None where pn has u = 0 (case 2, left to the table path), else
    (pn, check, m_idx, det, lam) with check the number of the first check
    that failed, 0 if none, pn then given as a list and otherwise None,
    m_idx the pulled-back entries as nested tuples, det their determinant
    and lam its ratio to f.
    """
    p = sf.q
    inv = _inverses(sf.spec)
    ti = np.array(ti, dtype=np.int64)
    v = _coords(p, np.array(points, dtype=np.int64)) @ ti.T % p
    lead = v[np.arange(len(v)), (v != 0).argmax(axis=1)]
    pn_all = v * inv[lead][:, None] % p
    case1 = np.flatnonzero(pn_all[:, 2])
    pn = pn_all[case1]
    s, t, u = pn.T
    on_fn = _monomials(pn, _CUBIC_VARS) @ np.array(fn) % p == 0

    a011, a012, a022, a111, a112, a122, _ = fn[3:]
    uu, tt, tu = u * u % p, t * t % p, t * u % p
    m = np.zeros((len(pn), 3, 3, 3), dtype=np.int64)
    m[:, 0, 1, 2], m[:, 0, 2, 1] = 1, p - 1  # row 0 is (0, Z, -Y)
    m[:, 1, 0, 1], m[:, 1, 0, 2] = u, -t
    m[:, 1, 2, 0], m[:, 1, 2, 2] = -uu, -(a011 * tt + a012 * tu + a022 * uu + s * u)
    m[:, 2, 0, 0], m[:, 2, 0, 2] = u, -s
    m[:, 2, 1, 0], m[:, 2, 1, 1] = uu * a011, uu * a111
    m[:, 2, 1, 2] = u * (a111 * t + a112 * u)
    m[:, 2, 2, 0] = u * (a011 * t + a012 * u)
    m[:, 2, 2, 2] = a111 * tt + a112 * tu + a122 * uu
    m %= p
    lam_n = -(uu * u) % p
    nf_ok = (_det_case1(p, m) == lam_n[:, None] * np.array(fn) % p).all(axis=1)

    m = m @ ti % p  # coefficient j of an entry: sum_i ti[i][j] * coefficient i
    det = _det_cubic(p, m)
    f_lead = next(k for k, c in enumerate(f) if c)
    lam = det[:, f_lead] * sf.inv[f[f_lead]] % p
    pb_ok = (lam != 0) & (det == lam[:, None] * np.array(f) % p).all(axis=1)
    check = np.where(~on_fn, 1, np.where(~nf_ok, 2, np.where(~pb_ok, 3, 0)))

    # rows 1 and 2 of every matrix as 2N row tuples of 3 entry tuples, read
    # off one flat list; row 0 is the same for all
    flat = iter(m[:, 1:].ravel().tolist())
    entries = zip(flat, flat, flat)
    rows = zip(entries, entries, entries)
    dets = iter(det.ravel().tolist())
    row0 = tuple(map(tuple, m[0, 0].tolist())) if len(m) else None
    out = [None] * len(points)
    for i, (k, check_i, row1, row2, lam_i) in enumerate(zip(
            case1.tolist(), check.tolist(), rows, rows, lam.tolist())):
        out[k] = (pn[i].tolist() if check_i else None, check_i, (row0, row1, row2),
                  tuple(islice(dets, 10)), lam_i)
    return out
