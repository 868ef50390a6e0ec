"""Vectorized sweeps over whole coefficient spaces and matrix groups.

Field elements are encoded as their position in the field's canonical
enumeration and all arithmetic goes through uint8 arrays, copied once per
field from the list tables of _tables.ScalarField (q <= _tables.MAX_TABLE_Q)
by _arrays, so the same code drives prime and extension fields.  This is the
only module that builds or reads them.  Used by the census machinery;
nothing here is part of the public surface.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import _forms
from ._tables import plane_tables, scalar_field
from .gf import FieldSpec


@lru_cache(maxsize=None)
def _arrays(spec: FieldSpec):
    """ADD, SUB, MUL, INV, INTMUL: the tables add, sub, mul, inv and int_mul
    of _tables.ScalarField as uint8 arrays."""
    sf = scalar_field(spec)
    return tuple(np.array(t, dtype=np.uint8)
                 for t in (sf.add, sf.sub, sf.mul, sf.inv, sf.int_mul))


# ---------------------------------------------------------------------------
# batched 3x3 linear algebra


def det3(spec: FieldSpec, m):
    ADD, SUB, MUL = _arrays(spec)[:3]
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    d, e, f = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    g, h, i = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    t1 = MUL[a, SUB[MUL[e, i], MUL[f, h]]]
    t2 = MUL[b, SUB[MUL[d, i], MUL[f, g]]]
    t3 = MUL[c, SUB[MUL[d, h], MUL[e, g]]]
    return ADD[SUB[t1, t2], t3]


@lru_cache(maxsize=None)
def _plane_arrays(spec: FieldSpec):
    """Cubic and quadratic monomial values at every point of P^2, one row per
    point in enumeration order; q^2 rows, so only for the census fields."""
    MUL, pt = _arrays(spec)[2], plane_tables(spec)
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


def forms_up_to_scalar(spec: FieldSpec) -> np.ndarray:
    """All nonzero cubic coefficient vectors with first nonzero entry 1,
    as (N, 10) element-index rows in ascending lexicographic order."""
    return _lead_with_one(spec.q, 10)


def _fold_values(spec, A, table):
    """sum_k A[:, k] * table[:, k] over points: returns (n_forms, n_points)."""
    ADD, _, MUL = _arrays(spec)[:3]
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
    INTMUL = _arrays(spec)[4]
    cubic_mono, quad_mono = _plane_arrays(spec)
    on_curve = _fold_values(spec, A, cubic_mono) == 0
    n_points = on_curve.sum(axis=1)

    sing = on_curve.copy()
    for plan in _forms.DERIVATIVE_PLAN:
        cpos, qpos, mult = (list(col) for col in zip(*plan))
        sing &= _fold_values(spec, INTMUL[mult, A[:, cpos]], quad_mono[:, qpos]) == 0
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
    """(G, 10, 10) index tensors: coefficients of act(T, basis monomial)."""
    ADD, _, MUL = _arrays(spec)[:3]
    group = pgl3_array(spec)
    G = group.shape[0]
    cube = np.zeros((G, 10, 10), dtype=np.uint8)
    for in_pos, idx in enumerate(_forms.CUBIC_INDICES):
        i, j, k = (int(ch) for ch in idx)
        quad = np.zeros((G, 6), dtype=np.uint8)
        for a in range(3):
            for b in range(3):
                qpos = _forms.QUAD_POS2[a][b]
                term = MUL[group[:, i, a], group[:, j, b]]
                quad[:, qpos] = ADD[quad[:, qpos], term]
        for qpos, qidx in enumerate(_forms.QUAD_INDICES):
            a, b = int(qidx[0]), int(qidx[1])
            for c in range(3):
                cpos = _forms.CUBIC_POS3[a][b][c]
                term = MUL[quad[:, qpos], group[:, k, c]]
                cube[:, cpos, in_pos] = ADD[cube[:, cpos, in_pos], term]
    return cube


def orbit_of(spec: FieldSpec, form_row: np.ndarray) -> np.ndarray:
    """Encodings of the full projective-group orbit of one coefficient row."""
    ADD, _, MUL, INV, _ = _arrays(spec)
    cube = pgl3_cubic_action(spec)
    G = cube.shape[0]
    images = np.zeros((G, 10), dtype=np.uint8)
    for in_pos in range(10):
        c = int(form_row[in_pos])
        if c:
            images = ADD[images, MUL[cube[:, :, in_pos], np.uint8(c)]]
    lead_pos = (images != 0).argmax(axis=1)
    lead = images[np.arange(G), lead_pos]
    images = MUL[images, INV[lead][:, None]]
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
