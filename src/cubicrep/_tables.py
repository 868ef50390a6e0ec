"""Plain-Python lookup-table cores for the hot loops over one small field.

Field elements are referred to by their position in the canonical
enumeration; addition and multiplication become list indexing.  The point
order mirrors the public enumeration of P^2 exactly (the plane module
builds its point objects from these tables), so index-level results
translate one-to-one.

Only fields with q <= MAX_TABLE_Q get tables; callers fall back to object
arithmetic beyond that.  This module owns the encoding and the per-field
tables; the batched numpy kernels in _bulk read the same tables through the
uint8 array views on ScalarField.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import _forms
from .gf import FieldSpec, embed

MAX_TABLE_Q = 256


class ScalarField:
    """Arithmetic tables for one field; elements are ints 0..q-1."""

    def __init__(self, spec: FieldSpec):
        elems = list(spec.elements())
        index = {e: i for i, e in enumerate(elems)}
        self.spec = spec
        self.q = spec.q
        self.elems = elems
        self.index = index
        self.add = [[index[a + b] for b in elems] for a in elems]
        self.sub = [[index[a - b] for b in elems] for a in elems]
        self.mul = [[index[a * b] for b in elems] for a in elems]
        self.neg = [index[-a] for a in elems]
        self.inv = [index[a.inverse()] if a else 0 for a in elems]
        self.int_mul = [[index[a * k] for a in elems] for k in range(4)]
        # the same tables as uint8 arrays, for the batched kernels in _bulk
        self.ADD, self.SUB, self.MUL, self.NEG, self.INV, self.INTMUL = (
            np.array(t, dtype=np.uint8)
            for t in (self.add, self.sub, self.mul, self.neg, self.inv, self.int_mul))

    def encode(self, element) -> int:
        return self.index[element]

    def decode(self, idx: int):
        return self.elems[idx]


@lru_cache(maxsize=None)
def scalar_field(spec: FieldSpec) -> ScalarField | None:
    if spec.q > MAX_TABLE_Q:
        return None
    return ScalarField(spec)


class PlaneTables:
    """Per-field geometry tables: points of P^2 and monomial values there."""

    def __init__(self, sf: ScalarField):
        self.sf = sf
        q = sf.q
        one, zero = 1, 0
        pts = []
        for y in range(q):
            for z in range(q):
                pts.append((one, y, z))
        for z in range(q):
            pts.append((zero, one, z))
        pts.append((zero, zero, one))
        self.points = tuple(pts)
        mul = sf.mul
        self.mono = []
        self.qmono = []
        for (x, y, z) in pts:
            powers = []
            for exps in _forms.CUBIC_EXPONENTS:
                acc = 1
                for base, e in zip((x, y, z), exps):
                    for _ in range(e):
                        acc = mul[acc][base]
                powers.append(acc)
            self.mono.append(tuple(powers))
            qp = []
            for exps in _forms.QUAD_EXPONENTS:
                acc = 1
                for base, e in zip((x, y, z), exps):
                    for _ in range(e):
                        acc = mul[acc][base]
                qp.append(acc)
            self.qmono.append(tuple(qp))
        # one cache per field; an entry holds about q point indices
        self._zeros = lru_cache(maxsize=1 << 10)(self._scan_zeros)

    # -- form evaluation ------------------------------------------------------

    def form_values(self, coeff_idx):
        """Value index of the cubic at every point."""
        sf = self.sf
        add, mul = sf.add, sf.mul
        out = []
        for row in self.mono:
            acc = 0
            for c, m in zip(coeff_idx, row):
                if c:
                    acc = add[acc][mul[c][m]]
            out.append(acc)
        return out

    def zeros(self, coeff_idx) -> tuple[int, ...]:
        """Indices of the points where the cubic vanishes, in enumeration order.

        Nonzero multiples of a form vanish at the same points, so the scan is
        cached on the coefficients scaled to lead with 1: F, det(rep) = lam*F
        and det(A*rep*B) share one scan.  The zero form vanishes everywhere.
        """
        lead = next((c for c in coeff_idx if c), 1)
        scale = self.sf.mul[self.sf.inv[lead]]
        return self._zeros(tuple(scale[c] for c in coeff_idx))

    def _scan_zeros(self, coeff_idx):
        return tuple(i for i, v in enumerate(self.form_values(coeff_idx)) if not v)

    def partial_values_at(self, coeff_idx, pt_idx):
        """(dF/dX, dF/dY, dF/dZ) value indices at one point."""
        sf = self.sf
        add, mul, int_mul = sf.add, sf.mul, sf.int_mul
        row = self.qmono[pt_idx]
        out = []
        for plan in _forms.DERIVATIVE_PLAN:
            acc = 0
            for cpos, qpos, k in plan:
                c = int_mul[k][coeff_idx[cpos]]
                if c:
                    acc = add[acc][mul[c][row[qpos]]]
            out.append(acc)
        return out


@lru_cache(maxsize=None)
def plane_tables(spec: FieldSpec) -> PlaneTables | None:
    sf = scalar_field(spec)
    if sf is None:
        return None
    return PlaneTables(sf)


# ---------------------------------------------------------------------------
# small exact linear algebra on index matrices


def right_kernel_idx(rows, sf: ScalarField):
    """Kernel basis of a matrix of element indices; returns index vectors."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    add, sub, mul, inv, neg = sf.add, sf.sub, sf.mul, sf.inv, sf.neg
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        f = inv[m[r][c]]
        if f != 1:
            m[r] = [mul[x][f] for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                g = m[i][c]
                mi, mr = m[i], m[r]
                m[i] = [sub[x][mul[g][y]] for x, y in zip(mi, mr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for pi, pc in enumerate(pivots):
            vec[pc] = neg[m[pi][fc]]
        basis.append(tuple(vec))
    return basis


def det3_idx(m, sf: ScalarField) -> int:
    mul, sub, add = sf.mul, sf.sub, sf.add
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    t1 = mul[a][sub[mul[e][i]][mul[f][h]]]
    t2 = mul[b][sub[mul[d][i]][mul[f][g]]]
    t3 = mul[c][sub[mul[d][h]][mul[e][g]]]
    return add[sub[t1][t2]][t3]


def rank3_idx(m, sf: ScalarField) -> int:
    if det3_idx(m, sf):
        return 3
    mul, sub = sf.mul, sf.sub
    for i0 in range(3):
        for i1 in range(i0 + 1, 3):
            for j0 in range(3):
                for j1 in range(j0 + 1, 3):
                    if sub[mul[m[i0][j0]][m[i1][j1]]][mul[m[i0][j1]][m[i1][j0]]]:
                        return 2
    return 1 if any(any(row) for row in m) else 0


def det_cubic_idx(m_idx, sf: ScalarField):
    """10 coefficient indices of det(X m0 + Y m1 + Z m2).

    m_idx[i][j] is the entry's coefficient triple (index-encoded).
    """
    add, sub, mul = sf.add, sf.sub, sf.mul
    quad_pos, cubic_pos = _forms.QUAD_POS2, _forms.CUBIC_POS3
    acc = [0] * 10
    for perm, sign in _forms.DET_PERMS:
        u = m_idx[0][perm[0]]
        v = m_idx[1][perm[1]]
        w = m_idx[2][perm[2]]
        quad = [0] * 6
        for i in range(3):
            ui = u[i]
            if not ui:
                continue
            for j in range(3):
                if v[j]:
                    pos = quad_pos[i][j]
                    quad[pos] = add[quad[pos]][mul[ui][v[j]]]
        for pos, idx in enumerate(_forms.QUAD_INDICES):
            qv = quad[pos]
            if not qv:
                continue
            i, j = int(idx[0]), int(idx[1])
            for k in range(3):
                if w[k]:
                    cp = cubic_pos[i][j][k]
                    term = mul[qv][w[k]]
                    acc[cp] = add[acc[cp]][term] if sign > 0 else sub[acc[cp]][term]
    return acc


@lru_cache(maxsize=None)
def subfield_preimage(base: FieldSpec, ext: FieldSpec):
    """ext element index -> base element, for elements in the image of embed."""
    ext_sf = scalar_field(ext)
    out = {}
    for e in base.elements():
        out[ext_sf.encode(embed(e, ext))] = e
    return out
