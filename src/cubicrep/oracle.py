"""Brute-force ground truth: classify all smooth plane cubics over a small
field by projective equivalence.

The census partitions the smooth cubic forms into orbits under the full
projective linear group, entirely independently of the counting formulas.
Comparing the resulting point-count histogram against the formulas validates
both ends; crosscheck() does exactly that.

Every smooth class has a normal form: [1:0:0] on the curve with tangent
Z = 0 there, a000 = a001 = 0 and a002 = 1.  The flag group B of
upper-triangular matrices with T00 = 1 permutes the q^7 normal forms.  The
census walks them in ascending order, gathers the B-orbit of each form not
yet visited and tests its first form for smoothness.  A smooth class with n
rational points holds the B-orbits O_i of its normal forms at those points
(plane._normalize_idx), so |Aut C| = n |B| / sum |O_i|; its least form,
the representative, starts the first of them.  Checks: each B-orbit holds
its start form and no form seen before; the classes partition the smooth
B-orbits; each |Aut C| divides |PGL_3|; the orbit sizes sum to
q^4 (q^3 - 1)(q^2 - 1), the smooth forms up to scalar.  q = 2, 3, 4, 5, 7,
8 and 9 are admitted (q = 9: about 3 s, 65 MB); any other q raises TooLarge.
The four kernels run through the module, _bulk.smooth_mask and so on, for
the benchmark's tracer; the _bulk docstring says why.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _bulk, _tables, counting, plane
from .gf import FieldSpec, mk_field
from .plane import TernaryCubic


class TooLarge(Exception):
    pass


@dataclass(frozen=True)
class OrbitEntry:
    representative: TernaryCubic
    orbit_size: int
    point_count: int


@dataclass(frozen=True)
class OrbitCensus:
    q: int
    orbits: tuple[OrbitEntry, ...]
    histogram: dict[int, int] = field(compare=False)

    @property
    def smooth_form_count(self) -> int:
        return sum(o.orbit_size for o in self.orbits)

    @property
    def class_count(self) -> int:
        return len(self.orbits)

    def to_obj(self) -> dict:
        return {
            "q": self.q,
            "class_count": self.class_count,
            "smooth_form_count": self.smooth_form_count,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "orbits": [
                {
                    "representative": {
                        idx: list(c.coeffs)
                        for idx, c in o.representative.nonzero_dict().items()
                    },
                    "orbit_size": o.orbit_size,
                    "point_count": o.point_count,
                }
                for o in self.orbits
            ],
        }


def _field_for(q: int) -> FieldSpec:
    p, m = counting.factor_prime_power(q)
    return mk_field(p, m)


#: the field sizes the census admits; q = 11 would take about 11 s and 155 MB
CENSUS_Q = (2, 3, 4, 5, 7, 8, 9)


def census(q: int) -> OrbitCensus:
    """Orbit classification of all smooth cubic forms over F_q, q in CENSUS_Q."""
    if q not in CENSUS_Q:
        raise TooLarge(f"census is desk-scale only; q = {q} is out of range")
    spec = _field_for(q)
    pt = _tables.plane_tables(spec)
    flag = _bulk.flag_array(spec)
    cube = _bulk.pgl3_cubic_action(spec, flag)

    # normal form k, counted in ascending order, has the encoding q^7 + k
    n_forms = q ** 7
    todo = np.ones(n_forms, dtype=bool)
    label = np.empty(n_forms, dtype=np.int32)
    firsts, sizes = [], []
    cursor = 0
    while cursor < n_forms:
        cursor += int(todo[cursor:].argmax())
        if not todo[cursor]:
            break
        row = np.array(_bulk.decode_form(q, n_forms + cursor), dtype=np.uint8)
        orbit = _bulk.orbit_of(spec, row, cube) - n_forms
        # the least unvisited form must start a new orbit of normal forms
        if orbit[0] != cursor or orbit[-1] >= n_forms or not todo[orbit].all():
            raise AssertionError("B-orbits do not partition the normal forms")
        todo[orbit] = False
        label[orbit] = len(firsts)
        firsts.append(row)
        sizes.append(len(orbit))

    firsts = np.array(firsts)
    smooth = np.flatnonzero(_bulk.smooth_mask(spec, firsts))
    counts = _bulk.point_counts(spec, firsts[smooth])

    # the B-orbits of a class are those of its normal forms at each of its
    # rational points; its least form starts the first of them
    pgl3_order = q ** 3 * (q ** 3 - 1) * (q ** 2 - 1)
    merged, orbits = set(), []
    for i, n in zip(smooth.tolist(), counts.tolist()):
        if i in merged:
            continue
        f = firsts[i].tolist()
        fns = [plane._normalize_idx(pt, f, pt.point(p))[1] for p in pt.zeros(f)]
        members = set(label[_bulk.encode_forms(q, np.array(fns, dtype=np.uint8))
                            - n_forms].tolist())
        if i not in members or not members.isdisjoint(merged):
            raise AssertionError("classes do not partition the smooth B-orbits")
        merged |= members
        aut, rem = divmod(n * len(flag), sum(sizes[j] for j in members))
        if rem or pgl3_order % aut:
            raise AssertionError("|Aut C| must be an integer dividing |PGL_3|")
        orbits.append(OrbitEntry(TernaryCubic(spec, [pt.sf.decode(d) for d in f]),
                                 pgl3_order // aut, n))

    if (len(merged) != len(smooth)
            or sum(o.orbit_size for o in orbits) != q ** 4 * (q ** 3 - 1) * (q ** 2 - 1)):
        raise AssertionError("classes do not partition the smooth forms")
    histogram = Counter(o.point_count for o in orbits)
    return OrbitCensus(q=q, orbits=tuple(orbits), histogram=dict(histogram))


@dataclass(frozen=True)
class CrosscheckRow:
    n: int
    census_classes: int
    formula_classes: int

    @property
    def match(self) -> bool:
        return self.census_classes == self.formula_classes


@dataclass(frozen=True)
class CrosscheckReport:
    q: int
    rows: tuple[CrosscheckRow, ...]

    @property
    def mismatches(self) -> tuple[CrosscheckRow, ...]:
        return tuple(r for r in self.rows if not r.match)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def crosscheck(q: int, census_result: OrbitCensus | None = None) -> CrosscheckReport:
    """Compare the census histogram with the counting formulas at every n."""
    cen = census_result if census_result is not None else census(q)
    n_max = q + 1 + math.isqrt(4 * q) + 1
    rows = tuple(
        CrosscheckRow(
            n=n,
            census_classes=cen.histogram.get(n, 0),
            formula_classes=counting.cubics_with_points(q, n).total,
        )
        for n in range(n_max + 1)
    )
    return CrosscheckReport(q=q, rows=rows)
