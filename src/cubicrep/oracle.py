"""Brute-force ground truth: classify all smooth plane cubics over a tiny
field by projective equivalence.

The census partitions the smooth cubic forms into orbits under the full
projective linear group, entirely independently of the counting formulas.
Comparing the resulting point-count histogram against the formulas validates
both ends; crosscheck() does exactly that.

Every smooth cubic has a rational point, so every orbit of smooth forms
contains a normal form: the point [1:0:0] on the curve with tangent Z = 0,
that is a000 = a001 = 0 and a002 = 1, leaving 7 free coefficients.  The
census tests the q^7 normal forms for smoothness and takes the orbit of each
smooth one not yet visited; the orbits are listed by their least form, which
is also each orbit's representative.  Three checks guard the partition:

* every smooth normal form is visited, and no singular one is;
* the visited forms, the sum of the orbit sizes and the closed count
  q^4 (q^3 - 1)(q^2 - 1) of smooth forms up to scalar all agree;
* every orbit size divides |PGL_3(F_q)|.

Supported sizes are q = 2, 3, 4 and 5; q = 5 takes the orbits of 16 classes
under a group of 372000 in a few seconds.  Any other q raises TooLarge.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _bulk, _tables, counting
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


def census(q: int) -> OrbitCensus:
    """Orbit classification of all smooth cubic forms over F_q, q in {2, 3, 4, 5}."""
    if q not in (2, 3, 4, 5):
        raise TooLarge(f"census is desk-scale only; q = {q} is out of range")
    spec = _field_for(q)
    sf = _tables.scalar_field(spec)
    forms = _bulk.normal_forms(spec)
    smooth = _bulk.smooth_mask(spec, forms)

    encodings = _bulk.encode_forms(q, forms)
    visited = np.zeros(q ** 10, dtype=bool)
    found = []
    for fi in np.flatnonzero(smooth):
        if visited[encodings[fi]]:
            continue
        orbit = _bulk.orbit_of(spec, forms[fi])
        visited[orbit] = True
        # an orbit invariant, folded for one form per orbit
        n_points = int(_bulk.point_counts(spec, forms[fi:fi + 1])[0])
        found.append((int(orbit.min()), len(orbit), n_points))

    sizes = [size for _, size, _ in found]
    smooth_count = q ** 4 * (q ** 3 - 1) * (q ** 2 - 1)
    if not (np.array_equal(visited[encodings], smooth)
            and int(visited.sum()) == sum(sizes) == smooth_count):
        raise AssertionError("orbits do not partition the smooth forms")
    group_order = _bulk.pgl3_array(spec).shape[0]
    if any(group_order % size for size in sizes):
        raise AssertionError("orbit size must divide |PGL_3|")

    orbits = tuple(
        OrbitEntry(TernaryCubic(spec, [sf.decode(d) for d in _bulk.decode_form(q, least)]),
                   size, n_points)
        for least, size, n_points in sorted(found))
    histogram = Counter(o.point_count for o in orbits)
    return OrbitCensus(q=q, orbits=orbits, histogram=dict(histogram))


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
