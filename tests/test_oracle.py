import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cubicrep
from cubicrep import _bulk, _tables, cli, gallery
from cubicrep.counting import cubics_with_points
from cubicrep.gf import mk_field
from cubicrep.oracle import TooLarge, census, crosscheck
from cubicrep.plane import LinearTransform, TernaryCubic, _normalize_idx, act, rational_points
from object_reference import (census_by_full_sweep, census_by_group_orbits,
                              forms_up_to_scalar, pgl3_action, pgl3_array)


def test_census_rejects_q_past_9():
    # 6 and 10 are no prime powers; 11 is past the census range
    for q in (6, 10, 11):
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            census(q)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("q", [2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_census_matches_the_full_sweep(q):
    # the reference sweeps every form; at q = 4 it costs about 4 s and 230 MB
    assert census(q).to_obj() == census_by_full_sweep(q).to_obj()


@pytest.mark.slow
def test_census_matches_the_group_orbits_at_q5():
    # the full-group census that the walk replaced; about 4 s
    assert census(5).to_obj() == census_by_group_orbits(5).to_obj()


def _transforms(spec, group):
    sf = _tables.scalar_field(spec)
    return [LinearTransform(spec, [[sf.decode(d) for d in row] for row in T])
            for T in group]


def _orbit_by_act(spec, transforms, F):
    """Encodings of the images act(T, F), each scaled to lead with 1."""
    sf = _tables.scalar_field(spec)
    out = set()
    for T in transforms:
        image = act(T, F).coeffs
        lead = next(c for c in image if c)
        out.add(int("".join(map(str, sf.encode_all(c / lead for c in image))), spec.q))
    return sorted(out)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_flag_action_matches_act_over_b(q):
    # all of B on three seeded normal forms each; under 0.5 s at q = 4
    spec = mk_field(2, 2) if q == 4 else mk_field(q, 1)
    sf = _tables.scalar_field(spec)
    flag = _bulk.flag_array(spec)
    assert len(flag) == q ** 3 * (q - 1) ** 2
    assert len({T.tobytes() for T in flag}) == len(flag)
    assert (flag[:, 0, 0] == 1).all() and not flag[:, [1, 2, 2], [0, 0, 1]].any()
    assert flag[:, [1, 2], [1, 2]].all()
    cube = _bulk.pgl3_cubic_action(spec, flag)
    assert cube.shape == (10, len(flag), 10)
    transforms = _transforms(spec, flag)
    rng = np.random.default_rng(2700 + q)
    for _ in range(3):
        row = rng.integers(0, q, 10, dtype=np.uint8)
        row[:3] = 0, 0, 1
        F = TernaryCubic(spec, [sf.decode(d) for d in row])
        orbit = _bulk.orbit_of(spec, row, cube)
        assert orbit.tolist() == _orbit_by_act(spec, transforms, F)
        # B keeps the normal forms: a000 = a001 = 0, a002 = 1
        assert ((orbit >= q ** 7) & (orbit < 2 * q ** 7)).all()


@pytest.mark.parametrize("q", [2, 3])
def test_cubic_action_holds_act_on_each_monomial(q):
    spec = mk_field(q, 1)
    sf = _tables.scalar_field(spec)
    cube = pgl3_action(spec)
    transforms = _transforms(spec, pgl3_array(spec))
    assert cube.shape == (10, len(transforms), 10)
    assert all(cube[m].flags.c_contiguous for m in range(10))
    for m in range(10):
        monomial = TernaryCubic(spec, [int(k == m) for k in range(10)])
        for g in range(0, len(transforms), 1 if q == 2 else 13):
            assert cube[m, g].tolist() == sf.encode_all(act(transforms[g], monomial).coeffs)


@pytest.mark.parametrize("q", [2, 3])
def test_orbit_of_matches_act_over_the_group(q):
    spec = mk_field(q, 1)
    sf = _tables.scalar_field(spec)
    transforms = _transforms(spec, pgl3_array(spec))
    rng = np.random.default_rng(2000 + q)
    for _ in range(3):
        row = rng.integers(0, q, 10, dtype=np.uint8)
        row[rng.integers(10)] = rng.integers(1, q)
        F = TernaryCubic(spec, [sf.decode(d) for d in row])
        assert (_bulk.orbit_of(spec, row, pgl3_action(spec)).tolist()
                == _orbit_by_act(spec, transforms, F))


_CLASSIFY = """
import resource, sys
from cubicrep import cli
code = cli.main(["classify", "--q", sys.argv[1], "--out", sys.argv[2]])
print("exit", code, "maxrss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _classify_in_fresh_process(q, out):
    """classify --q q --out out in a fresh process, which reports its own
    peak RSS: its stdout and the census JSON."""
    env = dict(os.environ, PYTHONPATH=str(Path(cubicrep.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", _CLASSIFY, str(q), str(out)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(out.read_text())


@pytest.fixture(scope="module")
def classify5(tmp_path_factory):
    """classify --q 5 in a fresh process, about 0.5 s and 31 MB."""
    return _classify_in_fresh_process(5, tmp_path_factory.mktemp("census5") / "census5.json")


@pytest.mark.slow
def test_census5_matches_formulas_in_under_1_gb(classify5):
    stdout, obj = classify5
    assert "formula crosscheck: ok" in stdout
    _, code, _, rss_kb = stdout.split()[-4:]
    assert code == "0"
    assert obj["class_count"] == 16
    assert obj["smooth_form_count"] == 1_860_000
    assert obj["histogram"] == {"2": 1, "3": 2, "4": 2, "5": 1, "6": 4, "7": 1,
                                "8": 2, "9": 2, "10": 1}
    assert int(rss_kb) < 1024 * 1024


@pytest.mark.slow
def test_gallery_rows_land_in_distinct_census5_orbits(classify5):
    # the F_5 curves of tables 9: one class with a unique representation,
    # two with two representation classes
    _, obj = classify5
    spec = mk_field(5, 1)
    sf = _tables.scalar_field(spec)

    def encode(F):
        return int(_bulk.encode_forms(5, np.array([sf.encode_all(F.coeffs)], dtype=np.uint8))[0])

    # each representative is the least form of its orbit
    points = {encode(cli.curve_from_obj({"field": "5", "coeffs": o["representative"]})):
              o["point_count"] for o in obj["orbits"]}
    curves = [gallery.unique_rep_curves()[5], *gallery.two_rep_curves()[5]]
    least = [int(_bulk.orbit_of(spec, np.array(sf.encode_all(F.coeffs), dtype=np.uint8),
                                pgl3_action(spec)).min())
             for F in curves]
    assert len(set(least)) == 3
    assert [points[e] for e in least] == [2, 3, 3]


def test_classify9_in_a_fresh_process_within_budget(tmp_path):
    # about 3 s and 65 MB; the budget is a few times that
    start = time.perf_counter()
    stdout, obj = _classify_in_fresh_process(9, tmp_path / "census9.json")
    seconds = time.perf_counter() - start
    assert "formula crosscheck: ok" in stdout
    _, code, _, rss_kb = stdout.split()[-4:]
    assert code == "0" and obj["class_count"] == 30
    assert seconds < 20 and int(rss_kb) < 1024 * 1024


@pytest.fixture(scope="module")
def census7():
    return census(7)


@pytest.mark.parametrize("q", [7, 8, pytest.param(9, marks=pytest.mark.slow)])
def test_crosscheck_past_q5(q, census7):
    # about 0.5 s at q = 7, 1.4 s at q = 8 and 2.7 s at q = 9
    assert crosscheck(q, census7 if q == 7 else census(q)).ok


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_small_classes_are_the_gallery_curves(q, census7):
    # every class with at most 3 points, that is with at most two
    # representation classes, holds exactly one curve of the gallery, with
    # one point per representation class and one more; under 0.1 s per q
    # once census7 is built
    spec = gallery._spec(q)
    pt = _tables.plane_tables(spec)
    cube = _bulk.pgl3_cubic_action(spec, _bulk.flag_array(spec))

    def least_normal_form(f):
        # the least B-image of the normal forms of f at its rational points
        return min(int(_bulk.orbit_of(spec, np.array(_normalize_idx(pt, f, pt.point(p))[1],
                                                      dtype=np.uint8), cube)[0])
                   for p in pt.zeros(f))

    cen = census7 if q == 7 else census(q)
    small = {least_normal_form(o.representative.idx): o.point_count
             for o in cen.orbits if o.point_count <= 3}
    curves = [(F, 1) for F in [gallery.no_rep_curves().get(q)] if F]
    curves += [(F, 2) for F in [gallery.unique_rep_curves().get(q)] if F]
    curves += [(F, 3) for F in gallery.two_rep_curves()[q]]
    assert sorted(least_normal_form(F.idx) for F, _ in curves) == sorted(small)
    for F, n in curves:
        assert small[least_normal_form(F.idx)] == len(rational_points(F)) == n


def test_census_rejects_orbits_that_miss_forms(monkeypatch):
    # an orbit that misses its start form would start the walk there again
    # for ever; one that misses another form lets that form start an orbit
    # that overlaps it.  Each raises within a few gathers, well under 1 s.
    real_orbit_of = _bulk.orbit_of
    for drop in (0, -1):
        calls = []

        def lossy_orbit_of(spec, row, cube):
            calls.append(row)
            if len(calls) > 1000:
                raise RuntimeError("the census walk did not stop")
            return np.delete(real_orbit_of(spec, row, cube), drop)

        monkeypatch.setattr(_bulk, "orbit_of", lossy_orbit_of)
        start = time.perf_counter()
        with pytest.raises(AssertionError, match="partition"):
            census(2)
        assert time.perf_counter() - start < 1.0
        assert len(calls) == 1 if drop == 0 else len(calls) < 100


def test_census2_histogram(census2):
    assert census2.histogram == {1: 1, 2: 1, 3: 2, 4: 1, 5: 1}
    assert census2.class_count == 6


def test_census3_histogram(census3):
    assert census3.histogram == {1: 1, 2: 1, 3: 2, 4: 2, 5: 1, 6: 2, 7: 1}


def test_census_partitions_smooth_forms(census2, census3):
    spec2, spec3 = mk_field(2, 1), mk_field(3, 1)
    for cen, spec in ((census2, spec2), (census3, spec3)):
        forms = forms_up_to_scalar(spec)
        n_smooth = int(_bulk.smooth_mask(spec, forms).sum())
        assert cen.smooth_form_count == n_smooth


def test_orbit_sizes_divide_group_order(census2, census3):
    for cen, q in ((census2, 2), (census3, 3)):
        spec = mk_field(2, 1) if q == 2 else mk_field(3, 1)
        group_order = pgl3_array(spec).shape[0]
        for orbit in cen.orbits:
            assert group_order % orbit.orbit_size == 0


def test_orbit_stabilizer_q2(census2):
    spec = mk_field(2, 1)
    group = pgl3_array(spec)
    sf = _tables.scalar_field(spec)
    transforms = [
        LinearTransform(spec, [[sf.decode(group[g, i, j]) for j in range(3)]
                               for i in range(3)])
        for g in range(group.shape[0])
    ]
    assert len(transforms) == 168
    for orbit in census2.orbits:
        rep = orbit.representative
        stab = sum(1 for T in transforms if act(T, rep) == rep)
        assert orbit.orbit_size * stab == 168


def test_point_counts_on_representatives(census2, census3):
    for cen in (census2, census3):
        for orbit in cen.orbits:
            assert len(rational_points(orbit.representative)) == orbit.point_count


def test_crosscheck_examples(census2, census3):
    rep2 = crosscheck(2, census2)
    assert rep2.ok
    rep3 = crosscheck(3, census3)
    assert rep3.ok
    total = sum(r.formula_classes for r in rep2.rows)
    assert total == census2.class_count


def test_gallery_rows_land_in_distinct_census_orbits(census2, census3):
    for q, cen in ((2, census2), (3, census3)):
        spec = mk_field(q, 1)
        sf = _tables.scalar_field(spec)
        reps = {_bulk.encode_forms(q, __import__("numpy").array(
            [[sf.encode(c) for c in o.representative.coeffs]], dtype="uint8"))[0]: i
            for i, o in enumerate(cen.orbits)}
        curves = [gallery.no_rep_curves()[q], gallery.unique_rep_curves()[q],
                  *gallery.two_rep_curves()[q]]
        seen = []
        for F in curves:
            row = __import__("numpy").array([[sf.encode(c) for c in F.coeffs]],
                                            dtype="uint8")[0]
            orbit = _bulk.orbit_of(spec, row, pgl3_action(spec))
            canon = int(orbit.min())
            assert canon in reps, (q, F)
            seen.append(reps[canon])
        assert len(set(seen)) == len(seen)


def test_histograms_match_formula_cellwise(census2, census3):
    for q, cen in ((2, census2), (3, census3)):
        for n in range(0, q + 8):
            assert cen.histogram.get(n, 0) == cubics_with_points(q, n).total


@pytest.mark.slow
def test_census4_matches_formulas(tmp_path, capsys):
    # the F_4 census through the CLI, which runs the formula crosscheck
    out = tmp_path / "census4.json"
    assert cli.main(["classify", "--q", "4", "--out", str(out)]) == 0
    assert "formula crosscheck: ok" in capsys.readouterr().out
    histogram = json.loads(out.read_text())["histogram"]
    assert histogram["1"] == 1
    assert histogram["2"] == 1
    assert histogram["3"] == 4
