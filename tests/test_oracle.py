import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cubicrep
from cubicrep import _bulk, _tables, cli, gallery
from cubicrep.counting import cubics_with_points
from cubicrep.gf import mk_field
from cubicrep.oracle import TooLarge, census, crosscheck
from cubicrep.plane import LinearTransform, TernaryCubic, act, rational_points
from object_reference import census_by_full_sweep, forms_up_to_scalar


def test_census_rejects_q_past_5():
    with pytest.raises(TooLarge):
        census(7)


@pytest.mark.parametrize("q", [2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_census_matches_the_full_sweep(q):
    # the reference sweeps every form; at q = 4 it costs about 4 s and 230 MB
    assert census(q).to_obj() == census_by_full_sweep(q).to_obj()


def _group_transforms(spec):
    sf = _tables.scalar_field(spec)
    return [LinearTransform(spec, [[sf.decode(d) for d in row] for row in T])
            for T in _bulk.pgl3_array(spec)]


@pytest.mark.parametrize("q", [2, 3])
def test_cubic_action_holds_act_on_each_monomial(q):
    spec = mk_field(q, 1)
    sf = _tables.scalar_field(spec)
    cube = _bulk.pgl3_cubic_action(spec)
    transforms = _group_transforms(spec)
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
    transforms = _group_transforms(spec)
    rng = np.random.default_rng(2000 + q)
    for _ in range(3):
        row = rng.integers(0, q, 10, dtype=np.uint8)
        row[rng.integers(10)] = rng.integers(1, q)
        F = TernaryCubic(spec, [sf.decode(d) for d in row])
        expected = set()
        for T in transforms:
            image = act(T, F).coeffs
            lead = next(c for c in image if c)
            digits = sf.encode_all(c / lead for c in image)
            expected.add(int("".join(map(str, digits)), q))
        assert _bulk.orbit_of(spec, row).tolist() == sorted(expected)


_CLASSIFY_5 = """
import resource, sys
from cubicrep import cli
code = cli.main(["classify", "--q", "5", "--out", sys.argv[1]])
print("exit", code, "maxrss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.fixture(scope="module")
def classify5(tmp_path_factory):
    """classify --q 5 --out in a fresh process, which reports its own peak RSS
    (about 5 s and 130 MB): its stdout and the census JSON."""
    out = tmp_path_factory.mktemp("census5") / "census5.json"
    env = dict(os.environ, PYTHONPATH=str(Path(cubicrep.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", _CLASSIFY_5, str(out)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(out.read_text())


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
    least = [int(_bulk.orbit_of(spec, np.array(sf.encode_all(F.coeffs), dtype=np.uint8)).min())
             for F in curves]
    assert len(set(least)) == 3
    assert [points[e] for e in least] == [2, 3, 3]


def test_census_rejects_orbits_that_miss_forms(monkeypatch):
    real_orbit_of = _bulk.orbit_of

    def lossy_orbit_of(spec, row):
        return real_orbit_of(spec, row)[1:]  # drop one encoding

    monkeypatch.setattr(_bulk, "orbit_of", lossy_orbit_of)
    with pytest.raises(AssertionError, match="partition"):
        census(2)


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
        group_order = _bulk.pgl3_array(spec).shape[0]
        for orbit in cen.orbits:
            assert group_order % orbit.orbit_size == 0


def test_orbit_stabilizer_q2(census2):
    spec = mk_field(2, 1)
    group = _bulk.pgl3_array(spec)
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
            orbit = _bulk.orbit_of(spec, row)
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
