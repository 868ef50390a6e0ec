import json

import pytest

from cubicrep import _bulk, _tables, cli, gallery
from cubicrep.counting import cubics_with_points
from cubicrep.gf import mk_field
from cubicrep.oracle import TooLarge, census, crosscheck
from cubicrep.plane import LinearTransform, act, rational_points


def test_census_rejects_q_past_4():
    with pytest.raises(TooLarge):
        census(5)


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
        forms = _bulk.forms_up_to_scalar(spec)
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
