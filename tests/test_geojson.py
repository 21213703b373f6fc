"""GeoJSON footprint and LoD-1 files: the bulk writer and reader against the
dict-tree writer and ring-by-ring reader they replace, and the pipeline's
one build of a pred/ref pair."""

import gc
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanmorph import footprints as footprints_mod
from urbanmorph import pipeline
from urbanmorph.errors import FormatError, GeometryError
from urbanmorph.footprints import (
    BuildingFootprint,
    footprint_table,
    rasterize,
    read_footprints,
    write_footprints,
)
from urbanmorph.lod1 import Lod1Building, assign_heights, read_lod1, write_lod1
from urbanmorph.pipeline import build_config, run_all
from urbanmorph.raster import Raster


# -- Oracles: the writer and reader as they were before the bulk I/O ---------


def feature_oracle(f: BuildingFootprint, properties: dict | None = None) -> dict:
    coords = [f.exterior.tolist() + [f.exterior[0].tolist()]]
    for hole in f.holes:
        coords.append(hole.tolist() + [hole[0].tolist()])
    props = {"id": f.id}
    if properties:
        props.update(properties)
    return {
        "type": "Feature",
        "properties": props,
        "geometry": {"type": "Polygon", "coordinates": coords},
    }


def footprints_text_oracle(footprints, properties=None) -> str:
    properties = properties or [None] * len(footprints)
    features = [feature_oracle(f, p) for f, p in zip(footprints, properties)]
    return json.dumps({"type": "FeatureCollection", "features": features})


def lod1_text_oracle(buildings) -> str:
    return footprints_text_oracle(
        [b.footprint for b in buildings],
        [{"height_m": float(f"{np.float32(b.height):.9g}"), "n_cells": b.n_cells}
         for b in buildings],
    )


def read_oracle(path):
    """The footprints of a file of features with distinct integer ids, each
    built alone, or the error message of the first that fails."""
    with open(path) as f:
        features = json.load(f)["features"]
    built = []
    for i, feature in enumerate(features):
        rings = feature["geometry"]["coordinates"]
        try:
            built.append(BuildingFootprint(int(feature["properties"]["id"]), rings[0], rings[1:]))
        except (ValueError, TypeError, GeometryError) as exc:
            return f"{path}: features[{i}]: bad value ({exc})"
    return built


def table_bits(footprints):
    return [a.tobytes() for a in footprint_table(footprints)]


# -- Strategies ---------------------------------------------------------------

SPECIAL = [1e16, -1e16, 1e-7, -1e-7, 0.0, -0.0, 5e-324, -5e-324]
F32_MAX = float(np.finfo(np.float32).max)


@st.composite
def footprint_sets(draw, max_size=4):
    """Rectangles with 0-3 rectangular holes, at corners that include
    extreme, tiny, subnormal and negative-zero coordinates."""
    coordinate = st.sampled_from(SPECIAL) | st.floats(-1e7, 1e7)
    ids = draw(st.lists(st.integers(1, 2**63 - 1), max_size=max_size, unique=True))
    out = []
    for fid in ids:
        x0, y0 = draw(coordinate), draw(coordinate)
        scale = max(1.0, abs(x0), abs(y0))
        w, h = (scale * draw(st.floats(0.5, 4.0)) for _ in range(2))
        holes = []
        for k in range(draw(st.integers(0, 3))):
            hx, hy = x0 + w * (0.05 + 0.3 * k), y0 + 0.3 * h
            hx1, hy1 = hx + 0.2 * w, hy + 0.4 * h
            holes.append([(hx, hy), (hx, hy1), (hx1, hy1), (hx1, hy)])
        exterior = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
        out.append(BuildingFootprint(id=fid, exterior=exterior, holes=holes))
    return out


@st.composite
def lod1_sets(draw):
    buildings = []
    for f in draw(footprint_sets()):
        n_cells = draw(st.sampled_from([-1, 0, 1, 2**63 - 1]) | st.integers(1, 10**6))
        height = 0.0 if n_cells == 0 else draw(
            st.sampled_from([0.0, F32_MAX]) | st.floats(0.0, 1e4))
        buildings.append(Lod1Building(footprint=f, height=height, n_cells=n_cells))
    return buildings


# -- Writer -------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(footprints=footprint_sets())
def test_write_footprints_bytes_equal_oracle(tmp_path_factory, footprints):
    path = tmp_path_factory.mktemp("w") / "f.geojson"
    write_footprints(footprints, path)
    assert path.read_text() == footprints_text_oracle(footprints)
    assert table_bits(read_footprints(path)) == table_bits(footprints)


@settings(max_examples=150, deadline=None)
@given(buildings=lod1_sets())
def test_write_lod1_bytes_equal_oracle(tmp_path_factory, buildings):
    path = tmp_path_factory.mktemp("w") / "l.geojson"
    write_lod1(buildings, path)
    assert path.read_text() == lod1_text_oracle(buildings)
    # Two sets of the same footprints, as ``stage_lod1`` writes them.
    halved = [Lod1Building(b.footprint, b.height / 2, b.n_cells) for b in buildings]
    pair = path.with_name("pred.geojson"), path.with_name("ref.geojson")
    write_lod1(buildings, pair[0], (halved, pair[1]))
    assert pair[0].read_text() == path.read_text()
    assert pair[1].read_text() == lod1_text_oracle(halved)
    back = read_lod1(path)
    assert table_bits([b.footprint for b in back]) == table_bits([b.footprint for b in buildings])
    # Each height reads back as the float32 that was written.
    assert [(b.height, b.n_cells) for b in back] == [
        (float(np.float32(b.height)), b.n_cells) for b in buildings
    ]


def test_write_lod1_rejects_other_footprints(tmp_path):
    a, b = (Lod1Building(BuildingFootprint(1, [(0, 0), (1, 0), (1, 1)]), 3.0, 1) for _ in "ab")
    with pytest.raises(ValueError, match="footprints differ"):
        write_lod1([a], tmp_path / "pred.geojson", ([b], tmp_path / "ref.geojson"))
    with pytest.raises(ValueError, match="footprints differ"):
        write_lod1([a], tmp_path / "pred.geojson", ([a, a], tmp_path / "ref.geojson"))


def test_lod1_golden_text(tmp_path):
    holed = BuildingFootprint(id=7, exterior=[(0.5, -0.0), (10.0, 0.0), (10.0, 8.25), (0.5, 8.25)],
                              holes=[[(2.0, 2.0), (2.0, 4.0), (4.0, 4.0)]])
    plain = BuildingFootprint(id=2**63 - 1, exterior=[(1e16, 1e-07), (2e16, 1e-07), (2e16, 1e16)])
    path = tmp_path / "golden.geojson"
    write_lod1([Lod1Building(footprint=holed, height=12.3, n_cells=40),
                Lod1Building(footprint=plain, height=0.0, n_cells=-1)], path)
    assert path.read_text() == (
        '{"type": "FeatureCollection", "features": ['
        '{"type": "Feature", "properties": {"id": 7, "height_m": 12.3000002, "n_cells": 40}, '
        '"geometry": {"type": "Polygon", "coordinates": '
        '[[[0.5, -0.0], [10.0, 0.0], [10.0, 8.25], [0.5, 8.25], [0.5, -0.0]], '
        '[[2.0, 2.0], [2.0, 4.0], [4.0, 4.0], [2.0, 2.0]]]}}, '
        '{"type": "Feature", "properties": {"id": 9223372036854775807, "height_m": 0.0, '
        '"n_cells": -1}, "geometry": {"type": "Polygon", "coordinates": '
        '[[[1e+16, 1e-07], [2e+16, 1e-07], [2e+16, 1e+16], [1e+16, 1e-07]]]}}]}'
    )


def test_empty_set_text(tmp_path):
    path = tmp_path / "empty.geojson"
    write_footprints([], path)
    assert path.read_text() == '{"type": "FeatureCollection", "features": []}'
    assert read_footprints(path) == []


# -- Reader -------------------------------------------------------------------

# Ways to spoil one ring of a feature; each is one the reader must report as
# the ring-by-ring reader did.
SPOILS = {
    "null": lambda r: [r[0], [None, r[1][1]], *r[2:]],
    "text": lambda r: [r[0], ["east", r[1][1]], *r[2:]],
    "3-vertex": lambda r: [r[0], [*r[1], 1.0], *r[2:]],
    "scalar vertex": lambda r: [r[0], 3.0, *r[2:]],
    "empty ring": lambda r: [],
    "scalar ring": lambda r: 5,
    "nested": lambda r: [[v] for v in r],
    "flat": lambda r: [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
    "bowtie": lambda r: [r[0], r[2], r[1], *r[3:]],
}


@st.composite
def raw_features(draw):
    """Features as a file may hold them: rings closed or open, with integer
    or float coordinates, some spoiled."""
    features = []
    for i in range(draw(st.integers(0, 5))):
        x, y = 10.0 * i, draw(st.sampled_from([0.0, -0.0, 0.5, 1e-7]))
        rings = [[[x, y], [x + 4, y], [x + 4, y + 3], [x, y + 3]]]
        if draw(st.booleans()):
            rings.append([[x + 1, y + 1], [x + 1, y + 2], [x + 2, y + 2]])
        for r in rings:
            if draw(st.booleans()):
                r[:] = [[int(a), int(b)] for a, b in r]
            if draw(st.booleans()):
                r.append(list(r[0]))
        spoil = draw(st.sampled_from([None, None, None, *SPOILS]))
        if spoil is not None:
            k = draw(st.integers(0, len(rings) - 1))
            rings[k] = SPOILS[spoil](rings[k])
        features.append({"type": "Feature", "properties": {"id": i + 1},
                         "geometry": {"type": "Polygon", "coordinates": rings}})
    return features


@settings(max_examples=300, deadline=None)
@given(features=raw_features())
def test_bulk_read_equals_ring_by_ring_read(tmp_path_factory, features):
    path = tmp_path_factory.mktemp("r") / "f.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    want = read_oracle(path)
    if isinstance(want, str):
        with pytest.raises(FormatError) as exc:
            read_footprints(path)
        assert str(exc.value) == want
    else:
        got = read_footprints(path)
        assert table_bits(got) == table_bits(want)
        assert [(f.area, f.perimeter, f.centroid) for f in got] == [
            (f.area, f.perimeter, f.centroid) for f in want]


def collection(**changes):
    props = {"id": 1, "height_m": 9.5, "n_cells": 4, **changes}
    props = {k: v for k, v in props.items() if v is not None}
    ring = [[0, 0], [2, 0], [2, 2], [0, 2], [0, 0]]
    return {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": props,
         "geometry": {"type": "Polygon", "coordinates": [ring]}}]}


@pytest.mark.parametrize(
    "change, message",
    [({"id": 1.9}, "1.9 is not an integer"), ({"id": True}, "true is not an integer"),
     ({"id": 1.0}, "1.0 is not an integer"), ({"id": float("inf")}, "Infinity is not an integer"),
     ({"n_cells": 2.7}, "2.7 is not an integer"),
     ({"n_cells": True}, "true is not an integer"),
     ({"n_cells": -5}, "building 1: n_cells -5 invalid"),
     ({"height_m": True}, "true is not a number"), ({"height_m": False}, "false is not a number"),
     ({"height_m": 10**400}, "int too large to convert to float")],
    ids=repr,
)
def test_lax_property_is_bad_value(tmp_path, change, message):
    path = tmp_path / "b.geojson"
    path.write_text(json.dumps(collection(**change)))
    reader = read_footprints if set(change) == {"id"} else read_lod1
    with pytest.raises(FormatError) as exc:
        reader(path)
    assert str(exc.value) == f"{path}: features[0]: bad value ({message})"


def test_missing_n_cells_reads_as_unknown(tmp_path):
    path = tmp_path / "b.geojson"
    fc = collection()
    del fc["features"][0]["properties"]["n_cells"]
    path.write_text(json.dumps(fc))
    assert [b.n_cells for b in read_lod1(path)] == [-1]


@pytest.mark.parametrize("coordinates", [
    '[[[0, 0], [2, 0], [1%s, 2]]]' % ("0" * 400),  # an integer no float holds
    '{"0": [[0, 0], [2, 0], [2, 2]]}',
    '7',
])
def test_unconvertible_coordinates_are_bad_value(tmp_path, coordinates):
    path = tmp_path / "b.geojson"
    path.write_text('{"type": "FeatureCollection", "features": [{"type": "Feature", '
                    '"properties": {"id": 1}, "geometry": {"type": "Polygon", '
                    f'"coordinates": {coordinates}}}}}]}}')
    with pytest.raises(FormatError, match=r"features\[0\]: bad value"):
        read_footprints(path)


@pytest.mark.parametrize("geometry", ['[1]', '"Polygon"'])
def test_geometry_not_an_object_is_format_error(tmp_path, geometry):
    path = tmp_path / "b.geojson"
    path.write_text('{"type": "FeatureCollection", "features": [{"type": "Feature", '
                    f'"properties": {{"id": 1}}, "geometry": {geometry}}}]}}')
    with pytest.raises(FormatError, match="geometry must be Polygon"):
        read_footprints(path)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("valid", [True, False])
def test_read_restores_the_collector(tmp_path, enabled, valid):
    path = tmp_path / "b.geojson"
    path.write_text(json.dumps(collection(id=1 if valid else 0)))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            read_lod1(path)
        except FormatError:
            assert not valid
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_read_lod1_shares_footprints_of_the_same_bits(tmp_path):
    path = tmp_path / "a.geojson"
    path.write_text(json.dumps(collection()))
    footprints = [b.footprint for b in read_lod1(path)]
    assert read_lod1(path, footprints=footprints)[0].footprint is footprints[0]
    # -0.0 equals 0.0 but has other bits: the file's own footprint is built.
    fc = collection()
    fc["features"][0]["geometry"]["coordinates"][0][0] = [-0.0, 0.0]
    path.write_text(json.dumps(fc))
    other = read_lod1(path, footprints=footprints)[0].footprint
    assert other is not footprints[0]
    assert np.array_equal(other.exterior, footprints[0].exterior)
    assert other.exterior.tobytes() != footprints[0].exterior.tobytes()


def test_fault_pass_is_a_complete_reader(tmp_path, monkeypatch):
    # A 12-vertex exterior through (-0.0, 5e-324) with a 12-vertex hole, and a
    # rectangle with a subnormal and a negative-zero coordinate and a hole.
    angle = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    circle = np.column_stack((np.cos(angle), np.sin(angle)))
    exterior = (10.0, 0.0) + 10.0 * circle
    exterior[6] = (-0.0, 5e-324)
    buildings = [
        Lod1Building(BuildingFootprint(3, exterior, [(10.0, 0.0) + 2.0 * circle[::-1]]), 12.3, 40),
        Lod1Building(BuildingFootprint(8, [(30.0, -0.0), (34.0, 5e-324), (34.0, 3.0), (30.0, 3.0)],
                                       [[(31.0, 1.0), (31.0, 2.0), (32.0, 2.0)]]), 0.0, -1),
    ]
    footprints_path, lod1_path = tmp_path / "f.geojson", tmp_path / "l.geojson"
    write_footprints([b.footprint for b in buildings], footprints_path)
    write_lod1(buildings, lod1_path)

    def reads():
        footprints = read_footprints(footprints_path)
        return [footprints, read_lod1(lod1_path), read_lod1(lod1_path, footprints=footprints)]

    def facts(read):
        fps = [getattr(x, "footprint", x) for x in read]
        measures = [[f.area, f.perimeter, *f.centroid] for f in fps]
        lod1 = [(x.height, x.n_cells) for x in read if isinstance(x, Lod1Building)]
        return table_bits(fps), np.array(measures).tobytes(), lod1

    want = [facts(read) for read in reads()]
    calls = []

    def failing(*args):
        calls.append(args)
        raise ValueError("forced")

    monkeypatch.setattr(footprints_mod, "_converted", failing)
    assert [facts(read) for read in reads()] == want
    assert len(calls) == 3


# -- Zonal heights --------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), statistic=st.sampled_from(["mean", "median"]))
def test_assign_heights_bits_equal_per_building_oracle(seed, statistic):
    """A footprint of over 8,192 cells included, where numpy sums in blocks."""
    rng = np.random.default_rng(seed)
    size = 160
    template = Raster(width=size, height=size, origin_x=0.0, origin_y=0.0, cell_size=1.0,
                      nodata=-9999.0, values=np.zeros((size, size), np.float32))
    fps = [BuildingFootprint(id=1, exterior=[(0, 0), (150, 0), (150, 90), (0, 90)])]
    for fid in range(2, 6):
        x, y = rng.uniform(0, 140, 2)
        fps.append(BuildingFootprint(id=fid, exterior=[(x, y), (x + 9, y), (x + 9, y + 7)]))
    mask = rasterize(fps, template)
    # Values over 24 decades, so that a sum in another order has other bits.
    pred, ref = (template.with_values((rng.uniform(0, 80, (size, size))
                                       * 10.0 ** rng.integers(-12, 12, (size, size)))
                                      .astype(np.float32)) for _ in range(2))
    for raster in (pred, ref):  # the second call reuses the mask's grouping
        for b in assign_heights(raster, mask, fps, statistic):
            cells = raster.values[mask.source_ids == b.footprint.id].astype(np.float64)
            if not cells.size:  # a thin footprint may own no cell center: height 0
                want = 0.0
            else:
                want = cells.mean() if statistic == "mean" else np.median(cells)
            assert np.float64(b.height).tobytes() == np.float64(max(0.0, want)).tobytes()
            assert b.n_cells == cells.size


# -- The pipeline builds a pred/ref pair once ----------------------------------


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = build_config({"extent": "64", "n_buildings": "3", "footprint_min": "8",
                        "footprint_max": "12", "coarse_factor": "8", "resolutions": "32,64",
                        "directions": "0,90", "seed": "4"}, {"out": str(out)})
    run_all(cfg)
    return cfg


@pytest.fixture
def run_copy(small_run, tmp_path):
    shutil.copytree(small_run.out, tmp_path, dirs_exist_ok=True)
    return build_config({"resolutions": "32,64", "directions": "0,90"},
                        {"out": str(tmp_path), "footprints": str(tmp_path / "footprints.geojson")})


@pytest.mark.parametrize("stage", ["predict", "lod1", "ucp"])
def test_one_check_and_measure_per_stage(run_copy, monkeypatch, stage):
    measured = []
    real = footprints_mod._check_and_measure

    def counting(t):
        measured.append(len(t.ids))
        return real(t)

    monkeypatch.setattr(footprints_mod, "_check_and_measure", counting)
    pipeline.STAGES[stage](run_copy)
    assert measured == [3]


def test_differing_ref_footprints_rejected(run_copy):
    ref_path = run_copy.path("lod1_ref.geojson")
    with open(ref_path) as f:
        fc = json.load(f)
    ring = fc["features"][1]["geometry"]["coordinates"][0]
    ring[1] = [ring[1][0] + 0.25, ring[1][1]]
    with open(ref_path, "w") as f:
        json.dump(fc, f)
    with pytest.raises(FormatError, match="footprints differ"):
        pipeline.STAGES["ucp"](run_copy)


def test_bad_ref_ring_names_its_own_feature(run_copy):
    ref_path = run_copy.path("lod1_ref.geojson")
    with open(ref_path) as f:
        fc = json.load(f)
    fc["features"][2]["geometry"]["coordinates"][0][1] = [None, 3.0]
    with open(ref_path, "w") as f:
        json.dump(fc, f)
    with pytest.raises(FormatError) as exc:
        pipeline.STAGES["ucp"](run_copy)
    assert str(exc.value) == (
        f"{ref_path}: features[2]: bad value (ring coordinates must be finite)"
    )
