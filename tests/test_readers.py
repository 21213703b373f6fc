"""Every file reader turns malformed input into an ``UrbanMorphError``."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanmorph.errors import FormatError, GeometryError, UrbanMorphError
from urbanmorph.footprints import BuildingFootprint, rasterize, read_footprints, write_footprints
from urbanmorph.lod1 import Lod1Building, read_lod1
from urbanmorph.network import ModelConfig, Weights, init_weights, read_weights, write_weights
from urbanmorph.pointcloud import (
    _GLBP_HEADER,
    PointCloud,
    read_points_csv,
    write_points_glbp,
)
from urbanmorph.raster import _GLBR_HEADER, Raster, read_raster, write_raster
from urbanmorph.ucp import UcpGrid, aggregate_all, export_csv, raster_grid, read_csv

# A 10 x 10 grid of 1 m cells, and its 2 x 2 grid of 5 m cells.
TABLE_TEMPLATE = Raster(width=10, height=10, origin_x=0.0, origin_y=0.0, cell_size=1.0,
                        nodata=-9999.0, values=np.zeros((10, 10), np.float32))
TABLE_GRID = raster_grid(TABLE_TEMPLATE, 5.0)


def read_ucp_table(path):
    return read_csv(path, TABLE_GRID)


READERS = [read_raster, read_footprints, read_lod1, read_points_csv, read_weights,
           read_ucp_table]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("reader", READERS, ids=lambda r: r.__name__)
def test_random_bytes_raise_package_error(tmp_path, reader, seed):
    path = tmp_path / "input"
    path.write_bytes(np.random.default_rng(seed).bytes(300))
    with pytest.raises(UrbanMorphError):
        reader(path)


GRID = "ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n5\n"


@pytest.mark.parametrize(
    "field, bad",
    [("ncols 1", "ncols x"), ("xllcorner 0", "xllcorner west"),
     ("NODATA_value -9999", "NODATA_value nan"), ("ncols 1", "ncols 0"),
     ("cellsize 1", "cellsize 0"), ("cellsize 1", "cellsize nan"),
     ("cellsize 1", "cellsize -1"), ("cellsize 1", "cellsize inf"),
     ("xllcorner 0", "xllcorner nan"), ("yllcorner 0", "yllcorner -inf")],
)
def test_ascii_grid_bad_header_value(tmp_path, field, bad):
    path = tmp_path / "r.asc"
    path.write_text(GRID)
    assert read_raster(path).values[0, 0] == 5.0
    path.write_text(GRID.replace(field, bad))
    with pytest.raises(FormatError, match="r.asc"):
        read_raster(path)


@pytest.mark.parametrize(
    "width, height, origin_x, cell_size",
    [(0, 1, 0.0, 1.0), (1, 0, 0.0, 1.0), (1, 1, 0.0, 0.0), (1, 1, 0.0, np.nan),
     (1, 1, 0.0, -2.0), (1, 1, 0.0, np.inf), (1, 1, np.nan, 1.0), (1, 1, np.inf, 1.0)],
)
def test_glbr_bad_header_value(tmp_path, width, height, origin_x, cell_size):
    path = tmp_path / "r.glbr"
    header = _GLBR_HEADER.pack(b"GLBR", 1, width, height, origin_x, 0.0, cell_size, -9999.0)
    path.write_bytes(header + bytes(4 * width * height))
    with pytest.raises(FormatError, match=r"r\.glbr: malformed raster \((raster|cell|origin)"):
        read_raster(path)


def test_ascii_nodata_beyond_float32_is_format_error(tmp_path):
    path = tmp_path / "r.asc"
    path.write_text(GRID.replace("NODATA_value -9999", "NODATA_value 1e50"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FormatError, match=r"r\.asc: .*nodata sentinel must be finite"):
            read_raster(path)
    assert not caught


def test_glbr_nan_nodata(tmp_path):
    path = tmp_path / "r.glbr"
    header = _GLBR_HEADER.pack(b"GLBR", 1, 1, 1, 0.0, 0.0, 1.0, np.float32("nan"))
    path.write_bytes(header + np.zeros(1, "<f4").tobytes())
    with pytest.raises(FormatError, match="r.glbr"):
        read_raster(path)


@pytest.mark.parametrize(
    "name, cell",
    [("r.glbr", np.nan), ("r.glbr", -np.inf), ("r.asc", "nan"), ("r.asc", "1e50")],
)
def test_non_finite_cell_names_file(tmp_path, name, cell):
    path = tmp_path / name
    if name.endswith(".asc"):
        path.write_text(GRID.replace("\n5\n", f"\n{cell}\n"))
    else:
        header = _GLBR_HEADER.pack(b"GLBR", 1, 1, 1, 0.0, 0.0, 1.0, np.float32(-9999))
        path.write_bytes(header + np.array([cell], "<f4").tobytes())
    with pytest.raises(FormatError, match=f"{name}: 1 non-finite cells"):
        read_raster(path)


def lod1_collection(**changes):
    """A one-building LoD-1 FeatureCollection with ``changes`` applied to it.

    ``coordinate`` replaces the second vertex's x, ``exterior`` the whole
    exterior ring, and ``hole`` adds a hole; other keys are properties.
    """
    props = {"id": 1, "height_m": 9.5, "n_cells": 4}
    rings = [[[0, 0], [2, 0], [2, 2], [0, 2], [0, 0]]]
    for key, value in changes.items():
        if key == "coordinate":
            rings[0][1] = [value, 0]
        elif key == "exterior":
            rings[0] = value
        elif key == "hole":
            rings.append(value)
        else:
            props[key] = value
    feature = {"type": "Feature", "properties": props,
               "geometry": {"type": "Polygon", "coordinates": rings}}
    return {"type": "FeatureCollection", "features": [feature]}


BAD_GEOMETRY = {
    "bowtie": {"exterior": [[0, 0], [2, 2], [2, 0], [0, 2], [0, 0]]},
    "zero-area-hole": {"hole": [[0.5, 0.5], [1, 1], [1.5, 1.5], [0.5, 0.5]]},
    "hole-over-exterior": {"hole": [[-1, -1], [3, -1], [3, 3], [-1, 3], [-1, -1]]},
}


@pytest.mark.parametrize(
    "reader, change",
    [(read_footprints, {"id": "abc"}), (read_footprints, {"id": None}),
     (read_footprints, {"coordinate": "east"}), (read_footprints, {"coordinate": None}),
     (read_footprints, {"coordinate": float("nan")}),
     *(pytest.param(read_footprints, change, id=f"read_footprints-{name}")
       for name, change in BAD_GEOMETRY.items()),
     pytest.param(read_lod1, BAD_GEOMETRY["zero-area-hole"], id="read_lod1-zero-area-hole"),
     (read_footprints, {"id": 0}), (read_footprints, {"id": -3}),
     (read_footprints, {"id": 2**70}), (read_lod1, {"id": 0}),
     (read_lod1, {"id": "abc"}), (read_lod1, {"coordinate": "east"}),
     (read_lod1, {"height_m": "tall"}), (read_lod1, {"height_m": None}),
     (read_lod1, {"height_m": -3.0}), (read_lod1, {"n_cells": "many"})],
    ids=lambda v: getattr(v, "__name__", None) or "-".join(f"{k}={v!r}" for k, v in v.items()),
)
def test_geojson_bad_value_names_file_and_feature(tmp_path, reader, change):
    path = tmp_path / "b.geojson"
    path.write_text(json.dumps(lod1_collection()))
    assert len(reader(path)) == 1
    path.write_text(json.dumps(lod1_collection(**change)))
    with pytest.raises(FormatError, match=r"b\.geojson: features\[0\]: bad value"):
        reader(path)


@pytest.mark.parametrize("reader", [read_footprints, read_lod1], ids=lambda r: r.__name__)
def test_geojson_duplicate_id_names_file_and_feature(tmp_path, reader):
    fc = lod1_collection(id=2)
    second = json.loads(json.dumps(fc["features"][0]))
    second["geometry"]["coordinates"] = [[[5, 5], [7, 5], [7, 7], [5, 7], [5, 5]]]
    fc["features"].append(second)
    path = tmp_path / "b.geojson"
    path.write_text(json.dumps(fc))
    with pytest.raises(FormatError, match=r"b\.geojson: features\[1\]: duplicate id 2 "):
        reader(path)


@pytest.mark.parametrize("features", [5, [1], ["feature"]])
def test_geojson_features_not_objects(tmp_path, features):
    path = tmp_path / "b.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    for reader in (read_footprints, read_lod1):
        with pytest.raises(FormatError, match="list of objects"):
            reader(path)


def glbp_bytes(xs=(1.0, 2.0), ys=(3.0, 4.0), zs=(5.0, 6.0), labels=(0, 2), count=None,
               version=1):
    """A GLBP file's bytes, with any column, the count or the version forged."""
    header = _GLBP_HEADER.pack(b"GLBP", version, len(xs) if count is None else count)
    columns = [np.asarray(c, "<f8").tobytes() for c in (xs, ys, zs)]
    return header + b"".join(columns) + np.asarray(labels, "i1").tobytes()


@pytest.mark.parametrize(
    "raw, message",
    [(b"GLBP\x01\x00\x02", "truncated header at byte 7"),
     (glbp_bytes(version=2), "unsupported version 2 at byte 4"),
     (glbp_bytes()[:-1], "expected 64 bytes for 2 points, got 63"),
     (glbp_bytes() + b"\x00", "expected 64 bytes for 2 points, got 65"),
     (glbp_bytes(count=3), "expected 89 bytes for 3 points, got 64"),
     (glbp_bytes(labels=(3, -1)), "2 labels not 0, 1 or 2"),
     (glbp_bytes(ys=(3.0, np.nan)), "1 non-finite coordinates"),
     (glbp_bytes(xs=(np.inf, 1.0), zs=(-np.inf, 1.0)), "2 non-finite coordinates")],
    ids=["short-header", "version", "short", "long", "count", "label", "nan", "inf"],
)
def test_glbp_check_names_file(tmp_path, raw, message):
    path = tmp_path / "p.glbp"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=rf"p\.glbp: {message}"):
        read_points_csv(path)


def test_glbp_forged_count_allocates_nothing(tmp_path):
    path = tmp_path / "p.glbp"
    path.write_bytes(_GLBP_HEADER.pack(b"GLBP", 1, 2**63) + bytes(26))
    assert path.stat().st_size == 40
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"expected {14 + 25 * 2**63} bytes"):
            read_points_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.fixture(scope="module")
def point_files(tmp_path_factory):
    """A directory to write to, and a valid GLBP and CSV file of one cloud."""
    directory = tmp_path_factory.mktemp("points")
    rng = np.random.default_rng(0)
    names = ["ground", "building", "other", "building", "ground"]
    pc = PointCloud(xs=rng.uniform(0, 100, 5), ys=rng.uniform(0, 100, 5),
                    zs=rng.uniform(0, 50, 5), labels=[0, 1, 2, 1, 0])
    write_points_glbp(pc, directory / "valid.glbp")
    rows = zip(pc.xs.tolist(), pc.ys.tolist(), pc.zs.tolist(), names)
    (directory / "valid.csv").write_text(
        "x,y,z,label\n" + "".join(f"{x!r},{y!r},{z!r},{name}\n" for x, y, z, name in rows)
    )
    return directory, {kind: (directory / f"valid.{kind}").read_bytes()
                       for kind in ("glbp", "csv")}


def _mutate(raw: bytes, edit, position: int, payload: bytes) -> bytes:
    """``raw`` truncated at, extended by, or with bytes flipped from ``position``."""
    position %= len(raw) + 1
    if edit == "truncate":
        return raw[:position]
    if edit == "extend":
        return raw + payload
    flipped = bytes(a ^ (b or 1) for a, b in zip(raw[position:], payload))
    return raw[:position] + flipped + raw[position + len(flipped):]


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["glbp", "csv"]),
       edit=st.sampled_from(["truncate", "extend", "flip"]),
       position=st.integers(0, 400), payload=st.binary(min_size=1, max_size=30))
def test_mutated_point_file_reads_or_raises_package_error(point_files, kind, edit,
                                                          position, payload):
    directory, valid = point_files
    path = directory / f"mutated.{kind}"
    path.write_bytes(_mutate(valid[kind], edit, position, payload))
    try:
        result = read_points_csv(path)
    except UrbanMorphError:
        return
    assert isinstance(result, PointCloud)


@pytest.fixture(scope="module")
def weights_file(tmp_path_factory):
    """A directory to write to, and the bytes of a valid GLBW file."""
    directory = tmp_path_factory.mktemp("weights")
    cfg = ModelConfig(depth=1, base_filters=2, in_channels=2, seed=3)
    write_weights(init_weights(cfg), directory / "valid.glbw")
    return directory, (directory / "valid.glbw").read_bytes()


# About half the edits start in or next to the 30-byte header.
@settings(max_examples=300, deadline=None)
@given(edit=st.sampled_from(["truncate", "extend", "flip"]),
       position=st.one_of(st.integers(0, 40), st.integers(0, 1200)),
       payload=st.binary(min_size=1, max_size=30))
def test_mutated_weights_file_reads_or_raises_package_error(weights_file, edit,
                                                            position, payload):
    directory, valid = weights_file
    path = directory / "mutated.glbw"
    path.write_bytes(_mutate(valid, edit, position, payload))
    try:
        result = read_weights(path)
    except UrbanMorphError:
        return
    assert isinstance(result, Weights)


@pytest.fixture(scope="module")
def geo_files(tmp_path_factory):
    """A directory to write to, and valid GLBR, ASCII grid, footprint and LoD-1 files."""
    directory = tmp_path_factory.mktemp("geo")
    values = np.arange(12, dtype=np.float32).reshape(3, 4) * 1.5
    values[1, 2] = -9999.0
    r = Raster(width=4, height=3, origin_x=10.0, origin_y=20.0, cell_size=2.0,
               nodata=-9999.0, values=values)
    write_raster(r, directory / "valid.glbr")
    write_raster(r, directory / "valid.asc")
    fc = lod1_collection(hole=[[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 0.5]])
    second = json.loads(json.dumps(lod1_collection(id=2)["features"][0]))
    second["geometry"]["coordinates"] = [[[5, 5], [7.25, 5], [7, 7.5], [5, 7], [5, 5]]]
    fc["features"].append(second)
    (directory / "valid.lod1.geojson").write_text(json.dumps(fc))
    write_footprints(read_footprints(directory / "valid.lod1.geojson"),
                     directory / "valid.footprints.geojson")
    buildings = read_lod1(directory / "valid.lod1.geojson")
    mask = rasterize([b.footprint for b in buildings], TABLE_TEMPLATE)
    grid = aggregate_all(buildings, mask, resolution=5.0, directions=(0.0, 45.0),
                         bin_width=2.0, height_cap=10.0)
    export_csv(grid, directory / "valid.ucp_table.csv")
    kinds = ("glbr", "asc", "footprints.geojson", "lod1.geojson", "ucp_table.csv")
    return directory, {kind: (directory / f"valid.{kind}").read_bytes() for kind in kinds}


GEO_READERS = {
    "glbr": (read_raster, Raster),
    "asc": (read_raster, Raster),
    "footprints.geojson": (read_footprints, list),
    "lod1.geojson": (read_lod1, list),
    "ucp_table.csv": (read_ucp_table, UcpGrid),
}


# About half the edits start in or next to the 42-byte GLBR header, or in
# the ASCII grid header.
@pytest.mark.parametrize("kind", GEO_READERS)
@settings(max_examples=300, deadline=None)
@given(edit=st.sampled_from(["truncate", "extend", "flip"]),
       position=st.one_of(st.integers(0, 45), st.integers(0, 700)),
       payload=st.binary(min_size=1, max_size=30))
def test_mutated_geo_file_reads_or_raises_format_error(geo_files, kind, edit, position,
                                                       payload):
    directory, valid = geo_files
    reader, result_type = GEO_READERS[kind]
    assert isinstance(reader(directory / f"valid.{kind}"), result_type)
    path = directory / f"mutated.{kind}"
    path.write_bytes(_mutate(valid[kind], edit, position, payload))
    try:
        result = reader(path)
    except FormatError:
        return
    assert isinstance(result, result_type)


def per_feature_read(path, reader):
    """``reader``'s result or FormatError message, with every feature built
    and parsed in turn, as the GeoJSON readers did before they built all
    footprints of a file at once."""
    out, seen = [], {}
    for i, feature in enumerate(json.loads(path.read_text())["features"]):
        props = feature.get("properties") or {}
        try:
            if "id" not in props:
                return f"{path}: features[{i}]: feature missing required 'id' property"
            coords = feature["geometry"]["coordinates"]
            footprint = BuildingFootprint(id=int(props["id"]), exterior=coords[0],
                                          holes=list(coords[1:]))
            if reader is read_lod1:
                if "height_m" not in props:
                    return f"{path}: feature {footprint.id} missing 'height_m'"
                Lod1Building(footprint=footprint, height=float(props["height_m"]),
                             n_cells=int(props.get("n_cells", -1)))
        except (ValueError, TypeError, GeometryError) as exc:
            return f"{path}: features[{i}]: bad value ({exc})"
        first = seen.setdefault(footprint.id, i)
        if first != i:
            return f"{path}: features[{i}]: duplicate id {footprint.id} (also features[{first}])"
        out.append(footprint.id)
    return out


# One change to a feature: none, a bad geometry, a bad or missing id, an id
# of another feature, or a bad height (which only the LoD-1 reader reads).
FEATURE_CHANGES = [{}, {}, *BAD_GEOMETRY.values(), {"id": 0}, {"id": "abc"}, {"id": None},
                   {"coordinate": float("nan")}, {"height_m": "tall"}, {"height_m": -1.0},
                   "no id", "repeat id"]


@pytest.mark.parametrize("reader", [read_footprints, read_lod1], ids=lambda r: r.__name__)
@settings(max_examples=150, deadline=None)
@given(changes=st.lists(st.sampled_from(range(len(FEATURE_CHANGES))), min_size=1, max_size=7))
def test_several_bad_features_report_the_first(tmp_path_factory, reader, changes):
    features = []
    for i, k in enumerate(changes):
        change = FEATURE_CHANGES[k]
        if change == "repeat id":
            change = {"id": max(1, i)}
        feature = lod1_collection(**{"id": i + 1, **({} if change == "no id" else change)})
        feature = feature["features"][0]
        geometry = feature["geometry"]  # each feature 10 m east of the one before
        geometry["coordinates"] = [[[x + 10 * i, y] for x, y in r] for r in geometry["coordinates"]]
        if change == "no id":
            del feature["properties"]["id"]
        features.append(feature)
    path = tmp_path_factory.mktemp("features") / "b.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    want = per_feature_read(path, reader)
    if isinstance(want, list):
        assert [r.id if reader is read_footprints else r.footprint.id for r in reader(path)] == want
    else:
        with pytest.raises(FormatError) as exc:
            reader(path)
        assert str(exc.value) == want


def test_first_of_several_bad_features_named(tmp_path):
    fc = lod1_collection(id=1)
    for fid, change in ((2, BAD_GEOMETRY["zero-area-hole"]), (3, BAD_GEOMETRY["bowtie"]),
                        (4, {"id": 0})):
        fc["features"].append(lod1_collection(**{"id": fid, **change})["features"][0])
    path = tmp_path / "b.geojson"
    path.write_text(json.dumps(fc))
    with pytest.raises(FormatError) as exc:
        read_footprints(path)
    assert str(exc.value) == (
        f"{path}: features[1]: bad value (footprint 2 hole 0: degenerate ring with zero area)"
    )
