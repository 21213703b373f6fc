"""Every file reader turns malformed input into an ``UrbanMorphError``."""

import json

import numpy as np
import pytest

from urbanmorph.errors import FormatError, UrbanMorphError
from urbanmorph.footprints import read_footprints
from urbanmorph.lod1 import read_lod1
from urbanmorph.network import read_weights
from urbanmorph.pointcloud import read_points_csv
from urbanmorph.raster import _GLBR_HEADER, read_raster

READERS = [read_raster, read_footprints, read_lod1, read_points_csv, read_weights]


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
     ("NODATA_value -9999", "NODATA_value nan")],
)
def test_ascii_grid_bad_header_value(tmp_path, field, bad):
    path = tmp_path / "r.asc"
    path.write_text(GRID)
    assert read_raster(path).values[0, 0] == 5.0
    path.write_text(GRID.replace(field, bad))
    with pytest.raises(FormatError, match="r.asc"):
        read_raster(path)


def test_glbr_nan_nodata(tmp_path):
    path = tmp_path / "r.glbr"
    header = _GLBR_HEADER.pack(b"GLBR", 1, 1, 1, 0.0, 0.0, 1.0, np.float32("nan"))
    path.write_bytes(header + np.zeros(1, "<f4").tobytes())
    with pytest.raises(FormatError, match="r.glbr"):
        read_raster(path)


def lod1_collection(**changes):
    """A one-building LoD-1 FeatureCollection with ``changes`` applied to it."""
    props = {"id": 1, "height_m": 9.5, "n_cells": 4}
    ring = [[0, 0], [2, 0], [2, 2], [0, 2], [0, 0]]
    for key, value in changes.items():
        if key == "coordinate":
            ring[1] = [value, 0]
        else:
            props[key] = value
    feature = {"type": "Feature", "properties": props,
               "geometry": {"type": "Polygon", "coordinates": [ring]}}
    return {"type": "FeatureCollection", "features": [feature]}


@pytest.mark.parametrize(
    "reader, change",
    [(read_footprints, {"id": "abc"}), (read_footprints, {"id": None}),
     (read_footprints, {"coordinate": "east"}), (read_footprints, {"coordinate": None}),
     (read_footprints, {"coordinate": float("nan")}),
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


@pytest.mark.parametrize("features", [5, [1], ["feature"]])
def test_geojson_features_not_objects(tmp_path, features):
    path = tmp_path / "b.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    for reader in (read_footprints, read_lod1):
        with pytest.raises(FormatError, match="list of objects"):
            reader(path)
