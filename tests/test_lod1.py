import numpy as np
import pytest

from urbanmorph.errors import FormatError
from urbanmorph.footprints import BuildingFootprint, rasterize
from urbanmorph.lod1 import Lod1Building, assign_heights, read_lod1, write_lod1
from urbanmorph.raster import Raster

NODATA = -9999.0


def make_raster(values, cell_size=1.0):
    arr = np.asarray(values, dtype=np.float32)
    return Raster(
        width=arr.shape[1],
        height=arr.shape[0],
        origin_x=0.0,
        origin_y=0.0,
        cell_size=cell_size,
        nodata=NODATA,
        values=arr,
    )


def rect(fid, x, y, w, h):
    return BuildingFootprint(
        id=fid, exterior=[(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
    )


def template(width, height):
    return make_raster(np.zeros((height, width), np.float32))


class TestAssignHeights:
    def test_mean_of_three_cells(self):
        f = rect(1, 0, 0, 3, 1)
        mask = rasterize([f], template(3, 1))
        pred = make_raster([[10.0, 12.0, 11.0]])
        out = assign_heights(pred, mask, [f])
        assert out[0].height == pytest.approx(11.0)
        assert out[0].n_cells == 3

    def test_median_statistic(self):
        f = rect(1, 0, 0, 3, 1)
        mask = rasterize([f], template(3, 1))
        pred = make_raster([[1.0, 100.0, 2.0]])
        out = assign_heights(pred, mask, [f], statistic="median")
        assert out[0].height == pytest.approx(2.0)

    def test_unknown_statistic(self):
        f = rect(1, 0, 0, 1, 1)
        mask = rasterize([f], template(1, 1))
        with pytest.raises(ValueError, match="statistic"):
            assign_heights(make_raster([[1.0]]), mask, [f], statistic="mode")

    def test_no_cells_warns_and_zeroes(self):
        inside = rect(1, 0, 0, 2, 2)
        with pytest.warns(UserWarning):
            mask = rasterize([inside, rect(2, 50, 50, 2, 2)], template(4, 4))
        pred = make_raster(np.full((4, 4), 9.0, np.float32))
        with pytest.warns(UserWarning, match="footprint 2"):
            out = assign_heights(pred, mask, [inside, rect(2, 50, 50, 2, 2)])
        assert out[1].height == 0.0
        assert out[1].n_cells == 0

    def test_ordered_by_id(self):
        fps = [rect(9, 0, 0, 1, 1), rect(2, 2, 0, 1, 1), rect(5, 0, 2, 1, 1)]
        mask = rasterize(fps, template(4, 4))
        out = assign_heights(make_raster(np.ones((4, 4), np.float32)), mask, fps)
        assert [b.footprint.id for b in out] == [2, 5, 9]

    def test_overlap_owned_by_highest_id(self):
        a = rect(1, 0, 0, 3, 3)
        b = rect(2, 1, 1, 3, 3)
        mask = rasterize([a, b], template(4, 4))
        pred = make_raster(np.zeros((4, 4), np.float32))
        pred.values[:3, :3] = 10.0  # footprint 1 region
        pred.values[1:4, 1:4] = 20.0  # footprint 2 wins the overlap
        out = assign_heights(pred, mask, [a, b])
        # Footprint 1 keeps only the 5 non-overlap cells, all 10.0.
        assert out[0].height == pytest.approx(10.0)
        assert out[0].n_cells == 5
        assert out[1].height == pytest.approx(20.0)
        assert out[1].n_cells == 9

    def test_negative_means_clamped(self):
        f = rect(1, 0, 0, 2, 1)
        mask = rasterize([f], template(2, 1))
        out = assign_heights(make_raster([[-3.0, -1.0]]), mask, [f])
        assert out[0].height == 0.0
        assert out[0].n_cells == 2

    def test_matches_masked_loop_oracle(self):
        rng = np.random.default_rng(14)
        size = 60
        fps = []
        fid = 1
        for gy in range(5):
            for gx in range(10):
                x = gx * 6 + rng.uniform(0, 1)
                y = gy * 12 + rng.uniform(0, 2)
                fps.append(rect(fid, x, y, rng.uniform(2, 4), rng.uniform(2, 8)))
                fid += 1
        t = template(size, size)
        mask = rasterize(fps, t)
        pred = make_raster(rng.uniform(0, 40, (size, size)).astype(np.float32))
        out = assign_heights(pred, mask, fps)
        for b in out:
            cells = pred.values[mask.source_ids == b.footprint.id]
            assert b.n_cells == cells.size
            if cells.size:
                assert b.height == pytest.approx(
                    float(np.mean(cells.astype(np.float64))), rel=1e-9
                )

    def test_constant_field_gives_constant_height(self):
        fps = [rect(1, 1, 1, 3, 2), rect(2, 6, 1, 2, 2)]
        mask = rasterize(fps, template(10, 5))
        out = assign_heights(make_raster(np.full((5, 10), 17.5, np.float32)), mask, fps)
        assert all(b.height == pytest.approx(17.5) for b in out)

    def test_scaling_property(self):
        rng = np.random.default_rng(15)
        f = rect(1, 0, 0, 4, 4)
        mask = rasterize([f], template(6, 6))
        vals = rng.uniform(0, 30, (6, 6)).astype(np.float32)
        h1 = assign_heights(make_raster(vals), mask, [f])[0].height
        h2 = assign_heights(make_raster(vals * 2), mask, [f])[0].height
        assert h2 == pytest.approx(2 * h1, rel=1e-6)


class TestBuildingValidation:
    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            Lod1Building(footprint=rect(1, 0, 0, 1, 1), height=-1.0, n_cells=3)

    def test_height_without_cells_rejected(self):
        with pytest.raises(ValueError, match="without cells"):
            Lod1Building(footprint=rect(1, 0, 0, 1, 1), height=5.0, n_cells=0)

    def test_unknown_cell_count_allowed(self):
        b = Lod1Building(footprint=rect(1, 0, 0, 1, 1), height=5.0, n_cells=-1)
        assert b.height == 5.0


class TestGeoJson:
    def test_round_trip(self, tmp_path):
        buildings = [
            Lod1Building(footprint=rect(1, 0, 0, 4, 2), height=5.0, n_cells=8),
            Lod1Building(footprint=rect(3, 10, 10, 2, 2), height=17.5, n_cells=4),
        ]
        path = tmp_path / "lod1.geojson"
        write_lod1(buildings, path)
        back = read_lod1(path)
        assert [b.footprint.id for b in back] == [1, 3]
        assert [b.height for b in back] == [5.0, 17.5]
        assert [b.n_cells for b in back] == [8, 4]

    def test_float32_heights_round_trip(self, tmp_path):
        h = float(np.float32(13.7))
        path = tmp_path / "lod1.geojson"
        write_lod1([Lod1Building(footprint=rect(1, 0, 0, 1, 1), height=h, n_cells=1)], path)
        back = read_lod1(path)
        assert np.float32(back[0].height) == np.float32(13.7)

    def test_height_reads_back_as_its_float32(self, tmp_path):
        # The file holds the 9-digit text 43.563736 of float32 43.5637359...;
        # the reader gives back that float32, not the decimal, so that ``ucp``
        # aggregates the heights ``lod1`` computed.
        h = float(np.float32(43.563736))
        path = tmp_path / "lod1.geojson"
        write_lod1([Lod1Building(footprint=rect(1, 0, 0, 1, 1), height=h, n_cells=1)], path)
        assert '"height_m": 43.563736,' in path.read_text()
        assert read_lod1(path)[0].height == h != 43.563736

    # A height that float32 rounds down to its largest value reads as that;
    # one that it rounds up to inf is rejected.
    @pytest.mark.parametrize("text, height", [
        ("3.4028235e+38", float(np.finfo(np.float32).max)),
        ("3.4028236e+38", None), ("1e39", None),
    ])
    def test_height_at_the_float32_limit(self, tmp_path, text, height):
        path = tmp_path / "lod1.geojson"
        write_lod1([Lod1Building(footprint=rect(1, 0, 0, 1, 1), height=1.0, n_cells=1)], path)
        path.write_text(path.read_text().replace('"height_m": 1.0', f'"height_m": {text}'))
        if height is not None:
            assert read_lod1(path)[0].height == height
            return
        with pytest.raises(FormatError, match=r"features\[0\]: bad value \(building 1: height inf"):
            read_lod1(path)

    def test_missing_height_rejected(self, tmp_path):
        import json

        path = tmp_path / "bad.geojson"
        path.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "properties": {"id": 4},
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
                },
            }],
        }))
        with pytest.raises(FormatError, match="height_m"):
            read_lod1(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text("not json at all")
        with pytest.raises(FormatError):
            read_lod1(path)
