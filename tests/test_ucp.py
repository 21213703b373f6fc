import math

import numpy as np
import pytest

from urbanmorph import footprints
from urbanmorph.errors import AlignmentError, ShapeError
from urbanmorph.footprints import (
    BuildingFootprint,
    FootprintMask,
    projected_width,
    rasterize,
)
from urbanmorph.lod1 import Lod1Building
from urbanmorph.raster import Raster, read_raster
from urbanmorph.ucp import (
    aggregate_all,
    covered_area,
    export_csv,
    export_rasters,
)

NODATA = -9999.0


def template(width, height, cell_size=1.0):
    return Raster(
        width=width,
        height=height,
        origin_x=0.0,
        origin_y=0.0,
        cell_size=cell_size,
        nodata=NODATA,
        values=np.zeros((height, width), dtype=np.float32),
    )


def rect(fid, x, y, w, h):
    return BuildingFootprint(
        id=fid, exterior=[(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
    )


def building(fid, x, y, w, h, height):
    return Lod1Building(footprint=rect(fid, x, y, w, h), height=height, n_cells=-1)


class TestGeometry:
    def test_exact_division(self):
        mask = rasterize([rect(1, 0, 0, 2, 2)], template(200, 100))
        g = aggregate_all([], mask, resolution=100.0).geom
        assert (g.rows, g.cols) == (1, 2)
        assert g.res_px == 100

    def test_partial_edge_cells(self):
        mask = rasterize([rect(1, 0, 0, 2, 2)], template(250, 130))
        g = aggregate_all([], mask, resolution=100.0).geom
        assert (g.rows, g.cols) == (2, 3)
        area = covered_area(g)
        assert area[0, 0] == 100 * 100
        assert area[0, 2] == 100 * 50  # right edge: 50 px wide
        assert area[1, 0] == 30 * 100  # bottom edge: 30 px tall
        assert area[1, 2] == 30 * 50

    def test_non_multiple_resolution_rejected(self):
        mask = rasterize([rect(1, 0, 0, 2, 2)], template(100, 100, cell_size=3.0))
        with pytest.raises(AlignmentError):
            aggregate_all([], mask, resolution=100.0)


class TestLambdaP:
    def test_hand_value(self):
        # One 10x10 m building in a 100x100 m cell: lambda_p = 0.01.
        mask = rasterize([rect(1, 20, 30, 10, 10)], template(100, 100))
        assert aggregate_all([], mask, resolution=100.0).lambda_p[0, 0] == pytest.approx(0.01)

    def test_empty_is_zero(self):
        with pytest.warns(UserWarning):
            mask = rasterize([rect(1, 500, 500, 2, 2)], template(100, 100))
        np.testing.assert_array_equal(aggregate_all([], mask, resolution=50.0).lambda_p, 0.0)

    def test_partial_cell_uses_covered_area(self):
        # 150x100 mask at 100 m: right cell is 50 px wide.  A 10x10 building
        # fully inside it gives 100 / 5000 = 0.02.
        mask = rasterize([rect(1, 110, 40, 10, 10)], template(150, 100))
        lp = aggregate_all([], mask, resolution=100.0).lambda_p
        assert lp[0, 1] == pytest.approx(100 / 5000)


class TestLambdaB:
    def test_slab_hand_value(self):
        # 10x10 slab, 5 m tall, in a 100x100 cell:
        #   (roof 100 + perimeter 40 * 5) / 10000 = 0.03
        b = building(1, 45, 45, 10, 10, 5.0)
        mask = rasterize([b.footprint], template(100, 100))
        assert aggregate_all([b], mask, resolution=100.0).lambda_b[0, 0] == pytest.approx(0.03)

    def test_at_least_lambda_p(self):
        rng = np.random.default_rng(3)
        bs = [
            building(i + 1, 10 + 20 * i, 10, rng.uniform(4, 12), rng.uniform(4, 12),
                     rng.uniform(0, 30))
            for i in range(4)
        ]
        mask = rasterize([b.footprint for b in bs], template(100, 100))
        grid = aggregate_all(bs, mask, resolution=50.0)
        assert np.all(grid.lambda_b >= grid.lambda_p - 1e-12)

    def test_zero_height_equals_lambda_p(self):
        b = building(1, 10, 10, 20, 20, 0.0)
        mask = rasterize([b.footprint], template(100, 100))
        grid = aggregate_all([b], mask, resolution=100.0)
        assert grid.lambda_b[0, 0] == pytest.approx(grid.lambda_p[0, 0])


class TestHeightStats:
    def test_mean_std_pair(self):
        bs = [building(1, 10, 10, 4, 4, 5.0), building(2, 30, 30, 4, 4, 15.0)]
        mask = rasterize([b.footprint for b in bs], template(100, 100))
        grid = aggregate_all(bs, mask, resolution=100.0)
        mean, std, count = grid.mean, grid.std, grid.count
        assert mean[0, 0] == pytest.approx(10.0)
        assert std[0, 0] == pytest.approx(5.0)  # population std of {5, 15}
        assert count[0, 0] == 2

    def test_single_building_zero_std(self):
        bs = [building(1, 10, 10, 4, 4, 7.0)]
        mask = rasterize([b.footprint for b in bs], template(50, 50))
        grid = aggregate_all(bs, mask, resolution=50.0)
        mean, std, count = grid.mean, grid.std, grid.count
        assert (mean[0, 0], std[0, 0], count[0, 0]) == (7.0, 0.0, 1)

    def test_centroid_assignment(self):
        # Building straddles the 50 m boundary, centroid at x = 48: left cell.
        bs = [building(1, 40, 10, 16, 4, 9.0)]
        mask = rasterize([b.footprint for b in bs], template(100, 50))
        count = aggregate_all(bs, mask, resolution=50.0).count
        assert count[0, 0] == 1 and count[0, 1] == 0

    def test_area_weighted_differs_from_mean(self):
        # 100 m2 at 10 m and 400 m2 at 40 m:
        #   unweighted 25; area-weighted (1000 + 16000)/500 = 34.
        bs = [building(1, 5, 5, 10, 10, 10.0), building(2, 30, 30, 20, 20, 40.0)]
        mask = rasterize([b.footprint for b in bs], template(100, 100))
        grid = aggregate_all(bs, mask, resolution=100.0)
        mean, aw = grid.mean, grid.area_weighted
        assert mean[0, 0] == pytest.approx(25.0)
        assert aw[0, 0] == pytest.approx(34.0)


class TestHistogram:
    def test_bin_boundary_half_open(self):
        # Height exactly 5.0 falls in bin 1 ([5, 10)), not bin 0.
        bs = [building(1, 5, 5, 4, 4, 5.0)]
        mask = rasterize([b.footprint for b in bs], template(50, 50))
        h = aggregate_all(bs, mask, resolution=50.0).hist
        assert h[0, 0, 0] == 0.0
        assert h[0, 0, 1] == 1.0

    def test_cap_bin_open_ended(self):
        bs = [building(1, 5, 5, 4, 4, 200.0), building(2, 20, 20, 4, 4, 75.0)]
        mask = rasterize([b.footprint for b in bs], template(50, 50))
        h = aggregate_all(bs, mask, resolution=50.0).hist
        assert h.shape[-1] == 16
        assert h[0, 0, 15] == 1.0  # both land in the open-ended top bin

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(9)
        bs = [
            building(i + 1, 6 * i + 1, 10, 4, 4, rng.uniform(0, 90))
            for i in range(8)
        ]
        mask = rasterize([b.footprint for b in bs], template(50, 50))
        h = aggregate_all(bs, mask, resolution=50.0).hist
        assert h[0, 0].sum() == pytest.approx(1.0)
        assert h[0, 0].min() >= 0.0

    def test_empty_cell_all_zero(self):
        bs = [building(1, 5, 5, 4, 4, 10.0)]
        mask = rasterize([b.footprint for b in bs], template(100, 50))
        h = aggregate_all(bs, mask, resolution=50.0).hist
        np.testing.assert_array_equal(h[0, 1], 0.0)

    def test_bad_bin_width(self):
        bs = []
        mask = rasterize([rect(1, 5, 5, 4, 4)], template(50, 50))
        with pytest.raises(ShapeError):
            aggregate_all(bs, mask, resolution=50.0, bin_width=0.0)


class TestLambdaF:
    def test_slab_hand_value(self):
        # 10 m wide slab, 20 m tall, north wind: 10*20 / 10000 = 0.02.
        b = building(1, 45, 45, 10, 10, 20.0)
        mask = rasterize([b.footprint], template(100, 100))
        grid = aggregate_all([b], mask, resolution=100.0, directions=(0.0,))
        assert grid.lambda_f[0.0][0, 0] == pytest.approx(0.02)

    def test_opposite_directions_equal(self):
        rng = np.random.default_rng(4)
        bs = [
            building(i + 1, rng.uniform(5, 80), rng.uniform(5, 80),
                     rng.uniform(3, 10), rng.uniform(3, 10), rng.uniform(2, 40))
            for i in range(6)
        ]
        mask = rasterize([b.footprint for b in bs], template(100, 100))
        grid = aggregate_all(bs, mask, resolution=50.0, directions=(30.0, 210.0))
        np.testing.assert_allclose(grid.lambda_f[30.0], grid.lambda_f[210.0], rtol=1e-9)

    def test_rectangle_direction_dependence(self):
        # 20 m (east-west) x 5 m (north-south) slab, 10 m tall.
        b = building(1, 40, 45, 20, 5, 10.0)
        mask = rasterize([b.footprint], template(100, 100))
        grid = aggregate_all([b], mask, resolution=100.0, directions=(0.0, 90.0))
        assert grid.lambda_f[0.0][0, 0] == pytest.approx(20 * 10 / 10000)
        assert grid.lambda_f[90.0][0, 0] == pytest.approx(5 * 10 / 10000)


class TestAggregateBruteForce:
    def test_matches_per_building_loop(self):
        rng = np.random.default_rng(21)
        size = 300
        res = 100.0
        bs = []
        fid = 1
        for gy in range(10):
            for gx in range(5):
                x = gx * 55 + rng.uniform(2, 10)
                y = gy * 28 + rng.uniform(1, 5)
                w, h = rng.uniform(5, 20, 2)
                bs.append(building(fid, x, y, w, h, rng.uniform(2, 80)))
                fid += 1
        mask = rasterize([b.footprint for b in bs], template(size, size))
        grid = aggregate_all(bs, mask, resolution=res, directions=(0.0, 90.0))

        # Brute force per cell.
        for row in range(3):
            for col in range(3):
                members = []
                for b in bs:
                    cx, cy = b.footprint.centroid
                    if (math.floor(cx / res), math.floor(cy / res)) == (col, row):
                        members.append(b)
                assert grid.count[row, col] == len(members)
                if members:
                    hs = np.array([b.height for b in members])
                    assert grid.mean[row, col] == pytest.approx(hs.mean(), rel=1e-9)
                    assert grid.std[row, col] == pytest.approx(hs.std(), rel=1e-9)
                    areas = np.array([b.footprint.area for b in members])
                    assert grid.area_weighted[row, col] == pytest.approx(
                        float((areas * hs).sum() / areas.sum()), rel=1e-9
                    )
                    walls = sum(
                        b.footprint.perimeter * b.height for b in members
                    )
                    roof = int(
                        (mask.source_ids[
                            int(row * res) : int((row + 1) * res),
                            int(col * res) : int((col + 1) * res),
                        ] > 0).sum()
                    )
                    assert grid.lambda_p[row, col] == pytest.approx(roof / res**2, rel=1e-9)
                    assert grid.lambda_b[row, col] == pytest.approx(
                        (roof + walls) / res**2, rel=1e-9
                    )
                    front = sum(
                        projected_width(b.footprint, 90.0) * b.height for b in members
                    )
                    assert grid.lambda_f[90.0][row, col] == pytest.approx(
                        front / res**2, rel=1e-9
                    )
                    # Histogram from the member heights directly.
                    expect_hist = np.zeros(grid.nbins)
                    for h in hs:
                        expect_hist[min(int(h // 5.0), grid.nbins - 1)] += 1
                    np.testing.assert_allclose(
                        grid.hist[row, col], expect_hist / len(members), rtol=1e-12
                    )

    def test_id_relabeling_invariance(self):
        rng = np.random.default_rng(22)
        bs = [
            building(i + 1, 8 * i + 2, 10, 5, 5, rng.uniform(3, 30))
            for i in range(5)
        ]
        relabeled = [
            Lod1Building(
                footprint=BuildingFootprint(
                    id=b.footprint.id + 100, exterior=b.footprint.exterior
                ),
                height=b.height,
                n_cells=b.n_cells,
            )
            for b in bs
        ]
        m1 = rasterize([b.footprint for b in bs], template(50, 50))
        m2 = rasterize([b.footprint for b in relabeled], template(50, 50))
        g1 = aggregate_all(bs, m1, resolution=50.0)
        g2 = aggregate_all(relabeled, m2, resolution=50.0)
        np.testing.assert_allclose(g1.mean, g2.mean)
        np.testing.assert_allclose(g1.lambda_b, g2.lambda_b)
        np.testing.assert_allclose(g1.hist, g2.hist)


    def test_rings_measured_once_when_built(self, monkeypatch):
        calls = []

        def counting_check_and_measure(table):
            calls.extend(range(len(table.offsets) - 1))  # one entry per ring
            return check_and_measure(table)

        check_and_measure = footprints._check_and_measure
        monkeypatch.setattr(footprints, "_check_and_measure", counting_check_and_measure)
        bs = [building(i + 1, 20 * i + 2, 10, 8, 8, 5.0 + i) for i in range(3)]
        holed = BuildingFootprint(
            id=4, exterior=[(62, 10), (72, 10), (72, 20), (62, 20)],
            holes=[[(64, 12), (66, 12), (66, 14), (64, 14)]],
        )
        bs.append(Lod1Building(footprint=holed, height=8.0, n_cells=-1))
        assert len(calls) == 5  # one per ring: 4 exteriors and 1 hole
        mask = rasterize([b.footprint for b in bs], template(100, 100))
        for resolution in (50.0, 100.0):
            aggregate_all(bs, mask, resolution=resolution,
                          directions=(0.0, 45.0, 90.0, 135.0))
        assert len(calls) == 5


class TestNesting:
    def test_coarse_lambda_p_is_weighted_mean_of_fine(self):
        rng = np.random.default_rng(23)
        bs = [
            building(i * 4 + j + 1, 22 * i + 2, 22 * j + 2,
                     rng.uniform(4, 15), rng.uniform(4, 15), rng.uniform(2, 40))
            for i in range(4) for j in range(4)
        ]
        mask = rasterize([b.footprint for b in bs], template(90, 90))
        coarse = aggregate_all(bs, mask, resolution=90.0)
        fine = aggregate_all(bs, mask, resolution=30.0)
        w = covered_area(fine.geom)
        expect = float((fine.lambda_p * w).sum() / w.sum())
        assert coarse.lambda_p[0, 0] == pytest.approx(expect, rel=1e-12)


class TestExports:
    def _grid(self):
        bs = [building(1, 10, 10, 10, 10, 12.0), building(2, 60, 60, 8, 8, 3.0)]
        mask = rasterize([b.footprint for b in bs], template(100, 100))
        return aggregate_all(bs, mask, resolution=50.0, directions=(0.0, 90.0))

    def test_rasters_reload(self, tmp_path):
        grid = self._grid()
        paths = export_rasters(grid, tmp_path / "ucp")
        names = {p.split("/")[-1] for p in paths}
        assert "ucp_mean_50m.glbr" in names
        assert "ucp_lambda_f_90_50m.glbr" in names
        back = read_raster(tmp_path / "ucp" / "ucp_lambda_p_50m.glbr")
        assert back.cell_size == 50.0
        np.testing.assert_allclose(back.values, grid.lambda_p, atol=1e-7)

    def test_csv_layout(self, tmp_path):
        grid = self._grid()
        path = tmp_path / "ucp.csv"
        export_csv(grid, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:7] == [
            "cell_row", "cell_col", "count", "mean", "std", "lambda_p", "lambda_b",
        ]
        assert "lambda_f_0" in header and "lambda_f_90" in header
        assert header[-1] == f"hist_bin_{grid.nbins - 1}"
        assert len(lines) == 1 + grid.geom.rows * grid.geom.cols
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[3]) == pytest.approx(grid.mean[0, 0])

    def test_scalar_field_lookup(self):
        grid = self._grid()
        np.testing.assert_array_equal(grid.scalar_fields()["lambda_p"], grid.lambda_p)
        with pytest.raises(KeyError):
            grid.scalar_fields()["nope"]


def export_csv_oracle(grid, path):
    """The per-cell CSV writer that ``export_csv`` replaced, kept as its oracle."""
    directions = sorted(grid.lambda_f)
    header = ["cell_row", "cell_col", "count", "mean", "std", "lambda_p", "lambda_b"]
    header += [f"lambda_f_{d:g}" for d in directions]
    header += [f"hist_bin_{k}" for k in range(grid.nbins)]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in range(grid.geom.rows):
            for col in range(grid.geom.cols):
                vals = [
                    str(row),
                    str(col),
                    str(int(grid.count[row, col])),
                    repr(float(grid.mean[row, col])),
                    repr(float(grid.std[row, col])),
                    repr(float(grid.lambda_p[row, col])),
                    repr(float(grid.lambda_b[row, col])),
                ]
                vals += [repr(float(grid.lambda_f[d][row, col])) for d in directions]
                vals += [repr(float(v)) for v in grid.hist[row, col]]
                f.write(",".join(vals) + "\n")


class TestUcpGridFields:
    DIRECTIONS = (90.0, 0.0, 135.0, 45.0)

    def _grid(self):
        # 130 x 110 m at 50 m: partial edge cells in both axes, three
        # buildings in cell (0, 0), one in (1, 1) and (2, 2), the rest empty.
        bs = [
            building(1, 2, 2, 10, 10, 12.0),
            building(2, 20, 5, 8, 12, 3.5),
            building(3, 30, 30, 6, 6, 41.0),
            building(4, 60, 60, 20, 9, 7.25),
            building(5, 102, 101, 18, 6, 77.0),
        ]
        mask = rasterize([b.footprint for b in bs], template(130, 110))
        return aggregate_all(bs, mask, resolution=50.0, directions=self.DIRECTIONS)

    def test_csv_golden_bytes(self, tmp_path):
        grid = self._grid()
        assert (grid.geom.rows, grid.geom.cols) == (3, 3)
        assert grid.count[0, 0] == 3 and (grid.count == 0).sum() == 6
        grid.mean[0, 1] = 0.1
        grid.std[1, 1] = 1 / 3
        grid.lambda_f[45.0][2, 2] = 1e-17
        grid.lambda_b[2, 0] = -0.0
        grid.hist[0, 0, 3] = 2 / 3
        export_csv(grid, tmp_path / "new.csv")
        export_csv_oracle(grid, tmp_path / "old.csv")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        for text in (b",0.1,", b",0.3333333333333333,", b",1e-17,", b",-0.0,"):
            assert text in new

    def test_raster_names_unchanged(self, tmp_path):
        paths = export_rasters(self._grid(), tmp_path)
        expect = [
            "ucp_mean_50m.glbr", "ucp_std_50m.glbr", "ucp_area_weighted_50m.glbr",
            "ucp_lambda_p_50m.glbr", "ucp_lambda_b_50m.glbr", "ucp_count_50m.glbr",
            "ucp_lambda_f_90_50m.glbr", "ucp_lambda_f_0_50m.glbr",
            "ucp_lambda_f_135_50m.glbr", "ucp_lambda_f_45_50m.glbr",
        ]
        assert [p.split("/")[-1] for p in paths] == expect
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expect)

    def test_scalar_field_names(self):
        grid = self._grid()
        assert list(grid.scalar_fields()) == [
            "mean", "std", "area_weighted", "lambda_p", "lambda_b", "count",
            "lambda_f_90", "lambda_f_0", "lambda_f_135", "lambda_f_45",
        ]
        fields = grid.scalar_fields()
        assert fields["lambda_f_90"] is grid.lambda_f[90.0]
        np.testing.assert_array_equal(fields["count"], grid.count)
        with pytest.raises(KeyError):
            fields["lambda_f_30"]
