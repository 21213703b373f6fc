import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanmorph.errors import AlignmentError, EmptySeriesError, InputError
from urbanmorph.footprints import BuildingFootprint, rasterize
from urbanmorph.lod1 import Lod1Building
from urbanmorph.raster import Raster
from urbanmorph.ucp import aggregate_all
from urbanmorph.validation import (
    MapeResult,
    PairedSeries,
    export_comparison,
    mape,
    pair_grids,
    rmse,
)


def series(pred, ref):
    pred = np.asarray(pred, dtype=np.float64)
    return PairedSeries(
        predicted=pred,
        reference=np.asarray(ref, dtype=np.float64),
        cell_ids=[(0, i) for i in range(pred.size)],
    )


def template(width, height):
    return Raster(
        width=width,
        height=height,
        origin_x=0.0,
        origin_y=0.0,
        cell_size=1.0,
        nodata=-9999.0,
        values=np.zeros((height, width), dtype=np.float32),
    )


def building(fid, x, y, w, h, height):
    fp = BuildingFootprint(
        id=fid, exterior=[(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
    )
    return Lod1Building(footprint=fp, height=height, n_cells=-1)


class TestRmse:
    def test_hand_value(self):
        # Errors 1, 2, 3, 4: RMSE = sqrt((1+4+9+16)/4) = sqrt(7.5).
        s = series([11.0, 12.0, 13.0, 14.0], [10.0, 10.0, 10.0, 10.0])
        assert rmse(s) == pytest.approx(np.sqrt(7.5))

    def test_sqrt_12_5(self):
        s = series([5.0, 0.0], [0.0, 0.0])
        assert rmse(s) == pytest.approx(np.sqrt(12.5))

    def test_zero_for_identical(self):
        s = series([1.0, 2.0], [1.0, 2.0])
        assert rmse(s) == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptySeriesError):
            rmse(series([], []))

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = rng.uniform(0, 50, 20), rng.uniform(0, 50, 20)
        assert rmse(series(a, b)) == pytest.approx(rmse(series(b, a)))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
           st.floats(-10, 10))
    def test_constant_bias_property(self, refs, bias):
        # Predicting reference + constant bias gives RMSE == |bias|.
        refs = np.array(refs)
        s = series(refs + bias, refs)
        assert rmse(s) == pytest.approx(abs(bias), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                    min_size=1, max_size=30))
    def test_bounded_by_max_error(self, pairs):
        p, r = np.array(pairs).T.reshape(2, -1)
        s = series(p, r)
        err = np.abs(p - r)
        assert err.max() / np.sqrt(len(p)) - 1e-9 <= rmse(s) <= err.max() + 1e-9


class TestMape:
    def test_hand_value(self):
        # Predictions off by 10% everywhere.
        s = series([11.0, 22.0, 33.0], [10.0, 20.0, 30.0])
        m = mape(s)
        assert m.value == pytest.approx(10.0)
        assert m.n == 3 and m.excluded == 0

    def test_floor_excludes_small_references(self):
        s = series([1.0, 5.0], [0.5, 10.0])
        m = mape(s, min_reference=1.0)
        assert m.n == 1 and m.excluded == 1
        assert m.value == pytest.approx(50.0)

    def test_all_excluded_raises(self):
        with pytest.raises(EmptySeriesError, match="floor"):
            mape(series([1.0], [0.0]))

    def test_empty_raises(self):
        with pytest.raises(EmptySeriesError):
            mape(series([], []))

    def test_scale_invariant(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(5, 50, 15)
        p = r * rng.uniform(0.8, 1.2, 15)
        m1 = mape(series(p, r))
        m2 = mape(series(3 * p, 3 * r))
        assert m1.value == pytest.approx(m2.value)

    def test_perfect_prediction_zero(self):
        r = np.array([5.0, 10.0])
        assert mape(series(r, r)).value == 0.0


class TestPairedSeriesValidation:
    def test_shape_mismatch(self):
        with pytest.raises(AlignmentError):
            PairedSeries(np.zeros(3), np.zeros(4), [(0, 0)] * 3)

    def test_id_count_mismatch(self):
        with pytest.raises(AlignmentError):
            PairedSeries(np.zeros(3), np.zeros(3), [(0, 0)])

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            PairedSeries(np.array([np.nan]), np.array([1.0]), [(0, 0)])


def _two_grids():
    bs_ref = [building(1, 10, 10, 10, 10, 20.0), building(2, 60, 10, 8, 8, 10.0)]
    bs_pred = [building(1, 10, 10, 10, 10, 22.0), building(2, 60, 10, 8, 8, 9.0)]
    mask_ref = rasterize([b.footprint for b in bs_ref], template(100, 50))
    mask_pred = rasterize([b.footprint for b in bs_pred], template(100, 50))
    ref = aggregate_all(bs_ref, mask_ref, resolution=50.0)
    pred = aggregate_all(bs_pred, mask_pred, resolution=50.0)
    return pred, ref


class TestPairGrids:
    def test_excludes_mutually_empty_cells(self):
        pred, ref = _two_grids()
        s = pair_grids(pred, ref, "mean")
        # Left cell has building 1, right cell building 2; both populated.
        assert len(s) == 2
        assert (0, 0) in s.cell_ids and (0, 1) in s.cell_ids

    def test_values_match_cells(self):
        pred, ref = _two_grids()
        s = pair_grids(pred, ref, "mean")
        i = s.cell_ids.index((0, 0))
        assert s.predicted[i] == pytest.approx(22.0)
        assert s.reference[i] == pytest.approx(20.0)

    def test_geometry_mismatch(self):
        pred, ref = _two_grids()
        bs = [building(1, 5, 5, 4, 4, 3.0)]
        other = aggregate_all(bs, rasterize([b.footprint for b in bs], template(40, 40)),
                              resolution=40.0)
        with pytest.raises(AlignmentError):
            pair_grids(pred, other, "mean")


class TestExport:
    def test_files_and_metrics(self, tmp_path):
        pred, ref = _two_grids()
        out = tmp_path / "val"
        export_comparison(pred, ref, out)
        assert (out / "metrics.csv").exists()
        assert (out / "scatter_mean.csv").exists()
        assert (out / "hist_comparison.csv").exists()
        rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()]
        metrics = {row[0]: dict(zip(rows[0], row)) for row in rows[1:]}
        # Heights off by (+2, -1): RMSE = sqrt((4+1)/2).
        assert float(metrics["mean"]["rmse"]) == pytest.approx(np.sqrt(2.5))
        # MAPE = mean(2/20, 1/10) * 100 = 10%.
        assert float(metrics["mean"]["mape"]) == pytest.approx(10.0)

    def test_scatter_contents(self, tmp_path):
        pred, ref = _two_grids()
        out = tmp_path / "val"
        export_comparison(pred, ref, out)
        lines = (out / "scatter_mean.csv").read_text().splitlines()
        assert lines[0] == "cell_row,cell_col,predicted,reference"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 2
        got = {(r[0], r[1]): (float(r[2]), float(r[3])) for r in rows}
        assert got[("0", "0")] == (pytest.approx(22.0), pytest.approx(20.0))

    def test_hist_comparison_shape(self, tmp_path):
        pred, ref = _two_grids()
        out = tmp_path / "val"
        export_comparison(pred, ref, out)
        lines = (out / "hist_comparison.csv").read_text().splitlines()
        assert lines[0] == "cell_row,cell_col,bin,predicted_fraction,reference_fraction"
        assert len(lines) == 1 + 2 * pred.nbins


def test_pair_grids_rejects_other_fine_extent():
    # 100 x 50 and 90 x 50 masks both give one row of two 50 m cells at the
    # same origin; only the fine extent, and so the edge cell area, differs.
    bs = [building(1, 10, 10, 10, 10, 20.0)]
    wide = aggregate_all(bs, rasterize([bs[0].footprint], template(100, 50)), resolution=50.0)
    narrow = aggregate_all(bs, rasterize([bs[0].footprint], template(90, 50)), resolution=50.0)
    assert (wide.geom.rows, wide.geom.cols) == (narrow.geom.rows, narrow.geom.cols) == (1, 2)
    assert wide.geom.resolution == narrow.geom.resolution
    assert (wide.geom.origin_x, wide.geom.origin_y) == (narrow.geom.origin_x, narrow.geom.origin_y)
    with pytest.raises(AlignmentError):
        pair_grids(wide, narrow, "mean")
