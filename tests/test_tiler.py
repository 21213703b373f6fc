import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanmorph.errors import AlignmentError, CoverageError, ShapeError
from urbanmorph.raster import Raster, read_raster
from urbanmorph.tiler import TILE_SIZE, TilePlan, TileStack, dump_tiles, split, stitch

NODATA = -9999.0


def make(values, cell_size=1.0, origin=(0.0, 0.0)):
    arr = np.asarray(values, dtype=np.float32)
    return Raster(
        width=arr.shape[1],
        height=arr.shape[0],
        origin_x=origin[0],
        origin_y=origin[1],
        cell_size=cell_size,
        nodata=NODATA,
        values=arr,
    )


def random_raster(height, width, seed=0):
    rng = np.random.default_rng(seed)
    return make(rng.uniform(-10, 10, (height, width)).astype(np.float32))


class TestSplit:
    def test_exact_fit_single_tile(self):
        r = random_raster(TILE_SIZE, TILE_SIZE)
        plan, tiles = split([r])
        assert (plan.tile_rows, plan.tile_cols) == (1, 1)
        assert (plan.pad_right, plan.pad_bottom) == (0, 0)
        np.testing.assert_array_equal(tiles[0].channels[0], r.values)

    def test_300x300_padding(self):
        r = random_raster(300, 300, seed=2)
        plan, tiles = split([r])
        assert (plan.tile_rows, plan.tile_cols) == (2, 2)
        assert (plan.pad_right, plan.pad_bottom) == (212, 212)
        assert len(tiles) == 4
        # Bottom-right tile: only 44x44 is valid, the rest is zero.
        br = next(t for t in tiles if (t.row_index, t.col_index) == (1, 1))
        assert (br.valid_rows, br.valid_cols) == (44, 44)
        np.testing.assert_array_equal(br.channels[0][:44, :44], r.values[256:, 256:])
        np.testing.assert_array_equal(br.channels[0][44:, :], 0.0)
        np.testing.assert_array_equal(br.channels[0][:, 44:], 0.0)

    def test_multi_channel_stacked(self):
        a = random_raster(64, 64, seed=3)
        b = random_raster(64, 64, seed=4)
        _, tiles = split([a, b], tile_size=64)
        stacked = tiles[0].stacked()
        assert stacked.shape == (64, 64, 2)
        np.testing.assert_array_equal(stacked[..., 0], a.values)
        np.testing.assert_array_equal(stacked[..., 1], b.values)

    def test_tile_georef(self):
        r = make(np.zeros((100, 100), np.float32), cell_size=2.0, origin=(10.0, 20.0))
        _, tiles = split([r], tile_size=64)
        t = next(t for t in tiles if (t.row_index, t.col_index) == (1, 1))
        assert t.origin_x == 10.0 + 64 * 2.0
        assert t.origin_y == 20.0 + 64 * 2.0

    def test_misaligned_channels_rejected(self):
        a = random_raster(32, 32)
        b = make(np.zeros((32, 32), np.float32), cell_size=2.0)
        with pytest.raises(AlignmentError):
            split([a, b], tile_size=32)

    def test_empty_channel_list_rejected(self):
        with pytest.raises(AlignmentError):
            split([])


class TestStitch:
    def test_round_trip_300(self):
        r = random_raster(300, 300, seed=5)
        plan, tiles = split([r])
        back = stitch(plan, [(t.row_index, t.col_index, t.channels[0]) for t in tiles])
        assert back.values.tobytes() == r.values.tobytes()
        assert back.origin_x == r.origin_x and back.cell_size == r.cell_size

    def test_padding_does_not_leak(self):
        r = random_raster(300, 200, seed=6)
        plan, tiles = split([r])
        # Corrupt the padding region of every tile; stitch must ignore it.
        polluted = []
        for t in tiles:
            arr = t.channels[0].copy()
            arr[t.valid_rows:, :] = 1e9
            arr[:, t.valid_cols:] = 1e9
            polluted.append((t.row_index, t.col_index, arr))
        back = stitch(plan, polluted)
        np.testing.assert_array_equal(back.values, r.values)

    def test_missing_tile_named(self):
        r = random_raster(300, 300, seed=7)
        plan, tiles = split([r])
        subset = [
            (t.row_index, t.col_index, t.channels[0])
            for t in tiles
            if (t.row_index, t.col_index) != (1, 0)
        ]
        with pytest.raises(CoverageError, match=r"\(1, 0\)"):
            stitch(plan, subset)

    def test_duplicate_tile_named(self):
        r = random_raster(64, 64, seed=8)
        plan, tiles = split([r], tile_size=64)
        pair = (0, 0, tiles[0].channels[0])
        with pytest.raises(CoverageError, match=r"\(0, 0\)"):
            stitch(plan, [pair, pair])

    def test_unexpected_coordinate_named(self):
        r = random_raster(64, 64, seed=9)
        plan, tiles = split([r], tile_size=64)
        with pytest.raises(CoverageError, match=r"\(5, 5\)"):
            stitch(plan, [(5, 5, tiles[0].channels[0])])

    def test_wrong_tile_shape_rejected(self):
        r = random_raster(64, 64, seed=10)
        plan, _ = split([r], tile_size=64)
        with pytest.raises(CoverageError, match="shape"):
            stitch(plan, [(0, 0, np.zeros((32, 32), np.float32))])

    @settings(max_examples=30, deadline=None)
    @given(
        height=st.integers(min_value=1, max_value=600),
        width=st.integers(min_value=1, max_value=600),
        tile_size=st.sampled_from([16, 64, 256]),
    )
    def test_round_trip_property(self, height, width, tile_size):
        rng = np.random.default_rng(height * 1000 + width)
        r = make(rng.uniform(-5, 5, (height, width)).astype(np.float32))
        plan, tiles = split([r], tile_size=tile_size)
        assert len(tiles) == plan.tile_rows * plan.tile_cols
        back = stitch(plan, [(t.row_index, t.col_index, t.channels[0]) for t in tiles])
        assert back.values.tobytes() == r.values.tobytes()


class TestStackValidation:
    def test_channel_shape_mismatch(self):
        with pytest.raises(AlignmentError):
            TileStack(
                row_index=0,
                col_index=0,
                channels=[np.zeros((4, 4)), np.zeros((4, 5))],
                valid_rows=4,
                valid_cols=4,
            )

    def test_valid_extent_bounds(self):
        with pytest.raises(AlignmentError):
            TileStack(
                row_index=0,
                col_index=0,
                channels=[np.zeros((4, 4))],
                valid_rows=9,
                valid_cols=4,
            )


class TestDump:
    def test_dump_files_reload(self, tmp_path):
        a = random_raster(70, 70, seed=11)
        b = random_raster(70, 70, seed=12)
        _, tiles = split([a, b], tile_size=64)
        paths = dump_tiles(tiles, tmp_path / "tiles")
        assert len(paths) == 4 * 2
        assert (tmp_path / "tiles" / "tile_0_0_0.glbr").exists()
        back = read_raster(tmp_path / "tiles" / "tile_0_0_1.glbr")
        t00 = next(t for t in tiles if (t.row_index, t.col_index) == (0, 0))
        np.testing.assert_array_equal(back.values, t00.channels[1])


def test_inconsistent_plan_rejected():
    # Two 256 tiles less 10 padding cover 502 columns, not the 500 claimed.
    with pytest.raises(ShapeError, match="502x256 cells, but the source is 500x256"):
        TilePlan(
            source_width=500, source_height=256, tile_size=256, tile_rows=1, tile_cols=2,
            pad_right=10, pad_bottom=0, origin_x=0.0, origin_y=0.0, cell_size=1.0,
            nodata=NODATA,
        )
