import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanmorph.errors import AlignmentError, ShapeError
from urbanmorph.raster import Raster
from urbanmorph.tiler import TILE_SIZE, split, stitch

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


def offsets(r, size):
    """The (row, column) of each tile's first cell of ``r``, in tile order."""
    return [(r0, c0) for r0 in range(0, r.height, size) for c0 in range(0, r.width, size)]


class TestSplit:
    def test_exact_fit_single_tile(self):
        r = random_raster(TILE_SIZE, TILE_SIZE)
        grid, tiles = split([r])
        assert grid is r
        assert tiles.shape == (1, TILE_SIZE, TILE_SIZE, 1) and len(tiles) == 1
        assert tiles.dtype == np.float32 and tiles.flags.c_contiguous
        np.testing.assert_array_equal(tiles[0, ..., 0], r.values)

    def test_300x300_padding(self):
        r = random_raster(300, 300, seed=2)
        _, tiles = split([r])
        assert tiles.shape == (4, TILE_SIZE, TILE_SIZE, 1)
        # Bottom-right tile, the last in row-major order: only 44x44 is valid.
        br = tiles[3, ..., 0]
        np.testing.assert_array_equal(br[:44, :44], r.values[256:, 256:])
        np.testing.assert_array_equal(br[44:, :], 0.0)
        np.testing.assert_array_equal(br[:, 44:], 0.0)
        # Top-right tile: full height, 44 valid columns.
        np.testing.assert_array_equal(tiles[1, :, :44, 0], r.values[:256, 256:])
        np.testing.assert_array_equal(tiles[1, :, 44:, 0], 0.0)

    def test_multi_channel_stacked(self):
        chans = [random_raster(64, 64, seed=s) for s in (3, 4, 5)]
        _, tiles = split(chans, tile_size=64)
        assert tiles.shape == (1, 64, 64, 3)
        for k, ch in enumerate(chans):
            np.testing.assert_array_equal(tiles[0, ..., k], ch.values)

    def test_channel_order_in_every_tile(self):
        # Constant channels make the channel index visible in every cell,
        # padding aside.
        chans = [make(np.full((70, 130), k + 1.0, np.float32)) for k in range(4)]
        grid, tiles = split(chans, tile_size=64)
        assert grid is chans[0] and len(tiles) == len(offsets(grid, 64)) == 2 * 3
        for k in range(4):
            np.testing.assert_array_equal(tiles[0, ..., k], k + 1.0)
            np.testing.assert_array_equal(tiles[5, :6, :2, k], k + 1.0)
            np.testing.assert_array_equal(tiles[5, 6:, :, k], 0.0)

    def test_tile_georef(self):
        r = make(np.arange(10000, dtype=np.float32).reshape(100, 100), 2.0, (10.0, 20.0))
        grid, tiles = split([r], tile_size=64)
        assert grid is r
        assert offsets(grid, 64) == [(0, 0), (0, 64), (64, 0), (64, 64)]
        for tile, (r0, c0) in zip(tiles, offsets(grid, 64)):
            window = r.values[r0 : r0 + 64, c0 : c0 + 64]
            np.testing.assert_array_equal(tile[: window.shape[0], : window.shape[1], 0], window)
        np.testing.assert_array_equal(tiles[3, :36, :36, 0], r.values[64:, 64:])
        back = stitch(grid, tiles[..., 0])
        assert (back.origin_x, back.origin_y, back.cell_size) == (10.0, 20.0, 2.0)
        assert (back.width, back.height, back.nodata) == (100, 100, NODATA)

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
        grid, tiles = split([r])
        back = stitch(grid, tiles[..., 0])
        assert back.values.tobytes() == r.values.tobytes()
        assert back.origin_x == r.origin_x and back.cell_size == r.cell_size
        assert back.nodata == r.nodata

    def test_padding_does_not_leak(self):
        r = random_raster(300, 200, seed=6)
        grid, tiles = split([r])
        # Corrupt the padding region of every tile; stitch must ignore it.
        polluted = tiles[..., 0].copy()
        for tile, (r0, c0) in zip(polluted, offsets(r, TILE_SIZE)):
            tile[r.height - r0 :, :] = 1e9
            tile[:, r.width - c0 :] = 1e9
        assert np.count_nonzero(polluted == 1e9) == len(tiles) * 256**2 - 300 * 200
        back = stitch(grid, polluted)
        np.testing.assert_array_equal(back.values, r.values)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_tile_count_rejected(self, extra):
        r = random_raster(300, 300, seed=8)
        plan, tiles = split([r])
        wrong = np.zeros((len(tiles) + extra, TILE_SIZE, TILE_SIZE), np.float32)
        with pytest.raises(ShapeError, match=rf"\({len(tiles) + extra}, 256, 256\)"):
            stitch(plan, wrong)

    def test_wrong_tile_shape_rejected(self):
        r = random_raster(64, 64, seed=10)
        plan, _ = split([r], tile_size=64)
        with pytest.raises(ShapeError, match="shape"):
            stitch(plan, np.zeros((1, 32, 32), np.float32))

    @pytest.mark.parametrize("shape", [(64, 64), (1, 64, 64, 1), (1, 1, 64, 64)])
    def test_wrong_rank_rejected(self, shape):
        r = random_raster(64, 64, seed=11)
        plan, _ = split([r], tile_size=64)
        with pytest.raises(ShapeError, match="expected"):
            stitch(plan, np.zeros(shape, np.float32))

    @pytest.mark.parametrize("shape", [(0, 0, 0), (1, 0, 0), (4, 32, 64), (4, 64, 32)])
    def test_empty_or_non_square_tiles_rejected(self, shape):
        r = random_raster(64, 64, seed=12)
        with pytest.raises(ShapeError, match="expected"):
            stitch(r, np.zeros(shape, np.float32))

    @settings(max_examples=30, deadline=None)
    @given(
        height=st.integers(min_value=1, max_value=600),
        width=st.integers(min_value=1, max_value=600),
        tile_size=st.sampled_from([16, 64, 256]),
        n_channels=st.integers(min_value=1, max_value=4),
    )
    def test_round_trip_property(self, height, width, tile_size, n_channels):
        rng = np.random.default_rng(height * 1000 + width)
        chans = [
            make(rng.uniform(-5, 5, (height, width)).astype(np.float32))
            for _ in range(n_channels)
        ]
        grid, tiles = split(chans, tile_size=tile_size)
        n = -(-height // tile_size) * -(-width // tile_size)
        assert tiles.shape == (n, tile_size, tile_size, n_channels)
        for k, ch in enumerate(chans):
            back = stitch(grid, tiles[..., k])
            assert back.values.tobytes() == ch.values.tobytes()


class TestStackValidation:
    def test_channel_shape_mismatch(self):
        with pytest.raises(AlignmentError):
            split([make(np.zeros((4, 4))), make(np.zeros((4, 5)))])

