import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanmorph.errors import (
    EmptyStatisticsError,
    FormatError,
    ShapeError,
    VoidError,
)
from urbanmorph import raster as raster_mod
from urbanmorph.raster import _catmull_rom_weights
from urbanmorph.raster import (
    _GLBR_HEADER,
    NormalizationParams,
    Raster,
    clamp_nonnegative,
    denormalize,
    downsample_average,
    minmax_normalize,
    minmax_params,
    read_raster,
    resample_cubic,
    write_raster,
)

NODATA = -9999.0


def make(values, cell_size=1.0, origin=(0.0, 0.0), nodata=NODATA):
    arr = np.asarray(values, dtype=np.float32)
    return Raster(
        width=arr.shape[1],
        height=arr.shape[0],
        origin_x=origin[0],
        origin_y=origin[1],
        cell_size=cell_size,
        nodata=nodata,
        values=arr,
    )


# The resampling that ``resample_cubic`` replaced, kept as a bit-for-bit
# oracle: the second axis gathers from the transposed first pass.


def cubic_axis_interp_oracle(values, n_src, coords):
    base = np.floor(coords).astype(np.int64)
    w = _catmull_rom_weights(coords - base)
    out = np.zeros(values.shape[:-1] + coords.shape, dtype=np.float64)
    for k in range(4):
        idx = np.clip(base - 1 + k, 0, n_src - 1)
        out += w[k] * values[..., idx]
    return out


def resample_cubic_oracle(src, target_cell_size):
    out_w = max(1, int(round(src.extent_x / target_cell_size)))
    out_h = max(1, int(round(src.extent_y / target_cell_size)))
    u = ((np.arange(out_w) + 0.5) * target_cell_size) / src.cell_size - 0.5
    v = ((np.arange(out_h) + 0.5) * target_cell_size) / src.cell_size - 0.5
    vals = src.values.astype(np.float64)
    along_x = cubic_axis_interp_oracle(vals, src.width, u)
    out = cubic_axis_interp_oracle(along_x.T, src.height, v).T
    return Raster(width=out_w, height=out_h, origin_x=src.origin_x, origin_y=src.origin_y,
                  cell_size=target_cell_size, nodata=src.nodata, values=out.astype(np.float32))


class TestClamp:
    def test_values(self):
        r = make([[-2.5, 7.0, NODATA]])
        out = clamp_nonnegative(r)
        assert out.values[0, 0] == 0.0
        assert out.values[0, 1] == 7.0
        assert out.values[0, 2] == np.float32(NODATA)


class TestResampleCubic:
    def test_constant_preserved(self):
        r = make(np.full((4, 4), 42.0), cell_size=30.0)
        out = resample_cubic(r, 1.0)
        assert out.width == 120 and out.height == 120
        np.testing.assert_allclose(out.values, 42.0, atol=1e-5)

    def test_linear_ramp_reproduced(self):
        # Catmull-Rom reproduces affine fields; sample f(x,y) = x + y.
        size = 8
        xc = (np.arange(size) + 0.5) * 4.0
        vals = xc[None, :] + xc[:, None]
        r = make(vals, cell_size=4.0)
        out = resample_cubic(r, 1.0)
        ox = out.cell_centers_x()
        expect = ox[None, :] + out.cell_centers_y()[:, None]
        # Edge cells extrapolate with a clamped stencil; check the interior.
        interior = np.s_[8:-8, 8:-8]
        np.testing.assert_allclose(out.values[interior], expect[interior], atol=1e-4)

    def test_checkerboard_overshoot_bounded(self):
        vals = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = resample_cubic(make(vals, cell_size=4.0), 1.0)
        # Catmull-Rom overshoot is bounded by half the data range.
        assert out.values.min() >= 0.0 - 0.5
        assert out.values.max() <= 1.0 + 0.5

    def test_nodata_rejected(self):
        r = make([[1.0, NODATA], [2.0, 3.0]])
        with pytest.raises(VoidError):
            resample_cubic(r, 0.5)

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        cell_size=st.sampled_from([1.0, 2.5, 30.0]),
        ratio=st.sampled_from([1 / 7, 0.3, 0.37, 0.5, 1.0, 1.3, 2.0, 2.9]),
        zeros=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_transposed_oracle(self, shape, cell_size, ratio, zeros, seed):
        # Non-integer ratios, 1-cell axes, and zero cells whose negative-weight
        # taps give -0.0 products, which the zero start turns into +0.0.
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-50.0, 150.0, shape)
        if zeros:
            vals[rng.random(shape) < 0.5] = 0.0
        src = make(vals, cell_size=cell_size, origin=(-12.5, 300.0))
        out, expected = resample_cubic(src, cell_size * ratio), resample_cubic_oracle(src, cell_size * ratio)
        assert (out.width, out.height, out.cell_size) == (expected.width, expected.height, expected.cell_size)
        assert out.values.tobytes() == expected.values.tobytes()

    def test_bad_cell_size(self):
        with pytest.raises(ShapeError):
            resample_cubic(make([[1.0]]), 0.0)


class TestNormalize:
    def test_basic(self):
        r = make([[0.0, 5.0, 10.0]])
        out, params = minmax_normalize(r)
        np.testing.assert_allclose(out.values, [[0.0, 0.5, 1.0]])
        assert (params.min_value, params.max_value) == (0.0, 10.0)

    def test_constant_maps_to_zero(self):
        out, params = minmax_normalize(make([[7.0, 7.0, 7.0]]))
        np.testing.assert_array_equal(out.values, 0.0)
        assert (params.min_value, params.max_value) == (7.0, 7.0)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        r = make(rng.uniform(-30, 120, (8, 8)))
        norm, params = minmax_normalize(r)
        back = denormalize(norm, params)
        np.testing.assert_allclose(back.values, r.values, atol=1e-5 * 150)
        assert norm.values.min() >= 0.0 and norm.values.max() <= 1.0

    def test_nodata_preserved(self):
        r = make([[NODATA, 5.0, 10.0]])
        out, _ = minmax_normalize(r)
        assert out.values[0, 0] == np.float32(NODATA)

    def test_all_nodata_raises(self):
        with pytest.raises(EmptyStatisticsError):
            minmax_normalize(make([[NODATA]]))

    def test_explicit_params(self):
        out, params = minmax_normalize(make([[5.0]]), NormalizationParams(0.0, 10.0))
        assert out.values[0, 0] == 0.5


class TestDenormalize:
    def test_basic(self):
        out = denormalize(make([[0.5]]), NormalizationParams(0.0, 10.0))
        assert out.values[0, 0] == 5.0

    def test_degenerate_params(self):
        out = denormalize(make([[0.3, 0.9]]), NormalizationParams(4.0, 4.0))
        np.testing.assert_array_equal(out.values, 4.0)


# The whole-grid cell-wise kernels that the row-blocked ones replaced, kept
# as bit-for-bit oracles.


def minmax_normalize_oracle(r, params=None):
    valid = r.valid_mask
    if params is None:
        v64 = r.values[valid].astype(np.float64)
        params = NormalizationParams(float(v64.min()), float(v64.max()))
    span = params.max_value - params.min_value
    out = np.full_like(r.values, r.nodata)
    if span == 0.0:
        out[valid] = 0.0
    else:
        out[valid] = ((r.values[valid].astype(np.float64) - params.min_value) / span
                      ).astype(np.float32)
    return out, params


def denormalize_oracle(r, params):
    span = params.max_value - params.min_value
    valid = r.valid_mask
    out = np.full_like(r.values, r.nodata)
    out[valid] = (r.values[valid].astype(np.float64) * span + params.min_value
                  ).astype(np.float32)
    return out


def clamp_nonnegative_oracle(r):
    out = r.values.copy()
    valid = r.valid_mask
    out[valid] = np.maximum(out[valid], np.float32(0.0))
    return out


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def blocked_grids(draw):
    """A raster of finite cells, nodata among them, with zeros of both signs,
    and a block of 1 to 7 of its rows."""
    height, width = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cell = st.one_of(st.floats(-1e6, 1e6, width=32), st.sampled_from([0.0, -0.0, NODATA]))
    if draw(st.booleans()):  # a constant raster, span 0, nodata aside
        c = draw(st.floats(-1e6, 1e6, width=32))
        cell = st.sampled_from([c, NODATA])
    values = np.array(draw(st.lists(cell, min_size=height * width, max_size=height * width)),
                      np.float32).reshape(height, width)
    return make(values), draw(st.integers(1, 7))


class TestBlockedCellwise:
    """``minmax_normalize``, ``denormalize`` and ``clamp_nonnegative`` run a
    block of rows at a time, with the bits of the whole-grid expressions."""

    @settings(max_examples=300, deadline=None)
    @given(blocked_grids(), st.floats(-1e3, 1e3),
           st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
    def test_equal_to_whole_grid_oracles(self, case, low, span):
        # A given span of 0 or of at least 1e-3 keeps every normalized cell
        # within float32.
        r, rows = case
        given_params = NormalizationParams(low, low + span)
        with mock.patch.object(raster_mod, "_BLOCK_CELLS", rows * r.width):
            if r.valid_mask.any():
                out, params = minmax_normalize(r)
                want, want_params = minmax_normalize_oracle(r)
                assert minmax_params(r) == params
                got = (params.min_value, params.max_value)
                wanted = (want_params.min_value, want_params.max_value)
                zeros = np.signbit(r.values[r.valid_mask & (r.values == 0)])
                if zeros.any() and not zeros.all():
                    # Of zeros of both signs numpy's min and max return either;
                    # the blocked params take -0.0 as the min and +0.0 as the max.
                    wanted = (-0.0 if wanted[0] == 0 else wanted[0],
                              0.0 if wanted[1] == 0 else wanted[1])
                    want = minmax_normalize_oracle(r, params)[0]
                assert [np.float64(v).tobytes() for v in got] == \
                    [np.float64(v).tobytes() for v in wanted]
                assert same_bits(out.values, want)
            out, _ = minmax_normalize(r, given_params)
            assert same_bits(out.values, minmax_normalize_oracle(r, given_params)[0])
            assert same_bits(denormalize(r, given_params).values,
                             denormalize_oracle(r, given_params))
            assert same_bits(clamp_nonnegative(r).values, clamp_nonnegative_oracle(r))

    @pytest.mark.parametrize("rows", range(1, 8))
    def test_cell_that_denormalizes_to_negative_zero(self, rows):
        # -1 ulp of float32 times a span of 0.25 rounds to -0.0 in float32;
        # the clamp of the cast cell is what the whole-grid clamp gives.
        tiny = -np.float32(np.finfo(np.float32).smallest_subnormal)
        r = make(np.array([[0.5, tiny, NODATA], [-0.0, 1.0, tiny]] * 4, np.float32))
        params = NormalizationParams(0.0, 0.25)
        with mock.patch.object(raster_mod, "_BLOCK_CELLS", rows * r.width):
            heights = denormalize(r, params)
            assert np.signbit(heights.values[0, 1]) and heights.values[0, 1] == 0.0
            assert same_bits(heights.values, denormalize_oracle(r, params))
            assert same_bits(clamp_nonnegative(heights).values, clamp_nonnegative_oracle(heights))

    @pytest.mark.parametrize("rows", [1, 2])
    def test_zeros_of_both_signs_in_other_blocks(self, rows):
        # -0.0 is the min and +0.0 the max of a tie, whichever block holds which.
        for values, extremes in (([[-0.0, 3.0], [0.0, 2.0], [NODATA, -0.0]], (-0.0, 3.0)),
                                 ([[0.0, -0.0], [-4.0, 0.0], [-0.0, NODATA]], (-4.0, 0.0)),
                                 ([[0.0, NODATA], [-0.0, -0.0], [0.0, 0.0]], (-0.0, 0.0))):
            r = make(values)
            with mock.patch.object(raster_mod, "_BLOCK_CELLS", rows * r.width):
                params = minmax_params(r)
            assert [np.float64(v).tobytes() for v in (params.min_value, params.max_value)] \
                == [np.float64(v).tobytes() for v in extremes]

    def test_all_nodata_params_raise(self):
        with pytest.raises(EmptyStatisticsError):
            minmax_params(make([[NODATA, NODATA]]))


class TestDownsample:
    def test_block_mean(self):
        r = make([[1.0, 2.0], [3.0, 4.0]])
        out = downsample_average(r, 2)
        assert out.values[0, 0] == 2.5
        assert out.cell_size == 2.0

    def test_constant(self):
        out = downsample_average(make(np.full((4, 4), 3.25)), 2)
        np.testing.assert_array_equal(out.values, 3.25)

    def test_matches_block_loop(self):
        rng = np.random.default_rng(3)
        r = make(rng.uniform(0, 10, (8, 8)))
        out = downsample_average(r, 4)
        for br in range(2):
            for bc in range(2):
                block = r.values[br * 4 : br * 4 + 4, bc * 4 : bc * 4 + 4]
                expect = np.mean(block.astype(np.float64))
                assert abs(out.values[br, bc] - expect) < 1e-5

    def test_nodata_block(self):
        vals = np.full((2, 2), NODATA)
        vals[0, 0] = 4.0
        r = make(vals)
        out = downsample_average(r, 2)
        assert out.values[0, 0] == 4.0
        out2 = downsample_average(make(np.full((2, 2), NODATA)), 2)
        assert out2.values[0, 0] == np.float32(NODATA)

    def test_non_divisible_raises(self):
        with pytest.raises(ShapeError):
            downsample_average(make(np.zeros((3, 3))), 2)

    def test_global_mean_preserved(self):
        rng = np.random.default_rng(9)
        r = make(rng.uniform(0, 100, (12, 12)))
        out = downsample_average(r, 3)
        before = np.mean(r.values.astype(np.float64))
        after = np.mean(out.values.astype(np.float64))
        assert abs(before - after) / abs(before) < 1e-5


class TestIO:
    def test_glbr_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        r = make(rng.uniform(-100, 100, (5, 7)), cell_size=2.5, origin=(10.0, -3.0))
        path = tmp_path / "r.glbr"
        write_raster(r, path)
        back = read_raster(path)
        assert back.width == 7 and back.height == 5
        assert back.origin_x == 10.0 and back.origin_y == -3.0
        assert back.cell_size == 2.5
        assert back.values.tobytes() == r.values.tobytes()

    def test_glbr_writes_rows_in_order_from_a_strided_raster(self, tmp_path):
        # An ASCII grid reads as a view with its rows reversed.
        rng = np.random.default_rng(3)
        r = make(rng.uniform(0, 50, (4, 6)).astype(np.float32))
        write_raster(r, tmp_path / "r.asc")
        strided = read_raster(tmp_path / "r.asc")
        assert not strided.values.flags.c_contiguous
        write_raster(strided, tmp_path / "r.glbr")
        assert read_raster(tmp_path / "r.glbr").values.tobytes() == r.values.tobytes()

    @pytest.mark.parametrize("cut, message", [
        (10, "truncated header at byte 10"),
        (-8, "expected 106 bytes, got 98 (truncation at byte 98)"),
        (None, "expected 106 bytes, got 110 (4 bytes after the payload)"),
    ])
    def test_glbr_size_messages(self, tmp_path, cut, message):
        path = tmp_path / "r.glbr"
        write_raster(make(np.zeros((4, 4))), path)
        raw = path.read_bytes()
        path.write_bytes(raw + bytes(4) if cut is None else raw[:cut])
        with pytest.raises(FormatError) as exc:
            read_raster(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_glbr_forged_size_allocates_nothing(self, tmp_path):
        path = tmp_path / "r.glbr"
        path.write_bytes(_GLBR_HEADER.pack(b"GLBR", 1, 2**32 - 1, 2**32 - 1, 0.0, 0.0, 1.0, -9999.0))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"expected {42 + 4 * (2**32 - 1) ** 2} bytes"):
                read_raster(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.glbr"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError):
            read_raster(path)

    def test_truncation(self, tmp_path):
        r = make(np.zeros((4, 4)))
        path = tmp_path / "r.glbr"
        write_raster(r, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="byte"):
            read_raster(path)

    def test_ascii_fixture_with_nodata(self, tmp_path):
        path = tmp_path / "fix.asc"
        path.write_text(
            "ncols 3\nnrows 3\nxllcorner 0.0\nyllcorner 0.0\ncellsize 1.0\n"
            "NODATA_value -9999\n"
            "7 8 9\n4 -9999 6\n1 2 3\n"
        )
        r = read_raster(path)
        # ASCII rows are north-first; row 0 of the raster is the south edge.
        np.testing.assert_array_equal(r.values[0], [1.0, 2.0, 3.0])
        assert r.values[1, 1] == np.float32(-9999.0)
        assert not r.valid_mask[1, 1]

    def test_ascii_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        r = make(rng.uniform(0, 50, (4, 6)).astype(np.float32))
        path = tmp_path / "r.asc"
        write_raster(r, path)
        back = read_raster(path)
        np.testing.assert_array_equal(back.values, r.values)
