import itertools
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from urbanmorph.errors import (
    DivergenceError,
    FormatError,
    InputError,
    ShapeError,
)
from urbanmorph import network, tiler
from urbanmorph.network import (
    ModelConfig,
    TrainConfig,
    Weights,
    forward,
    init_weights,
    layer_specs,
    loss_and_gradient,
    parameter_count,
    predict_city,
    read_weights,
    train,
    write_loss_history,
    write_weights,
)
from urbanmorph.raster import NormalizationParams, Raster, clamp_nonnegative, denormalize

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


def tiny_cfg(**kw):
    defaults = dict(depth=1, base_filters=2, kernel_size=3, in_channels=2, seed=7)
    defaults.update(kw)
    return ModelConfig(**defaults)


def loss_on_zero_target(w, tile):
    return loss_and_gradient(w, tile, np.zeros(np.shape(tile)[:2]))


# Both entry points take a tile and must reject the same bad tiles.
TILE_ENTRY_POINTS = (forward, loss_on_zero_target)


def per_layer_glbw(w):
    """GLBW bytes written layer by layer, kernel then bias: the file layout."""
    cfg = w.config
    parts = [struct.pack("<4sHiiiiq", b"GLBW", 1, cfg.depth, cfg.base_filters,
                         cfg.kernel_size, cfg.in_channels, cfg.seed)]
    for name, *_ in layer_specs(w.config):
        parts.append(w.kernels[name].astype("<f4").tobytes())
        parts.append(w.biases[name].astype("<f4").tobytes())
    return b"".join(parts)


# -- straight-line reference implementation (loops, no vectorization) --------


def naive_conv_same(x, kernel, bias):
    h, w, cin = x.shape
    kh, kw, _, cout = kernel.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((h, w, cout))
    for r in range(h):
        for c in range(w):
            for co in range(cout):
                acc = bias[co]
                for dr in range(kh):
                    for dc in range(kw):
                        rr, cc = r + dr - ph, c + dc - pw
                        if 0 <= rr < h and 0 <= cc < w:
                            for ci in range(cin):
                                acc += x[rr, cc, ci] * kernel[dr, dc, ci, co]
                out[r, c, co] = acc
    return out


def naive_forward_depth1(w, x):
    relu = lambda a: np.maximum(a, 0.0)
    a0 = relu(naive_conv_same(x, w.kernels["enc0"], w.biases["enc0"]))
    h, ww, c = a0.shape
    pooled = np.zeros((h // 2, ww // 2, c))
    for r in range(h // 2):
        for cc in range(ww // 2):
            for ch in range(c):
                pooled[r, cc, ch] = a0[2 * r : 2 * r + 2, 2 * cc : 2 * cc + 2, ch].max()
    b = relu(naive_conv_same(pooled, w.kernels["bottleneck"], w.biases["bottleneck"]))
    up = np.repeat(np.repeat(b, 2, axis=0), 2, axis=1)
    u = relu(naive_conv_same(up, w.kernels["up0"], w.biases["up0"]))
    cat = np.concatenate([u, a0], axis=-1)
    d = relu(naive_conv_same(cat, w.kernels["dec0"], w.biases["dec0"]))
    return relu(naive_conv_same(d, w.kernels["head"], w.biases["head"]))


# -- the layer-by-layer pass that the fused one replaced ---------------------
# Each layer returns a new array: a padded copy of its input per convolution,
# an argmax max-pool, np.repeat and np.concatenate.  The fused pass keeps its
# GEMM calls and its arithmetic, so it must give the same bits.


def _pad(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """(H, W, C) ``x`` zero-padded by ``ph`` rows and ``pw`` columns each side,
    plus one spare zero row that keeps every tap's slice in ``_shifted_gemm``
    in bounds: (H + 2ph + 1, W + 2pw, C)."""
    h, w, c = x.shape
    xp = np.zeros((h + 2 * ph + 1, w + 2 * pw, c), dtype=x.dtype)
    xp[ph : ph + h, pw : pw + w] = x
    return xp


def _shifted_gemm(xp: np.ndarray, kernel: np.ndarray, h: int, w: int) -> np.ndarray:
    """The (h, w, cout) 'same' correlation of the ``_pad`` buffer ``xp``: one
    GEMM per tap (i, j) on the flat rows whose row r * Wp + c is xp[r + i, c + j].
    Columns c >= w wrap into the next row and are cropped."""
    kh, kw, cin, cout = kernel.shape
    wp = xp.shape[1]
    n = h * wp
    flat = xp.reshape(-1, cin)
    acc = flat[:n] @ kernel[0, 0]
    tmp = np.empty_like(acc)
    for i in range(kh):
        for j in range(kw):
            if i or j:
                s = i * wp + j
                np.matmul(flat[s : s + n], kernel[i, j], out=tmp)
                acc += tmp
    return acc.reshape(h, wp, cout)[:, :w]


def _conv_same(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray):
    """'Same' convolution of (H, W, Cin) ``x`` by shifted GEMMs; returns it and
    the zero-padded input buffer, which is all the backward pass needs."""
    kh, kw, _, _ = kernel.shape
    xp = _pad(x, kh // 2, kw // 2)
    return _shifted_gemm(xp, kernel, x.shape[0], x.shape[1]) + bias, xp


def _conv_backward(dy, xp, kernel, input_grad=True):
    """Gradients (dx, dk, db) of ``_conv_same`` from the output gradient ``dy``
    and the padded input ``xp`` it returned; dx is None unless ``input_grad``."""
    h, w, cout = dy.shape
    kh, kw, cin, _ = kernel.shape
    ph, pw = kh // 2, kw // 2
    wp = xp.shape[1]
    n = h * wp
    # From flat row ph * Wp + pw on, dyp is dy row by row, each row followed by
    # 2pw zeros: the forward accumulator's layout with its junk columns at 0.
    dyp = _pad(dy, ph, pw)
    start = ph * wp + pw
    dy_flat = dyp.reshape(-1, cout)[start : start + n]
    flat = xp.reshape(-1, cin)
    dk = np.empty(kernel.shape, dtype=np.result_type(xp, dy))
    for i in range(kh):
        for j in range(kw):
            s = i * wp + j
            np.matmul(flat[s : s + n].T, dy_flat, out=dk[i, j])
    db = dy.reshape(-1, cout).sum(axis=0)
    if not input_grad:
        return None, dk, db
    # dx is a full correlation with the 180-degree-rotated kernel, channels
    # swapped; exact for 'same' zero padding with odd kernels.
    k_rot = np.ascontiguousarray(kernel[::-1, ::-1].transpose(0, 1, 3, 2))
    return _shifted_gemm(dyp, k_rot, h, w), dk, db


def _maxpool2(x):
    h, w, c = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool needs even dimensions, got {h}x{w}")
    windows = x.reshape(h // 2, 2, w // 2, 2, c).transpose(0, 2, 4, 1, 3).reshape(
        h // 2, w // 2, c, 4
    )
    idx = windows.argmax(axis=-1)  # first maximum wins: deterministic
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    return out, idx


def _maxpool2_backward(dy, idx, x_shape):
    h, w, c = x_shape
    dwin = np.zeros((h // 2, w // 2, c, 4), dtype=dy.dtype)
    np.put_along_axis(dwin, idx[..., None], dy[..., None], axis=-1)
    return dwin.reshape(h // 2, w // 2, c, 2, 2).transpose(0, 3, 1, 4, 2).reshape(h, w, c)


def _upsample2(x):
    return np.repeat(np.repeat(x, 2, axis=0), 2, axis=1)


def _upsample2_backward(dy):
    h, w, c = dy.shape
    return dy.reshape(h // 2, 2, w // 2, 2, c).sum(axis=(1, 3))


def _forward_tape(w: Weights, x: np.ndarray):
    cfg = w.config
    tape = {"convs": {}, "relu": {}, "pool": {}, "skips": {}}

    def conv_relu(name, h):
        z, tape["convs"][name] = _conv_same(h, w.kernels[name], w.biases[name])
        tape["relu"][name] = z > 0
        return np.maximum(z, 0.0)

    h = x
    for l in range(cfg.depth):
        tape["skips"][l] = a = conv_relu(f"enc{l}", h)
        h, tape["pool"][l] = _maxpool2(a)
    h = conv_relu("bottleneck", h)
    for l in reversed(range(cfg.depth)):
        a = conv_relu(f"up{l}", _upsample2(h))
        h = conv_relu(f"dec{l}", np.concatenate([a, tape["skips"][l]], axis=-1))
    return conv_relu("head", h), tape


def _backward_tape(w: Weights, tape, dy: np.ndarray) -> np.ndarray:
    """The gradient of the loss with output gradient ``dy``, in ``flat`` order."""
    cfg = w.config
    grad = Weights(cfg, np.zeros_like(w.flat))
    skip_grads = {}

    def conv_relu_back(name, da, input_grad=True):
        dx, dk, db = _conv_backward(
            da * tape["relu"][name], tape["convs"][name], w.kernels[name], input_grad
        )
        grad.kernels[name][...] = dk
        grad.biases[name][...] = db
        return dx

    d = conv_relu_back("head", dy)
    for l in range(cfg.depth):
        d = conv_relu_back(f"dec{l}", d)
        nch = cfg.base_filters * (2 ** l)
        d_up, skip_grads[l] = d[..., :nch], d[..., nch:]
        d = _upsample2_backward(conv_relu_back(f"up{l}", d_up))
    d = conv_relu_back("bottleneck", d)
    for l in reversed(range(cfg.depth)):
        d = _maxpool2_backward(d, tape["pool"][l], tape["skips"][l].shape) + skip_grads[l]
        # The tile's own gradient is not needed: enc0 skips it.
        d = conv_relu_back(f"enc{l}", d, input_grad=l > 0)
    return grad.flat


def oracle_forward(w, tile):
    y, _ = _forward_tape(w, network._checked_tile(w, tile))
    return y


def oracle_loss_and_gradient(w, tile, target):
    tile, target = network._checked_sample(w, tile, target)
    y, tape = _forward_tape(w, tile)
    diff = y[..., 0] - target
    loss = float(np.mean(diff * diff))
    dy = (2.0 / diff.size) * diff[..., None]
    return loss, _backward_tape(w, tape, dy)


def bits(a):
    """The bits of a float array, as unsigned integers of its width."""
    a = np.asarray(a)
    return a.view(f"u{a.itemsize}")


def assert_same_bits(got, expect):
    got, expect = np.asarray(got), np.asarray(expect)
    assert got.dtype == expect.dtype and got.shape == expect.shape
    np.testing.assert_array_equal(bits(got), bits(expect))


def set_lanes(mp, lanes):
    """``lanes`` lanes for every pass, whatever its tile size, through the
    monkeypatch ``mp``."""
    mp.setattr(network, "LANES", lanes)
    mp.setattr(network, "MIN_LANE_CELLS", 0)


def each_lane_count(mp):
    """1 and then 2, each set for every pass through the monkeypatch ``mp``
    while the caller's loop body runs."""
    for lanes in (1, 2):
        set_lanes(mp, lanes)
        yield lanes


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ModelConfig(depth=0)
        with pytest.raises(ValueError):
            ModelConfig(kernel_size=4)
        with pytest.raises(ValueError):
            ModelConfig(depth=9)  # 256 not divisible by 2^9
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_weights(tiny_cfg()).flat
        b = init_weights(tiny_cfg()).flat
        np.testing.assert_array_equal(a, b)
        c = init_weights(tiny_cfg(seed=8)).flat
        assert not np.array_equal(a, c)

    def test_biases_zero(self):
        w = init_weights(tiny_cfg())
        for name, *_ in layer_specs(w.config):
            np.testing.assert_array_equal(w.biases[name], 0.0)

    def test_parameter_count_closed_form(self):
        # depth=2, base=4, k=3, cin=3:
        #   enc0 3*3*3*4+4, enc1 3*3*4*8+8, bottleneck 3*3*8*16+16,
        #   up1 3*3*16*8+8, dec1 3*3*16*8+8, up0 3*3*8*4+4, dec0 3*3*8*4+4,
        #   head 1*1*4*1+1.
        cfg = ModelConfig(depth=2, base_filters=4, kernel_size=3, in_channels=3)
        expect = (
            (108 + 4) + (288 + 8) + (1152 + 16)
            + (1152 + 8) + (1152 + 8) + (288 + 4) + (288 + 4) + (4 + 1)
        )
        assert parameter_count(cfg) == expect
        assert init_weights(cfg).flat.size == expect

    def test_layer_order(self):
        names = [s[0] for s in layer_specs(ModelConfig(depth=2))]
        assert names == ["enc0", "enc1", "bottleneck", "up1", "dec1", "up0", "dec0", "head"]


class TestForward:
    def test_zero_input_zero_output(self):
        w = init_weights(tiny_cfg())
        y = forward(w, np.zeros((8, 8, 2)))
        np.testing.assert_array_equal(y, 0.0)

    def test_output_nonnegative_and_shaped(self):
        rng = np.random.default_rng(1)
        w = init_weights(tiny_cfg())
        y = forward(w, rng.uniform(-1, 1, (8, 8, 2)))
        assert y.shape == (8, 8, 1)
        assert y.min() >= 0.0

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            w = init_weights(tiny_cfg(seed=seed))
            x = rng.uniform(-1, 1, (8, 8, 2))
            got = forward(w, x)
            expect = naive_forward_depth1(w, x)
            np.testing.assert_allclose(got, expect, rtol=1e-10, atol=1e-12)

    def test_depth2_runs(self):
        w = init_weights(ModelConfig(depth=2, base_filters=2, in_channels=1, seed=0))
        y = forward(w, np.random.default_rng(0).uniform(0, 1, (16, 16, 1)))
        assert y.shape == (16, 16, 1)

    def test_rejects_nan(self):
        w = init_weights(tiny_cfg())
        x = np.zeros((8, 8, 2))
        x[0, 0, 0] = np.nan
        for run in TILE_ENTRY_POINTS:
            with pytest.raises(InputError):
                run(w, x)

    def test_rejects_wrong_channels(self):
        w = init_weights(tiny_cfg())
        for run in TILE_ENTRY_POINTS:
            with pytest.raises(ShapeError, match="channels"):
                run(w, np.zeros((8, 8, 3)))

    def test_rejects_indivisible_size(self):
        w = init_weights(tiny_cfg(depth=2, in_channels=1))
        for run in TILE_ENTRY_POINTS:
            with pytest.raises(ShapeError, match="2\\^depth"):
                run(w, np.zeros((10, 10, 1)))


# The im2col convolution and its backward pass that the shifted-GEMM ones
# replaced: one patch matrix of kh * kw * Cin columns per convolution.  The
# new ones sum per tap, so they agree to rounding, not bit for bit.


def im2col_conv_same(x, kernel, bias):
    kh, kw, cin, cout = kernel.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((ph, ph), (pw, pw), (0, 0)))
    win = sliding_window_view(xp, (kh, kw), axis=(0, 1))  # (H, W, Cin, kh, kw)
    patches = win.transpose(0, 1, 3, 4, 2).reshape(-1, kh * kw * cin)
    y = patches @ kernel.reshape(-1, cout)
    if bias is not None:
        y = y + bias
    return y.reshape(x.shape[0], x.shape[1], cout), patches


def im2col_conv_backward(dy, patches, kernel):
    kh, kw, cin, cout = kernel.shape
    dy_mat = dy.reshape(-1, cout)
    dk = (patches.T @ dy_mat).reshape(kernel.shape)
    db = dy_mat.sum(axis=0)
    k_rot = kernel[::-1, ::-1].transpose(0, 1, 3, 2)
    dx, _ = im2col_conv_same(dy, np.ascontiguousarray(k_rot), None)
    return dx, dk, db


def conv_case(k, cin, cout, shape, seed=0):
    """x, He-scaled kernel, bias and output gradient, all of order 1."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((*shape, cin))
    kernel = rng.standard_normal((k, k, cin, cout)) / np.sqrt(k * k * cin)
    return x, kernel, rng.standard_normal(cout), rng.standard_normal((*shape, cout))


class TestShiftedGemmConv:
    # Values are of order 1, so atol only covers sums that cancel to near 0.
    TOL = dict(rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape", [(8, 12), (7, 5)])
    @pytest.mark.parametrize("cout", [1, 8])
    @pytest.mark.parametrize("cin", [1, 3, 16])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_im2col_oracle(self, k, cin, cout, shape):
        x, kernel, bias, dy = conv_case(k, cin, cout, shape)
        y, xp = _conv_same(x, kernel, bias)
        y0, patches = im2col_conv_same(x, kernel, bias)
        np.testing.assert_allclose(y, y0, **self.TOL)
        for got, expect in zip(_conv_backward(dy, xp, kernel),
                               im2col_conv_backward(dy, patches, kernel)):
            assert got.shape == expect.shape
            np.testing.assert_allclose(got, expect, **self.TOL)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_float32_forward_matches_oracle(self, k):
        x, kernel, bias, _ = conv_case(k, 16, 8, (8, 12))
        args = [a.astype(np.float32) for a in (x, kernel, bias)]
        y, _ = _conv_same(*args)
        y0, _ = im2col_conv_same(*args)
        assert y.dtype == np.float32
        np.testing.assert_allclose(y, y0, rtol=1e-5, atol=1e-5)

    def test_without_input_grad(self):
        x, kernel, bias, dy = conv_case(3, 3, 8, (8, 12))
        _, xp = _conv_same(x, kernel, bias)
        dx, dk, db = _conv_backward(dy, xp, kernel, input_grad=False)
        _, dk_full, db_full = _conv_backward(dy, xp, kernel)
        assert dx is None
        np.testing.assert_array_equal(dk, dk_full)
        np.testing.assert_array_equal(db, db_full)

    def test_tape_holds_padded_inputs_not_patches(self):
        # im2col patches are kh * kw times the input: 285 MiB here, not 36 MiB.
        cfg = ModelConfig(depth=3, base_filters=8, in_channels=3, seed=0)
        buf = network._Buffers(cfg, (256, 256), np.float64)
        network._forward(init_weights(cfg), np.ones((256, 256, 3)), buf)
        padded = 0
        for name, kh, kw, cin, _ in layer_specs(cfg):
            level = cfg.depth if name == "bottleneck" else 0 if name == "head" else int(name[-1])
            side = 256 // 2**level
            padded += (side + kh // 2 * 2 + 1) * (side + kw // 2 * 2) * cin * 8
        assert sum(a.nbytes for a in buf.tape.values()) <= padded


@st.composite
def up_conv_inputs(draw):
    """Buffers of a one-level net with k in {1, 3, 5}, and a coarse
    (hb, wb, cin) activation for its up-convolution: tie-heavy or with ±0.0,
    or uniform."""
    k = draw(st.sampled_from([1, 3, 5]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    hb, wb, base = (draw(st.integers(1, hi)) for hi in (5, 5, 3))
    cfg = ModelConfig(depth=1, base_filters=base, kernel_size=k, in_channels=1)
    buf = network._Buffers(cfg, (2 * hb, 2 * wb), dtype, backward=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = draw(st.sampled_from([[-1.0, 0.0, 0.5, 2.0], [-0.0, 0.0], [-0.0, 0.0, 1.0, -1.0]]))
    if draw(st.booleans()):
        a = rng.choice(values, (hb, wb, 2 * base))
    else:
        a = rng.uniform(-1, 1, (hb, wb, 2 * base))
    return buf, a.astype(dtype), k // 2


class TestUpConvolution:
    """An up-convolution rebuilds its upsampled input in scratch; no buffer
    holds an upsampled copy."""

    @settings(max_examples=200)
    @given(up_conv_inputs())
    def test_rebuilt_input_is_the_padded_upsample(self, case):
        buf, a, p = case
        # NaN in the scratch shows a cell that the rebuild did not write.
        buf.acc[...] = np.nan
        for values in (a, -a):  # a second rebuild over the first
            buf.tape["up0"][...] = values
            xp = network._padded_input(buf, "up0", p)
            assert np.shares_memory(xp, buf.acc)
            assert_same_bits(xp, _pad(_upsample2(values), p, p))

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("backward", [True, False])
    def test_no_buffer_holds_an_upsampled_input(self, backward, k):
        cfg = ModelConfig(depth=3, base_filters=2, kernel_size=k, in_channels=2)
        buf = network._Buffers(cfg, (32, 48), np.float32, backward=backward)
        p = k // 2
        for name, _, _, cin, _ in layer_specs(cfg):
            if not name.startswith("up"):
                continue
            hl, wl = buf.size[name]
            assert buf.tape[name].shape == (hl // 2, wl // 2, cin)
            upsampled = {(hl, wl, cin), (hl // 2, 2, wl // 2, 2, cin),
                         (hl + 2 * p + 1, wl + 2 * p, cin)}
            # The decoder's padded input has the padded shape too, as its
            # channels are the up-convolution's input channels.
            dec = buf.tape["dec" + name[2:]]
            assert all(a is dec for a in buffer_arrays(buf) if a.shape in upsampled)

    def test_skip_buffers_half_the_decoder_input_gradient(self):
        cfg = ModelConfig(depth=3, base_filters=2, in_channels=2)
        buf = network._Buffers(cfg, (32, 48), np.float64)
        for name, _, _, cin, _ in layer_specs(cfg):
            if name.startswith("dec"):
                hl, wl = buf.size[name]
                assert buf.skip[name].shape == (hl, wl, cin // 2)
                assert buf.skip[name].base is None  # not a view of a larger array
                assert 2 * buf.skip[name].size == hl * wl * cin
        assert network._Buffers(cfg, (32, 48), np.float64, backward=False).skip == {}


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        w = init_weights(tiny_cfg())
        x = rng.uniform(-1, 1, (8, 8, 2))
        target = rng.uniform(0, 1, (8, 8))
        loss0, grad = loss_and_gradient(w, x, target)
        flat = w.flat.copy()
        eps = 1e-6
        picks = rng.choice(flat.size, size=60, replace=False)
        for i in picks:
            up, down = flat.copy(), flat.copy()
            up[i] += eps
            down[i] -= eps
            lp, _ = loss_and_gradient(Weights(w.config, up), x, target)
            lm, _ = loss_and_gradient(Weights(w.config, down), x, target)
            fd = (lp - lm) / (2 * eps)
            scale = max(abs(fd), abs(grad[i]), 1e-8)
            assert abs(fd - grad[i]) / scale < 1e-4, f"param {i}: {fd} vs {grad[i]}"

    def test_loss_is_mse(self):
        w = init_weights(tiny_cfg())
        x = np.zeros((8, 8, 2))
        target = np.full((8, 8), 3.0)
        loss, _ = loss_and_gradient(w, x, target)
        assert loss == pytest.approx(9.0)

    def test_bad_target_shape(self):
        w = init_weights(tiny_cfg())
        with pytest.raises(ShapeError):
            loss_and_gradient(w, np.zeros((8, 8, 2)), np.zeros((4, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        target = np.zeros((8, 8))
        target[3, 5] = bad
        with pytest.raises(InputError, match="target"):
            loss_and_gradient(init_weights(tiny_cfg()), np.zeros((8, 8, 2)), target)


def spy_passes(monkeypatch):
    """Every (input, output, buffers) of a ``_forward`` call from now on."""
    seen, real = [], network._forward

    def spy(w, x, buf):
        y = real(w, x, buf)
        seen.append((x, y, buf))
        return y

    monkeypatch.setattr(network, "_forward", spy)
    return seen


def buffer_arrays(buf):
    """Every array that a ``_Buffers`` holds, views included."""
    for value in vars(buf).values():
        for a in value.values() if isinstance(value, dict) else [value]:
            if isinstance(a, np.ndarray):
                yield a


class TestFloat32Step:
    """``loss_and_gradient`` runs at the dtype of the weights, end to end.

    numpy 1.24 promotes a Python scalar by its value and numpy 2 by NEP 50;
    both must keep every float array of a float32 step at float32.
    """

    @staticmethod
    def case(side):
        rng = np.random.default_rng(12)
        w = init_weights(ModelConfig(depth=3, base_filters=8, in_channels=3, seed=0))
        return w, rng.uniform(0, 1, (side, side, 3)), rng.uniform(0, 1, (side, side))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_throughout(self, monkeypatch, dtype):
        w, x, target = self.case(16)
        passes = spy_passes(monkeypatch)
        _, grad = loss_and_gradient(w.astype(dtype), x, target)
        assert grad.dtype == dtype
        ((x_in, y, buf),) = passes
        assert x_in.dtype == dtype and y.dtype == dtype
        for a in buffer_arrays(buf):
            assert a.dtype == dtype or a.dtype.kind == "b"
        assert {a.dtype for a in buf.tape.values()} == {np.dtype(dtype)}

    def test_gradient_matches_float64(self):
        w, x, target = self.case(64)
        loss64, g64 = loss_and_gradient(w, x, target)
        loss32, g32 = loss_and_gradient(w.astype(np.float32), x, target)
        assert np.linalg.norm(g32 - g64) <= 1e-5 * np.linalg.norm(g64)
        assert loss32 == pytest.approx(loss64, rel=1e-5)

    def test_tape_half_the_bytes(self, monkeypatch):
        w, x, target = self.case(64)
        passes = spy_passes(monkeypatch)
        loss_and_gradient(w, x, target)
        loss_and_gradient(w.astype(np.float32), x, target)
        n64, n32 = (sum(a.nbytes for a in buf.tape.values()) for _, _, buf in passes)
        assert 2 * n32 == n64


@st.composite
def oracle_cases(draw):
    """A model, a dtype and a tie-heavy (tile, target): constant and all-zero
    tiles, and a few repeated values, so pooling windows tie and ReLUs give 0."""
    depth = draw(st.integers(1, 3))
    cfg = ModelConfig(depth=depth, base_filters=draw(st.integers(1, 4)),
                      kernel_size=draw(st.sampled_from([1, 3, 5])),
                      in_channels=draw(st.integers(1, 3)), seed=draw(st.integers(0, 99)))
    h, w = (2**depth * draw(st.integers(1, 3)) for _ in range(2))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    weights = init_weights(cfg)
    for name, *_ in layer_specs(weights.config):
        weights.biases[name][...] = draw(st.sampled_from([0.0, 0.25, -0.25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = (h, w, cfg.in_channels)
    tile = draw(st.sampled_from([
        np.zeros(shape),
        np.full(shape, draw(st.sampled_from([0.5, -1.0, 3.0]))),
        rng.choice([-1.0, 0.0, 0.5, 2.0], shape),
        rng.uniform(-1, 1, shape),
    ]))
    target = rng.choice([0.0, 0.5, 1.0], (h, w))
    return weights.astype(dtype), tile, target


class TestPassEqualsOracle:
    """The fused pass gives the bits of the layer-by-layer one."""

    @settings(max_examples=150)
    @given(oracle_cases())
    def test_forward_loss_gradient_bits(self, case):
        w, tile, target = case
        y0 = oracle_forward(w, tile)
        loss0, grad0 = oracle_loss_and_gradient(w, tile, target)
        with pytest.MonkeyPatch.context() as mp:
            for _ in each_lane_count(mp):
                assert_same_bits(forward(w, tile), y0)
                loss, grad = loss_and_gradient(w, tile, target)
                assert_same_bits(loss, loss0)
                assert_same_bits(grad, grad0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("depth, base, shape", [(3, 8, (64, 96)), (1, 1, (256, 200))])
    def test_full_size_bits(self, monkeypatch, dtype, depth, base, shape):
        # Base 1 gives one-channel convolutions, whose bias gradient numpy
        # sums pairwise, at a size where the order of that sum shows.
        rng = np.random.default_rng(4)
        cfg = ModelConfig(depth=depth, base_filters=base, in_channels=3, seed=3)
        w = init_weights(cfg).astype(dtype)
        tile, target = rng.uniform(0, 1, (*shape, 3)), rng.uniform(0, 1, shape)
        loss0, grad0 = oracle_loss_and_gradient(w, tile, target)
        for _ in each_lane_count(monkeypatch):
            loss, grad = loss_and_gradient(w, tile, target)
            assert_same_bits(loss, loss0)
            assert_same_bits(grad, grad0)


    def test_pool_gradient_zero_signs(self):
        # Off the route the pool's gradient is +0.0, so a -0.0 skip gradient
        # turns +0.0 there; a -0.0 routed onto it stays -0.0.
        rng = np.random.default_rng(15)
        cfg = tiny_cfg()
        buf = network._Buffers(cfg, (8, 8), np.float64)
        a = buf.out["enc0"]
        a[...] = rng.choice([0.5, 1.0], a.shape)  # tied windows, every cell active
        pooled, idx = _maxpool2(a.copy())
        buf.inner(buf.tape, "bottleneck")[...] = pooled
        dpool = rng.choice([-1.0, -0.0, 0.0, 2.0], pooled.shape)
        skip = np.full(a.shape, -0.0)
        network._pool_grad(cfg, buf, 0, dpool, skip, network._ONE_LANE)
        expect = (_maxpool2_backward(dpool, idx, a.shape) + skip) * (a > 0)
        assert_same_bits(buf.inner(buf.dyp, "enc0"), expect)


class TestBufferReuse:
    """Reused buffers must not carry one pass into the next."""

    def test_train_equals_oracle_loop_over_two_shapes(self, monkeypatch):
        rng = np.random.default_rng(10)
        shapes = [(8, 8), (16, 8), (8, 8), (16, 8)]
        data = [(rng.uniform(0, 1, (*s, 2)), rng.uniform(0, 1, s)) for s in shapes]
        w = init_weights(tiny_cfg(depth=2, base_filters=3))
        flat, expect_history = w.flat.copy(), []
        for _ in range(3):
            losses = []
            for x, target in data:
                loss, grad = oracle_loss_and_gradient(
                    Weights(w.config, flat).astype(np.float32), x, target)
                losses.append(loss)
                flat -= 0.05 * grad
            expect_history.append(float(np.mean(losses)))
        for _ in each_lane_count(monkeypatch):
            trained, history = train(w, data, TrainConfig(learning_rate=0.05, epochs=3))
            assert_same_bits(trained.flat, flat)
            assert history == expect_history

    def test_second_forward_leaves_first_result(self):
        rng = np.random.default_rng(11)
        cfg = tiny_cfg(depth=2)
        w = init_weights(cfg).astype(np.float32)
        buf = network._Buffers(cfg, (16, 8), np.float32, backward=False)
        x1, x2 = (rng.uniform(0, 1, (16, 8, 2)) for _ in range(2))
        y1 = forward(w, x1, buffers=buf)
        y2 = forward(w, x2, buffers=buf)
        assert_same_bits(y1, oracle_forward(w, x1))
        assert_same_bits(y2, oracle_forward(w, x2))

    def test_predict_city_equals_stack_of_forwards(self, monkeypatch):
        rng = np.random.default_rng(12)
        cfg = tiny_cfg(depth=2, in_channels=2)
        w = init_weights(cfg)
        for name, *_ in layer_specs(w.config):
            w.biases[name][...] = 0.1
        chans = [make_raster(rng.uniform(0, 1, (300, 280))) for _ in range(2)]
        params = NormalizationParams(0.0, 50.0)
        grid, tiles = tiler.split(chans)
        w32 = w.astype(np.float32)
        stitched = tiler.stitch(grid, np.stack([oracle_forward(w32, t)[..., 0] for t in tiles]))
        expect = clamp_nonnegative(denormalize(stitched, params))
        for _ in each_lane_count(monkeypatch):
            assert_same_bits(predict_city(w, chans, params).values, expect.values)

    def test_float64_step_after_float32_step(self):
        rng = np.random.default_rng(13)
        w = init_weights(tiny_cfg(depth=2))
        x, target = rng.uniform(0, 1, (16, 16, 2)), rng.uniform(0, 1, (16, 16))
        loss_and_gradient(w.astype(np.float32), x, target)
        loss, grad = loss_and_gradient(w, x, target)
        loss0, grad0 = oracle_loss_and_gradient(w, x, target)
        assert_same_bits(loss, loss0)
        assert_same_bits(grad, grad0)

    def test_float32_step_memory_bound(self):
        # The step's peak is 30.6 MiB, with no upsampled copy in any pass and
        # a half-size skip gradient per level; the padded inputs alone take
        # 12.8 MiB.  The bound is that peak plus 5 %.
        rng = np.random.default_rng(14)
        w = init_weights(ModelConfig(depth=3, base_filters=8, in_channels=3, seed=0))
        w32 = w.astype(np.float32)
        x = rng.uniform(0, 1, (256, 256, 3)).astype(np.float32)
        target = rng.uniform(0, 1, (256, 256)).astype(np.float32)
        tracemalloc.start()
        try:
            loss_and_gradient(w32, x, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32.1 * 2**20


def padded_borders(buf):
    """(label, values) of the border of every zero-bordered buffer in ``buf``,
    spare row included: each padded input in the tape and each padded
    output gradient."""
    for kind in ("tape", "dyp"):
        for name, a in getattr(buf, kind).items():
            if kind == "tape" and name.startswith("up"):
                continue  # an up-convolution's tape is its unpadded input
            border = np.ones(a.shape[:2], bool)
            buf.inner({name: border}, name)[...] = False
            yield f"{kind}[{name}]", a[border]


class TestLanes:
    """A pass on two lanes: the lane rule, the scratch the worker borrows,
    and an exception on the worker."""

    @staticmethod
    def case():
        rng = np.random.default_rng(16)
        w = init_weights(tiny_cfg(depth=2, base_filters=3))
        for name, *_ in layer_specs(w.config):
            w.biases[name][...] = 0.25
        return w, rng.uniform(-1, 1, (16, 8, 2)), rng.uniform(0, 1, (16, 8))

    @pytest.mark.parametrize("cpus, threads, lanes",
                             [(1, 1, 1), (2, 1, 2), (4, 1, 2), (2, 2, 1), (2, None, 1)])
    def test_two_lanes_only_beside_one_blas_thread(self, monkeypatch, cpus, threads, lanes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(network, "_blas_threads", lambda: threads)
        assert network._host_lanes() == lanes

    @pytest.mark.parametrize("side, lanes", [(64, 1), (96, 1), (128, 2), (256, 2)])
    def test_small_tiles_run_one_lane(self, monkeypatch, side, lanes):
        monkeypatch.setattr(network, "LANES", 2)
        counts, real = [], network._Lanes

        def spy(count):
            counts.append(count)
            return real(count)

        monkeypatch.setattr(network, "_Lanes", spy)
        w = init_weights(tiny_cfg())
        loss_and_gradient(w, np.zeros((side, side, 2)), np.zeros((side, side)))
        assert counts == [lanes, lanes]  # the forward and the backward pass

    def test_import_starts_no_thread(self):
        code = ("import threading, urbanmorph, urbanmorph.network as n; "
                "print(threading.active_count(), n._blas_threads(), n.LANES)")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        assert out[0] == "1"
        assert out[1] in ("1", "None")
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        assert out[2] == ("2" if out[1] == "1" and cpus >= 2 else "1")

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_borrowed_borders_stay_zero(self, monkeypatch, lanes):
        set_lanes(monkeypatch, lanes)
        w, x, target = self.case()
        step = network._Buffers(w.config, x.shape[:2], np.float64)
        inference = network._Buffers(w.config, x.shape[:2], np.float64, backward=False)
        for _ in range(2):
            for buf, run in ((step, lambda: loss_and_gradient(w, x, target, buffers=step)),
                             (step, lambda: forward(w, x, buffers=step)),
                             (inference, lambda: forward(w, x, buffers=inference))):
                run()
                for label, border in padded_borders(buf):
                    assert not border.any(), label

    def test_worker_exception_raised_and_buffers_reusable(self, monkeypatch):
        set_lanes(monkeypatch, 2)
        w, x, target = self.case()
        buf = network._Buffers(w.config, x.shape[:2], np.float64)
        loss0, grad0 = oracle_loss_and_gradient(w, x, target)
        threads = threading.active_count()
        real_pair = network._Lanes.pair

        class Boom(Exception):
            pass

        def failing_pair(k):
            """``pair``, whose k-th worker function runs and then raises there."""
            calls = itertools.count()

            def pair(self, first, second=None):
                if second is not None and next(calls) == k:
                    work = second

                    def second():
                        assert threading.current_thread() is not threading.main_thread()
                        work()
                        raise Boom

                real_pair(self, first, second)

            return pair, calls

        k = 0
        while True:
            pair, calls = failing_pair(k)
            monkeypatch.setattr(network._Lanes, "pair", pair)
            try:
                loss_and_gradient(w, x, target, buffers=buf)
            except Boom:
                pass
            else:
                assert k == next(calls) > 0  # every worker function of a step failed once
                break
            monkeypatch.setattr(network._Lanes, "pair", real_pair)
            loss, grad = loss_and_gradient(w, x, target, buffers=buf)
            assert_same_bits(loss, loss0)
            assert_same_bits(grad, grad0)
            assert threading.active_count() == threads
            k += 1


class TestTrain:
    def test_overfits_single_tile(self):
        rng = np.random.default_rng(5)
        w = init_weights(tiny_cfg(seed=1))
        x = rng.uniform(0, 1, (8, 8, 2))
        # A target the tiny net can actually represent: a fixed linear
        # combination of the input channels.
        target = 0.8 * x[..., 0] + 0.3 * x[..., 1]
        loss0, _ = loss_and_gradient(w, x, target)
        trained, history = train(w, [(x, target)], TrainConfig(learning_rate=0.1, epochs=150))
        lossN, _ = loss_and_gradient(trained, x, target)
        assert lossN < 0.1 * loss0
        assert len(history) == 150
        assert history[-1] < history[0]

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(6)
        w = init_weights(tiny_cfg())
        x = rng.uniform(0, 1, (8, 8, 2))
        trained, _ = train(w, [(x, np.ones((8, 8)))], TrainConfig(learning_rate=0.0, epochs=3))
        np.testing.assert_array_equal(trained.flat, w.flat)

    def test_deterministic(self, monkeypatch):
        rng = np.random.default_rng(7)
        data = [(rng.uniform(0, 1, (8, 8, 2)), rng.uniform(0, 1, (8, 8))) for _ in range(3)]
        cfg = TrainConfig(learning_rate=0.01, epochs=4)
        runs = [train(init_weights(tiny_cfg()), data, cfg)
                for _ in each_lane_count(monkeypatch) for _ in range(2)]
        for b, hb in runs[1:]:
            assert_same_bits(b.flat, runs[0][0].flat)
            assert hb == runs[0][1]

    @pytest.mark.parametrize("lr, sample", [(1e200, 0), (3e38, 1)])
    def test_weights_beyond_float32_named(self, lr, sample):
        # The head's bias alone gives 0.5 on a zero tile: the first sample
        # has a zero gradient.  3e38 is finite at float32, so that step
        # leaves the weights as they are; 1e200 * 0 is NaN there.
        w = init_weights(tiny_cfg())
        w.biases["head"][...] = 0.5
        rng = np.random.default_rng(8)
        data = [(np.zeros((8, 8, 2)), np.full((8, 8), 0.5)),
                (rng.uniform(0, 1, (8, 8, 2)), np.full((8, 8), 1e3))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=f"epoch 0, sample {sample}$"):
                train(w, data, TrainConfig(learning_rate=lr, epochs=2))

    def test_divergence_named(self):
        rng = np.random.default_rng(8)
        w = init_weights(tiny_cfg())
        x = rng.uniform(0, 1, (8, 8, 2))
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="epoch"):
            train(w, [(x, np.full((8, 8), 1e30))], TrainConfig(learning_rate=1.0, epochs=2))

    @pytest.mark.parametrize("value", [1e200, -1e200])
    def test_value_beyond_float32_named(self, monkeypatch, value):
        # Finite at float64, inf once cast to the float32 of a step.
        x = np.zeros((8, 8, 2))
        target = np.zeros((8, 8))
        target[2, 3] = value
        data = [(x, np.zeros((8, 8))), (x, target)]
        passes = spy_passes(monkeypatch)
        with pytest.raises(InputError, match="sample 1 target .*float32"):
            train(init_weights(tiny_cfg()), data, TrainConfig(epochs=2))
        assert not passes  # rejected before the first step

    def test_empty_dataset(self):
        with pytest.raises(ShapeError):
            train(init_weights(tiny_cfg()), [], TrainConfig())

    def test_equals_plain_sgd_loop(self):
        rng = np.random.default_rng(9)
        data = [(rng.uniform(0, 1, (8, 8, 2)), rng.uniform(0, 1, (8, 8))) for _ in range(3)]
        w = init_weights(tiny_cfg())
        flat, expect_history = w.flat.copy(), []
        for _ in range(3):
            losses = []
            for x, target in data:
                loss, grad = loss_and_gradient(
                    Weights(w.config, flat).astype(np.float32), x, target)
                losses.append(loss)
                flat = flat - 0.05 * grad
            expect_history.append(float(np.mean(losses)))
        trained, history = train(w, data, TrainConfig(learning_rate=0.05, epochs=3))
        np.testing.assert_array_equal(trained.flat, flat)
        assert history == expect_history

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_caller_weights_unchanged(self, dtype):
        x = np.random.default_rng(5).uniform(0, 1, (8, 8, 2))
        w = init_weights(tiny_cfg(seed=1)).astype(dtype)
        before = w.flat.copy()
        data = [(x, 0.8 * x[..., 0] + 0.3 * x[..., 1])]
        trained, _ = train(w, data, TrainConfig(learning_rate=0.1, epochs=2))
        assert w.flat.dtype == dtype and trained.flat.dtype == np.float64
        np.testing.assert_array_equal(w.flat, before)
        assert not np.array_equal(trained.flat, before)


class TestFlatRoundTrip:
    def test_round_trip(self):
        w = init_weights(ModelConfig(depth=2, base_filters=3, in_channels=4, seed=2))
        flat = w.flat.copy()
        back = Weights(w.config, flat)
        for name, *_ in layer_specs(w.config):
            np.testing.assert_array_equal(back.kernels[name], w.kernels[name])
            np.testing.assert_array_equal(back.biases[name], w.biases[name])

    def test_wrong_length(self):
        w = init_weights(tiny_cfg())
        with pytest.raises(ShapeError):
            Weights(w.config, np.zeros(3))


class TestFlatLayout:
    def test_views_write_through(self):
        w = init_weights(tiny_cfg())
        w.kernels["enc0"][0, 0, 0, 0] = 5.0
        w.biases["head"][0] = -3.0
        assert w.flat[0] == 5.0 and w.flat[-1] == -3.0
        w.flat[:] = 0.0
        for name, *_ in layer_specs(w.config):
            np.testing.assert_array_equal(w.kernels[name], 0.0)
            np.testing.assert_array_equal(w.biases[name], 0.0)

    def test_copies_do_not_alias(self):
        # ``astype`` copies, even to the dtype the weights already have.
        w = init_weights(tiny_cfg())
        assert not np.shares_memory(w.astype(np.float64).flat, w.flat)


class TestWeightsIO:
    def test_round_trip(self, tmp_path):
        w = init_weights(ModelConfig(depth=2, base_filters=3, in_channels=2, seed=5))
        path = tmp_path / "w.glbw"
        write_weights(w, path)
        back = read_weights(path)
        assert back.config == w.config
        np.testing.assert_allclose(
            back.flat, w.flat.astype(np.float32), rtol=0, atol=0
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bytes_match_per_layer_layout(self, tmp_path, dtype):
        rng = np.random.default_rng(4)
        cfg = ModelConfig(depth=2, base_filters=3, in_channels=2, seed=5)
        w = Weights(cfg, rng.standard_normal(parameter_count(cfg)))
        path = tmp_path / "w.glbw"
        write_weights(w.astype(dtype), path)
        assert path.read_bytes() == per_layer_glbw(w.astype(dtype))

    @pytest.mark.parametrize(
        "field, value",
        [("depth", 0), ("depth", 9), ("depth", 2**31 - 1), ("kernel_size", 4),
         ("kernel_size", -1), ("base_filters", 0), ("in_channels", 0),
         ("base_filters", 2**31 - 1)],
    )
    def test_bad_header_value(self, tmp_path, field, value):
        w = init_weights(tiny_cfg())
        path = tmp_path / "w.glbw"
        write_weights(w, path)
        header = dict(depth=1, base_filters=2, kernel_size=3, in_channels=2)
        header[field] = value
        raw = path.read_bytes()
        path.write_bytes(
            struct.pack("<4sHiiii", b"GLBW", 1, *header.values()) + raw[22:]
        )
        with pytest.raises(FormatError, match="bad model header"):
            read_weights(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.glbw"
        path.write_bytes(b"XXXX" + b"\x00" * 60)
        with pytest.raises(FormatError, match="magic"):
            read_weights(path)

    def test_truncated(self, tmp_path):
        w = init_weights(tiny_cfg())
        path = tmp_path / "w.glbw"
        write_weights(w, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="byte"):
            read_weights(path)

    # 0x7FA00000 is a signalling NaN: casting it to float64 warns.
    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7FA00000, 0x7F800000, 0xFF800000])
    def test_non_finite_parameter(self, tmp_path, bits):
        w = init_weights(tiny_cfg())
        path = tmp_path / "w.glbw"
        write_weights(w, path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = struct.pack("<I", bits)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="1 non-finite parameters"):
            read_weights(path)

    def test_loss_history_csv(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_history([1.5, 0.75], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert lines[1].startswith("0,") and float(lines[1].split(",")[1]) == 1.5


class TestPredictCity:
    def test_zero_weights_give_min_value(self):
        cfg = tiny_cfg(in_channels=2)
        w = Weights(cfg, np.zeros(parameter_count(cfg)))
        chans = [make_raster(np.random.default_rng(0).uniform(0, 1, (300, 280)))
                 for _ in range(2)]
        out = predict_city(w, chans, NormalizationParams(0.0, 50.0))
        assert (out.width, out.height) == (280, 300)
        np.testing.assert_array_equal(out.values, 0.0)

    def test_denormalization_applied(self):
        # Head bias alone sets a constant normalized output of 0.5.
        cfg = tiny_cfg(in_channels=1)
        w = Weights(cfg, np.zeros(parameter_count(cfg)))
        w.biases["head"][0] = 0.5
        out = predict_city(w, [make_raster(np.zeros((256, 256)))],
                           NormalizationParams(0.0, 60.0))
        np.testing.assert_allclose(out.values, 30.0, atol=1e-4)

