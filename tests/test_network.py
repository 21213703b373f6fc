import struct

import numpy as np
import pytest

from urbanmorph.errors import (
    DivergenceError,
    FormatError,
    InputError,
    ShapeError,
)
from urbanmorph.footprints import FootprintMask
from urbanmorph.network import (
    ModelConfig,
    TrainConfig,
    Weights,
    baseline_predict,
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
from urbanmorph.raster import NormalizationParams, Raster

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
    for name in w.layer_names():
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
        a = init_weights(tiny_cfg()).to_flat()
        b = init_weights(tiny_cfg()).to_flat()
        np.testing.assert_array_equal(a, b)
        c = init_weights(tiny_cfg(seed=8)).to_flat()
        assert not np.array_equal(a, c)

    def test_biases_zero(self):
        w = init_weights(tiny_cfg())
        for name in w.layer_names():
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
        assert init_weights(cfg).to_flat().size == expect

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


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        w = init_weights(tiny_cfg())
        x = rng.uniform(-1, 1, (8, 8, 2))
        target = rng.uniform(0, 1, (8, 8))
        loss0, grad = loss_and_gradient(w, x, target)
        flat = w.to_flat()
        eps = 1e-6
        picks = rng.choice(flat.size, size=60, replace=False)
        for i in picks:
            up, down = flat.copy(), flat.copy()
            up[i] += eps
            down[i] -= eps
            lp, _ = loss_and_gradient(w.from_flat(up), x, target)
            lm, _ = loss_and_gradient(w.from_flat(down), x, target)
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
        np.testing.assert_array_equal(trained.to_flat(), w.to_flat())

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        data = [(rng.uniform(0, 1, (8, 8, 2)), rng.uniform(0, 1, (8, 8))) for _ in range(3)]
        cfg = TrainConfig(learning_rate=0.01, epochs=4)
        a, ha = train(init_weights(tiny_cfg()), data, cfg)
        b, hb = train(init_weights(tiny_cfg()), data, cfg)
        np.testing.assert_array_equal(a.to_flat(), b.to_flat())
        assert ha == hb

    def test_divergence_named(self):
        rng = np.random.default_rng(8)
        w = init_weights(tiny_cfg())
        x = rng.uniform(0, 1, (8, 8, 2))
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="epoch"):
            train(w, [(x, np.full((8, 8), 1e200))], TrainConfig(learning_rate=1.0, epochs=2))

    def test_empty_dataset(self):
        with pytest.raises(ShapeError):
            train(init_weights(tiny_cfg()), [], TrainConfig())

    def test_equals_plain_sgd_loop(self):
        rng = np.random.default_rng(9)
        data = [(rng.uniform(0, 1, (8, 8, 2)), rng.uniform(0, 1, (8, 8))) for _ in range(3)]
        w = init_weights(tiny_cfg())
        flat, expect_history = w.to_flat(), []
        for _ in range(3):
            losses = []
            for x, target in data:
                loss, grad = loss_and_gradient(w.from_flat(flat), x, target)
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
        before = w.to_flat()
        data = [(x, 0.8 * x[..., 0] + 0.3 * x[..., 1])]
        trained, _ = train(w, data, TrainConfig(learning_rate=0.1, epochs=2))
        assert w.flat.dtype == dtype and trained.flat.dtype == np.float64
        np.testing.assert_array_equal(w.flat, before)
        assert not np.array_equal(trained.flat, before)


class TestFlatRoundTrip:
    def test_round_trip(self):
        w = init_weights(ModelConfig(depth=2, base_filters=3, in_channels=4, seed=2))
        flat = w.to_flat()
        back = w.from_flat(flat)
        for name in w.layer_names():
            np.testing.assert_array_equal(back.kernels[name], w.kernels[name])
            np.testing.assert_array_equal(back.biases[name], w.biases[name])

    def test_wrong_length(self):
        w = init_weights(tiny_cfg())
        with pytest.raises(ShapeError):
            w.from_flat(np.zeros(3))


class TestFlatLayout:
    def test_views_write_through(self):
        w = init_weights(tiny_cfg())
        w.kernels["enc0"][0, 0, 0, 0] = 5.0
        w.biases["head"][0] = -3.0
        assert w.flat[0] == 5.0 and w.flat[-1] == -3.0
        w.flat[:] = 0.0
        for name in w.layer_names():
            np.testing.assert_array_equal(w.kernels[name], 0.0)
            np.testing.assert_array_equal(w.biases[name], 0.0)

    def test_copies_do_not_alias(self):
        w = init_weights(tiny_cfg())
        flat = w.to_flat()
        back = w.from_flat(flat)
        for copy in (flat, back.flat, w.astype(np.float64).flat):
            assert not np.shares_memory(copy, w.flat)
        assert not np.shares_memory(back.flat, flat)

class TestWeightsIO:
    def test_round_trip(self, tmp_path):
        w = init_weights(ModelConfig(depth=2, base_filters=3, in_channels=2, seed=5))
        path = tmp_path / "w.glbw"
        write_weights(w, path)
        back = read_weights(path)
        assert back.config == w.config
        np.testing.assert_allclose(
            back.to_flat(), w.to_flat().astype(np.float32), rtol=0, atol=0
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bytes_match_per_layer_layout(self, tmp_path, dtype):
        rng = np.random.default_rng(4)
        cfg = ModelConfig(depth=2, base_filters=3, in_channels=2, seed=5)
        w = init_weights(cfg).from_flat(rng.standard_normal(parameter_count(cfg)))
        path = tmp_path / "w.glbw"
        write_weights(w.astype(dtype), path)
        assert path.read_bytes() == per_layer_glbw(w.astype(dtype))

    @pytest.mark.parametrize(
        "field, value",
        [("depth", 0), ("depth", 9), ("depth", 2**31 - 1), ("kernel_size", 4),
         ("kernel_size", -1), ("base_filters", 0), ("in_channels", 0)],
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

    def test_loss_history_csv(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_history([1.5, 0.75], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert lines[1].startswith("0,") and float(lines[1].split(",")[1]) == 1.5


class TestPredictCity:
    def test_zero_weights_give_min_value(self):
        cfg = tiny_cfg(in_channels=2)
        w = init_weights(cfg).from_flat(np.zeros(parameter_count(cfg)))
        chans = [make_raster(np.random.default_rng(0).uniform(0, 1, (300, 280)))
                 for _ in range(2)]
        out = predict_city(w, chans, NormalizationParams(0.0, 50.0))
        assert (out.width, out.height) == (280, 300)
        np.testing.assert_array_equal(out.values, 0.0)

    def test_denormalization_applied(self):
        # Head bias alone sets a constant normalized output of 0.5.
        cfg = tiny_cfg(in_channels=1)
        w = init_weights(cfg).from_flat(np.zeros(parameter_count(cfg)))
        w.biases["head"][0] = 0.5
        out = predict_city(w, [make_raster(np.zeros((256, 256)))],
                           NormalizationParams(0.0, 60.0))
        np.testing.assert_allclose(out.values, 30.0, atol=1e-4)


class TestBaseline:
    def test_masked_clamped(self):
        heights = make_raster([[5.0, -2.0], [7.0, 9.0]])
        mask = FootprintMask(
            raster=make_raster([[1.0, 1.0], [0.0, 1.0]]),
            source_ids=np.array([[1, 1], [0, 1]], dtype=np.int64),
        )
        out = baseline_predict(heights, mask)
        np.testing.assert_array_equal(out.values, [[5.0, 0.0], [0.0, 9.0]])
