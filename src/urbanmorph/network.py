"""Encoder-decoder height regressor with hand-written forward/backward passes.

The network is U-shaped: per encoder level a 3x3 convolution + ReLU followed
by 2x2 max pooling; a bottleneck convolution; per decoder level a 2x nearest
upsample, convolution + ReLU, concatenation with the encoder skip, and a
second convolution + ReLU; finally a 1x1 convolution with a ReLU head so
predictions are non-negative.

All parameters live in one flat vector, ``Weights.flat``, in ``layer_specs``
order; each layer's kernel and bias are views into it.  Training updates that
vector in place, the gradient is built in the same layout, and the GLBW file
stores it as little-endian float32 after the header.  Gradients are verified
against central finite differences in the test suite.  Gradient math runs at
64-bit; production inference casts to 32-bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AlignmentError,
    DivergenceError,
    FormatError,
    InputError,
    ShapeError,
)
from .footprints import FootprintMask
from .raster import (
    NormalizationParams,
    Raster,
    clamp_nonnegative,
    denormalize,
    require_aligned,
)
from . import tiler

GLBW_MAGIC = b"GLBW"
GLBW_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    depth: int = 3
    base_filters: int = 8
    kernel_size: int = 3
    in_channels: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.base_filters < 1:
            raise ValueError("base_filters must be >= 1")
        if self.kernel_size < 1 or self.kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd and >= 1")
        if self.in_channels < 1:
            raise ValueError("in_channels must be >= 1")
        # The bit length bounds depth before 2 ** depth is built from a file value.
        if self.depth >= tiler.TILE_SIZE.bit_length() or tiler.TILE_SIZE % 2 ** self.depth:
            raise ValueError(f"tile size {tiler.TILE_SIZE} not divisible by 2^depth")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 1

    def __post_init__(self):
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def layer_specs(cfg: ModelConfig) -> list[tuple[str, int, int, int, int]]:
    """Declared layer order as (name, kh, kw, in_channels, out_channels)."""
    k = cfg.kernel_size
    filters = [cfg.base_filters * (2 ** l) for l in range(cfg.depth + 1)]
    specs = []
    cin = cfg.in_channels
    for l in range(cfg.depth):
        specs.append((f"enc{l}", k, k, cin, filters[l]))
        cin = filters[l]
    specs.append(("bottleneck", k, k, filters[cfg.depth - 1], filters[cfg.depth]))
    for l in reversed(range(cfg.depth)):
        specs.append((f"up{l}", k, k, filters[l + 1], filters[l]))
        specs.append((f"dec{l}", k, k, 2 * filters[l], filters[l]))
    specs.append(("head", 1, 1, filters[0], 1))
    return specs


def parameter_count(cfg: ModelConfig) -> int:
    return sum(kh * kw * cin * cout + cout for _, kh, kw, cin, cout in layer_specs(cfg))


@dataclass
class Weights:
    """The parameters as one flat vector, ``flat``, in ``layer_specs`` order:
    each layer's kernel (kh, kw, cin, cout) and then its bias.

    ``kernels[name]`` and ``biases[name]`` are views into ``flat``, so a write
    to either is a write to the other.
    """

    config: ModelConfig
    flat: np.ndarray = field(repr=False)
    kernels: dict[str, np.ndarray] = field(init=False, repr=False)
    biases: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        n = parameter_count(self.config)
        if self.flat.shape != (n,):
            raise ShapeError(f"flat vector shape {self.flat.shape} != ({n},)")
        self.kernels, self.biases = {}, {}
        pos = 0
        for name, kh, kw, cin, cout in layer_specs(self.config):
            end = pos + kh * kw * cin * cout
            self.kernels[name] = self.flat[pos:end].reshape(kh, kw, cin, cout)
            self.biases[name] = self.flat[end : end + cout]
            pos = end + cout

    def layer_names(self) -> list[str]:
        return [name for name, *_ in layer_specs(self.config)]

    def to_flat(self) -> np.ndarray:
        return self.flat.copy()

    def from_flat(self, flat: np.ndarray) -> "Weights":
        return Weights(self.config, np.array(flat, dtype=np.float64))

    def astype(self, dtype) -> "Weights":
        return Weights(self.config, self.flat.astype(dtype))


def init_weights(cfg: ModelConfig) -> Weights:
    """He-scaled random kernels, zero biases; deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    w = Weights(cfg, np.zeros(parameter_count(cfg)))
    for name, kh, kw, cin, cout in layer_specs(cfg):
        fan_in = kh * kw * cin
        w.kernels[name][...] = rng.standard_normal((kh, kw, cin, cout)) * np.sqrt(2.0 / fan_in)
    return w


# -- primitive layers --------------------------------------------------------


def _conv_same(x: np.ndarray, kernel: np.ndarray, bias):
    """'Same' convolution of (H, W, Cin) ``x``; returns it and its im2col patches."""
    kh, kw, cin, cout = kernel.shape
    ph, pw = kh // 2, kw // 2
    if ph or pw:
        xp = np.pad(x, ((ph, ph), (pw, pw), (0, 0)))
    else:
        xp = x
    win = sliding_window_view(xp, (kh, kw), axis=(0, 1))  # (H, W, Cin, kh, kw)
    patches = win.transpose(0, 1, 3, 4, 2).reshape(-1, kh * kw * cin)
    y = patches @ kernel.reshape(-1, cout)
    if bias is not None:
        y = y + bias
    return y.reshape(x.shape[0], x.shape[1], cout), patches


def _conv_backward(dy, patches, kernel):
    kh, kw, cin, cout = kernel.shape
    dy_mat = dy.reshape(-1, cout)
    dk = (patches.T @ dy_mat).reshape(kernel.shape)
    db = dy_mat.sum(axis=0)
    # dx is a full correlation with the 180-degree-rotated kernel, channels
    # swapped; exact for 'same' zero padding with odd kernels.
    k_rot = kernel[::-1, ::-1].transpose(0, 1, 3, 2)
    dx, _ = _conv_same(dy, np.ascontiguousarray(k_rot), None)
    return dx, dk, db


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


# -- network forward / backward ---------------------------------------------


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

    def conv_relu_back(name, da):
        dx, dk, db = _conv_backward(da * tape["relu"][name], tape["convs"][name], w.kernels[name])
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
        d = conv_relu_back(f"enc{l}", d)
    return grad.flat


def _checked_tile(w: Weights, tile: np.ndarray) -> np.ndarray:
    """``tile`` as (H, W, C), rejected unless finite and shaped for ``w``."""
    tile = np.asarray(tile)
    if tile.ndim == 2:
        tile = tile[..., None]
    if not np.isfinite(tile).all():
        raise InputError("tile contains non-finite values")
    if tile.shape[-1] != w.config.in_channels:
        raise ShapeError(
            f"tile has {tile.shape[-1]} channels, model expects {w.config.in_channels}"
        )
    div = 2 ** w.config.depth
    if tile.shape[0] % div or tile.shape[1] % div:
        raise ShapeError(
            f"tile size {tile.shape[:2]} not divisible by 2^depth = {div}"
        )
    return tile


def forward(w: Weights, tile: np.ndarray) -> np.ndarray:
    """Predict a (H, W, 1) non-negative height field from a (H, W, C) tile."""
    y, _ = _forward_tape(w, _checked_tile(w, tile))
    return y


def loss_and_gradient(
    w: Weights, tile: np.ndarray, target: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared error over cells and its gradient in flat-vector order."""
    tile = _checked_tile(w, np.asarray(tile, dtype=np.float64))
    target = np.asarray(target, dtype=np.float64)
    if target.shape != tile.shape[:2]:
        raise ShapeError(f"target shape {target.shape} != tile spatial {tile.shape[:2]}")
    if not np.isfinite(target).all():
        raise InputError("target contains non-finite values")
    w64 = w if w.flat.dtype == np.float64 else w.astype(np.float64)
    y, tape = _forward_tape(w64, tile)
    diff = y[..., 0] - target
    loss = float(np.mean(diff * diff))
    dy = (2.0 / diff.size) * diff[..., None]
    return loss, _backward_tape(w64, tape, dy)


def train(
    w: Weights, dataset: list[tuple[np.ndarray, np.ndarray]], cfg: TrainConfig
) -> tuple[Weights, list[float]]:
    """Per-sample gradient descent at batch size 1 with a fixed learning rate.

    Samples are visited in the order given; the run is bit-deterministic for
    a fixed (weights, dataset order, config).  Returns the trained weights
    and the per-epoch mean loss.
    """
    if not dataset:
        raise ShapeError("training dataset is empty")
    w = w.astype(np.float64)  # a copy: the caller's weights stay as they are
    history = []
    for epoch in range(cfg.epochs):
        losses = []
        for tile, target in dataset:
            loss, grad = loss_and_gradient(w, tile, target)
            if not np.isfinite(loss):
                raise DivergenceError(f"loss became non-finite at epoch {epoch}")
            losses.append(loss)
            w.flat -= cfg.learning_rate * grad
        history.append(float(np.mean(losses)))
    return w, history


# -- city-scale inference ----------------------------------------------------


def predict_city(
    w: Weights,
    channels: list[Raster],
    target_params: NormalizationParams,
) -> Raster:
    """Tile the normalized channels, run the network per tile, stitch, and
    express the result in meters (denormalized, clamped non-negative)."""
    plan, tiles = tiler.split(channels)
    w32 = w.astype(np.float32)
    outputs = []
    for tile in tiles:
        y = forward(w32, tile.stacked().astype(np.float32))
        outputs.append((tile.row_index, tile.col_index, y[..., 0]))
    stitched = tiler.stitch(plan, outputs)
    return clamp_nonnegative(denormalize(stitched, target_params))


def baseline_predict(ndsm_coarse_resampled: Raster, mask: FootprintMask) -> Raster:
    """Deterministic non-learned reference: the resampled coarse height layer
    masked to footprint cells, clamped non-negative, zero elsewhere."""
    require_aligned(ndsm_coarse_resampled, mask.raster, "baseline inputs")
    vals = np.where(
        mask.raster.values > 0,
        np.maximum(ndsm_coarse_resampled.values, 0.0),
        np.float32(0.0),
    )
    return ndsm_coarse_resampled.with_values(vals)


# -- weights file I/O --------------------------------------------------------

_GLBW_HEADER = struct.Struct("<4sHiiiiq")


def write_weights(w: Weights, path) -> None:
    cfg = w.config
    with open(path, "wb") as f:
        f.write(
            _GLBW_HEADER.pack(
                GLBW_MAGIC,
                GLBW_VERSION,
                cfg.depth,
                cfg.base_filters,
                cfg.kernel_size,
                cfg.in_channels,
                cfg.seed,
            )
        )
        f.write(w.flat.astype("<f4").tobytes())


def read_weights(path) -> Weights:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _GLBW_HEADER.size:
        raise FormatError(f"{path}: truncated header at byte {len(raw)}")
    magic, version, depth, base, ks, cin, seed = _GLBW_HEADER.unpack_from(raw)
    if magic != GLBW_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
    if version != GLBW_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    try:
        cfg = ModelConfig(
            depth=depth, base_filters=base, kernel_size=ks, in_channels=cin, seed=seed
        )
    except ValueError as exc:
        raise FormatError(f"{path}: bad model header ({exc})") from exc
    expected = _GLBW_HEADER.size + 4 * parameter_count(cfg)
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(raw)}")
    return Weights(cfg, np.frombuffer(raw, "<f4", offset=_GLBW_HEADER.size).astype(np.float64))


def write_loss_history(history: list[float], path) -> None:
    with open(path, "w") as f:
        f.write("epoch,mean_loss\n")
        for i, loss in enumerate(history):
            f.write(f"{i},{loss!r}\n")
