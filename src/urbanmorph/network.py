"""Encoder-decoder height regressor with hand-written forward/backward passes.

The network is U-shaped: per encoder level a 3x3 convolution + ReLU followed
by 2x2 max pooling; a bottleneck convolution; per decoder level a 2x nearest
upsample, convolution + ReLU, concatenation with the encoder skip, and a
second convolution + ReLU; finally a 1x1 convolution with a ReLU head so
predictions are non-negative.

All parameters live in one flat vector, ``Weights.flat``, in ``layer_specs``
order; each layer's kernel and bias are views into it.  Training updates that
vector in place, the gradient is built in the same layout, and the GLBW file
stores it as little-endian float32 after the header.

Every pass runs at the dtype of the weights it is given: the tile, target,
tape and gradient all take ``flat``'s dtype.  ``train`` keeps a float64
master copy of the weights and runs each step at float32 against it (mixed
precision; Micikevicius et al. 2018): the step's forward and backward pass
see ``w.astype(np.float32)``, and the update is applied to the float64
master.  ``loss_and_gradient`` at float64 is the path the test suite checks
against central finite differences.  Inference runs at float32.

Every convolution is a sum of shifted GEMMs ("implicit im2col"): its input
sits zero-padded in a buffer, flattened to rows of the padded width, and each
kernel tap multiplies one contiguous slice of those rows.  No patch matrix is
built.  A pass runs in one set of buffers, ``_Buffers``, made for its config,
tile shape and dtype; ``train`` reuses one set for all steps on tiles of a
shape, and ``predict_city`` one for all its tiles.  Each convolution adds its
bias and applies its ReLU in place on its accumulator, then writes its output
into its consumer's input, mostly the interior of a zero-bordered padded
buffer.  Max-pooling (the maximum of four strided views) and the decoder's
concatenation (two channel slices) write there too.

No buffer keeps an upsampled activation.  The layer below each
up-convolution writes its activation once, unpadded, on its own grid; the
up-convolution rebuilds its 2x nearest upsample, zero-bordered, in scratch
(one broadcast assignment) just before its GEMMs, forward and backward, and
runs them as every other convolution does.

The training tape is the padded input of each convolution, or the coarse
activation an up-convolution upsamples, and nothing else.  The backward pass
reads each ReLU mask from the activation held in a consumer's input, and
routes each max-pool gradient to the first maximum of its window, found by
comparing the encoder activation with the pooled interior.  The kernel
gradient comes from the same slices as the forward GEMMs; the input gradient
is the same shifted convolution of the padded output gradient with the
rotated kernel.

Each pass runs on the calling thread, in layer order, and keeps every sum
in one order, so its bits do not depend on any thread count of this
package.

Buffer lifetimes: the tape lives through the step.  Two flat scratch arrays
serve one convolution at a time.  Forward, ``tmp`` holds its GEMM sum and
tap products, and ``acc`` an up-convolution's rebuilt upsampled input.
Backward, the kernel gradient reads the tape, or ``acc``'s rebuilt input,
before the input gradient, computed in ``acc`` with ``tmp`` as its scratch,
overwrites that input.  A padded output gradient serves the convolutions of
its shape in turn.  Each ``dec{l}`` input gradient is computed in ``acc``;
its skip half, read only at ``enc{l}``'s step, is copied to a tape array of
its shape that is idle from then on: for ``dec0`` the head's input, whose
ReLU mask was read at the head's step, and for ``dec{l}`` the input of
``up{l-1}``, which holds ``dec{l}``'s activation and was last read at
``up{l-1}``'s step.  The next forward pass writes both anew.  The pass gives
the same bits as the unfused layer-by-layer pass that the tests keep as its
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, FormatError, InputError, ShapeError
from .raster import Format, NormalizationParams, Raster, clamp_nonnegative, denormalize
from . import tiler

# The largest U-Net a config or a weights header may ask for, counted in
# ``step_values``: about 1 to 2 GiB at 4 to 8 bytes a value.  The defaults
# (depth 3, 8 base filters) hold 7.6 million.
MAX_STEP_VALUES = 2**28


@dataclass(frozen=True)
class ModelConfig:
    depth: int = 3
    base_filters: int = 8
    kernel_size: int = 3
    in_channels: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2**63:  # GLBW stores it as an int64
            raise ValueError(f"seed {self.seed} must be in [0, 2^63)")
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
        if not (values := step_values(self)) <= MAX_STEP_VALUES:
            raise ValueError(
                f"depth {self.depth} and base_filters {self.base_filters}: a step on a "
                f"{tiler.TILE_SIZE} x {tiler.TILE_SIZE} tile holds {values:.3g} values, "
                f"more than {MAX_STEP_VALUES}"
            )


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


def _level(cfg: ModelConfig, name: str) -> int:
    """The pooling level that layer ``name`` runs at: its grid is 2^level times coarser."""
    return cfg.depth if name == "bottleneck" else 0 if name == "head" else int(name[-1])


def step_values(cfg: ModelConfig) -> int:
    """The values a training step on a ``TILE_SIZE``² tile holds, about: every
    parameter, and each convolution's input and output at its level."""
    total = parameter_count(cfg)
    for name, _, _, cin, cout in layer_specs(cfg):
        total += (tiler.TILE_SIZE >> _level(cfg, name)) ** 2 * (cin + cout)
    return total


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


# -- the pass ----------------------------------------------------------------

# Max-pool window cells in the order ``argmax`` once scanned them: the first
# maximum in this order receives the pooled cell's gradient.
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def _below(cfg: ModelConfig, prefix: str, l: int) -> str:
    """The convolution one level below level ``l`` on the ``prefix`` side."""
    return f"{prefix}{l + 1}" if l + 1 < cfg.depth else "bottleneck"


def _scratch(flat: np.ndarray, shape) -> np.ndarray:
    """A C-contiguous ``shape`` view of the front of the flat array ``flat``."""
    return flat[: math.prod(shape)].reshape(shape)


def _shifted_gemm(xp: np.ndarray, kernel: np.ndarray, acc: np.ndarray, tmp: np.ndarray):
    """Into ``acc`` (h * Wp, cout): the 'same' correlation of the padded buffer
    ``xp`` (h + 2p + 1, Wp, cin), one GEMM per tap (i, j) on the flat rows
    whose row r * Wp + c is xp[r + i, c + j].  The columns c >= Wp - 2p of
    each row wrap into the next row and are junk.  ``tmp`` is scratch of
    ``acc``'s shape for each tap's product, added to ``acc`` in tap order."""
    kh, kw, cin, _ = kernel.shape
    wp = xp.shape[1]
    n = acc.shape[0]
    flat = xp.reshape(-1, cin)
    taps = [(i * wp + j, kernel[i, j]) for i in range(kh) for j in range(kw)]
    np.matmul(flat[:n], kernel[0, 0], out=acc)
    for s, k in taps[1:]:
        np.matmul(flat[s : s + n], k, out=tmp)
        acc += tmp
    return acc


class _Buffers:
    """Every array of a pass for one (config, tile shape, dtype), reused by
    each pass run in it.

    ``tape[name]`` is the padded input of convolution ``name``: zero-bordered,
    (h + 2p + 1, w + 2p, cin) with an extra zero row; a pass writes only its
    interior.  An up-convolution's is the (h / 2, w / 2, cin) activation it
    upsamples, with no border; no array holds the upsampled input.
    ``out[name]`` is the (h, w, cout) view where the activation of ``name``
    lives: its consumer's interior (a decoder input holds the up-convolution
    output, then the encoder skip), the whole input of an up-convolution, or
    ``y`` for the head.  ``tmp`` is flat scratch that one GEMM sum and its
    tap products at a time take views of; ``acc`` is flat scratch for an
    up-convolution's upsampled padded input, rebuilt from its tape, and for
    an input gradient.

    With ``backward``, ``dyp[name]`` is the padded output gradient of
    ``name``, one array per shape, which its convolutions use in turn;
    ``skip[name]`` holds the skip half of a decoder convolution's input
    gradient from its step until the encoder level's, in a tape array of
    that shape which the backward pass no longer reads: ``dec0``'s in the
    head's input, ``dec{l}``'s in ``up{l-1}``'s; ``flags`` is boolean
    scratch.
    """

    def __init__(self, cfg: ModelConfig, shape, dtype, backward: bool = True):
        h, w = shape
        self.tape, self.size, self.out, self.dyp, self.skip = {}, {}, {}, {}, {}
        acc = tmp = flags = 0
        for name, k, _, cin, cout in layer_specs(cfg):
            level = _level(cfg, name)
            self.size[name] = hl, wl = h >> level, w >> level
            p = k // 2
            padded = (hl + 2 * p + 1, wl + 2 * p)
            n = hl * padded[1]
            up = name.startswith("up")
            self.tape[name] = np.zeros((hl // 2, wl // 2, cin) if up else padded + (cin,), dtype)
            if up or backward:
                acc = max(acc, math.prod(padded) * cin)
            tmp = max(tmp, 2 * n * cout)
            if backward:
                tmp = max(tmp, n * cin)
                flags = max(flags, 2 * hl * wl * cout)
                dyp = padded + (cout,)
                same = [a for a in self.dyp.values() if a.shape == dyp]
                self.dyp[name] = same[0] if same else np.zeros(dyp, dtype)
        self.acc, self.tmp = np.empty(acc, dtype), np.empty(tmp, dtype)
        self.flags = np.empty(flags, bool)
        self.y = np.empty((h, w, 1), dtype)
        self.out["head"], self.out["dec0"] = self.y, self.inner(self.tape, "head")
        for l in range(cfg.depth):
            nch = cfg.base_filters * 2**l
            dec = self.inner(self.tape, f"dec{l}")
            self.out[f"up{l}"], self.out[f"enc{l}"] = dec[..., :nch], dec[..., nch:]
            self.out[_below(cfg, "dec", l)] = self.tape[f"up{l}"]
            if backward:
                self.skip[f"dec{l}"] = self.tape[f"up{l - 1}"] if l else self.tape["head"][:h]

    def inner(self, padded: dict, name: str) -> np.ndarray:
        """The (h, w, channels) interior of ``padded[name]``."""
        buf, (hl, wl) = padded[name], self.size[name]
        p = (buf.shape[1] - wl) // 2
        return buf[p : p + hl, p : p + wl]


def _padded_input(buf: _Buffers, name: str, p: int) -> np.ndarray:
    """The padded input of convolution ``name``, (h + 2p + 1, w + 2p, cin):
    its tape, or for an up-convolution the 2x nearest upsample of its tape,
    zero-bordered, rebuilt in the ``acc`` scratch."""
    a = buf.tape[name]
    if not name.startswith("up"):
        return a
    (hl, wl), cin = buf.size[name], a.shape[2]
    xp = _scratch(buf.acc, (hl + 2 * p + 1, wl + 2 * p, cin))
    xp[:p] = xp[p + hl :] = xp[p : p + hl, :p] = xp[p : p + hl, p + wl :] = 0
    xp[p : p + hl, p : p + wl].reshape(hl // 2, 2, wl // 2, 2, cin)[...] = a[:, None, :, None]
    return xp


def _conv(w: Weights, buf: _Buffers, name: str) -> None:
    """Convolution ``name`` of its padded input, its bias added and its ReLU
    applied in place on the accumulator, written to ``buf.out[name]``."""
    kernel = w.kernels[name]
    xp = _padded_input(buf, name, kernel.shape[0] // 2)
    (hl, wl), wp, cout = buf.size[name], xp.shape[1], kernel.shape[3]
    acc, tmp = _scratch(buf.tmp, (2, hl * wp, cout))
    if name == "head":  # its kernel is 1x1, so Wp = w and its accumulator is y itself
        acc = buf.y.reshape(acc.shape)
    _shifted_gemm(xp, kernel, acc, tmp)
    # One addition per value, as a row-broadcast add makes, in long runs
    # (the bias tiled along a padded row; np.tile's wrapper costs 5 us more).
    a = acc.reshape(hl, wp * cout)
    a += np.repeat(w.biases[name][None], wp, axis=0).ravel()
    np.maximum(a, 0.0, out=a)
    if name != "head":
        buf.out[name][...] = a.reshape(hl, wp, cout)[:, :wl]


def _forward(w: Weights, x: np.ndarray, buf: _Buffers) -> np.ndarray:
    """The pass on the (H, W, C) tile ``x`` in ``buf``; returns ``buf.y``."""
    cfg = w.config
    buf.inner(buf.tape, "enc0")[...] = x
    for l in range(cfg.depth):
        _conv(w, buf, f"enc{l}")
        a, pooled = buf.out[f"enc{l}"], buf.inner(buf.tape, _below(cfg, "enc", l))
        first, second, *rest = (a[i::2, j::2] for i, j in _WINDOW)
        np.maximum(first, second, out=pooled)
        for cells in rest:
            np.maximum(pooled, cells, out=pooled)
    _conv(w, buf, "bottleneck")
    for l in reversed(range(cfg.depth)):
        _conv(w, buf, f"up{l}")
        _conv(w, buf, f"dec{l}")
    _conv(w, buf, "head")
    return buf.y


def _masked(buf: _Buffers, name: str, d: np.ndarray, out: np.ndarray) -> None:
    """``d`` times the ReLU mask of ``name``, the cells where its activation
    is > 0, into ``out``; the mask goes to the flag scratch."""
    a = buf.out[name]
    mask = _scratch(buf.flags, a.shape)
    np.greater(a, 0, out=mask)
    np.multiply(d, mask, out=out)


def _conv_grad(w: Weights, buf: _Buffers, grad: Weights, name: str):
    """The kernel and bias gradients of ``name`` into ``grad``, from the output
    gradient in its padded buffer.  Returns its input gradient, computed into
    the ``acc`` scratch, as an (h, w, cin) view; None for ``enc0``, as the
    tile's own gradient is not needed.  The kernel gradient comes first: an
    up-convolution's input gradient overwrites its rebuilt input."""
    dyp, kernel = buf.dyp[name], w.kernels[name]
    kh, kw, cin, cout = kernel.shape
    (hl, wl), wp, p = buf.size[name], dyp.shape[1], kh // 2
    xp, n = _padded_input(buf, name, p), hl * wp
    # From flat row p * Wp + p on, dyp is dy row by row, each row followed by
    # 2p zeros: the forward accumulator's layout with its junk columns at 0.
    start = p * wp + p
    dy_flat = dyp.reshape(-1, cout)[start : start + n]
    flat = xp.reshape(-1, cin)
    for i in range(kh):
        for j in range(kw):
            s = i * wp + j
            np.dot(flat[s : s + n].T, dy_flat, out=grad.kernels[name][i, j])
    # numpy sums (cells, channels) cell by cell, but one channel pairwise
    # over its contiguous cells: the same sums as over a contiguous dy.
    dy = buf.inner(buf.dyp, name)
    (dy if cout > 1 else np.ascontiguousarray(dy)).sum(axis=(0, 1), out=grad.biases[name])
    if name == "enc0":
        return None
    # dx is a full correlation with the 180-degree-rotated kernel, channels
    # swapped; exact for 'same' zero padding with odd kernels.
    k_rot = np.ascontiguousarray(kernel[::-1, ::-1].transpose(0, 1, 3, 2))
    dx = _shifted_gemm(dyp, k_rot, _scratch(buf.acc, (n, cin)), _scratch(buf.tmp, (n, cin)))
    return dx.reshape(hl, wp, cin)[:, :wl]


def _pool_grad(cfg: ModelConfig, buf: _Buffers, l: int, dpool, skip) -> None:
    """``enc{l}``'s output gradient into its padded buffer: the gradient
    ``dpool`` of the max-pool routed to the first maximum of each window,
    plus the decoder's ``skip`` gradient, times the ReLU mask."""
    name = f"enc{l}"
    a, dy = buf.out[name], buf.inner(buf.dyp, name)
    pooled = buf.inner(buf.tape, _below(cfg, "enc", l))
    route, taken = buf.flags[a.size :][: 2 * pooled.size].reshape(2, *pooled.shape)
    routed = _scratch(buf.tmp, pooled.shape)
    # The pool's gradient is dpool on the route and +0.0 elsewhere: the bits
    # of dpool times the route, as unsigned integers.
    bits = np.dtype(f"u{routed.itemsize}")
    taken[...] = False
    for i, j in _WINDOW:
        np.equal(a[i::2, j::2], pooled, out=route)
        np.greater(route, taken, out=route)  # a maximum, and the window's first
        taken |= route
        np.multiply(dpool.view(bits), route, out=routed.view(bits))
        np.add(routed, skip[i::2, j::2], out=dy[i::2, j::2])
    _masked(buf, name, dy, dy)


def _backward(w: Weights, buf: _Buffers, dy: np.ndarray) -> np.ndarray:
    """The gradient of the loss with output gradient ``dy``, in ``flat`` order,
    after ``_forward`` ran in ``buf``."""
    cfg = w.config
    grad = Weights(cfg, np.empty_like(w.flat))

    def set_dy(name, da):
        _masked(buf, name, da, buf.inner(buf.dyp, name))

    set_dy("head", dy)
    set_dy("dec0", _conv_grad(w, buf, grad, "head"))
    for l in range(cfg.depth):
        # dec{l}'s input gradient: the up-convolution's half, times its ReLU
        # mask, to its padded buffer, and the skip half to skip[dec{l}].
        d = _conv_grad(w, buf, grad, f"dec{l}")
        nch = cfg.base_filters * 2**l
        set_dy(f"up{l}", d[..., :nch])
        buf.skip[f"dec{l}"][...] = d[..., nch:]
        # The upsample's gradient, the output gradient of the layer below:
        # the four cells each input cell went to, summed in window order, as
        # numpy's reshape-sum does over >= 2 channels (an up-convolution has
        # 2 * nch input channels), times that layer's ReLU mask.
        d = _conv_grad(w, buf, grad, f"up{l}")
        below = _below(cfg, "dec", l)
        s = buf.inner(buf.dyp, below)
        first, second, *rest = (d[i::2, j::2] for i, j in _WINDOW)
        np.add(first, second, out=s)
        for cells in rest:
            s += cells
        _masked(buf, below, s, s)
    d = _conv_grad(w, buf, grad, "bottleneck")
    for l in reversed(range(cfg.depth)):
        _pool_grad(cfg, buf, l, d, buf.skip[f"dec{l}"])
        d = _conv_grad(w, buf, grad, f"enc{l}")
    return grad.flat


def _checked_values(a, dtype, what: str) -> np.ndarray:
    """``a`` as ``dtype``, rejected unless every value is finite there."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise InputError(f"{what} contains non-finite values")
    if a.dtype != dtype and (np.abs(a) > np.finfo(dtype).max).any():
        raise InputError(f"{what} has values beyond the {np.dtype(dtype).name} range")
    return a.astype(dtype, copy=False)


def _checked_tile(w: Weights, tile, what: str = "tile") -> np.ndarray:
    """``tile`` as (H, W, C) at the dtype of ``w``, rejected unless finite
    there and shaped for ``w``."""
    tile = _checked_values(tile, w.flat.dtype, what)
    if tile.ndim == 2:
        tile = tile[..., None]
    if tile.shape[-1] != w.config.in_channels:
        raise ShapeError(
            f"{what} has {tile.shape[-1]} channels, model expects {w.config.in_channels}"
        )
    div = 2 ** w.config.depth
    if tile.shape[0] % div or tile.shape[1] % div:
        raise ShapeError(
            f"{what} size {tile.shape[:2]} not divisible by 2^depth = {div}"
        )
    return tile


def _checked_sample(w: Weights, tile, target, name: str = ""):
    """A (tile, target) pair at the dtype of ``w``, rejected unless finite
    there and shaped for ``w``; ``name`` prefixes each error's subject."""
    tile = _checked_tile(w, tile, f"{name}tile")
    target = _checked_values(target, w.flat.dtype, f"{name}target")
    if target.shape != tile.shape[:2]:
        raise ShapeError(
            f"{name}target shape {target.shape} != tile spatial {tile.shape[:2]}"
        )
    return tile, target


def forward(w: Weights, tile: np.ndarray, *, buffers: _Buffers | None = None) -> np.ndarray:
    """Predict a (H, W, 1) non-negative height field from a (H, W, C) tile,
    at the dtype of ``w``.  The pass runs in ``buffers`` when given (made for
    this config, tile shape and dtype), else in arrays made for this call;
    the result is a new array either way."""
    tile = _checked_tile(w, tile)
    if buffers is None:
        buffers = _Buffers(w.config, tile.shape[:2], w.flat.dtype, backward=False)
    return _forward(w, tile, buffers).copy()


def loss_and_gradient(
    w: Weights, tile: np.ndarray, target: np.ndarray, *, buffers: _Buffers | None = None
) -> tuple[float, np.ndarray]:
    """Mean squared error over cells and its gradient in flat-vector order,
    both computed at the dtype of ``w``.  ``buffers`` is as for ``forward``,
    made with ``backward``; the gradient is a new array."""
    tile, target = _checked_sample(w, tile, target)
    if buffers is None:
        buffers = _Buffers(w.config, tile.shape[:2], w.flat.dtype)
    y = _forward(w, tile, buffers)
    diff = y[..., 0] - target
    loss = float(np.mean(diff * diff))
    dy = (2.0 / diff.size) * diff[..., None]
    return loss, _backward(w, buffers, dy)


def train(
    w: Weights, dataset: list[tuple[np.ndarray, np.ndarray]], cfg: TrainConfig
) -> tuple[Weights, list[float]]:
    """Per-sample gradient descent at batch size 1 with a fixed learning rate.

    Each step runs at float32: ``loss_and_gradient`` gets the float32 copy of
    the float64 master weights, and the step is applied to the master, which
    is what is returned.  Every sample is checked and cast to float32 once,
    before the first step; a sample already float32, such as a window of the
    pipeline's ``tiler.padded`` stack, stays a view of it, so no cell is
    copied.  The steps on tiles of one shape share one set of buffers.  A
    non-finite loss, or a master weight that is not finite at float32 after
    a step, is a ``DivergenceError``.  Samples are visited in
    the order given; the run is bit-deterministic for a fixed (weights,
    dataset order, config).  Returns the trained weights and the per-epoch
    mean loss.
    """
    if not dataset:
        raise ShapeError("training dataset is empty")
    w = w.astype(np.float64)  # a copy: the caller's weights stay as they are
    w32 = w.astype(np.float32)
    samples = [
        _checked_sample(w32, tile, target, f"sample {i} ")
        for i, (tile, target) in enumerate(dataset)
    ]
    buffers = {
        shape: _Buffers(w.config, shape, np.float32)
        for shape in {tile.shape[:2] for tile, _ in samples}
    }
    limit = np.finfo(np.float32).max
    history = []
    for epoch in range(cfg.epochs):
        losses = []
        for i, (tile, target) in enumerate(samples):
            loss, grad = loss_and_gradient(
                w.astype(np.float32), tile, target, buffers=buffers[tile.shape[:2]]
            )
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"training diverged: loss became non-finite at epoch {epoch}, sample {i}"
                )
            losses.append(loss)
            # A step far beyond the float32 range overflows; the check below
            # names it, so numpy's warnings about it would only repeat it.
            with np.errstate(over="ignore", invalid="ignore"):
                w.flat -= cfg.learning_rate * grad
            if not (np.abs(w.flat) <= limit).all():
                raise DivergenceError(
                    f"training diverged: a weight left the float32 range at epoch {epoch}, "
                    f"sample {i}"
                )
        history.append(float(np.mean(losses)))
    return w, history


# -- city-scale inference ----------------------------------------------------


def predict_city(
    w: Weights,
    grid: Raster,
    stack: np.ndarray,
    target_params: NormalizationParams,
) -> Raster:
    """The network's heights on ``grid``, in meters (denormalized, clamped
    non-negative), from ``stack``, the normalized channels in the
    ``tiler.padded`` stack of the grid; a stack of another shape is a
    ShapeError.  Each window of ``tiler.windows`` runs as the view
    ``stack[window]`` in one set of buffers, and its prediction is written
    into its window of a padded float32 grid; the buffers and that grid are
    freed before the clamp, and no tile is copied out of the stack."""
    out = tiler.padded(grid, 1)[..., 0]
    if stack.shape != (expected := out.shape + (w.config.in_channels,)):
        raise ShapeError(f"stack has shape {stack.shape}, expected {expected}")
    w32 = w.astype(np.float32)
    buffers = _Buffers(w.config, (tiler.TILE_SIZE,) * 2, np.float32, backward=False)
    for window in tiler.windows(grid):
        out[window] = forward(w32, stack[window], buffers=buffers)[..., 0]
    del buffers
    heights = denormalize(grid.with_values(out[: grid.height, : grid.width]), target_params)
    del out
    return clamp_nonnegative(heights)


# -- weights file I/O --------------------------------------------------------

_GLBW_HEADER = Format(b"GLBW", "iiiiq")


def write_weights(w: Weights, path) -> None:
    cfg = w.config
    with open(path, "wb") as f:
        _GLBW_HEADER.write_header(f, cfg.depth, cfg.base_filters, cfg.kernel_size,
                                  cfg.in_channels, cfg.seed)
        f.write(w.flat.astype("<f4").tobytes())


def read_weights(path) -> Weights:
    with open(path, "rb") as f:
        depth, base, ks, cin, seed = _GLBW_HEADER.read_header(f, path)
        try:
            cfg = ModelConfig(
                depth=depth, base_filters=base, kernel_size=ks, in_channels=cin, seed=seed
            )
        except ValueError as exc:
            raise FormatError(f"{path}: bad model header ({exc})") from exc
        n = parameter_count(cfg)
        _GLBW_HEADER.check_size(f, path, 4 * n)
        flat = np.fromfile(f, "<f4", n)
    if bad := np.count_nonzero(~np.isfinite(flat)):
        raise FormatError(f"{path}: {bad} non-finite parameters")
    return Weights(cfg, flat.astype(np.float64))


def write_loss_history(history: list[float], path) -> None:
    with open(path, "w") as f:
        f.write("epoch,mean_loss\n")
        for i, loss in enumerate(history):
            f.write(f"{i},{loss!r}\n")
