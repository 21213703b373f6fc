"""Georeferenced raster grids and the numeric kernels shared by the pipeline.

A :class:`Raster` is a square-celled, row-major grid of 32-bit floats in a
planar meter frame.  ``origin_x``/``origin_y`` are the coordinates of the
outer corner of cell (0, 0); row and column indices increase with y and x.
Cells are either finite or exactly equal to the ``nodata`` sentinel.

All statistics accumulate in 64-bit regardless of the 32-bit cell storage.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlignmentError,
    EmptyStatisticsError,
    FormatError,
    ShapeError,
    VoidError,
)

DEFAULT_NODATA = -9999.0

GEOREF_TOL = 1e-6
# Cells of one block of rows in ``resample_cubic``, the cell-wise kernels
# (normalization, its inverse and the clamp) and ``synth``'s point writer:
# 256 KiB at float64.
_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class NormalizationParams:
    """Min/max used to scale a raster into [0, 1]; needed to invert the scaling."""

    min_value: float
    max_value: float

    def __post_init__(self):
        if not (self.max_value >= self.min_value):
            raise ValueError(
                f"max_value {self.max_value} < min_value {self.min_value}"
            )


@dataclass
class Raster:
    width: int
    height: int
    origin_x: float
    origin_y: float
    cell_size: float
    nodata: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ShapeError(f"raster dimensions {self.width}x{self.height} invalid")
        if not 0 < self.cell_size < np.inf:
            raise ShapeError(f"cell_size {self.cell_size} must be finite and > 0")
        if not np.isfinite([self.origin_x, self.origin_y]).all():
            raise ShapeError(f"origin ({self.origin_x}, {self.origin_y}) must be finite")
        if not np.isfinite(self.nodata):
            raise ValueError("nodata sentinel must be finite")
        vals = np.asarray(self.values, dtype=np.float32)
        if vals.size != self.width * self.height:
            raise ShapeError(
                f"values length {vals.size} != width*height {self.width * self.height}"
            )
        self.values = vals.reshape(self.height, self.width)

    # -- basic accessors ---------------------------------------------------

    @property
    def valid_mask(self) -> np.ndarray:
        return self.values != np.float32(self.nodata)

    @property
    def extent_x(self) -> float:
        return self.width * self.cell_size

    @property
    def extent_y(self) -> float:
        return self.height * self.cell_size

    def cell_centers_x(self) -> np.ndarray:
        return self.origin_x + (np.arange(self.width) + 0.5) * self.cell_size

    def cell_centers_y(self) -> np.ndarray:
        return self.origin_y + (np.arange(self.height) + 0.5) * self.cell_size

    def with_values(self, values: np.ndarray, nodata: float | None = None) -> "Raster":
        """New raster sharing this one's georeference."""
        return Raster(
            width=self.width,
            height=self.height,
            origin_x=self.origin_x,
            origin_y=self.origin_y,
            cell_size=self.cell_size,
            nodata=self.nodata if nodata is None else nodata,
            values=values,
        )

    def same_geometry(self, other: "Raster") -> bool:
        return (
            self.width == other.width
            and self.height == other.height
            and abs(self.origin_x - other.origin_x) <= GEOREF_TOL
            and abs(self.origin_y - other.origin_y) <= GEOREF_TOL
            and abs(self.cell_size - other.cell_size) <= GEOREF_TOL
        )


def require_aligned(a: Raster, b: Raster, what: str = "rasters") -> None:
    if not a.same_geometry(b):
        raise AlignmentError(
            f"{what} not aligned: "
            f"{a.width}x{a.height}@{a.cell_size} origin ({a.origin_x},{a.origin_y}) vs "
            f"{b.width}x{b.height}@{b.cell_size} origin ({b.origin_x},{b.origin_y})"
        )


# -- cell-wise arithmetic --------------------------------------------------


def _row_blocks(height: int, width: int):
    """Slices of rows of about ``_BLOCK_CELLS`` cells, at least one row each,
    that cover ``height`` rows of ``width`` cells in order."""
    rows = max(1, _BLOCK_CELLS // width)
    return (slice(r, r + rows) for r in range(0, height, rows))


def _cellwise(r: Raster, fn) -> Raster:
    """A raster on ``r``'s grid holding ``fn`` of ``r``'s valid cells, block
    of rows by block of rows, with nodata where ``r`` has it.  ``fn`` maps a
    1-D float32 array of valid cells to their new values; each block's
    temporaries are the only memory beyond the result."""
    nodata = np.float32(r.nodata)
    out = np.empty_like(r.values)
    for rows in _row_blocks(r.height, r.width):
        cells, dst = r.values[rows], out[rows]
        valid = cells != nodata
        dst[...] = nodata
        dst[valid] = fn(cells[valid])
    return r.with_values(out)


def clamp_nonnegative(r: Raster) -> Raster:
    """Replace negative cells with 0; nodata cells pass through."""
    return _cellwise(r, lambda v: np.maximum(v, np.float32(0.0)))


# -- resampling ------------------------------------------------------------


def _catmull_rom_weights(t: np.ndarray) -> tuple[np.ndarray, ...]:
    # Keys cubic with a = -0.5 (Catmull-Rom); reproduces linear fields.
    t2 = t * t
    t3 = t2 * t
    w0 = -0.5 * t3 + t2 - 0.5 * t
    w1 = 1.5 * t3 - 2.5 * t2 + 1.0
    w2 = -1.5 * t3 + 2.0 * t2 + 0.5 * t
    w3 = 0.5 * t3 - 0.5 * t2
    return w0, w1, w2, w3


def _cubic_taps(n_src: int, coords: np.ndarray):
    """The four Catmull-Rom taps at fractional sample coordinates ``coords``
    of an axis of ``n_src`` cells: each a source index and its weight, in tap
    order; stencils clamp at the grid edges."""
    base = np.floor(coords).astype(np.int64)
    w = _catmull_rom_weights(coords - base)
    return [(np.clip(base - 1 + k, 0, n_src - 1), w[k]) for k in range(4)]


def resample_cubic(src: Raster, target_cell_size: float) -> Raster:
    """Separable Catmull-Rom resampling to a new cell size over the same extent.

    The source must be gap-free: interpolation never crosses nodata, so the
    caller fills voids first.  Rows are interpolated along x first, then the
    result along y; each output adds its four weighted taps in tap order.
    """
    if not target_cell_size > 0:
        raise ShapeError(f"target_cell_size {target_cell_size} must be > 0")
    if not src.valid_mask.all():
        raise VoidError("source raster contains nodata cells; fill voids first")

    out_w = max(1, int(round(src.extent_x / target_cell_size)))
    out_h = max(1, int(round(src.extent_y / target_cell_size)))

    # Fractional source-cell coordinates of the target cell centers.
    u = ((np.arange(out_w) + 0.5) * target_cell_size) / src.cell_size - 0.5
    v = ((np.arange(out_h) + 0.5) * target_cell_size) / src.cell_size - 0.5

    along_x = np.zeros((src.height, out_w))
    for idx, w in _cubic_taps(src.width, u):
        along_x += w * src.values[:, idx]
    # Output rows in blocks of about _BLOCK_CELLS cells, each summed in two
    # reused float64 buffers, so the float32 result is the one full grid.
    out = np.empty((out_h, out_w), dtype=np.float32)
    rows = min(out_h, max(1, _BLOCK_CELLS // out_w))
    acc, tap = np.empty((2, rows, out_w))
    taps = _cubic_taps(src.height, v)
    for r in range(0, out_h, rows):
        n = min(rows, out_h - r)
        acc[:n] = 0.0
        for idx, w in taps:
            np.take(along_x, idx[r:r + n], axis=0, out=tap[:n])  # the rows of this tap
            tap[:n] *= w[r:r + n, None]
            acc[:n] += tap[:n]
        out[r:r + n] = acc[:n]
    return Raster(width=out_w, height=out_h, origin_x=src.origin_x, origin_y=src.origin_y,
                  cell_size=target_cell_size, nodata=src.nodata, values=out)


# -- normalization ---------------------------------------------------------


def minmax_params(r: Raster) -> NormalizationParams:
    """The min and max of ``r``'s valid cells, read a block of rows at a time.

    Of zeros of both signs, -0.0 is the min and +0.0 the max, as IEEE 754
    orders them; numpy's min and max return either zero of such a tie.
    """
    nodata = np.float32(r.nodata)
    lows, highs = [], []
    negative_zero = positive_zero = False
    for rows in _row_blocks(r.height, r.width):
        cells = r.values[rows]
        cells = cells[cells != nodata]
        if cells.size:
            lows.append(cells.min())
            highs.append(cells.max())
            if lows[-1] == 0 or highs[-1] == 0:
                signs = np.signbit(cells[cells == 0])
                negative_zero |= bool(signs.any())
                positive_zero |= not signs.all()
    if not lows:
        raise EmptyStatisticsError("cannot normalize an all-nodata raster")
    low, high = float(np.min(lows)), float(np.max(highs))
    if low == 0:
        low = -0.0 if negative_zero else 0.0
    if high == 0:
        high = 0.0 if positive_zero else -0.0
    return NormalizationParams(low, high)


def minmax_normalize(
    r: Raster, params: NormalizationParams | None = None
) -> tuple[Raster, NormalizationParams]:
    """Scale non-nodata cells to [0, 1].

    When no params are given they are ``minmax_params(r)``.  A constant
    raster maps to all zeros.  Each cell is computed in 64-bit and cast to
    32-bit, a block of rows at a time.
    """
    if params is None:
        params = minmax_params(r)
    low, span = params.min_value, params.max_value - params.min_value
    if span == 0.0:
        return _cellwise(r, lambda v: np.float32(0.0)), params
    return _cellwise(r, lambda v: ((v.astype(np.float64) - low) / span).astype(np.float32)), params


def denormalize(r: Raster, params: NormalizationParams) -> Raster:
    """Invert :func:`minmax_normalize`; nodata preserved."""
    low, span = params.min_value, params.max_value - params.min_value
    return _cellwise(r, lambda v: (v.astype(np.float64) * span + low).astype(np.float32))


# -- aggregation -----------------------------------------------------------


def downsample_average(src: Raster, factor: int) -> Raster:
    """Block-mean downsampling by an integer factor.

    Each output cell is the mean (64-bit) of the non-nodata inputs in its
    factor x factor block; all-nodata blocks become nodata.
    """
    if factor < 1 or int(factor) != factor:
        raise ShapeError(f"factor {factor} must be a positive integer")
    factor = int(factor)
    if src.width % factor or src.height % factor:
        raise ShapeError(
            f"dimensions {src.width}x{src.height} not divisible by factor {factor}"
        )
    oh, ow = src.height // factor, src.width // factor
    vals = src.values.astype(np.float64)
    valid = src.valid_mask
    vals[~valid] = 0.0
    blocks = vals.reshape(oh, factor, ow, factor)
    counts = valid.reshape(oh, factor, ow, factor).sum(axis=(1, 3))
    sums = blocks.sum(axis=(1, 3))
    out = np.full((oh, ow), src.nodata, dtype=np.float32)
    nonzero = counts > 0
    out[nonzero] = (sums[nonzero] / counts[nonzero]).astype(np.float32)
    return Raster(
        width=ow,
        height=oh,
        origin_x=src.origin_x,
        origin_y=src.origin_y,
        cell_size=src.cell_size * factor,
        nodata=src.nodata,
        values=out,
    )


# -- file I/O --------------------------------------------------------------

FORMAT_VERSION = 1


class Format(struct.Struct):
    """The header of a binary format: the little-endian ``<4sH`` prefix
    (``magic``, u16 version ``FORMAT_VERSION``), then the format's ``fields``.
    GLBR, GLBP and GLBW files are this header and then their payload."""

    def __init__(self, magic: bytes, fields: str):
        super().__init__("<4sH" + fields)
        self.magic = magic

    def sniff(self, path) -> bool:
        """Whether the file at ``path`` starts with this format's magic."""
        with open(path, "rb") as f:
            return f.read(4) == self.magic

    def write_header(self, f, *fields) -> None:
        f.write(self.pack(self.magic, FORMAT_VERSION, *fields))

    def read_header(self, f, path) -> list:
        """The format's fields, read from ``f`` after its magic and version
        are checked."""
        head = f.read(self.size)
        if len(head) < self.size:
            raise FormatError(f"{path}: truncated header at byte {len(head)}")
        magic, version, *fields = self.unpack(head)
        if magic != self.magic:
            raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version} at byte 4")
        return fields

    def check_size(self, f, path, payload_bytes: int) -> None:
        """Check the file's size before any payload byte is read, so a
        forged header allocates nothing."""
        size = os.fstat(f.fileno()).st_size
        expected = self.size + payload_bytes
        if size != expected:
            extra = size - expected
            where = (f"truncation at byte {size}" if extra < 0
                     else f"{extra} byte{'s' * (extra > 1)} after the payload")
            raise FormatError(f"{path}: expected {expected} bytes, got {size} ({where})")


_GLBR_HEADER = Format(b"GLBR", "IIdddf")


def write_raster(r: Raster, path) -> None:
    """Write GLBR binary (default) or ESRI ASCII grid for ``.asc`` paths."""
    path = str(path)
    if path.lower().endswith(".asc"):
        _write_ascii(r, path)
    else:
        _write_glbr(r, path)


def read_raster(path) -> Raster:
    """Read a raster file: GLBR, sniffed by its magic, or else an ASCII grid.

    A cell that is NaN or infinite is a FormatError: every cell is finite or
    nodata.
    """
    path = str(path)
    try:
        r = _read_glbr(path) if _GLBR_HEADER.sniff(path) else _read_ascii(path)
    except (ValueError, ShapeError) as exc:  # undecodable text, a non-number, a bad header value
        raise FormatError(f"{path}: malformed raster ({exc})") from exc
    bad = np.count_nonzero(~np.isfinite(r.values))
    if bad:
        raise FormatError(f"{path}: {bad} non-finite cells")
    return r


def _write_glbr(r: Raster, path: str) -> None:
    with open(path, "wb") as f:
        _GLBR_HEADER.write_header(f, r.width, r.height, r.origin_x, r.origin_y, r.cell_size,
                                  np.float32(r.nodata))
        f.write(np.ascontiguousarray(r.values, dtype="<f4"))


def _read_glbr(path: str) -> Raster:
    with open(path, "rb") as f:
        width, height, ox, oy, cs, nodata = _GLBR_HEADER.read_header(f, path)
        _GLBR_HEADER.check_size(f, path, 4 * width * height)
        values = np.fromfile(f, dtype="<f4", count=width * height)
    return Raster(width=width, height=height, origin_x=ox, origin_y=oy, cell_size=cs,
                  nodata=float(np.float32(nodata)), values=values)


def _write_ascii(r: Raster, path: str) -> None:
    # ESRI convention: first data row is the northernmost (largest y).
    lines = [
        f"ncols {r.width}",
        f"nrows {r.height}",
        f"xllcorner {r.origin_x!r}",
        f"yllcorner {r.origin_y!r}",
        f"cellsize {r.cell_size!r}",
        f"NODATA_value {np.float32(r.nodata):.9g}",
    ]
    for row in r.values[::-1]:
        lines.append(" ".join(f"{v:.9g}" for v in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _read_ascii(path: str) -> Raster:
    with open(path) as f:
        tokens = f.read().split()
    header = {}
    pos = 0
    expected_keys = {
        "ncols",
        "nrows",
        "xllcorner",
        "yllcorner",
        "cellsize",
        "nodata_value",
    }
    while pos + 1 < len(tokens) and tokens[pos].lower() in expected_keys:
        header[tokens[pos].lower()] = tokens[pos + 1]
        pos += 2
    for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if key not in header:
            raise FormatError(f"{path}: missing ASCII grid header field '{key}'")
    width = int(header["ncols"])
    height = int(header["nrows"])
    nodata = float(header.get("nodata_value", DEFAULT_NODATA))
    data = tokens[pos:]
    if len(data) != width * height:
        raise FormatError(
            f"{path}: expected {width * height} values, got {len(data)}"
        )
    with np.errstate(over="ignore"):  # beyond float32 is inf, which read_raster rejects
        values = np.array(data, dtype=np.float32).reshape(height, width)
        nodata = float(np.float32(nodata))
    return Raster(
        width=width,
        height=height,
        origin_x=float(header["xllcorner"]),
        origin_y=float(header["yllcorner"]),
        cell_size=float(header["cellsize"]),
        nodata=nodata,
        values=values[::-1],
    )
