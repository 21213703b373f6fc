"""Cutting co-registered rasters into fixed-size tiles and lossless stitching.

``split`` cuts aligned channels into non-overlapping square windows (256x256
unless told otherwise) and returns the first channel, whose grid they share,
with the tiles as one float32 array of shape (n, size, size, channels):
tiles in row-major order, channel ``k`` at ``tiles[..., k]``, and the cells
beyond the grid's right and bottom edges zero.  ``stitch`` reads a
(n, size, size) array back onto that grid, dropping the padding, so
``stitch(grid, tiles[..., k])`` reproduces channel ``k`` bit for bit.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import AlignmentError, ShapeError
from .raster import Raster, require_aligned

TILE_SIZE = 256


def _starts(grid: Raster, size: int) -> tuple[range, range]:
    """The first row and the first column of each tile row and tile column."""
    return range(0, grid.height, size), range(0, grid.width, size)


def split(channels: list[Raster], tile_size: int = TILE_SIZE) -> tuple[Raster, np.ndarray]:
    """Cut aligned channels into zero-padded tiles covering their grid once."""
    if not channels:
        raise AlignmentError("split needs at least one channel")
    grid = channels[0]
    for ch in channels[1:]:
        require_aligned(grid, ch, "channels")
    rows, cols = _starts(grid, tile_size)
    tiles = np.zeros((len(rows) * len(cols), tile_size, tile_size, len(channels)), np.float32)
    for tile, (r0, c0) in zip(tiles, product(rows, cols)):
        for k, ch in enumerate(channels):
            window = ch.values[r0 : r0 + tile_size, c0 : c0 + tile_size]
            tile[: window.shape[0], : window.shape[1], k] = window
    return grid, tiles


def stitch(grid: Raster, tiles: np.ndarray) -> Raster:
    """Reassemble (n, size, size) tiles onto ``grid``; the padding is dropped."""
    # A stack with no second axis, or of empty tiles, cannot match size 1.
    size = tiles.shape[1] if tiles.ndim > 1 and tiles.shape[1] else 1
    rows, cols = _starts(grid, size)
    expected = (len(rows) * len(cols), size, size)
    if tiles.shape != expected:
        raise ShapeError(f"tiles have shape {tiles.shape}, expected {expected}")
    out = np.empty((grid.height, grid.width), dtype=np.float32)
    for tile, (r0, c0) in zip(tiles, product(rows, cols)):
        window = out[r0 : r0 + size, c0 : c0 + size]
        window[...] = tile[: window.shape[0], : window.shape[1]]
    return grid.with_values(out)
