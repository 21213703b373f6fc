"""Cutting co-registered rasters into fixed-size tiles.

The tiles of a grid are its non-overlapping square windows, 256x256 unless
told otherwise, in row-major order.  ``windows`` gives the grid that aligned
channels share and each tile's window on it, as (rows, columns) slices; a
window at the grid's right or bottom edge holds fewer cells.  ``cut`` writes
the cells of the channels in one window into a (size, size, channels)
float32 tile, channel ``k`` at ``tile[..., k]``, and zeros beyond the edge.

``split`` cuts every tile at once into one (n, size, size, channels) array,
the training set.  ``network.predict_city`` walks the windows one tile at a
time instead and writes each prediction back into its window, so inference
holds one tile beyond its grids.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import AlignmentError
from .raster import Raster, require_aligned

TILE_SIZE = 256


def windows(channels: list[Raster], tile_size: int = TILE_SIZE):
    """The first channel, whose grid aligned ``channels`` share, and the
    (rows, columns) slices of each tile's window on it, in tile order."""
    if not channels:
        raise AlignmentError("tiling needs at least one channel")
    grid = channels[0]
    for ch in channels[1:]:
        require_aligned(grid, ch, "channels")
    rows, cols = range(0, grid.height, tile_size), range(0, grid.width, tile_size)
    return grid, [(slice(r0, r0 + tile_size), slice(c0, c0 + tile_size))
                  for r0, c0 in product(rows, cols)]


def cut(channels: list[Raster], window, tile: np.ndarray) -> np.ndarray:
    """Channel ``k``'s cells in ``window`` into ``tile[..., k]``, the rest of
    the (size, size, channels) ``tile`` zero; returns ``tile``."""
    for k, ch in enumerate(channels):
        cells = ch.values[window]
        h, w = cells.shape
        tile[:h, :w, k] = cells
        tile[h:, :, k] = tile[:h, w:, k] = 0
    return tile


def split(channels: list[Raster], tile_size: int = TILE_SIZE) -> tuple[Raster, np.ndarray]:
    """Cut aligned channels into zero-padded tiles covering their grid once:
    the grid, and the tiles as one (n, size, size, channels) float32 array."""
    grid, wins = windows(channels, tile_size)
    tiles = np.empty((len(wins), tile_size, tile_size, len(channels)), np.float32)
    for tile, window in zip(tiles, wins):
        cut(channels, window, tile)
    return grid, tiles
