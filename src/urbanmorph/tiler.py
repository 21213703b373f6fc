"""The tiles of the grid that the network's channels share.

The tiles of a grid are its non-overlapping square windows, 256x256 unless
told otherwise, in row-major order.  ``padded`` is a zero float32 stack of
(rows, columns, channels) for a grid, its rows and columns rounded up to
whole tiles, into which the caller writes each channel's cells;
``windows`` gives each tile's window as (rows, columns) slices.  Every tile
is then the view ``stack[window]``, a full tile, zero beyond the grid's
edge, and no tile is a copy: ``network.train`` steps on these views and
``network.predict_city`` runs each one and writes its prediction into its
window of a padded grid.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .raster import Raster

TILE_SIZE = 256


def windows(grid: Raster, tile_size: int = TILE_SIZE):
    """The (rows, columns) slices of each tile's window on ``grid``, in tile order."""
    rows, cols = range(0, grid.height, tile_size), range(0, grid.width, tile_size)
    return [(slice(r0, r0 + tile_size), slice(c0, c0 + tile_size))
            for r0, c0 in product(rows, cols)]


def padded(grid: Raster, channels: int, tile_size: int = TILE_SIZE) -> np.ndarray:
    """A zero float32 (rows, columns, ``channels``) stack, ``grid``'s rows
    and columns rounded up to whole tiles."""
    rows, cols = (-(-n // tile_size) * tile_size for n in (grid.height, grid.width))
    return np.zeros((rows, cols, channels), np.float32)
