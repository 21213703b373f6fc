"""Cutting co-registered rasters into fixed-size tiles and lossless stitching.

``split`` cuts aligned channels into non-overlapping square windows (256x256
unless told otherwise) and returns them as one float32 array of shape
(n, size, size, channels): tiles in row-major order, channel ``k`` at
``tiles[..., k]``, and the cells beyond the source's right and bottom edges
zero. ``stitch`` reads a (n, size, size) array back into a raster of the
source grid, dropping that padding, so ``stitch(plan, tiles[..., k])``
reproduces channel ``k`` bit for bit. The plan stores only the source grid
and the tile size; the tile grid is derived from them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ShapeError
from .raster import Raster, require_aligned, write_raster

TILE_SIZE = 256


@dataclass(frozen=True)
class TilePlan:
    """The source grid and the tile size; the tile grid follows from them."""

    source_width: int
    source_height: int
    origin_x: float
    origin_y: float
    cell_size: float
    nodata: float
    tile_size: int

    @property
    def tile_rows(self) -> int:
        return -(-self.source_height // self.tile_size)

    @property
    def tile_cols(self) -> int:
        return -(-self.source_width // self.tile_size)

    def offsets(self) -> list[tuple[int, int]]:
        """The (row, column) of each tile's first source cell, in tile order."""
        size = self.tile_size
        return [(r * size, c * size) for r in range(self.tile_rows) for c in range(self.tile_cols)]


def split(channels: list[Raster], tile_size: int = TILE_SIZE) -> tuple[TilePlan, np.ndarray]:
    """Cut aligned channels into zero-padded tiles covering the source once."""
    if not channels:
        raise AlignmentError("split needs at least one channel")
    ref = channels[0]
    for ch in channels[1:]:
        require_aligned(ref, ch, "channels")
    plan = TilePlan(
        ref.width, ref.height, ref.origin_x, ref.origin_y, ref.cell_size, ref.nodata, tile_size
    )
    offsets = plan.offsets()
    tiles = np.zeros((len(offsets), tile_size, tile_size, len(channels)), dtype=np.float32)
    for i, (r0, c0) in enumerate(offsets):
        for k, ch in enumerate(channels):
            window = ch.values[r0 : r0 + tile_size, c0 : c0 + tile_size]
            tiles[i, : window.shape[0], : window.shape[1], k] = window
    return plan, tiles


def stitch(plan: TilePlan, tiles: np.ndarray) -> Raster:
    """Reassemble (n, size, size) tiles into the source-sized raster; padding is dropped."""
    offsets = plan.offsets()
    expected = (len(offsets), plan.tile_size, plan.tile_size)
    if tiles.shape != expected:
        raise ShapeError(f"tiles have shape {tiles.shape}, expected {expected}")
    out = np.empty((plan.source_height, plan.source_width), dtype=np.float32)
    for tile, (r0, c0) in zip(tiles, offsets):
        window = out[r0 : r0 + plan.tile_size, c0 : c0 + plan.tile_size]
        window[...] = tile[: window.shape[0], : window.shape[1]]
    return Raster(
        width=plan.source_width,
        height=plan.source_height,
        origin_x=plan.origin_x,
        origin_y=plan.origin_y,
        cell_size=plan.cell_size,
        nodata=plan.nodata,
        values=out,
    )


def dump_tiles(plan: TilePlan, tiles: np.ndarray, out_dir) -> list[str]:
    """Debug export: one GLBR file ``tile_<row>_<col>_<channel>.glbr`` per tile channel."""
    os.makedirs(out_dir, exist_ok=True)
    size, paths = plan.tile_size, []
    for tile, (r0, c0) in zip(tiles, plan.offsets()):
        for k in range(tiles.shape[-1]):
            r = Raster(
                width=size,
                height=size,
                origin_x=plan.origin_x + c0 * plan.cell_size,
                origin_y=plan.origin_y + r0 * plan.cell_size,
                cell_size=plan.cell_size,
                nodata=-9999.0,
                values=tile[..., k],
            )
            path = os.path.join(out_dir, f"tile_{r0 // size}_{c0 // size}_{k}.glbr")
            write_raster(r, path)
            paths.append(path)
    return paths
