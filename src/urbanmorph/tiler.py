"""Cutting co-registered rasters into fixed-size tiles and lossless stitching.

Tiles are non-overlapping 256x256 windows; right/bottom edge tiles are
zero-padded and their valid extents recorded so stitching reproduces the
source bit-exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, CoverageError, ShapeError
from .raster import Raster, require_aligned, write_raster

TILE_SIZE = 256


@dataclass(frozen=True)
class TilePlan:
    source_width: int
    source_height: int
    tile_size: int
    tile_rows: int
    tile_cols: int
    pad_right: int
    pad_bottom: int
    origin_x: float
    origin_y: float
    cell_size: float
    nodata: float

    def __post_init__(self):
        width = self.tile_cols * self.tile_size - self.pad_right
        height = self.tile_rows * self.tile_size - self.pad_bottom
        if (width, height) != (self.source_width, self.source_height):
            raise ShapeError(
                f"tiles less padding cover {width}x{height} cells, "
                f"but the source is {self.source_width}x{self.source_height}"
            )


@dataclass
class TileStack:
    row_index: int
    col_index: int
    channels: list[np.ndarray] = field(repr=False)
    valid_rows: int = TILE_SIZE
    valid_cols: int = TILE_SIZE
    origin_x: float = 0.0
    origin_y: float = 0.0
    cell_size: float = 1.0

    def __post_init__(self):
        if not self.channels:
            raise AlignmentError("tile needs at least one channel")
        shape = self.channels[0].shape
        for ch in self.channels:
            if ch.ndim != 2 or ch.shape != shape:
                raise AlignmentError(f"tile channel shape {ch.shape} != {shape}")
        if not (0 < self.valid_rows <= self.channels[0].shape[0]):
            raise AlignmentError(f"valid_rows {self.valid_rows} out of range")
        if not (0 < self.valid_cols <= self.channels[0].shape[1]):
            raise AlignmentError(f"valid_cols {self.valid_cols} out of range")

    def stacked(self) -> np.ndarray:
        """Channels as one (H, W, C) array."""
        return np.stack(self.channels, axis=-1)


def split(channels: list[Raster], tile_size: int = TILE_SIZE) -> tuple[TilePlan, list[TileStack]]:
    """Cut aligned channels into zero-padded tiles covering the source once."""
    if not channels:
        raise AlignmentError("split needs at least one channel")
    ref = channels[0]
    for ch in channels[1:]:
        require_aligned(ref, ch, "channels")

    tile_cols = -(-ref.width // tile_size)
    tile_rows = -(-ref.height // tile_size)
    plan = TilePlan(
        source_width=ref.width,
        source_height=ref.height,
        tile_size=tile_size,
        tile_rows=tile_rows,
        tile_cols=tile_cols,
        pad_right=tile_cols * tile_size - ref.width,
        pad_bottom=tile_rows * tile_size - ref.height,
        origin_x=ref.origin_x,
        origin_y=ref.origin_y,
        cell_size=ref.cell_size,
        nodata=ref.nodata,
    )

    tiles = []
    for tr in range(tile_rows):
        for tc in range(tile_cols):
            r0, c0 = tr * tile_size, tc * tile_size
            vr = min(tile_size, ref.height - r0)
            vc = min(tile_size, ref.width - c0)
            chans = []
            for ch in channels:
                buf = np.zeros((tile_size, tile_size), dtype=np.float32)
                buf[:vr, :vc] = ch.values[r0 : r0 + vr, c0 : c0 + vc]
                chans.append(buf)
            tiles.append(
                TileStack(
                    row_index=tr,
                    col_index=tc,
                    channels=chans,
                    valid_rows=vr,
                    valid_cols=vc,
                    origin_x=ref.origin_x + c0 * ref.cell_size,
                    origin_y=ref.origin_y + r0 * ref.cell_size,
                    cell_size=ref.cell_size,
                )
            )
    return plan, tiles


def stitch(plan: TilePlan, tiles: list[tuple[int, int, np.ndarray]]) -> Raster:
    """Reassemble per-tile arrays into the source-sized raster.

    Padding regions are discarded; the tile set must cover the plan exactly
    once.
    """
    expected = {(r, c) for r in range(plan.tile_rows) for c in range(plan.tile_cols)}
    seen = set()
    out = np.zeros((plan.source_height, plan.source_width), dtype=np.float32)
    for tr, tc, arr in tiles:
        if (tr, tc) not in expected:
            raise CoverageError(f"unexpected tile coordinate ({tr}, {tc})")
        if (tr, tc) in seen:
            raise CoverageError(f"duplicate tile coordinate ({tr}, {tc})")
        seen.add((tr, tc))
        arr = np.asarray(arr)
        if arr.ndim == 3:
            arr = arr[..., 0]
        if arr.shape != (plan.tile_size, plan.tile_size):
            raise CoverageError(
                f"tile ({tr}, {tc}) has shape {arr.shape}, "
                f"expected {(plan.tile_size, plan.tile_size)}"
            )
        r0, c0 = tr * plan.tile_size, tc * plan.tile_size
        vr = min(plan.tile_size, plan.source_height - r0)
        vc = min(plan.tile_size, plan.source_width - c0)
        out[r0 : r0 + vr, c0 : c0 + vc] = arr[:vr, :vc].astype(np.float32)
    missing = expected - seen
    if missing:
        raise CoverageError(f"missing tile coordinate {sorted(missing)[0]}")
    return Raster(
        width=plan.source_width,
        height=plan.source_height,
        origin_x=plan.origin_x,
        origin_y=plan.origin_y,
        cell_size=plan.cell_size,
        nodata=plan.nodata,
        values=out,
    )


def dump_tiles(tiles: list[TileStack], out_dir) -> list[str]:
    """Debug export: one GLBR file per tile channel."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for tile in tiles:
        for ci, ch in enumerate(tile.channels):
            r = Raster(
                width=ch.shape[1],
                height=ch.shape[0],
                origin_x=tile.origin_x,
                origin_y=tile.origin_y,
                cell_size=tile.cell_size,
                nodata=-9999.0,
                values=ch,
            )
            path = os.path.join(out_dir, f"tile_{tile.row_index}_{tile.col_index}_{ci}.glbr")
            write_raster(r, path)
            paths.append(path)
    return paths
