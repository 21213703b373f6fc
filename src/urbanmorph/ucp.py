"""Gridded urban canopy parameters from LoD-1 buildings and binary masks.

Per grid cell (default resolution 300 m): building count, mean / standard
deviation of heights, footprint-area-weighted mean height, height histogram
in half-open 5-m bins, plan-area fraction, surface-to-plan ratio, and the
frontal area index per wind direction.

Conventions (declared, since sources differ): buildings belong to the cell
containing their footprint centroid; plan and roof areas are pixel counts on
the 1-m mask; the standard deviation is the population form; grid cells
clipped by the mask extent use their actually covered area as the cell area.

A footprint's area, perimeter and centroid are measured when it is built; a
``BuildingTable`` adds each centroid's grid cell, once per grid.  The fields
are ``bincount`` reductions over it, summed in building order.  A ``UcpGrid``
is its ``GridGeometry`` plus fields; ``scalar_fields`` names the scalar ones.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, ShapeError
from .footprints import BuildingFootprint, FootprintMask, projected_width
from .lod1 import Lod1Building
from .raster import Raster, write_raster

DEFAULT_RESOLUTION = 300.0
DEFAULT_BIN_WIDTH = 5.0
DEFAULT_HEIGHT_CAP = 75.0


@dataclass(frozen=True)
class GridGeometry:
    """Aggregation grid anchored at the mask origin and covering its extent."""

    origin_x: float
    origin_y: float
    resolution: float
    rows: int
    cols: int
    fine_cell_size: float
    fine_width: int
    fine_height: int

    @property
    def res_px(self) -> int:
        return int(round(self.resolution / self.fine_cell_size))


def grid_geometry(mask: FootprintMask, resolution: float) -> GridGeometry:
    r = mask.raster
    ratio = resolution / r.cell_size
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise AlignmentError(
            f"resolution {resolution} is not an integer multiple of the mask "
            f"cell size {r.cell_size}"
        )
    res_px = int(round(ratio))
    return GridGeometry(
        origin_x=r.origin_x,
        origin_y=r.origin_y,
        resolution=resolution,
        rows=-(-r.height // res_px),
        cols=-(-r.width // res_px),
        fine_cell_size=r.cell_size,
        fine_width=r.width,
        fine_height=r.height,
    )


def _block_sums(values: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """Sum a fine array over grid-cell blocks (edge blocks may be partial)."""
    res = geom.res_px
    padded = np.zeros((geom.rows * res, geom.cols * res), dtype=np.float64)
    padded[: values.shape[0], : values.shape[1]] = values
    return padded.reshape(geom.rows, res, geom.cols, res).sum(axis=(1, 3))


def covered_area(geom: GridGeometry) -> np.ndarray:
    """Actual mask-extent area of each grid cell in square meters (A_t)."""
    ones = np.ones((geom.fine_height, geom.fine_width))
    return _block_sums(ones, geom) * geom.fine_cell_size ** 2


def _check_mask(mask: FootprintMask, geom: GridGeometry) -> None:
    r = mask.raster
    if (
        r.width != geom.fine_width
        or r.height != geom.fine_height
        or abs(r.origin_x - geom.origin_x) > 1e-6
        or abs(r.origin_y - geom.origin_y) > 1e-6
        or abs(r.cell_size - geom.fine_cell_size) > 1e-9
    ):
        raise AlignmentError("mask is not nested in the aggregation grid")


def lambda_p(mask: FootprintMask, geom: GridGeometry) -> np.ndarray:
    """Plan-area fraction: built pixel area over cell area, per cell."""
    _check_mask(mask, geom)
    built = _block_sums((mask.raster.values > 0).astype(np.float64), geom)
    return built / _block_sums(np.ones((geom.fine_height, geom.fine_width)), geom)


@dataclass(frozen=True)
class BuildingTable:
    """Per-building columns over one grid, in building order.

    ``cells`` is the flat grid-cell index of each building's footprint
    centroid, -1 when it lies outside the grid.
    """

    geom: GridGeometry
    cells: np.ndarray
    heights: np.ndarray
    areas: np.ndarray
    perimeters: np.ndarray
    footprints: list[BuildingFootprint]

    def cell_sums(self, weights: np.ndarray) -> np.ndarray:
        """Per-cell sum of a per-building value over member buildings, in
        building order (so it equals a ``sums[cell] += value`` loop)."""
        sel = self.cells >= 0
        n = self.geom.rows * self.geom.cols
        return np.bincount(self.cells[sel], weights=weights[sel], minlength=n)


def building_table(buildings: list[Lod1Building], geom: GridGeometry) -> BuildingTable:
    """Each building's grid cell, and its footprint's stored area and perimeter."""
    cells = np.full(len(buildings), -1, dtype=np.int64)
    for i, b in enumerate(buildings):
        cx, cy = b.footprint.centroid
        col = math.floor((cx - geom.origin_x) / geom.resolution)
        row = math.floor((cy - geom.origin_y) / geom.resolution)
        if 0 <= row < geom.rows and 0 <= col < geom.cols:
            cells[i] = row * geom.cols + col
    footprints = [b.footprint for b in buildings]
    return BuildingTable(
        geom=geom,
        cells=cells,
        heights=np.array([b.height for b in buildings], dtype=np.float64),
        areas=np.array([f.area for f in footprints], dtype=np.float64),
        perimeters=np.array([f.perimeter for f in footprints], dtype=np.float64),
        footprints=footprints,
    )


def lambda_b(table: BuildingTable, mask: FootprintMask) -> np.ndarray:
    """Surface-to-plan ratio: (roof area + perimeter x height) over cell area.

    Roof area comes from the mask's built pixels; the wall term sums over
    buildings whose centroid lies in the cell.
    """
    geom = table.geom
    _check_mask(mask, geom)
    built_area = (
        _block_sums((mask.raster.values > 0).astype(np.float64), geom)
        * geom.fine_cell_size ** 2
    )
    walls = table.cell_sums(table.perimeters * table.heights)
    return (built_area + walls.reshape(geom.rows, geom.cols)) / covered_area(geom)


def height_stats(table: BuildingTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell (mean, population std, count) of member building heights."""
    geom = table.geom
    n = geom.rows * geom.cols
    counts = np.bincount(table.cells[table.cells >= 0], minlength=n).astype(np.int64)
    sums = table.cell_sums(table.heights)
    sumsq = table.cell_sums(table.heights ** 2)
    mean = np.zeros(n)
    present = counts > 0
    mean[present] = sums[present] / counts[present]
    var = np.zeros(n)
    var[present] = np.maximum(0.0, sumsq[present] / counts[present] - mean[present] ** 2)
    std = np.sqrt(var)
    shape = (geom.rows, geom.cols)
    return mean.reshape(shape), std.reshape(shape), counts.reshape(shape)


def area_weighted_height(table: BuildingTable) -> np.ndarray:
    """Footprint-area-weighted mean height per cell."""
    wsum = table.cell_sums(table.areas * table.heights)
    w = table.cell_sums(table.areas)
    out = np.zeros_like(w)
    present = w > 0
    out[present] = wsum[present] / w[present]
    return out.reshape(table.geom.rows, table.geom.cols)


def height_histogram(
    table: BuildingTable,
    bin_width: float = DEFAULT_BIN_WIDTH,
    height_cap: float = DEFAULT_HEIGHT_CAP,
) -> np.ndarray:
    """Per-cell fractions of buildings per half-open height bin.

    Bins are [0, w), [w, 2w), ... with a final open-ended bin at and above
    ``height_cap``.  Cells without buildings get an all-zero vector.
    """
    if not bin_width > 0:
        raise ShapeError(f"bin_width {bin_width} must be > 0")
    geom = table.geom
    nbins = int(height_cap // bin_width) + 1
    n = geom.rows * geom.cols
    bins = np.minimum((table.heights // bin_width).astype(np.int64), nbins - 1)
    sel = table.cells >= 0
    combined = table.cells[sel] * nbins + bins[sel]
    counts = np.bincount(combined, minlength=n * nbins).reshape(n, nbins)
    totals = counts.sum(axis=1)
    frac = np.zeros((n, nbins))
    present = totals > 0
    frac[present] = counts[present] / totals[present, None]
    return frac.reshape(geom.rows, geom.cols, nbins)


def lambda_f(table: BuildingTable, wind_direction: float) -> np.ndarray:
    """Frontal area index: wind-facing wall area per unit cell area."""
    geom = table.geom
    widths = np.array(
        [projected_width(f, wind_direction) for f in table.footprints], dtype=np.float64
    )
    walls = table.cell_sums(widths * table.heights)
    return walls.reshape(geom.rows, geom.cols) / covered_area(geom)


@dataclass
class UcpGrid:
    """The UCP fields of one aggregation grid: its geometry plus per-cell arrays."""

    geom: GridGeometry
    count: np.ndarray = field(repr=False)
    mean: np.ndarray = field(repr=False)
    std: np.ndarray = field(repr=False)
    area_weighted: np.ndarray = field(repr=False)
    hist: np.ndarray = field(repr=False)
    lambda_p: np.ndarray = field(repr=False)
    lambda_b: np.ndarray = field(repr=False)
    lambda_f: dict[float, np.ndarray] = field(repr=False)

    @property
    def nbins(self) -> int:
        return self.hist.shape[-1]

    def scalar_fields(self) -> dict[str, np.ndarray]:
        """Every per-cell scalar field by name, in export order."""
        fields = {
            "mean": self.mean,
            "std": self.std,
            "area_weighted": self.area_weighted,
            "lambda_p": self.lambda_p,
            "lambda_b": self.lambda_b,
            "count": self.count.astype(np.float64),
        }
        fields.update((f"lambda_f_{d:g}", v) for d, v in self.lambda_f.items())
        return fields

    def scalar_field(self, name: str) -> np.ndarray:
        """Per-cell array for a named field (``mean``, ``lambda_f_90``, ``hist_3`` ...)."""
        fields = self.scalar_fields()
        if name in fields:
            return fields[name]
        k = name[5:]
        if name.startswith("hist_") and k.isdecimal() and int(k) < self.nbins:
            return self.hist[:, :, int(k)]
        raise KeyError(f"unknown UCP field '{name}'")


def aggregate_all(
    buildings: list[Lod1Building],
    mask: FootprintMask,
    resolution: float = DEFAULT_RESOLUTION,
    directions: tuple[float, ...] = (0.0,),
    bin_width: float = DEFAULT_BIN_WIDTH,
    height_cap: float = DEFAULT_HEIGHT_CAP,
) -> UcpGrid:
    """Populate every UCP field over one grid in a single deterministic pass.

    Each building's grid cell is found once for the grid, in one
    ``building_table``; every field reduces that table.
    """
    geom = grid_geometry(mask, resolution)
    table = building_table(buildings, geom)
    mean, std, count = height_stats(table)
    return UcpGrid(
        geom=geom,
        count=count,
        mean=mean,
        std=std,
        area_weighted=area_weighted_height(table),
        hist=height_histogram(table, bin_width, height_cap),
        lambda_p=lambda_p(mask, geom),
        lambda_b=lambda_b(table, mask),
        lambda_f={d: lambda_f(table, d) for d in directions},
    )


# -- export ------------------------------------------------------------------


def export_rasters(grid: UcpGrid, out_dir) -> list[str]:
    """One GLBR raster per scalar UCP, named ``ucp_{field}_{resolution}m.glbr``."""
    os.makedirs(out_dir, exist_ok=True)
    g = grid.geom
    paths = []
    for name, arr in grid.scalar_fields().items():
        r = Raster(
            width=g.cols,
            height=g.rows,
            origin_x=g.origin_x,
            origin_y=g.origin_y,
            cell_size=g.resolution,
            nodata=-9999.0,
            values=arr.astype(np.float32),
        )
        path = os.path.join(out_dir, f"ucp_{name}_{g.resolution:g}m.glbr")
        write_raster(r, path)
        paths.append(path)
    return paths


def export_csv(grid: UcpGrid, path) -> None:
    """One row per grid cell in row-major order, each value as its ``repr``."""
    directions = sorted(grid.lambda_f)
    header = ["cell_row", "cell_col", "count", "mean", "std", "lambda_p", "lambda_b"]
    header += [f"lambda_f_{d:g}" for d in directions]
    header += [f"hist_bin_{k}" for k in range(grid.nbins)]
    arrays = [*np.indices(grid.count.shape), grid.count, grid.mean, grid.std]
    arrays += [grid.lambda_p, grid.lambda_b] + [grid.lambda_f[d] for d in directions]
    arrays += list(np.moveaxis(grid.hist, -1, 0))
    columns = [map(repr, a.ravel().tolist()) for a in arrays]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(cells) + "\n" for cells in zip(*columns))
