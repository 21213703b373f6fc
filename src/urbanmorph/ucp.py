"""Gridded urban canopy parameters from LoD-1 buildings and footprint masks.

Per grid cell (default resolution 300 m): building count, mean / standard
deviation of heights, footprint-area-weighted mean height, height histogram
in half-open 5-m bins, plan-area fraction, surface-to-plan ratio, and the
frontal area index per wind direction.

Conventions (declared, since sources differ): buildings belong to the cell
containing their footprint centroid; plan and roof areas are pixel counts on
the 1-m mask; the standard deviation is the population form; grid cells
clipped by the mask extent use their actually covered area as the cell area.

``aggregate_all`` is the one producer of every field; the helpers it calls
each compute one step of it.  A footprint's area, perimeter and centroid are
measured when it is built; a ``BuildingTable`` adds each centroid's grid cell,
once per grid, and holds the footprints as one vertex table, whose projected
widths are taken for every building and direction at once.  The fields are
``bincount`` reductions over it, summed in building order.  The grid's built
cells are block-summed once and shared by lambda_p and lambda_b; its cell
areas are the outer product of the per-block row and column counts, exact
integers times the cell area.  A ``UcpGrid`` is its ``GridGeometry`` plus
fields; ``scalar_fields`` names the scalar ones.  ``read_csv`` reads back the
fields ``export_csv`` wrote.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, FormatError, ShapeError
from .footprints import FootprintMask, FootprintTable, footprint_table, projected_widths
from .lod1 import Lod1Building
from .raster import DEFAULT_NODATA, Raster, write_raster

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


def raster_grid(r: Raster, resolution: float) -> GridGeometry:
    """The aggregation grid of ``resolution`` over the raster ``r``."""
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


def _cell_counts(geom: GridGeometry) -> np.ndarray:
    """Fine cells in each grid cell (edge blocks may be partial)."""
    res = geom.res_px
    rows = np.minimum(res, geom.fine_height - res * np.arange(geom.rows))
    cols = np.minimum(res, geom.fine_width - res * np.arange(geom.cols))
    return np.outer(rows, cols)


def covered_area(geom: GridGeometry) -> np.ndarray:
    """Actual mask-extent area of each grid cell in square meters (A_t)."""
    return _cell_counts(geom) * geom.fine_cell_size ** 2


def _built_cells(mask: FootprintMask, geom: GridGeometry) -> np.ndarray:
    """Built fine cells in each grid cell."""
    res = geom.res_px
    built = np.zeros((geom.rows * res, geom.cols * res), dtype=bool)
    built[: geom.fine_height, : geom.fine_width] = mask.source_ids > 0
    return built.reshape(geom.rows, res, geom.cols, res).sum(axis=(1, 3))


@dataclass(frozen=True)
class BuildingTable:
    """Per-building columns over one grid, in building order.

    ``cells`` is the flat grid-cell index of each building's footprint
    centroid, -1 when it lies outside the grid; ``footprints`` is the vertex
    table of the footprints.
    """

    geom: GridGeometry
    cells: np.ndarray
    heights: np.ndarray
    areas: np.ndarray
    perimeters: np.ndarray
    footprints: FootprintTable

    def cell_sums(self, weights: np.ndarray) -> np.ndarray:
        """Per-cell sum of a per-building value over member buildings, in
        building order (so it equals a ``sums[cell] += value`` loop)."""
        sel = self.cells >= 0
        n = self.geom.rows * self.geom.cols
        return np.bincount(self.cells[sel], weights=weights[sel], minlength=n)


def building_table(buildings: list[Lod1Building], geom: GridGeometry) -> BuildingTable:
    """Each building's grid cell, and its footprint's stored area and perimeter."""
    footprints = [b.footprint for b in buildings]
    cx, cy = np.array([f.centroid for f in footprints], dtype=np.float64).reshape(-1, 2).T
    col = np.floor((cx - geom.origin_x) / geom.resolution)
    row = np.floor((cy - geom.origin_y) / geom.resolution)
    inside = (0 <= row) & (row < geom.rows) & (0 <= col) & (col < geom.cols)
    cells = np.full(len(buildings), -1, dtype=np.int64)
    cells[inside] = row[inside] * geom.cols + col[inside]
    return BuildingTable(
        geom=geom,
        cells=cells,
        heights=np.array([b.height for b in buildings], dtype=np.float64),
        areas=np.array([f.area for f in footprints], dtype=np.float64),
        perimeters=np.array([f.perimeter for f in footprints], dtype=np.float64),
        footprints=footprint_table(footprints),
    )


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


@dataclass
class UcpGrid:
    """The UCP fields of one aggregation grid: its geometry plus per-cell arrays.

    A grid read back from its table (``read_csv``) has no ``area_weighted``.
    """

    geom: GridGeometry
    count: np.ndarray = field(repr=False)
    mean: np.ndarray = field(repr=False)
    std: np.ndarray = field(repr=False)
    area_weighted: np.ndarray | None = field(repr=False)
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
        if self.area_weighted is None:
            del fields["area_weighted"]
        fields.update((f"lambda_f_{d:g}", v) for d, v in self.lambda_f.items())
        return fields


def aggregate_all(
    buildings: list[Lod1Building],
    mask: FootprintMask,
    resolution: float = DEFAULT_RESOLUTION,
    directions: tuple[float, ...] = (0.0,),
    bin_width: float = DEFAULT_BIN_WIDTH,
    height_cap: float = DEFAULT_HEIGHT_CAP,
) -> UcpGrid:
    """Every UCP field over the ``resolution`` grid of ``mask``, in one
    deterministic pass; the package's one producer of each field.

    Each building's grid cell is found once for the grid, in one
    ``building_table``; every field reduces that table.  Per cell, over its
    covered area: lambda_p is the built pixel area; lambda_b adds to it the
    walls (perimeter x height) of the member buildings; lambda_f, one per wind
    direction, is their wind-facing wall area.  The built cells are counted
    once, and the projected widths taken once for all directions.
    """
    geom = raster_grid(mask.grid, resolution)
    table = building_table(buildings, geom)
    mean, std, count = height_stats(table)
    hist = height_histogram(table, bin_width, height_cap)
    built = _built_cells(mask, geom)
    area = covered_area(geom)
    walls = table.cell_sums(table.perimeters * table.heights).reshape(count.shape)
    widths = projected_widths(table.footprints, directions)
    return UcpGrid(
        geom=geom,
        count=count,
        mean=mean,
        std=std,
        area_weighted=area_weighted_height(table),
        hist=hist,
        lambda_p=built / _cell_counts(geom),
        lambda_b=(built * geom.fine_cell_size ** 2 + walls) / area,
        lambda_f={d: table.cell_sums(w * table.heights).reshape(count.shape) / area
                  for d, w in zip(directions, widths)},
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
            nodata=DEFAULT_NODATA,
            values=arr.astype(np.float32),
        )
        path = os.path.join(out_dir, f"ucp_{name}_{g.resolution:g}m.glbr")
        write_raster(r, path)
        paths.append(path)
    return paths


def _csv_header(directions, nbins: int) -> list[str]:
    return ["cell_row", "cell_col", "count", "mean", "std", "lambda_p", "lambda_b",
            *(f"lambda_f_{d:g}" for d in directions), *(f"hist_bin_{k}" for k in range(nbins))]


def export_csv(grid: UcpGrid, path) -> None:
    """One row per grid cell in row-major order, each value as its ``repr``."""
    directions = sorted(grid.lambda_f)
    arrays = [*np.indices(grid.count.shape), grid.count, grid.mean, grid.std]
    arrays += [grid.lambda_p, grid.lambda_b] + [grid.lambda_f[d] for d in directions]
    arrays += list(np.moveaxis(grid.hist, -1, 0))
    columns = [map(repr, a.ravel().tolist()) for a in arrays]
    with open(path, "w") as f:
        f.write(",".join(_csv_header(directions, grid.nbins)) + "\n")
        f.writelines(",".join(cells) + "\n" for cells in zip(*columns))


def read_csv(path, geom: GridGeometry) -> UcpGrid:
    """The grid on ``geom`` whose table ``export_csv`` wrote to ``path``.

    A table whose columns, cells or values are not as ``export_csv`` writes
    them for ``geom`` is a FormatError naming the file.
    """
    try:
        with open(path) as f:
            header, *lines = f.read().split("\n")
        names = header.split(",")
        values = np.array([[float(v) for v in line.split(",")] for line in lines[:-1]])
        nbins = sum(name.startswith("hist_bin_") for name in names)
        # The lambda_f columns lie between the seven leading ones and the bins.
        f_names = names[7 : len(names) - nbins]
        directions = [float(name.removeprefix("lambda_f_")) for name in f_names]
    except ValueError as exc:  # undecodable bytes, a non-number or a ragged row
        raise FormatError(f"{path}: malformed UCP table ({exc})") from exc
    shape = (geom.rows, geom.cols)
    if (
        names != _csv_header(directions, nbins)
        or not nbins
        or lines[-1:] != [""]
        or values.shape != (geom.rows * geom.cols, len(names))
        or not np.isfinite(values).all()
        or not np.array_equal(values[:, :2].T, np.indices(shape).reshape(2, -1))
        or not np.all((0 <= values[:, 2]) & (values[:, 2] <= 2**53) & (values[:, 2] % 1 == 0))
    ):
        raise FormatError(f"{path}: not a UCP table of {geom.rows} x {geom.cols} cells")
    columns = [c.reshape(shape) for c in values.T]
    return UcpGrid(
        geom=geom,
        count=columns[2].astype(np.int64),
        mean=columns[3],
        std=columns[4],
        area_weighted=None,
        hist=values[:, 7 + len(directions) :].reshape(*shape, nbins),
        lambda_p=columns[5],
        lambda_b=columns[6],
        lambda_f=dict(zip(directions, columns[7 : 7 + len(directions)])),
    )
