"""Gridded urban canopy parameters from LoD-1 buildings and footprint masks.

Per grid cell (default resolution 300 m): building count, mean / standard
deviation of heights, footprint-area-weighted mean height, height histogram
in half-open 5-m bins, plan-area fraction, surface-to-plan ratio, and the
frontal area index per wind direction.

Conventions (declared, since sources differ): buildings belong to the cell
containing their footprint centroid; plan and roof areas are pixel counts on
the 1-m mask; the standard deviation is the population form; grid cells
clipped by the mask extent use their actually covered area as the cell area.

``aggregate_all`` is the one producer of every field, in one pass: it finds
each building's grid cell once, from the centroid measured when the footprint
was built, keeps the buildings on the grid, and reduces them with ``bincount``
sums in building order.  Their footprints form one vertex table, whose
projected widths are taken for every building and direction at once.  The
grid's built cells are block-summed once and shared by lambda_p and lambda_b;
its cell areas are the outer product of the per-block row and column counts,
exact integers times the cell area.  A ``UcpGrid`` is its ``GridGeometry``
plus fields; ``scalar_fields`` names the scalar ones.  ``read_csv`` reads
back the fields ``export_csv`` wrote.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, FormatError, ShapeError
from .footprints import FootprintMask, footprint_table, projected_widths
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


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` where ``den > 0``, else 0."""
    out = np.zeros(np.broadcast_shapes(num.shape, den.shape))
    return np.divide(num, den, out=out, where=den > 0)


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


def bin_count(bin_width: float, height_cap: float) -> float:
    """The number of height-histogram bins: [0, w), [w, 2w), ... below
    ``height_cap``, and the open-ended bin at and above it.  A float, so
    that a caller can bound an extreme count before making it an int."""
    return height_cap // bin_width + 1


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

    Each building belongs to the grid cell of its footprint centroid, found
    once; buildings off the grid are dropped once.  Each per-cell sum is a
    ``bincount`` of the kept buildings in building order, so it equals a
    ``sums[cell] += value`` loop.  A cell without buildings (or without
    footprint area, for the area-weighted mean) gets 0 for each mean, std and
    histogram fraction.  Histogram bins are [0, w), [w, 2w), ... with a final
    open-ended bin at and above ``height_cap``.  Per cell, over its covered
    area: lambda_p is the built pixel area; lambda_b adds to it the walls
    (perimeter x height) of the member buildings; lambda_f, one per wind
    direction, is their wind-facing wall area.  The built cells are counted
    once, and the projected widths taken once for all directions.
    """
    geom = raster_grid(mask.grid, resolution)
    if not bin_width > 0:
        raise ShapeError(f"bin_width {bin_width} must be > 0")
    shape, n = (geom.rows, geom.cols), geom.rows * geom.cols
    centroids = np.array([b.footprint.centroid for b in buildings], dtype=np.float64)
    cx, cy = centroids.reshape(-1, 2).T
    col = np.floor((cx - geom.origin_x) / geom.resolution)
    row = np.floor((cy - geom.origin_y) / geom.resolution)
    on_grid = (0 <= row) & (row < geom.rows) & (0 <= col) & (col < geom.cols)
    cells = (row * geom.cols + col)[on_grid].astype(np.int64)
    kept = [b for b, keep in zip(buildings, on_grid) if keep]
    heights = np.array([b.height for b in kept], dtype=np.float64)
    areas = np.array([b.footprint.area for b in kept], dtype=np.float64)
    perimeters = np.array([b.footprint.perimeter for b in kept], dtype=np.float64)

    def per_cell(weights: np.ndarray) -> np.ndarray:
        return np.bincount(cells, weights=weights, minlength=n).reshape(shape)

    count = np.bincount(cells, minlength=n).reshape(shape)
    mean = _ratio(per_cell(heights), count)
    std = np.sqrt(np.maximum(0.0, _ratio(per_cell(heights ** 2), count) - mean ** 2))
    nbins = int(bin_count(bin_width, height_cap))
    bins = np.minimum((heights // bin_width).astype(np.int64), nbins - 1)
    hist = np.bincount(cells * nbins + bins, minlength=n * nbins).reshape(*shape, nbins)
    built = _built_cells(mask, geom)
    area = covered_area(geom)
    widths = projected_widths(footprint_table([b.footprint for b in kept]), directions)
    return UcpGrid(
        geom=geom,
        count=count,
        mean=mean,
        std=std,
        area_weighted=_ratio(per_cell(areas * heights), per_cell(areas)),
        hist=_ratio(hist, count[..., None]),
        lambda_p=built / _cell_counts(geom),
        lambda_b=(built * geom.fine_cell_size ** 2 + per_cell(perimeters * heights)) / area,
        lambda_f={d: per_cell(w * heights) / area for d, w in zip(directions, widths)},
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
