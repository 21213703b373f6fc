"""Labeled point clouds and their reduction to 1-m elevation rasters.

Points carry a semantic label (ground / building / other); classification
itself happens upstream and is taken as given.  Gridding averages each
cell's elevations, added in float64 in point order.  It takes one label at a
time, in blocks of points.  A GLBP file's coordinates stay in the file and
are read a block at a time (``GlbpPoints``), so the gridding holds the
labels (1 byte a point), one block, a float64 sum and an int64 count per
cell for one label (16 bytes a cell), then that label's float32 means, and
the DEM once it is done (4): at its peak, while the DSM's sums grow, about
21 bytes a fine cell at one point a cell.  A CSV file is still read whole,
as a ``PointCloud`` (25 bytes a point).  Void cells of a terrain raster take
the value of their nearest valid cell center; distances are compared as
exact integer squared distances, and a tie goes to the donor earliest in
row-major order.  One exact feature transform of the transposed void mask
meets that rule: it relies on scipy's pass order and tie rule
(``fill_voids_nearest``).

Points are stored as CSV (``x,y,z,label``) or as GLBP, a little-endian
column file: the shared binary header (``raster.Format``, magic ``b"GLBP"``)
with a u64 count n, then the n values of each column of ``_GLBP_COLUMNS``
in turn (x, y and z as ``<f8``, the labels as ``i1``).  GLBP stores the
doubles exactly; a CSV reads back the same doubles when its numbers
round-trip, as ``repr`` writes them.  Either format is rejected if a |z|
exceeds ``MAX_ABS_ELEVATION``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import IntEnum
from itertools import islice, repeat
from math import isfinite

import numpy as np
from scipy.ndimage import distance_transform_edt

from .errors import EmptyStatisticsError, FormatError
from .raster import Format, Raster, require_aligned


class Label(IntEnum):
    GROUND = 0
    BUILDING = 1
    OTHER = 2


# Plain ints: ``np.array`` converts a block of them 5x faster than ``Label`` members.
_NAME_CODES = {label.name.lower(): int(label) for label in Label}
# CSV lines parsed, or points gridded, per block: large enough to amortise
# the per-block calls, small enough that a block's temporaries stay a few MB.
_BLOCK = 65536
_GLBP_HEADER = Format(b"GLBP", "Q")
_GLBP_COLUMNS = (np.dtype("<f8"),) * 3 + (np.dtype("i1"),)  # x, y, z and label, in file order
_POINT_BYTES = sum(dtype.itemsize for dtype in _GLBP_COLUMNS)
# The largest |z| a point may have: the DSM and the DEM, float32 means of
# these, and the nDSM, their float32 difference, then stay finite.
MAX_ABS_ELEVATION = float(np.finfo(np.float32).max) / 2


def _block_starts(n: int, size: int) -> range:
    """The first point of each run of ``size`` of ``n`` points; an empty cloud
    is one empty run, so ``blocks(len(points))`` reads any cloud whole."""
    if size < min(n, 1):
        raise ValueError(f"block size {size} is below {min(n, 1)} for {n} points")
    return range(0, max(n, 1), max(size, 1))


@dataclass
class PointCloud:
    """Columnar point storage; all arrays share one length, every coordinate
    is finite and no |z| exceeds ``MAX_ABS_ELEVATION``."""

    xs: np.ndarray
    ys: np.ndarray
    zs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=np.float64)
        self.ys = np.asarray(self.ys, dtype=np.float64)
        self.zs = np.asarray(self.zs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int8)
        n = self.xs.size
        if not (self.ys.size == self.zs.size == self.labels.size == n):
            raise ValueError("point columns must share one length")
        columns = (self.xs, self.ys, self.zs)
        if bad := 3 * n - sum(np.count_nonzero(np.isfinite(c)) for c in columns):
            raise ValueError(f"{bad} non-finite coordinates")
        if high := np.count_nonzero(np.abs(self.zs) > MAX_ABS_ELEVATION):
            raise ValueError(f"{high} elevations out of range (|z| > {MAX_ABS_ELEVATION:g})")

    def __len__(self) -> int:
        return self.xs.size

    def blocks(self, size: int) -> Iterator[tuple[np.ndarray, ...]]:
        """``(labels, xs, ys, zs)`` of each run of ``size`` points, in order."""
        for start in _block_starts(len(self), size):
            block = slice(start, start + size)
            yield self.labels[block], self.xs[block], self.ys[block], self.zs[block]


class GlbpPoints:
    """The points of a checked GLBP file, their coordinates left in the file.

    It holds the labels (1 byte a point); ``blocks`` reads the x, y and z
    columns a block at a time, or whole as ``next(points.blocks(len(points)))``.
    A read that comes short, because the file shrank after it was checked, is
    a FormatError."""

    def __init__(self, path, labels: np.ndarray):
        self.path = path
        self.labels = labels

    def __len__(self) -> int:
        return self.labels.size

    def blocks(self, size: int) -> Iterator[tuple[np.ndarray, ...]]:
        """``(labels, xs, ys, zs)`` of each run of ``size`` points, in order."""
        n = len(self)
        with open(self.path, "rb") as f:
            for start in _block_starts(n, size):
                labels = self.labels[start:start + size]
                yield labels, *(_read_column(f, self.path, n, k, start, labels.size) for k in range(3))


def _glbp_offset(n: int, k: int, start: int) -> int:
    """The byte of point ``start`` of column ``k`` in an ``n``-point GLBP file."""
    before = sum(dtype.itemsize for dtype in _GLBP_COLUMNS[:k])
    return _GLBP_HEADER.size + before * n + _GLBP_COLUMNS[k].itemsize * start


def _read_column(f, path, n: int, k: int, start: int, count: int) -> np.ndarray:
    """``count`` values of column ``k`` from point ``start`` of the
    ``n``-point GLBP file ``f``; a short read raises the size check's message."""
    f.seek(_glbp_offset(n, k, start))
    values = np.fromfile(f, _GLBP_COLUMNS[k], count)
    if values.size < count:
        _GLBP_HEADER.check_size(f, path, _POINT_BYTES * n)
        raise FormatError(f"{path}: short read at byte {f.tell()}")
    return values


def _mean_elevation(points: PointCloud | GlbpPoints, template: Raster, label: Label) -> Raster:
    """Mean elevation of the ``label`` points per template cell, nodata where
    a cell has none.  The points go through in blocks of ``_BLOCK``, so no
    temporary is as long as the cloud; ``np.add.at`` adds each cell's
    elevations in point order, block after block."""
    width, height = template.width, template.height
    sums = np.zeros(width * height)
    counts = np.zeros(width * height, dtype=np.int64)
    for labels, xs, ys, zs in points.blocks(_BLOCK):
        keep = labels == label
        col, row = xs[keep], ys[keep]
        for a, origin in ((col, template.origin_x), (row, template.origin_y)):
            a -= origin
            a /= template.cell_size
            np.floor(a, out=a)
        on = (col >= 0) & (col < width) & (row >= 0) & (row < height)
        cells = (row[on] * width + col[on]).astype(np.intp)
        np.add.at(sums, cells, zs[keep][on])
        np.add.at(counts, cells, 1)
    hit = counts > 0
    np.divide(sums, counts, out=sums, where=hit)
    del counts  # the float32 means come after the counts go
    means = sums.astype(np.float32)
    means[~hit] = template.nodata
    return template.with_values(means)


def grid_elevation(pc: PointCloud | GlbpPoints, template: Raster) -> tuple[Raster, Raster]:
    """Mean elevation of the ground points and of the building points per
    template cell: the DEM before its voids are filled, and the DSM.

    Cell membership is half-open: a point belongs to the cell whose index is
    floor((coord - origin) / cell_size).  Points off the grid and ``other``
    points are dropped; cells without points become nodata.  Each cell's
    elevations are added in float64 in point order.  The DEM is finished
    before the DSM's accumulators exist.
    """
    return (_mean_elevation(pc, template, Label.GROUND),
            _mean_elevation(pc, template, Label.BUILDING))


def fill_voids_nearest(r: Raster) -> Raster:
    """Fill every nodata cell with its nearest valid cell's value.

    Distance is Euclidean between cell centers, compared as an exact integer
    squared distance; exact ties go to the donor earliest in row-major order.

    The donors come from one exact feature transform (scipy's
    ``distance_transform_edt``, Maurer et al. 2003).  It runs one pass per
    axis, the last axis last, and each pass keeps the earlier site of an
    exact tie; so it picks the least d², then the least last-axis index, then
    the least first-axis index.  It runs on the transposed mask, whose last
    axis is the row: that order is the least d², then row, then column.  Its
    float64 sums of squared integer offsets are exact on any grid under
    100,000 cells a side.  A valid cell is its own donor.
    """
    valid = r.valid_mask
    if not valid.any():
        raise EmptyStatisticsError("cannot fill an all-nodata raster")
    if valid.all():
        return r.with_values(r.values.copy())
    cols, rows = distance_transform_edt(~valid.T, return_distances=False, return_indices=True)
    return r.with_values(r.values[rows.T, cols.T])


def height_above_ground(dsm: Raster, dem: Raster) -> Raster:
    """The nDSM rule: DSM minus DEM clamped at 0, and 0 where the DSM has no return
    (or the DEM none, or the difference is the DSM's nodata value)."""
    require_aligned(dsm, dem)
    out = dsm.values - dem.values
    void = (out == np.float32(dsm.nodata)) | ~dsm.valid_mask | ~dem.valid_mask
    np.maximum(out, np.float32(0.0), out=out)
    out[void] = 0.0
    return dsm.with_values(out)


# -- Point I/O ---------------------------------------------------------------


def write_glbp_pieces(path, n: int, pieces: Iterable[tuple[int, PointCloud]]) -> None:
    """Write an ``n``-point GLBP from ``(start, points)`` pieces, each of the
    points from index ``start`` on, that together hold each point once.

    Each column of a piece is written at its place in the file, so only the
    piece in hand is held."""
    with open(path, "wb") as f:
        _GLBP_HEADER.write_header(f, n)
        for start, piece in pieces:
            for k, column in enumerate((piece.xs, piece.ys, piece.zs, piece.labels)):
                f.seek(_glbp_offset(n, k, start))
                column.astype(_GLBP_COLUMNS[k], copy=False).tofile(f)


def _read_glbp(path) -> GlbpPoints:
    """Check a GLBP file and return its points, holding only the labels.

    The coordinates are checked in one pass, each column a block at a time,
    so every fault is raised before any gridding."""
    with open(path, "rb") as f:
        n, = _GLBP_HEADER.read_header(f, path)
        _GLBP_HEADER.check_size(f, path, _POINT_BYTES * n)
        labels = _read_column(f, path, n, 3, 0, n)
        if bad := np.count_nonzero(labels.view(np.uint8) > 2):  # a negative label is > 127
            raise FormatError(f"{path}: {bad} labels not 0, 1 or 2")
        bad = high = 0
        for k in range(3):
            for start in range(0, n, _BLOCK):
                column = _read_column(f, path, n, k, start, min(_BLOCK, n - start))
                bad += column.size - np.count_nonzero(np.isfinite(column))
                if k == 2 and not bad:  # the bound is only compared with finite values
                    high += np.count_nonzero(np.abs(column, out=column) > MAX_ABS_ELEVATION)
    if bad:
        raise FormatError(f"{path}: {bad} non-finite coordinates")
    if high:
        raise FormatError(f"{path}: {high} elevations out of range (|z| > {MAX_ABS_ELEVATION:g})")
    return GlbpPoints(path, labels)


def read_points_csv(path) -> PointCloud | GlbpPoints:
    """Read a point file: GLBP, sniffed by its magic, as ``GlbpPoints``, or
    else CSV, read whole."""
    if _GLBP_HEADER.sniff(path):
        return _read_glbp(path)
    # Undecodable bytes become U+FFFD, which no number or label accepts, so
    # they fail as a FormatError naming their line.
    with open(path, encoding="utf-8", errors="replace") as f:
        header = f.readline().strip().lower().split(",")
        if header != ["x", "y", "z", "label"]:
            raise FormatError(f"{path}: expected header 'x,y,z,label', got {header}")
        blocks = []
        lineno = 2
        while lines := list(islice(f, _BLOCK)):
            blocks.append(_parse_block(path, lines, lineno))
            lineno += len(lines)
    columns = [np.concatenate(column) for column in zip(*blocks)] if blocks else [[]] * 4
    return PointCloud(*columns)


def _parse_block(path, lines: list[str], lineno: int):
    """The x, y, z and label columns of ``lines``, the first being line ``lineno``.

    Parses the whole block in bulk; a block that fails any check is checked
    again line by line, which names the first bad line.
    """
    rows = list(filter(None, map(str.strip, lines)))
    fields = ",".join(rows).split(",")
    codes = list(map(_NAME_CODES.get, map(str.lower, map(str.strip, fields[3::4]))))
    try:
        if set(map(str.count, rows, repeat(","))) <= {3} and None not in codes:
            xyz = [np.fromiter(map(float, fields[k::4]), np.float64, len(rows)) for k in range(3)]
            if np.isfinite(xyz).all() and (np.abs(xyz[2]) <= MAX_ABS_ELEVATION).all():
                return (*xyz, np.array(codes, dtype=np.int8))
    except ValueError:
        pass
    _raise_at_bad_line(path, lines, lineno)


def _raise_at_bad_line(path, lines: list[str], lineno: int) -> None:
    """Apply ``_parse_block``'s checks one line at a time, raising at the first
    bad line; every block that reaches it has one."""
    for lineno, line in enumerate(lines, start=lineno):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FormatError(f"{path}:{lineno}: expected 4 fields")
        name = parts[3].strip().lower()
        if name not in _NAME_CODES:
            raise FormatError(f"{path}:{lineno}: unknown label '{parts[3]}'")
        try:
            x, y, z = float(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad number ({exc})") from exc
        if not (isfinite(x) and isfinite(y) and isfinite(z)):
            raise FormatError(f"{path}:{lineno}: non-finite coordinate")
        if abs(z) > MAX_ABS_ELEVATION:
            raise FormatError(f"{path}:{lineno}: elevation out of range (|z| > {MAX_ABS_ELEVATION:g})")
