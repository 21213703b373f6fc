"""Labeled point clouds and their reduction to 1-m elevation rasters.

Points carry a semantic label (ground / building / other); classification
itself happens upstream and is taken as given.  Gridding averages each
cell's elevations, added in float64 in point order.  It takes one label at a
time, in blocks of points: besides the cloud (25 bytes a point) it holds a
float64 sum and an int64 count per cell for one label, then that label's
float32 means, and the DEM once it is done.  Void cells of a terrain
raster take the value of their nearest valid cell center; distances are
compared as exact integer squared distances, and a tie goes to the donor
earliest in row-major order.  One exact feature transform of the transposed
void mask meets that rule: it relies on scipy's pass order and tie rule
(``fill_voids_nearest``).

Points are stored as CSV (``x,y,z,label``) or as GLBP, a little-endian
column file: a ``<4sHQ`` header (magic ``b"GLBP"``, version 1, count n),
then n x, n y and n z as ``<f8`` and n labels as ``i1``, 25 bytes a point.
GLBP stores the doubles exactly; a CSV reads back the same doubles when its
numbers round-trip, as ``repr`` writes them.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from enum import IntEnum
from itertools import islice, repeat
from math import isfinite

import numpy as np
from scipy.ndimage import distance_transform_edt

from .errors import EmptyStatisticsError, FormatError
from .raster import Raster, require_aligned


class Label(IntEnum):
    GROUND = 0
    BUILDING = 1
    OTHER = 2


_NAME_CODES = {"ground": 0, "building": 1, "other": 2}
# CSV lines parsed, or points gridded, per block: large enough to amortise
# the per-block calls, small enough that a block's temporaries stay a few MB.
_BLOCK = 65536
GLBP_MAGIC = b"GLBP"
_GLBP_HEADER = struct.Struct("<4sHQ")


@dataclass
class PointCloud:
    """Columnar point storage; all arrays share one length."""

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

    def __len__(self) -> int:
        return self.xs.size


def _mean_elevation(pc: PointCloud, template: Raster, label: Label) -> Raster:
    """Mean elevation of the ``label`` points per template cell, nodata where
    a cell has none.  The points go through in blocks of ``_BLOCK``, so no
    temporary is as long as the cloud; ``np.add.at`` adds each cell's
    elevations in point order, block after block."""
    width, height = template.width, template.height
    sums = np.zeros(width * height)
    counts = np.zeros(width * height, dtype=np.int64)
    for start in range(0, len(pc), _BLOCK):
        block = slice(start, start + _BLOCK)
        keep = pc.labels[block] == label
        col, row = pc.xs[block][keep], pc.ys[block][keep]
        for a, origin in ((col, template.origin_x), (row, template.origin_y)):
            a -= origin
            a /= template.cell_size
            np.floor(a, out=a)
        on = (col >= 0) & (col < width) & (row >= 0) & (row < height)
        cells = (row[on] * width + col[on]).astype(np.intp)
        np.add.at(sums, cells, pc.zs[block][keep][on])
        np.add.at(counts, cells, 1)
    hit = counts > 0
    np.divide(sums, counts, out=sums, where=hit)
    del counts  # the float32 means come after the counts go
    means = sums.astype(np.float32)
    means[~hit] = template.nodata
    return template.with_values(means)


def grid_elevation(pc: PointCloud, template: Raster) -> tuple[Raster, Raster]:
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


def write_points_glbp(pc: PointCloud, path) -> None:
    """Write GLBP, each coordinate the double it is in ``pc``."""
    write_glbp_pieces(path, len(pc), [(0, pc)])


def write_glbp_pieces(path, n: int, pieces: Iterable[tuple[int, PointCloud]]) -> None:
    """Write an ``n``-point GLBP from ``(start, points)`` pieces, each of the
    points from index ``start`` on, that together hold each point once.

    Each column of a piece is written at its place in the file, so only the
    piece in hand is held."""
    with open(path, "wb") as f:
        f.write(_GLBP_HEADER.pack(GLBP_MAGIC, 1, n))
        for start, piece in pieces:
            for k, column in enumerate((piece.xs, piece.ys, piece.zs)):
                f.seek(_GLBP_HEADER.size + 8 * (k * n + start))
                column.astype("<f8", copy=False).tofile(f)
            f.seek(_GLBP_HEADER.size + 24 * n + start)
            piece.labels.astype("i1", copy=False).tofile(f)


def _read_glbp(path) -> PointCloud:
    with open(path, "rb") as f:
        head = f.read(_GLBP_HEADER.size)
        if len(head) < _GLBP_HEADER.size:
            raise FormatError(f"{path}: truncated header at byte {len(head)}")
        _, version, n = _GLBP_HEADER.unpack(head)
        if version != 1:
            raise FormatError(f"{path}: unsupported version {version} at byte 4")
        # Checked before any column is read, so a forged count allocates nothing.
        size = os.fstat(f.fileno()).st_size
        expected = _GLBP_HEADER.size + 25 * n
        if size != expected:
            raise FormatError(f"{path}: expected {expected} bytes for {n} points, got {size}")
        xs, ys, zs = (np.fromfile(f, "<f8", n) for _ in range(3))
        labels = np.fromfile(f, "i1", n)
    if bad := np.count_nonzero((labels < 0) | (labels > 2)):
        raise FormatError(f"{path}: {bad} labels not 0, 1 or 2")
    try:
        return PointCloud(xs=xs, ys=ys, zs=zs, labels=labels)
    except ValueError as exc:  # the coordinates, checked once
        raise FormatError(f"{path}: {exc}") from exc


def read_points_csv(path) -> PointCloud:
    """Read a point file: GLBP, sniffed by its magic, or else CSV."""
    with open(path, "rb") as f:
        if f.read(4) == GLBP_MAGIC:
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
    if not blocks:
        return PointCloud(xs=[], ys=[], zs=[], labels=[])
    xs, ys, zs, labels = (np.concatenate(column) for column in zip(*blocks))
    return PointCloud(xs=xs, ys=ys, zs=zs, labels=labels)


def _parse_block(path, lines: list[str], lineno: int):
    """The x, y, z and label columns of ``lines``, the first being line ``lineno``.

    Parses the whole block in bulk; a block that fails any check is parsed
    again line by line, which names the first bad line.
    """
    rows = list(filter(None, map(str.strip, lines)))
    fields = ",".join(rows).split(",")
    codes = list(map(_NAME_CODES.get, map(str.lower, map(str.strip, fields[3::4]))))
    try:
        if set(map(str.count, rows, repeat(","))) <= {3} and None not in codes:
            xyz = [np.fromiter(map(float, fields[k::4]), np.float64, len(rows)) for k in range(3)]
            if np.isfinite(xyz).all():
                return (*xyz, np.array(codes, dtype=np.int8))
    except ValueError:
        pass
    return _parse_lines(path, lines, lineno)


def _parse_lines(path, lines: list[str], lineno: int):
    """``_parse_block`` one line at a time, raising at the first bad line."""
    xs, ys, zs, labels = [], [], [], []
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
        xs.append(x)
        ys.append(y)
        zs.append(z)
        labels.append(_NAME_CODES[name])
    return (
        np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64),
        np.array(zs, dtype=np.float64), np.array(labels, dtype=np.int8),
    )
