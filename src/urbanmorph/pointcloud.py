"""Labeled point clouds and their reduction to 1-m elevation rasters.

Points carry a semantic label (ground / building / other); classification
itself happens upstream and is taken as given.  Gridding uses per-cell
elevation averaging with 64-bit accumulation, so the result is independent
of point order.  Void cells of a terrain raster take the value of their
nearest valid cell center; distances are compared as exact integer squared
distances, and a tie goes to the donor earliest in row-major order.

Points are stored as CSV (``x,y,z,label``) or as GLBP, a little-endian
column file: a ``<4sHQ`` header (magic ``b"GLBP"``, version 1, count n),
then n x, n y and n z as ``<f8`` and n labels as ``i1``, 25 bytes a point.
GLBP stores the doubles exactly; a CSV reads back the same doubles when its
numbers round-trip, as ``repr`` writes them.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from enum import IntEnum
from itertools import islice, repeat
from math import isfinite, isqrt

import numpy as np
from scipy.ndimage import distance_transform_edt

from .errors import EmptyStatisticsError, FormatError
from .footprints import _spans
from .raster import Raster, require_aligned


class Label(IntEnum):
    GROUND = 0
    BUILDING = 1
    OTHER = 2


_NAME_CODES = {"ground": 0, "building": 1, "other": 2}
# CSV lines parsed per block: large enough to amortise the per-block calls,
# small enough that a block's temporaries stay a few MB.
_BLOCK = 65536
GLBP_MAGIC = b"GLBP"
_GLBP_HEADER = struct.Struct("<4sHQ")
# Squared-distance span of void cells filled from one offset table.
_D2_SPAN = 1 << 16


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
        if n and not (np.isfinite(self.xs).all() and np.isfinite(self.ys).all()):
            raise ValueError("point coordinates must be finite")
        if n and not np.isfinite(self.zs).all():
            raise ValueError("point elevations must be finite")

    def __len__(self) -> int:
        return self.xs.size


def _point_bins(pc: PointCloud, template: Raster) -> np.ndarray:
    """Each point's bin of ``grid_elevation``: its cell's row-major index for
    a ground point, that plus the cell count for a building point, and twice
    the cell count for a point off the grid or of another label."""
    width, height = template.width, template.height
    col, row = pc.xs - template.origin_x, pc.ys - template.origin_y
    for a in (col, row):
        a /= template.cell_size
        np.floor(a, out=a)
    off = (col < 0) | (col >= width) | (row < 0) | (row >= height)
    off |= pc.labels.view(np.uint8) > Label.BUILDING  # other, or no label at all
    np.add(row, height, out=row, where=pc.labels == Label.BUILDING)
    row *= width
    row += col
    row[off] = 2 * width * height
    return row.astype(np.intp)


def grid_elevation(pc: PointCloud, template: Raster) -> tuple[Raster, Raster]:
    """Mean elevation of the ground points and of the building points per
    template cell: the DEM before its voids are filled, and the DSM.

    Cell membership is half-open: a point belongs to the cell whose index is
    floor((coord - origin) / cell_size).  Points off the grid and ``other``
    points are dropped; cells without points become nodata.  One bincount
    adds each cell's elevations in point order.
    """
    n = template.width * template.height
    bins = _point_bins(pc, template)
    sums = np.bincount(bins, weights=pc.zs, minlength=2 * n + 1)[:-1]
    counts = np.bincount(bins, minlength=2 * n + 1)[:-1]
    del bins  # each full-size array goes before the next one comes
    out = np.full(2 * n, template.nodata, dtype=np.float32)
    np.divide(sums, counts, out=out, where=counts > 0)
    return template.with_values(out[:n]), template.with_values(out[n:])


def fill_voids_nearest(r: Raster) -> Raster:
    """Fill every nodata cell with its nearest valid cell's value.

    Distance is Euclidean between cell centers, compared as an exact integer
    squared distance; exact ties go to the donor earliest in row-major order.
    """
    valid = r.valid_mask
    if not valid.any():
        raise EmptyStatisticsError("cannot fill an all-nodata raster")
    out = r.values.copy()
    if valid.all():
        return r.with_values(out)

    # The EDT gives each void cell's nearest squared distance d2 exactly, but
    # breaks ties its own way; so each cell takes the first valid donor among
    # the lattice offsets at its d2, tried in row-major order of the donor.
    height, width = valid.shape
    nearest = distance_transform_edt(~valid, return_distances=False, return_indices=True)
    void = np.flatnonzero(~valid)
    d2 = np.square(void // width - nearest[0].ravel()[void])
    d2 += np.square(void % width - nearest[1].ravel()[void])
    del nearest
    order = np.argsort(d2, kind="stable")
    void, d2 = void[order], d2[order]
    del order
    # Donors are looked up in a copy of the mask with a border of invalid
    # cells as wide as the farthest offset, so no offset needs a bounds check;
    # no offset is wider than the grid (``_lattice``), nor the border.
    reach = isqrt(int(d2[-1]))
    pad_r, pad_c = min(reach, height - 1), min(reach, width - 1)
    wide = width + 2 * pad_c
    padded = np.zeros((height + 2 * pad_r, wide), dtype=bool)
    padded[pad_r:pad_r + height, pad_c:pad_c + width] = valid
    padded, values, filled = padded.ravel(), r.values.ravel(), out.ravel()
    lo = 0
    while lo < d2.size:
        # Cells whose d2 lies in one span share a table of at most about
        # pi * _D2_SPAN offsets, which bounds memory on sparse donors.
        hi = int(np.searchsorted(d2, d2[lo] + _D2_SPAN))
        off_d2, off_r, off_c = _lattice(int(d2[lo]), int(d2[hi - 1]), height, width)
        step, wide_step = off_r * width + off_c, off_r * wide + off_c
        # Round k tries each pending cell's k-th offset at its d2.  Its EDT
        # donor is among them, so every cell stops within its own d2.
        cell, k = void[lo:hi], np.searchsorted(off_d2, d2[lo:hi])
        at = cell + cell // width * (2 * pad_c) + pad_r * wide + pad_c  # in ``padded``
        while cell.size:
            hit = padded[at + wide_step[k]]
            filled[cell[hit]] = values[cell[hit] + step[k[hit]]]
            miss = ~hit
            cell, k, at = cell[miss], k[miss] + 1, at[miss]
        lo = hi
    return r.with_values(out)


_isqrt = np.vectorize(isqrt, otypes=[np.int64])  # exact where float sqrt is not


def _lattice(lo: int, hi: int, height: int, width: int):
    """Every integer offset (dr, dc) with lo <= dr² + dc² <= hi, |dr| < height
    and |dc| < width: every offset within a ``height`` x ``width`` grid.

    Returns d2, dr and dc, sorted by d2, then dr, then dc: within one d2
    that is the row-major order of the donors around a cell.
    """
    reach = min(isqrt(hi), height - 1)
    rows = np.arange(-reach, reach + 1)
    need = lo - rows * rows
    inner = _isqrt(np.maximum(need, 1) - 1) + (need > 0)  # least dc >= 0 with dc² >= need
    outer = np.minimum(_isqrt(hi - rows * rows), width - 1)
    # Row dr holds dc from -outer to -inner, then from inner to outer (0 once).
    right = np.maximum(outer - inner + 1, 0)
    lengths = np.column_stack((right - (inner == 0) * (right > 0), right))
    dc = _spans(np.column_stack((-outer, inner)).ravel(), lengths.ravel())
    dr = np.repeat(rows, lengths.sum(axis=1))
    d2 = dr * dr
    d2 += dc * dc
    order = np.argsort(d2, kind="stable")  # the offsets are in row-major order already
    return d2[order], dr[order], dc[order]


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
    with open(path, "wb") as f:
        f.write(_GLBP_HEADER.pack(GLBP_MAGIC, 1, len(pc)))
        for column in (pc.xs, pc.ys, pc.zs):
            column.astype("<f8", copy=False).tofile(f)
        pc.labels.astype("i1", copy=False).tofile(f)


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
    if bad := sum(np.count_nonzero(~np.isfinite(column)) for column in (xs, ys, zs)):
        raise FormatError(f"{path}: {bad} non-finite coordinates")
    return PointCloud(xs=xs, ys=ys, zs=zs, labels=labels)


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
