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
from .raster import Raster, clamp_nonnegative, subtract


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
_D2_SPAN = 1 << 18


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


def grid_elevation(pc: PointCloud, label_filter, template: Raster) -> Raster:
    """Mean elevation of the selected points per template cell.

    Cell membership is half-open: a point belongs to the cell whose index is
    floor((coord - origin) / cell_size).  Cells without points become nodata,
    so a selection without points gives an all-nodata raster.
    """
    sel = np.isin(pc.labels, [int(l) for l in label_filter])
    xs, ys, zs = pc.xs[sel], pc.ys[sel], pc.zs[sel]

    col = np.floor((xs - template.origin_x) / template.cell_size).astype(np.int64)
    row = np.floor((ys - template.origin_y) / template.cell_size).astype(np.int64)
    in_bounds = (
        (col >= 0) & (col < template.width) & (row >= 0) & (row < template.height)
    )
    col, row, zs = col[in_bounds], row[in_bounds], zs[in_bounds]

    n = template.width * template.height
    flat = row * template.width + col
    sums = np.bincount(flat, weights=zs, minlength=n)
    counts = np.bincount(flat, minlength=n)

    out = np.full(n, template.nodata, dtype=np.float32)
    hit = counts > 0
    out[hit] = (sums[hit] / counts[hit]).astype(np.float32)
    return template.with_values(out)


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
    near_r, near_c = distance_transform_edt(
        ~valid, return_distances=False, return_indices=True
    )
    void_r, void_c = np.nonzero(~valid)
    d2 = (void_r - near_r[void_r, void_c]) ** 2 + (void_c - near_c[void_r, void_c]) ** 2
    order = np.argsort(d2, kind="stable")
    void_r, void_c, d2 = void_r[order], void_c[order], d2[order]
    height, width = valid.shape
    lo = 0
    while lo < d2.size:
        # Cells whose d2 lies in one span share a table of at most about
        # pi * _D2_SPAN offsets, which bounds memory on sparse donors.
        hi = int(np.searchsorted(d2, d2[lo] + _D2_SPAN))
        off_d2, off_r, off_c = _lattice(int(d2[lo]), int(d2[hi - 1]))
        # Round k tries each pending cell's k-th offset at its d2.  Its EDT
        # donor is among them, so every cell stops within its own d2.
        cell = np.arange(lo, hi)
        k = np.searchsorted(off_d2, d2[lo:hi])
        while cell.size:
            rr, cc = void_r[cell] + off_r[k], void_c[cell] + off_c[k]
            hit = (rr >= 0) & (rr < height) & (cc >= 0) & (cc < width)
            hit[hit] = valid[rr[hit], cc[hit]]
            out[void_r[cell[hit]], void_c[cell[hit]]] = r.values[rr[hit], cc[hit]]
            cell, k = cell[~hit], k[~hit] + 1
        lo = hi
    return r.with_values(out)


_isqrt = np.vectorize(isqrt, otypes=[np.int64])  # exact where float sqrt is not


def _lattice(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every integer offset (dr, dc) with lo <= dr² + dc² <= hi.

    Returns d2, dr and dc, sorted by d2, then dr, then dc: within one d2
    that is the row-major order of the donors around a cell.
    """
    rows = np.arange(-isqrt(hi), isqrt(hi) + 1)
    need = lo - rows * rows
    inner = _isqrt(np.maximum(need, 1) - 1) + (need > 0)  # least dc >= 0 with dc² >= need
    count = np.maximum(_isqrt(hi - rows * rows) - inner + 1, 0)
    dr = np.repeat(rows, count)
    dc = np.repeat(inner - np.cumsum(count) + count, count) + np.arange(count.sum())
    dr, dc = np.concatenate([dr, dr[dc > 0]]), np.concatenate([dc, -dc[dc > 0]])
    d2 = dr * dr + dc * dc
    order = np.lexsort((dc, dr, d2))
    return d2[order], dr[order], dc[order]


def height_above_ground(dsm: Raster, dem: Raster) -> Raster:
    """The nDSM rule: DSM minus DEM clamped at 0, and 0 where the DSM has no return."""
    ndsm = clamp_nonnegative(subtract(dsm, dem))
    return ndsm.with_values(np.where(ndsm.valid_mask, ndsm.values, np.float32(0.0)))


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
