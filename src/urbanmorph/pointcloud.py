"""Labeled point clouds and their reduction to 1-m elevation rasters.

Points carry a semantic label (ground / building / other); classification
itself happens upstream and is taken as given.  Gridding uses per-cell
elevation averaging with 64-bit accumulation, so the result is independent
of point order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from math import isfinite

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyCloudError, EmptyStatisticsError, FormatError
from .raster import Raster, clamp_nonnegative, subtract


class Label(IntEnum):
    GROUND = 0
    BUILDING = 1
    OTHER = 2


_LABEL_NAMES = {Label.GROUND: "ground", Label.BUILDING: "building", Label.OTHER: "other"}
_NAME_LABELS = {v: k for k, v in _LABEL_NAMES.items()}


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

    @property
    def extent(self) -> tuple[float, float, float, float]:
        if len(self) == 0:
            raise EmptyCloudError("empty point cloud has no extent")
        return (
            float(self.xs.min()),
            float(self.ys.min()),
            float(self.xs.max()),
            float(self.ys.max()),
        )


def grid_elevation(pc: PointCloud, label_filter, template: Raster) -> Raster:
    """Mean elevation of the selected points per template cell.

    Cell membership is half-open: a point belongs to the cell whose index is
    floor((coord - origin) / cell_size).  Cells without points become nodata.
    """
    wanted = {int(l) for l in label_filter}
    sel = np.isin(pc.labels, list(wanted))
    if not sel.any():
        raise EmptyCloudError(f"no points with labels {sorted(wanted)}")
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

    Distance is Euclidean between cell centers; exact ties go to the donor
    earliest in row-major order.
    """
    valid = r.valid_mask
    if not valid.any():
        raise EmptyStatisticsError("cannot fill an all-nodata raster")
    if valid.all():
        return r.with_values(r.values.copy())

    donor_rc = np.argwhere(valid)  # row-major order
    void_rc = np.argwhere(~valid)
    tree = cKDTree(donor_rc.astype(np.float64))
    k = min(2, len(donor_rc))
    dists, idx = tree.query(void_rc.astype(np.float64), k=k)
    if k == 1:
        dists = dists[:, None]
        idx = idx[:, None]

    # Resolve ties deterministically: among equidistant donors take the one
    # earliest in row-major scan order.  Only cells whose two nearest donors
    # are equidistant need the full candidate search.
    tol = 1e-9
    chosen = idx[:, 0].copy()
    if k == 2:
        tied = np.flatnonzero(dists[:, 1] - dists[:, 0] <= tol)
        for i in tied:
            vr, vc = void_rc[i]
            candidates = tree.query_ball_point([float(vr), float(vc)], dists[i, 0] + tol)
            chosen[i] = min(candidates)
    out = r.values.copy()
    picked = donor_rc[chosen]
    out[void_rc[:, 0], void_rc[:, 1]] = r.values[picked[:, 0], picked[:, 1]]
    return r.with_values(out)


def build_reference_ndsm(pc: PointCloud, template: Raster) -> Raster:
    """Building-height raster: building-return surface minus void-filled terrain.

    Cells without building returns are 0 (no building), keeping the
    regression target dense.  Result is clamped non-negative.
    """
    if not np.isin(pc.labels, [int(Label.BUILDING)]).any():
        # No buildings at all: the height field is identically zero.
        return template.with_values(np.zeros((template.height, template.width),
                                             dtype=np.float32))
    dsm = grid_elevation(pc, {Label.BUILDING}, template)
    dem = fill_voids_nearest(grid_elevation(pc, {Label.GROUND}, template))
    return height_above_ground(dsm, dem)


def height_above_ground(dsm: Raster, dem: Raster) -> Raster:
    """The nDSM rule: DSM minus DEM clamped at 0, and 0 where the DSM has no return."""
    ndsm = clamp_nonnegative(subtract(dsm, dem))
    return ndsm.with_values(np.where(ndsm.valid_mask, ndsm.values, np.float32(0.0)))


# -- CSV I/O -----------------------------------------------------------------


def write_points_csv(pc: PointCloud, path) -> None:
    with open(path, "w") as f:
        f.write("x,y,z,label\n")
        names = np.array([_LABEL_NAMES[Label(v)] for v in range(3)])
        rows = names[pc.labels]
        for x, y, z, name in zip(pc.xs, pc.ys, pc.zs, rows):
            f.write(f"{x:.9g},{y:.9g},{z:.9g},{name}\n")


def read_points_csv(path) -> PointCloud:
    # Undecodable bytes become U+FFFD, which no number or label accepts, so
    # they fail as a FormatError naming their line.
    with open(path, encoding="utf-8", errors="replace") as f:
        header = f.readline().strip().lower().split(",")
        if header != ["x", "y", "z", "label"]:
            raise FormatError(f"{path}: expected header 'x,y,z,label', got {header}")
        xs, ys, zs, labels = [], [], [], []
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 fields")
            name = parts[3].strip().lower()
            if name not in _NAME_LABELS:
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
            labels.append(int(_NAME_LABELS[name]))
    return PointCloud(
        xs=np.array(xs), ys=np.array(ys), zs=np.array(zs),
        labels=np.array(labels, dtype=np.int8),
    )
