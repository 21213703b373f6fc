"""Building footprint geometry and rasterization to binary masks.

Footprints are simple polygons (exterior ring plus optional holes) in the
shared planar meter frame.  Rings are stored open; closure back to the first
vertex is implicit.

A footprint is checked and measured once, when it is built: its id, every
ring and the net area after the holes are checked then, and its area,
perimeter and centroid are stored on it.  Nothing changes a footprint after
that, so the stored values cannot go stale.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, GeometryError
from .raster import Raster

_AREA_EPS = 1e-12
_MAX_ID = 2**63 - 1


def _ring_array(ring) -> np.ndarray:
    arr = np.asarray(ring, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GeometryError(f"ring must be an Nx2 vertex list, got shape {arr.shape}")
    if not np.isfinite(arr).all():  # a JSON null converts to NaN
        raise ValueError("ring coordinates must be finite")
    # Drop an explicit closing vertex; closure is implicit.
    if arr.shape[0] > 1 and np.array_equal(arr[0], arr[-1]):
        arr = arr[:-1]
    return arr


def _ring_terms(ring: np.ndarray, name: str) -> tuple[float, float, float, float]:
    """Signed area, perimeter and area-weighted centroid (x, y) of the ring ``name``."""
    x, y = ring[:, 0], ring[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * float(np.sum(cross))
    if abs(a) < _AREA_EPS:
        raise GeometryError(f"{name}: degenerate ring with zero area")
    perimeter = float(np.sum(np.hypot(xn - x, yn - y)))
    cx = float(np.sum((x + xn) * cross)) / (6.0 * a)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * a)
    return a, perimeter, cx, cy


def _ring_self_intersects(ring: np.ndarray) -> bool:
    """Whether two edges sharing no vertex properly cross, over all pairs at once.

    Edge k runs from vertex k to k+1; edges 0 and n-1 share vertex 0.
    """
    n = ring.shape[0]
    x, y = ring[:, 0], ring[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    # Edge i (rows) runs from p1 to p2, edge j (columns) from p3 to p4.
    p1, p2 = (x[:, None], y[:, None]), (xn[:, None], yn[:, None])
    p3, p4 = (x[None, :], y[None, :]), (xn[None, :], yn[None, :])

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    k = np.arange(n)
    pairs = k[None, :] - k[:, None] >= 2
    pairs[0, n - 1] = False
    return bool(np.any(((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & pairs))


@dataclass
class BuildingFootprint:
    id: int
    exterior: np.ndarray
    holes: list[np.ndarray] = field(default_factory=list)
    area: float = field(init=False)
    perimeter: float = field(init=False)
    centroid: tuple[float, float] = field(init=False)

    def __post_init__(self):
        # 0 marks "no building" in a FootprintMask, and ids are stored as int64.
        if not 1 <= self.id <= _MAX_ID:
            raise ValueError(f"footprint id {self.id} is not in [1, {_MAX_ID}]")
        self.exterior = _ring_array(self.exterior)
        self.holes = [_ring_array(h) for h in self.holes]
        name = f"footprint {self.id}"
        if len(np.unique(self.exterior, axis=0)) < 3:
            raise GeometryError(f"{name}: exterior needs >= 3 distinct vertices")
        a_ext, p_ext, cx, cy = _ring_terms(self.exterior, f"{name} exterior")
        holes = [_ring_terms(h, f"{name} hole {k}") for k, h in enumerate(self.holes)]
        if _ring_self_intersects(self.exterior):
            raise GeometryError(f"{name}: self-intersecting exterior ring")
        area = abs(a_ext)
        mx, my = area * cx, area * cy
        for a_h, _, hx, hy in holes:
            area -= abs(a_h)
            mx -= abs(a_h) * hx
            my -= abs(a_h) * hy
        if area < _AREA_EPS:
            raise GeometryError(f"{name}: holes consume the exterior")
        self.area = area
        self.perimeter = p_ext + sum(p_h for _, p_h, _, _ in holes)
        self.centroid = (mx / area, my / area)

    def rings(self) -> list[np.ndarray]:
        return [self.exterior, *self.holes]

    def bounds(self) -> tuple[float, float, float, float]:
        xs = self.exterior[:, 0]
        ys = self.exterior[:, 1]
        return float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())


@dataclass
class FootprintMask:
    """1-m binary building mask plus per-cell footprint ownership.

    ``source_ids`` is 0 where no building covers the cell center; on overlap
    the highest footprint id wins.
    """

    raster: Raster
    source_ids: np.ndarray

    def __post_init__(self):
        self.source_ids = np.asarray(self.source_ids, dtype=np.int64).reshape(
            self.raster.height, self.raster.width
        )


def polygon_area(f: BuildingFootprint) -> float:
    """Shoelace area of the exterior minus its holes, in square meters."""
    return f.area


def polygon_perimeter(f: BuildingFootprint) -> float:
    """Exterior ring length plus all hole ring lengths."""
    return f.perimeter


def centroid(f: BuildingFootprint) -> tuple[float, float]:
    """Area-weighted centroid with holes subtracted."""
    return f.centroid


def projected_width(f: BuildingFootprint, wind_direction: float) -> float:
    """Extent of the exterior vertices projected perpendicular to the wind.

    ``wind_direction`` is the meteorological azimuth in degrees (0 = wind
    from north).  By construction the result is 180-degree periodic.
    """
    theta = math.radians(wind_direction % 360.0)
    ux, uy = math.cos(theta), -math.sin(theta)
    proj = f.exterior[:, 0] * ux + f.exterior[:, 1] * uy
    return float(proj.max() - proj.min())


def _points_in_rings(px: np.ndarray, py: np.ndarray, rings: list[np.ndarray]) -> np.ndarray:
    """Even-odd point-in-polygon over a set of rings (holes flip parity).

    Uses the standard crossing test, which yields a deterministic half-open
    boundary convention.
    """
    inside = np.zeros(px.shape, dtype=bool)
    for ring in rings:
        x1, y1 = ring[:, 0], ring[:, 1]
        x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
        for k in range(ring.shape[0]):
            cond = (y1[k] > py) != (y2[k] > py)
            if not cond.any():
                continue
            xint = x1[k] + (py - y1[k]) * (x2[k] - x1[k]) / (y2[k] - y1[k])
            inside ^= cond & (px < xint)
    return inside


def rasterize(footprints: list[BuildingFootprint], template: Raster) -> FootprintMask:
    """Cell-center rasterization of footprints onto the template grid.

    A cell is 1 iff its center lies inside some footprint (even-odd rule).
    Footprints are applied in ascending id order so the highest id owns
    overlap cells.
    """
    mask = np.zeros((template.height, template.width), dtype=np.float32)
    ids = np.zeros((template.height, template.width), dtype=np.int64)
    cx = template.cell_centers_x()
    cy = template.cell_centers_y()

    for f in sorted(footprints, key=lambda f: f.id):
        xmin, ymin, xmax, ymax = f.bounds()
        c0 = int(np.searchsorted(cx, xmin))
        c1 = int(np.searchsorted(cx, xmax))
        r0 = int(np.searchsorted(cy, ymin))
        r1 = int(np.searchsorted(cy, ymax))
        # A footprint between cell centers gets an empty window, so no inside.
        gx, gy = np.meshgrid(cx[c0:c1], cy[r0:r1])
        inside = _points_in_rings(gx, gy, f.rings())
        if not inside.any():
            warnings.warn(
                f"footprint {f.id} covers no cell centers of the template",
                stacklevel=2,
            )
            continue
        sub_mask = mask[r0:r1, c0:c1]
        sub_ids = ids[r0:r1, c0:c1]
        sub_mask[inside] = 1.0
        sub_ids[inside] = f.id

    return FootprintMask(raster=template.with_values(mask), source_ids=ids)


# -- GeoJSON I/O -------------------------------------------------------------


def _footprint_to_feature(f: BuildingFootprint, properties: dict | None = None) -> dict:
    coords = [f.exterior.tolist() + [f.exterior[0].tolist()]]
    for hole in f.holes:
        coords.append(hole.tolist() + [hole[0].tolist()])
    props = {"id": f.id}
    if properties:
        props.update(properties)
    return {
        "type": "Feature",
        "properties": props,
        "geometry": {"type": "Polygon", "coordinates": coords},
    }


def _feature_to_footprint(feature: dict) -> BuildingFootprint:
    props = feature.get("properties") or {}
    if "id" not in props:
        raise FormatError("feature missing required 'id' property")
    geom = feature.get("geometry") or {}
    if geom.get("type") != "Polygon":
        raise FormatError(f"feature {props['id']}: geometry must be Polygon")
    coords = geom.get("coordinates") or []
    if not coords:
        raise FormatError(f"feature {props['id']}: empty coordinates")
    return BuildingFootprint(
        id=int(props["id"]), exterior=coords[0], holes=list(coords[1:])
    )


def write_footprints(footprints: list[BuildingFootprint], path) -> None:
    fc = {
        "type": "FeatureCollection",
        "features": [_footprint_to_feature(f) for f in footprints],
    }
    with open(path, "w") as f:
        json.dump(fc, f)


def _read_features(path, parse=lambda footprint, props: footprint) -> list:
    """``parse(footprint, properties)`` for each feature of a GeoJSON
    FeatureCollection file.

    A feature holding a value that cannot be converted or a bad footprint
    (a ``ValueError``, ``TypeError`` or ``GeometryError``), or repeating an
    earlier feature's id, is a FormatError naming the file and the feature.
    """
    with open(path) as f:
        try:
            fc = json.load(f)
        except ValueError as exc:  # undecodable bytes or a JSON syntax error
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(fc, dict) or fc.get("type") != "FeatureCollection":
        raise FormatError(f"{path}: expected a GeoJSON FeatureCollection")
    features = fc.get("features", [])
    if not isinstance(features, list) or not all(isinstance(f, dict) for f in features):
        raise FormatError(f"{path}: 'features' must be a list of objects")
    out = []
    seen: dict[int, int] = {}
    for i, feature in enumerate(features):
        try:
            footprint = _feature_to_footprint(feature)
            out.append(parse(footprint, feature.get("properties") or {}))
        except (ValueError, TypeError, GeometryError) as exc:
            raise FormatError(f"{path}: features[{i}]: bad value ({exc})") from exc
        first = seen.setdefault(footprint.id, i)
        if first != i:
            raise FormatError(
                f"{path}: features[{i}]: duplicate id {footprint.id} (also features[{first}])"
            )
    return out


def read_footprints(path) -> list[BuildingFootprint]:
    return _read_features(path)
