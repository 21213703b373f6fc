"""Building footprint geometry and rasterization to footprint id grids.

Footprints are simple polygons (exterior ring plus optional holes) in the
shared planar meter frame.  Rings are stored open; closure back to the first
vertex is implicit.

A set of footprints is one vertex table, a ``FootprintTable``: the vertices
of every ring concatenated (each footprint's exterior, then its holes), the
ring offsets and the ids.  Each step runs on a whole table at once:

- Checking and measuring groups the rings by vertex count; a group is one
  ``(m, L)`` array, whose row sums add in the order of ``np.sum`` over one
  ring.  A footprint built alone is a table of one.  It is checked and
  measured once, when it is built, and nothing changes it after that.
- ``rasterize`` is one scanline pass over every edge.  An edge crosses the
  rows of cell centres ``cy`` with ``min(y1, y2) <= cy < max(y1, y2)``; a
  footprint's crossings of a row are sorted, and the centres ``cx`` with
  ``x[2k] <= cx < x[2k+1]`` are inside (the half-open even-odd rule).  On
  overlap the highest id wins, as a maximum, in one int64 id grid.
- ``projected_widths`` projects every exterior on every direction.

GeoJSON (RFC 7946) files hold a footprint set as one FeatureCollection on one
line, in the layout of ``json.dumps`` with its default separators: a Polygon
feature per footprint, whose properties are its ``id`` and then any others
(LoD-1 files add ``height_m`` and ``n_cells``).  Every number is written as
its ``repr``, which reads back to the same bits, and every ring is closed by
repeating its first vertex.  The writer renders this text from a table's
flat coordinates.  The reader decodes a file with ``json.load``, converts
every ring of the file in one numpy step, drops the closing vertices, and
checks and measures the footprints as one table.  Only when some step of that
fails does it read the features again, building them a chunk at a time and
only the chunk that fails one feature at a time, and report the first bad
feature in file order.
"""

from __future__ import annotations

import gc
import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import FormatError, GeometryError
from .raster import Raster

_AREA_EPS = 1e-12
_EPS = float(np.finfo(np.float64).eps)
_MAX_ID = 2**63 - 1
# Elements of one (m, L, L) array of the pairwise edge-crossing test, and of
# one block of filled cells in ``rasterize``: a few MB each.
_CHUNK = 1 << 18
# Features built as one table by the pass that names a bad feature; only a
# chunk holding a bad one is built again feature by feature.
_FAULT_CHUNK = 256


def _check_id(fid: int) -> None:
    # 0 marks "no building" in a FootprintMask's id grid, which is int64.
    if not 1 <= fid <= _MAX_ID:
        raise ValueError(f"footprint id {fid} is not in [1, {_MAX_ID}]")


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


class FootprintTable(NamedTuple):
    """Footprint ``i`` has id ``ids[i]`` and rings ``rings[i]`` (its exterior)
    up to ``rings[i + 1]``; ring ``j`` is ``xy[offsets[j]:offsets[j + 1]]``."""

    ids: np.ndarray
    rings: np.ndarray
    offsets: np.ndarray
    xy: np.ndarray

    def exterior_extents(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Minimum and maximum of per-vertex values (last axis) over each exterior."""
        ext = self.rings[:-1]
        return (np.minimum.reduceat(values, self.offsets[:-1], axis=-1)[..., ext],
                np.maximum.reduceat(values, self.offsets[:-1], axis=-1)[..., ext])


def _table(ids, ring_lists) -> FootprintTable:
    """The table of footprints ``ids`` with rings ``ring_lists`` (exterior first)."""
    rings = [r for rs in ring_lists for r in rs]
    counts = [len(rs) for rs in ring_lists]
    return FootprintTable(
        ids=np.array(ids, dtype=np.int64),
        rings=np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
        offsets=np.concatenate(([0], np.cumsum([len(r) for r in rings], dtype=np.int64))),
        xy=np.concatenate(rings) if rings else np.zeros((0, 2)),
    )


def footprint_table(footprints: list["BuildingFootprint"]) -> FootprintTable:
    return _table([f.id for f in footprints], [f.rings() for f in footprints])


def _ring_terms(x, y, xn, yn):
    """Signed area, perimeter, area-weighted centroid (x, y) and degeneracy of
    each ring, one ring per row of the ``(m, L)`` vertex arrays ``x, y`` (and
    their successors ``xn, yn``)."""
    xy, yx = x * yn, xn * y
    cross = xy - yx
    a = 0.5 * cross.sum(axis=1)
    # The shoelace's rounding bound: an area within it is no area at all.
    bound = x.shape[1] * _EPS * (np.abs(xy) + np.abs(yx)).sum(axis=1)
    degenerate = (np.abs(a) < _AREA_EPS) | (np.abs(a) <= bound)
    perimeter = np.hypot(xn - x, yn - y).sum(axis=1)
    cx = ((x + xn) * cross).sum(axis=1) / (6.0 * a)
    cy = ((y + yn) * cross).sum(axis=1) / (6.0 * a)
    return a, perimeter, cx, cy, degenerate


def _distinct_vertices(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Number of distinct vertices of each row of the ``(m, L)`` vertex arrays."""
    xy = np.sort(x + 1j * y, axis=1)  # complex numbers sort by x, then y
    return 1 + (xy[:, 1:] != xy[:, :-1]).sum(axis=1)


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _self_intersecting(x, y, xn, yn) -> np.ndarray:
    """Whether two edges sharing no vertex properly cross, for each ring (row)
    of the ``(m, L)`` vertex arrays, over all pairs at once.

    Edge k runs from vertex k to k+1; edges 0 and L-1 share vertex 0.
    """
    m, n = x.shape
    k = np.arange(n)
    pairs = k[None, :] - k[:, None] >= 2
    pairs[:1, n - 1:] = False
    out = np.zeros(m, dtype=bool)
    step = max(1, _CHUNK // max(1, n * n))
    for s in range(0, m, step):
        c = slice(s, s + step)
        # Edge i (axis 1) runs from p1 to p2, edge j (axis 2) from p3 to p4.
        p1, p2 = (x[c, :, None], y[c, :, None]), (xn[c, :, None], yn[c, :, None])
        p3, p4 = (x[c, None, :], y[c, None, :]), (xn[c, None, :], yn[c, None, :])
        d1 = _orient(p3, p4, p1)
        d2 = _orient(p3, p4, p2)
        d3 = _orient(p1, p2, p3)
        d4 = _orient(p1, p2, p4)
        out[c] = (((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & pairs).any(axis=(1, 2))
    return out


def _check_and_measure(t: FootprintTable) -> np.ndarray:
    """Area, perimeter and centroid x and y of every footprint of ``t`` (the
    rows of a ``(4, n)`` array), or a GeometryError for the first bad one.

    A footprint is bad, in this order of checks, with fewer than 3 distinct
    exterior vertices, a ring (exterior, then holes) of zero area, a
    self-intersecting exterior, or a net area below ``_AREA_EPS``.
    """
    n, lengths = len(t.ids), np.diff(t.offsets)
    exterior = t.rings[:-1]
    is_exterior = np.zeros(len(lengths), dtype=bool)
    is_exterior[exterior] = True
    a, perimeter, cx, cy = np.empty((4, len(lengths)))
    degenerate, few, crossing = np.zeros((3, len(lengths)), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # only bad rings divide by 0
        for length in dict.fromkeys(lengths.tolist()):
            rs = np.flatnonzero(lengths == length)
            v = t.offsets[rs, None] + np.arange(length)
            x, y = t.xy[v, 0], t.xy[v, 1]
            nxt = np.roll(np.arange(length), -1)
            xn, yn = x[:, nxt], y[:, nxt]
            a[rs], perimeter[rs], cx[rs], cy[rs], degenerate[rs] = _ring_terms(x, y, xn, yn)
            e = is_exterior[rs]
            few[rs[e]] = _distinct_vertices(x[e], y[e]) < 3
            crossing[rs[e]] = _self_intersecting(x[e], y[e], xn[e], yn[e])
        # Holes are subtracted one at a time, in ring order, as a loop over one
        # footprint's holes would.
        area = np.abs(a[exterior])
        mx, my = area * cx[exterior], area * cy[exterior]
        holes = np.diff(t.rings) - 1
        hole_perimeter = np.zeros(n)
        for k in range(1, int(holes.max(initial=0)) + 1):
            fs = np.flatnonzero(holes >= k)
            h = exterior[fs] + k
            a_h = np.abs(a[h])
            area[fs] -= a_h
            mx[fs] -= a_h * cx[h]
            my[fs] -= a_h * cy[h]
            hole_perimeter[fs] += perimeter[h]
        measures = np.stack((area, perimeter[exterior] + hole_perimeter, mx / area, my / area))
    bad_ring = np.logical_or.reduceat(degenerate, exterior)
    bad = few[exterior] | bad_ring | crossing[exterior] | (area < _AREA_EPS)
    if not bad.any():
        return measures
    i = int(np.argmax(bad))
    name = f"footprint {t.ids[i]}"
    if few[exterior[i]]:
        raise GeometryError(f"{name}: exterior needs >= 3 distinct vertices")
    if bad_ring[i]:
        k = int(np.argmax(degenerate[t.rings[i]:t.rings[i + 1]]))
        ring = "exterior" if k == 0 else f"hole {k - 1}"
        raise GeometryError(f"{name} {ring}: degenerate ring with zero area")
    if crossing[exterior[i]]:
        raise GeometryError(f"{name}: self-intersecting exterior ring")
    raise GeometryError(f"{name}: holes consume the exterior")


@dataclass
class BuildingFootprint:
    id: int
    exterior: np.ndarray
    holes: list[np.ndarray] = field(default_factory=list)
    area: float = field(init=False)
    perimeter: float = field(init=False)
    centroid: tuple[float, float] = field(init=False)

    def __post_init__(self):
        _check_id(self.id)
        self.exterior = _ring_array(self.exterior)
        self.holes = [_ring_array(h) for h in self.holes]
        measures = _check_and_measure(_table([self.id], [self.rings()]))
        self.area, self.perimeter, cx, cy = measures[:, 0].tolist()
        self.centroid = (cx, cy)

    def rings(self) -> list[np.ndarray]:
        return [self.exterior, *self.holes]


def _build(t: FootprintTable) -> list[BuildingFootprint]:
    """The footprints of ``t``, checked and measured as one table, whose rings
    are views of ``t.xy``; a GeometryError names the first bad one."""
    measures = _check_and_measure(t)
    rings, offsets = t.rings.tolist(), t.offsets.tolist()
    out = [BuildingFootprint.__new__(BuildingFootprint) for _ in range(len(t.ids))]
    for i, (f, fid, (area, perimeter, cx, cy)) in enumerate(
            zip(out, t.ids.tolist(), measures.T.tolist())):
        f.exterior, *f.holes = (t.xy[offsets[j]:offsets[j + 1]]
                                for j in range(rings[i], rings[i + 1]))
        f.id, f.area, f.perimeter, f.centroid = fid, area, perimeter, (cx, cy)
    return out


@dataclass
class FootprintMask:
    """The footprint owning each cell of ``grid``: one int64 id grid,
    ``source_ids``, 0 where no building covers the cell center; on overlap the
    highest id wins.  ``grid`` gives the geometry only, not the mask's values;
    the 0/1 raster of built cells is ``grid.with_values(source_ids > 0)``."""

    grid: Raster
    source_ids: np.ndarray

    def __post_init__(self):
        self.source_ids = np.asarray(self.source_ids, dtype=np.int64).reshape(
            self.grid.height, self.grid.width
        )

    @cached_property
    def owned_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flat indices of the owned cells, grouped by owner (ascending)
        and in raster order within a group; each group's owner; and the
        groups' bounds in the indices.  Found once: a mask is not changed
        after it is made."""
        ids = self.source_ids.ravel()
        cells = np.flatnonzero(ids > 0)
        cells = cells[np.argsort(ids[cells], kind="stable")]
        owners = ids[cells]
        first = np.ones(len(cells), dtype=bool)
        first[1:] = owners[1:] != owners[:-1]
        starts = np.flatnonzero(first)
        return cells, owners[starts], np.append(starts, len(cells))


def projected_width(f: BuildingFootprint, wind_direction: float) -> float:
    """Extent of the exterior vertices projected perpendicular to the wind.

    ``wind_direction`` is the meteorological azimuth in degrees (0 = wind
    from north).  By construction the result is 180-degree periodic.
    """
    theta = math.radians(wind_direction % 360.0)
    ux, uy = math.cos(theta), -math.sin(theta)
    proj = f.exterior[:, 0] * ux + f.exterior[:, 1] * uy
    return float(proj.max() - proj.min())


def projected_widths(t: FootprintTable, directions) -> np.ndarray:
    """``projected_width`` of every footprint of ``t`` (columns) for every
    direction (rows); a maximum and a minimum do not depend on the order, so
    each equals it exactly."""
    theta = [math.radians(d % 360.0) for d in directions]
    ux = np.array([math.cos(a) for a in theta])[:, None]
    uy = np.array([-math.sin(a) for a in theta])[:, None]
    lo, hi = t.exterior_extents(t.xy[:, 0] * ux + t.xy[:, 1] * uy)
    return hi - lo


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integers ``starts[i] + k`` for ``0 <= k < lengths[i]``, span by span."""
    before = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(starts - before, lengths)


def rasterize(footprints: list[BuildingFootprint], template: Raster) -> FootprintMask:
    """Cell-center rasterization of footprints onto the template grid.

    A cell is owned iff its center lies inside some footprint (even-odd rule)
    and within the bounds of its exterior; the highest id owns overlap cells.
    """
    t = footprint_table(footprints)
    cx, cy = template.cell_centers_x(), template.cell_centers_y()
    # Every edge runs from a vertex to the next one of its ring.
    x1, y1 = t.xy[:, 0], t.xy[:, 1]
    nxt = np.arange(1, len(x1) + 1)
    nxt[t.offsets[1:] - 1] = t.offsets[:-1]
    x2, y2 = x1[nxt], y1[nxt]
    owner = np.repeat(np.repeat(np.arange(len(t.ids)), np.diff(t.rings)), np.diff(t.offsets))
    (xmin, ymin), (xmax, ymax) = t.exterior_extents(t.xy.T)
    # (row, edge) pairs: the rows of the owner's bounds whose centre the edge
    # straddles, (y1 > cy) != (y2 > cy).
    lo = np.maximum(np.searchsorted(cy, np.minimum(y1, y2)), np.searchsorted(cy, ymin)[owner])
    hi = np.minimum(np.searchsorted(cy, np.maximum(y1, y2)), np.searchsorted(cy, ymax)[owner])
    count = np.maximum(hi - lo, 0)
    e = np.repeat(np.arange(len(x1)), count)
    row = _spans(lo, count)
    py = cy[row]
    xint = x1[e] + (py - y1[e]) * (x2[e] - x1[e]) / (y2[e] - y1[e])
    # A closed ring crosses a row an even number of times, so once sorted by
    # footprint, row and x, the crossings pair up into spans [x[2k], x[2k+1]).
    f = owner[e]
    order = np.lexsort((xint, row, f))
    f, row, xint = f[order][::2], row[order][::2], xint[order]
    c0 = np.maximum(np.searchsorted(cx, xint[::2]), np.searchsorted(cx, xmin)[f])
    c1 = np.minimum(np.searchsorted(cx, xint[1::2]), np.searchsorted(cx, xmax)[f])
    width = np.maximum(c1 - c0, 0)
    starts = row * template.width + c0
    ids = np.zeros(template.height * template.width, dtype=np.int64)
    # The cells of the spans, in blocks of whole spans of about _CHUNK cells.
    ends = np.searchsorted(np.cumsum(width), np.arange(_CHUNK, int(width.sum()), _CHUNK))
    for a, b in zip((0, *ends), (*ends, len(width))):
        cells = _spans(starts[a:b], width[a:b])
        np.maximum.at(ids, cells, np.repeat(t.ids[f[a:b]], width[a:b]))
    covered = np.bincount(f, weights=width, minlength=len(t.ids))
    for fid in np.sort(t.ids[covered == 0]):
        warnings.warn(f"footprint {fid} covers no cell centers of the template", stacklevel=2)
    # The template's geometry only: its values become a view of one zero.
    grid = template.with_values(np.broadcast_to(np.float32(0), template.values.shape))
    return FootprintMask(grid=grid, source_ids=ids)


# -- GeoJSON I/O -------------------------------------------------------------


def _int_value(value) -> int:
    """A JSON integer (or a string ``int`` reads): ``int`` would truncate a
    float and read a boolean as 0 or 1."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"{json.dumps(value)} is not an integer")
    return int(value)


def _float_value(value) -> float:
    """A JSON number (or a string ``float`` reads): ``float`` would read a
    boolean as 0.0 or 1.0."""
    if isinstance(value, bool):
        raise ValueError(f"{json.dumps(value)} is not a number")
    return float(value)


def _feature_parts(feature: dict) -> tuple[int, list]:
    """The id and the unconverted rings (exterior first) of a GeoJSON Polygon
    feature."""
    props = feature.get("properties") or {}
    if "id" not in props:
        raise FormatError("feature missing required 'id' property")
    geom = feature.get("geometry") or {}
    if not isinstance(geom, dict) or geom.get("type") != "Polygon":
        raise FormatError(f"feature {props['id']}: geometry must be Polygon")
    coords = geom.get("coordinates") or []
    if not coords:
        raise FormatError(f"feature {props['id']}: empty coordinates")
    fid = _int_value(props["id"])
    _check_id(fid)
    return fid, list(coords)


def _converted(parts: list[tuple[int, list]]) -> FootprintTable:
    """The table of the footprints ``(id, rings)``, converted in one step to
    what ``_ring_array`` gives ring by ring; a ValueError, TypeError or
    OverflowError when some ring is not a list of finite ``[x, y]`` pairs."""
    rings = [r for _, rs in parts for r in rs]
    lengths = np.array([len(r) for r in rings], dtype=np.int64)
    xy = np.array([v for r in rings for v in r] or np.zeros((0, 2)), dtype=np.float64)
    if xy.ndim != 2 or xy.shape[1] != 2 or not lengths.all() or not np.isfinite(xy).all():
        raise ValueError("some ring is not a list of finite [x, y] pairs")
    # Drop each explicit closing vertex.
    last = np.cumsum(lengths) - 1
    closing = (lengths > 1) & (xy[last - lengths + 1] == xy[last]).all(axis=1)
    keep = np.ones(len(xy), dtype=bool)
    keep[last[closing]] = False
    return FootprintTable(
        ids=np.array([fid for fid, _ in parts], dtype=np.int64),
        rings=np.concatenate(([0], np.cumsum([len(rs) for _, rs in parts], dtype=np.int64))),
        offsets=np.concatenate(([0], np.cumsum(lengths - closing))),
        xy=xy[keep],
    )


def _same_bits(a: FootprintTable, b: FootprintTable) -> bool:
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def _write_table(t: FootprintTable, files: dict[str, dict[str, list]]) -> None:
    """Write the footprints of ``t`` to each path of ``files`` as the
    ``json.dumps`` text of their FeatureCollection, each with its id and then
    the path's properties (a name, and one int or float per footprint).  The
    geometry text of each footprint is rendered once, for every file."""
    lengths = np.diff(t.offsets) + 1  # every ring closed by its first vertex
    closed = _spans(t.offsets[:-1], lengths)
    closed[np.cumsum(lengths) - 1] = t.offsets[:-1]
    coordinates = t.xy[closed].ravel().tolist()
    ends = np.concatenate(([0], np.cumsum(2 * lengths)))[t.rings].tolist()
    lengths, rings = lengths.tolist(), t.rings.tolist()
    # json.dumps writes an int or a float as its repr, and so does %r.
    templates: dict[tuple, str] = {}  # by the lengths of a footprint's rings
    geometries = []
    for i in range(len(t.ids)):
        shape = tuple(lengths[rings[i]:rings[i + 1]])
        if shape not in templates:
            templates[shape] = ", ".join(
                "[" + ", ".join(["[%r, %r]"] * n) + "]" for n in shape) + "]}}"
        geometries.append(templates[shape] % tuple(coordinates[ends[i]:ends[i + 1]]))
    for path, properties in files.items():
        head = ", ".join(f"{json.dumps(name)}: %r" for name in ("id", *properties))
        head = '{"type": "Feature", "properties": {' + head
        head += '}, "geometry": {"type": "Polygon", "coordinates": ['
        features = [head % values + geometry for values, geometry
                    in zip(zip(t.ids.tolist(), *properties.values()), geometries)]
        # One string, one write.
        with open(path, "w") as f:
            f.write('{"type": "FeatureCollection", "features": [' + ", ".join(features) + "]}")


def write_footprints(footprints: list[BuildingFootprint], path) -> None:
    _write_table(footprint_table(footprints), {path: {}})


def _read_features(path, parse=lambda footprint, props: footprint, like=None) -> list:
    """``parse(footprint, properties)`` for each feature of a GeoJSON
    FeatureCollection file.

    Every ring is converted in one step and the footprints are checked and
    measured as one table, or are ``like`` when the table has their bits.  If
    that fails, the features are read again (``_first_fault``), and the first
    holding a value that cannot be converted or a bad footprint
    (a ``ValueError``, ``TypeError``, ``OverflowError`` or ``GeometryError``),
    or repeating an earlier feature's id, is a FormatError naming the file and
    the feature.

    The cyclic garbage collector is paused meanwhile: the decoded tree, a
    list per vertex, holds no cycle and is freed by reference counting, and a
    collection while it lives would only walk it and move it to an older
    generation, where it brings on a full collection sooner.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_features(path, parse, like)
    finally:
        if enabled:
            gc.enable()


def _parse_features(path, parse, like) -> list:
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
    try:
        t = _converted([_feature_parts(feature) for feature in features])
        footprints = like if like is not None and _same_bits(t, footprint_table(like)) else _build(t)
        if len(np.unique(t.ids)) == len(t.ids):
            return [parse(fp, feature.get("properties") or {})
                    for fp, feature in zip(footprints, features)]
    except (FormatError, ValueError, TypeError, OverflowError, GeometryError):
        pass  # the pass below names the first bad feature
    return _first_fault(path, features, parse)


def _first_fault(path, features: list[dict], parse) -> list:
    """``_parse_features``' result, or a FormatError for the first bad feature.

    Ids and rings are read one feature at a time, up to the first that
    cannot be read or that repeats an id; the features up to it are built
    ``_FAULT_CHUNK`` at a time, a chunk as one table, and only a chunk that
    fails is built again one feature at a time, to name the bad one."""
    ids, raw, rings, seen, fault = [], [], [], {}, None
    for i, feature in enumerate(features):
        where = f"{path}: features[{i}]"
        try:
            fid, coords = _feature_parts(feature)
            converted = [_ring_array(r) for r in coords]
        except FormatError as exc:
            fault = f"{where}: {exc}", exc
            break
        except (ValueError, TypeError, OverflowError, GeometryError) as exc:
            fault = f"{where}: bad value ({exc})", exc
            break
        ids.append(fid)
        raw.append(coords)
        rings.append(converted)
        if (first := seen.setdefault(fid, i)) != i:
            fault = f"{where}: duplicate id {fid} (also features[{first}])", None
            break

    def parsed(i: int, footprint: BuildingFootprint | None):
        try:
            if footprint is None:
                footprint = BuildingFootprint(ids[i], raw[i][0], raw[i][1:])
            return parse(footprint, features[i].get("properties") or {})
        except (ValueError, TypeError, OverflowError, GeometryError) as exc:
            raise FormatError(f"{path}: features[{i}]: bad value ({exc})") from exc

    out = []
    for s in range(0, len(ids), _FAULT_CHUNK):
        chunk = range(s, min(s + _FAULT_CHUNK, len(ids)))
        try:
            built = _build(_table(ids[s:chunk.stop], rings[s:chunk.stop]))
        except GeometryError:
            built = [None] * len(chunk)  # each built alone, by ``parsed``
        out += [parsed(i, footprint) for i, footprint in zip(chunk, built)]
    if fault is not None:
        raise FormatError(fault[0]) from fault[1]
    return out


def read_footprints(path) -> list[BuildingFootprint]:
    return _read_features(path)
