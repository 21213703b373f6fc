import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanmorph.errors import FormatError, GeometryError
from urbanmorph.footprints import (
    _AREA_EPS,
    _EPS,
    BuildingFootprint,
    _build,
    _check_and_measure,
    _ring_array,
    _self_intersecting,
    _table,
    footprint_table,
    projected_width,
    projected_widths,
    rasterize,
    read_footprints,
    write_footprints,
)
from urbanmorph.raster import Raster


def square(fid=1, x=0.0, y=0.0, w=1.0, h=1.0, holes=()):
    return BuildingFootprint(
        id=fid,
        exterior=[(x, y), (x + w, y), (x + w, y + h), (x, y + h)],
        holes=list(holes),
    )


def template(width, height, cell_size=1.0, origin=(0.0, 0.0)):
    return Raster(
        width=width,
        height=height,
        origin_x=origin[0],
        origin_y=origin[1],
        cell_size=cell_size,
        nodata=-9999.0,
        values=np.zeros((height, width), dtype=np.float32),
    )


def fan_triangulation_area_centroid(ring):
    """Independent oracle: fan-triangulate from vertex 0."""
    ring = np.asarray(ring, dtype=np.float64)
    total = 0.0
    cx = cy = 0.0
    for i in range(1, len(ring) - 1):
        a, b, c = ring[0], ring[i], ring[i + 1]
        tri = 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        total += tri
        cx += tri * (a[0] + b[0] + c[0]) / 3.0
        cy += tri * (a[1] + b[1] + c[1]) / 3.0
    return abs(total), cx / total, cy / total


def point_in_polygon_oracle(px, py, rings):
    """Crossing-count oracle evaluated one point at a time."""
    inside = False
    for ring in rings:
        n = len(ring)
        for i in range(n):
            x1, y1 = ring[i]
            x2, y2 = ring[(i + 1) % n]
            if (y1 > py) != (y2 > py):
                xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
                if px < xint:
                    inside = not inside
    return inside


def self_intersects_oracle(ring):
    """Pairwise proper-crossing test over non-adjacent edges, one pair at a time."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    n = ring.shape[0]
    segs = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent segments share an endpoint
            (p1, p2), (p3, p4) = segs[i], segs[j]
            d1 = orient(p3, p4, p1)
            d2 = orient(p3, p4, p2)
            d3 = orient(p1, p2, p3)
            d4 = orient(p1, p2, p4)
            if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
                return True
    return False


@st.composite
def star_rings(draw):
    """Star polygons {n/k}: k = 1 is simple, k > 1 crosses itself."""
    n = draw(st.integers(3, 12))
    k = draw(st.integers(1, n - 1))
    radii = draw(st.lists(st.floats(0.5, 10.0), min_size=n, max_size=n))
    angles = [2 * math.pi * k * i / n for i in range(n)]
    return [(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, angles)]


@st.composite
def bowtie_rings(draw):
    w = draw(st.floats(0.1, 50.0))
    h = draw(st.floats(0.1, 50.0))
    jitter = draw(st.floats(-0.05, 0.05))
    return [(0.0, 0.0), (w, h), (w, jitter), (0.0, h)]


_rings = st.one_of(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=10),
    st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=3, max_size=12),
    star_rings(),
    bowtie_rings(),
)


# The per-ring helpers that checked, measured and rasterized one footprint at
# a time, before footprints were held as one vertex table; the table's batch
# code must equal them bit for bit.


def _ring_terms(ring: np.ndarray, name: str) -> tuple[float, float, float, float]:
    """Signed area, perimeter and area-weighted centroid (x, y) of the ring ``name``."""
    x, y = ring[:, 0], ring[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    xy, yx = x * yn, xn * y
    cross = xy - yx
    a = 0.5 * float(np.sum(cross))
    # The shoelace's rounding bound: an area within it is no area at all.
    bound = len(x) * _EPS * float((np.abs(xy) + np.abs(yx)).sum())
    if abs(a) < _AREA_EPS or abs(a) <= bound:
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


def per_footprint_measures(fid, exterior, holes):
    """Area, perimeter and centroid of one footprint's checked rings, checked
    in the order and with the messages of a footprint built alone."""
    name = f"footprint {fid}"
    if len(np.unique(exterior, axis=0)) < 3:
        raise GeometryError(f"{name}: exterior needs >= 3 distinct vertices")
    a_ext, p_ext, cx, cy = _ring_terms(exterior, f"{name} exterior")
    holes = [_ring_terms(h, f"{name} hole {k}") for k, h in enumerate(holes)]
    if _ring_self_intersects(exterior):
        raise GeometryError(f"{name}: self-intersecting exterior ring")
    area = abs(a_ext)
    mx, my = area * cx, area * cy
    for a_h, _, hx, hy in holes:
        area -= abs(a_h)
        mx -= abs(a_h) * hx
        my -= abs(a_h) * hy
    if area < _AREA_EPS:
        raise GeometryError(f"{name}: holes consume the exterior")
    return area, p_ext + sum(p_h for _, p_h, _, _ in holes), mx / area, my / area


def per_footprint_rasterize(footprints, template):
    """Cell centres inside each footprint's exterior bounds, one footprint at a
    time in ascending id order: (mask, source ids)."""
    mask = np.zeros((template.height, template.width), dtype=np.float32)
    ids = np.zeros((template.height, template.width), dtype=np.int64)
    cx = template.cell_centers_x()
    cy = template.cell_centers_y()
    for f in sorted(footprints, key=lambda f: f.id):
        xs, ys = f.exterior[:, 0], f.exterior[:, 1]
        c0, c1 = (int(np.searchsorted(cx, float(v))) for v in (xs.min(), xs.max()))
        r0, r1 = (int(np.searchsorted(cy, float(v))) for v in (ys.min(), ys.max()))
        gx, gy = np.meshgrid(cx[c0:c1], cy[r0:r1])
        inside = _points_in_rings(gx, gy, f.rings())
        if not inside.any():
            warnings.warn(f"footprint {f.id} covers no cell centers of the template")
            continue
        mask[r0:r1, c0:c1][inside] = 1.0
        ids[r0:r1, c0:c1][inside] = f.id
    return mask, ids


class TestSelfIntersection:
    @settings(max_examples=400, deadline=None)
    @given(_rings)
    def test_matches_pairwise_oracle(self, ring):
        ring = np.asarray(ring, dtype=np.float64)
        assert _ring_self_intersects(ring) == self_intersects_oracle(ring)


# The per-ring helpers and measures a footprint had before it stored its own
# area, perimeter and centroid; the stored values must equal them bit for bit.


def _signed_area(ring):
    x, y = ring[:, 0], ring[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def _ring_perimeter(ring):
    d = np.roll(ring, -1, axis=0) - ring
    return float(np.sum(np.hypot(d[:, 0], d[:, 1])))


def _ring_centroid(ring):
    x, y = ring[:, 0], ring[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * float(np.sum(cross))
    cx = float(np.sum((x + xn) * cross)) / (6.0 * a)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * a)
    return a, cx, cy


def per_ring_area(f):
    area = abs(_signed_area(f.exterior))
    for hole in f.holes:
        area -= abs(_signed_area(hole))
    return area


def per_ring_perimeter(f):
    return _ring_perimeter(f.exterior) + sum(_ring_perimeter(h) for h in f.holes)


def per_ring_centroid(f):
    a_ext, cx, cy = _ring_centroid(f.exterior)
    total = abs(a_ext)
    mx, my = total * cx, total * cy
    for hole in f.holes:
        a_h, hx, hy = _ring_centroid(hole)
        total -= abs(a_h)
        mx -= abs(a_h) * hx
        my -= abs(a_h) * hy
    return mx / total, my / total


def star_ring(rng, n, cx, cy, r_min, r_max):
    """A simple ring of ``n`` vertices at jittered, increasing angles."""
    angles = 2 * np.pi * (np.arange(n) + rng.uniform(-0.2, 0.2, n)) / n
    radii = rng.uniform(r_min, r_max, n)
    return np.c_[cx + radii * np.cos(angles), cy + radii * np.sin(angles)]


class TestMeasuresMatchPerRingHelpers:
    @pytest.mark.parametrize("n_holes", [0, 1, 2])
    @pytest.mark.parametrize("n", [*range(3, 14), 50])
    def test_bit_identical(self, n, n_holes):
        rng = np.random.default_rng(1000 * n + n_holes)
        for _ in range(20):
            cx, cy = rng.uniform(0, 2000, 2)
            r = rng.uniform(5, 40)
            holes = [
                star_ring(rng, int(rng.integers(3, 14)), cx + dx * r, cy, 0.005 * r, 0.01 * r)
                for dx in (-0.03, 0.03)[:n_holes]
            ]
            f = BuildingFootprint(
                id=1, exterior=star_ring(rng, n, cx, cy, 0.8 * r, r), holes=holes
            )
            assert len(f.exterior) == n and len(f.holes) == n_holes
            assert f.area == per_ring_area(f)
            assert f.perimeter == per_ring_perimeter(f)
            got_x, got_y = f.centroid
            want_x, want_y = per_ring_centroid(f)
            assert got_x == want_x and got_y == want_y


class TestConstruction:
    def test_degenerate_hole_rejected(self):
        with pytest.raises(GeometryError, match="footprint 7 hole 0"):
            square(fid=7, w=4, h=4, holes=[[(1, 1), (2, 2), (3, 3)]])

    def test_collinear_hole_at_scene_coordinates_rejected(self):
        # Its shoelace sum leaves -1.8e-12 of rounding residue, above the old
        # absolute 1e-12 floor but inside the sum's rounding bound (7.2e-11).
        with pytest.raises(GeometryError, match="footprint 7 hole 0: degenerate"):
            square(fid=7, x=250, y=50, w=30, h=30,
                   holes=[[(263.4, 66.8), (264.4, 67.8), (265.4, 68.8)]])

    def test_unit_square_at_utm_coordinates_accepted(self):
        # The rounding bound there is 1.4e-2 m², far below 1 m².
        assert square(x=5e5, y=4e6).area == 1.0

    def test_centimetre_square_at_utm_coordinates_rejected(self):
        # Its computed area is exactly 0: the coordinates cannot resolve it.
        with pytest.raises(GeometryError, match="footprint 1 exterior: degenerate"):
            square(x=5e5, y=4e6, w=0.01, h=0.01)

    def test_hole_consuming_exterior_rejected(self):
        with pytest.raises(GeometryError, match="footprint 7: holes consume"):
            square(fid=7, w=2, h=2, holes=[[(-1, -1), (3, -1), (3, 3), (-1, 3)]])

    @pytest.mark.parametrize("fid", [0, -3, 2**63, 2**70])
    def test_id_out_of_range_rejected(self, fid):
        with pytest.raises(ValueError, match=f"footprint id {fid} "):
            square(fid=fid)

    @pytest.mark.parametrize("fid", [1, 2**63 - 1])
    def test_id_range_ends_accepted(self, fid):
        assert square(fid=fid).id == fid


class TestArea:
    def test_unit_square(self):
        assert square().area == pytest.approx(1.0)

    def test_rectangle(self):
        assert square(w=10, h=20).area == pytest.approx(200.0)

    def test_random_convex_pentagon_matches_fan(self):
        rng = np.random.default_rng(4)
        angles = np.sort(rng.uniform(0, 2 * np.pi, 5))
        radii = rng.uniform(3, 8, 5)
        ring = np.c_[radii * np.cos(angles) + 10, radii * np.sin(angles) + 10]
        f = BuildingFootprint(id=1, exterior=ring)
        expect, _, _ = fan_triangulation_area_centroid(ring)
        assert f.area == pytest.approx(expect, abs=1e-9)

    def test_hole_subtracted(self):
        f = square(w=10, h=10, holes=[[(2, 2), (4, 2), (4, 4), (2, 4)]])
        assert f.area == pytest.approx(96.0)

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            BuildingFootprint(id=1, exterior=[(0, 0), (1, 1), (2, 2)])


class TestPerimeter:
    def test_unit_square(self):
        assert square().perimeter == pytest.approx(4.0)

    def test_rectangle(self):
        assert square(w=10, h=20).perimeter == pytest.approx(60.0)

    def test_right_triangle(self):
        f = BuildingFootprint(id=1, exterior=[(0, 0), (3, 0), (0, 4)])
        assert f.perimeter == pytest.approx(12.0)

    def test_holes_counted(self):
        f = square(w=10, h=10, holes=[[(2, 2), (4, 2), (4, 4), (2, 4)]])
        assert f.perimeter == pytest.approx(48.0)


class TestCentroid:
    def test_unit_square(self):
        assert square().centroid == pytest.approx((0.5, 0.5))

    def test_rectangle(self):
        assert square(w=10, h=20).centroid == pytest.approx((5.0, 10.0))

    def test_l_shape_matches_fan(self):
        ring = [(0, 0), (4, 0), (4, 1), (1, 1), (1, 3), (0, 3)]
        f = BuildingFootprint(id=1, exterior=ring)
        _, cx, cy = fan_triangulation_area_centroid(ring)
        got = f.centroid
        assert got[0] == pytest.approx(cx, abs=1e-9)
        assert got[1] == pytest.approx(cy, abs=1e-9)


class TestProjectedWidth:
    def test_square_north_wind(self):
        assert projected_width(square(), 0.0) == pytest.approx(1.0)

    def test_square_diagonal_wind(self):
        assert projected_width(square(), 45.0) == pytest.approx(math.sqrt(2), abs=1e-5)

    def test_rectangle_east_wind(self):
        assert projected_width(square(w=10, h=20), 90.0) == pytest.approx(20.0)

    def test_opposite_directions_equal(self):
        rng = np.random.default_rng(8)
        ring = rng.uniform(0, 10, (5, 2))
        try:
            f = BuildingFootprint(id=1, exterior=ring)
        except GeometryError:
            f = square(w=3, h=7)
        for theta in (0.0, 30.0, 77.5, 120.0):
            assert projected_width(f, theta) == pytest.approx(
                projected_width(f, theta + 180.0), abs=1e-9
            )


class TestRasterize:
    def test_aligned_square_exact_cells(self):
        mask = rasterize([square(w=2, h=2)], template(4, 4))
        assert mask.raster.values.sum() == 4
        assert mask.raster.values[:2, :2].sum() == 4

    def test_hole_excludes_cell(self):
        f = square(w=3, h=3, holes=[[(1, 1), (2, 1), (2, 2), (1, 2)]])
        mask = rasterize([f], template(3, 3))
        assert mask.raster.values[1, 1] == 0
        assert mask.raster.values.sum() == 8

    def test_matches_point_in_polygon_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            x, y = rng.uniform(0, 3, 2)
            w, h = rng.uniform(1, 6, 2)
            f = square(fid=1, x=x, y=y, w=w, h=h)
            t = template(10, 10)
            mask = rasterize([f], t)
            for r in range(10):
                for c in range(10):
                    expect = point_in_polygon_oracle(c + 0.5, r + 0.5, f.rings())
                    assert bool(mask.raster.values[r, c]) == expect

    def test_outside_footprint_warns(self):
        with pytest.warns(UserWarning, match="footprint 1"):
            rasterize([square(x=100, y=100)], template(4, 4))

    def test_overlap_highest_id_wins(self):
        a = square(fid=1, w=3, h=3)
        b = square(fid=2, x=1, y=1, w=3, h=3)
        mask = rasterize([a, b], template(4, 4))
        assert mask.source_ids[2, 2] == 2
        assert mask.source_ids[1, 1] == 2  # overlap cell
        assert mask.source_ids[0, 0] == 1

    def test_source_ids_iff_mask(self):
        mask = rasterize([square(fid=3, w=2, h=2)], template(4, 4))
        np.testing.assert_array_equal(mask.source_ids > 0, mask.raster.values == 1)

    def test_area_convergence_bound(self):
        rng = np.random.default_rng(21)
        t = template(40, 40)
        for _ in range(100):
            x, y = rng.uniform(0, 10, 2)
            w, h = rng.uniform(2, 25, 2)
            w = min(w, 39 - x)
            h = min(h, 39 - y)
            f = square(fid=1, x=x, y=y, w=w, h=h)
            mask = rasterize([f], t)
            pixel_area = mask.raster.values.sum() * t.cell_size ** 2
            bound = 2 * f.perimeter * t.cell_size
            assert abs(pixel_area - f.area) <= bound

    def test_integer_translation_shifts_mask(self):
        f = square(x=1.3, y=2.7, w=3.1, h=2.2)
        g = square(x=1.3 + 2, y=2.7 + 3, w=3.1, h=2.2)
        t = template(12, 12)
        m1 = rasterize([f], t).raster.values
        m2 = rasterize([g], t).raster.values
        np.testing.assert_array_equal(m2[3:, 2:], m1[:-3, :-2])


class TestGeoJson:
    def test_round_trip(self, tmp_path):
        fps = [square(fid=1, w=4, h=2), square(fid=7, x=10, y=10, w=3, h=3,
                                               holes=[[(11, 11), (12, 11), (12, 12), (11, 12)]])]
        path = tmp_path / "fp.geojson"
        write_footprints(fps, path)
        back = read_footprints(path)
        assert [f.id for f in back] == [1, 7]
        np.testing.assert_allclose(back[0].exterior, fps[0].exterior)
        assert len(back[1].holes) == 1

    def test_missing_id_rejected(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "properties": {},
                "geometry": {"type": "Polygon",
                             "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]},
            }],
        }))
        with pytest.raises(FormatError, match="id"):
            read_footprints(path)

    @pytest.mark.parametrize("text", ["[]", '{"type": "Feature"}'])
    def test_not_a_feature_collection_rejected(self, tmp_path, text):
        path = tmp_path / "bad.geojson"
        path.write_text(text)
        with pytest.raises(FormatError, match="FeatureCollection"):
            read_footprints(path)

    def test_self_intersecting_rejected(self):
        with pytest.raises(GeometryError, match="self-intersecting"):
            # Five-point star path: edges cross, area is nonzero.
            BuildingFootprint(
                id=9, exterior=[(0, 0), (2, 3), (4, 0), (0, 2), (4, 2)]
            )


def bits(values):
    """The float64 bit patterns of ``values``, so that -0.0 differs from 0.0."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@st.composite
def footprint_rings(draw):
    """The rings (exterior first) of one footprint: a star exterior of 3-50
    vertices with 0-2 star holes of 3-50 vertices, or one of these spoiled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 50))
    cx, cy = draw(st.floats(-2e4, 2e4)), draw(st.floats(-2e4, 2e4))
    r = draw(st.floats(2.0, 200.0))
    exterior = star_ring(rng, n, cx, cy, 0.8 * r, r)
    holes = [star_ring(rng, int(rng.integers(3, 51)), cx + dx * r, cy, 0.05 * r, 0.1 * r)
             for dx in (-0.3, 0.3)[: draw(st.integers(0, 2))]]
    spoil = draw(st.sampled_from(["none"] * 4 + ["shuffled", "repeated", "flat", "flat hole",
                                                 "big hole"]))
    if spoil == "shuffled":
        exterior = rng.permutation(exterior)
    elif spoil == "repeated":
        exterior = exterior[[0, 0, 1]]
    elif spoil == "flat":
        exterior = np.linspace(exterior[0], exterior[1], n)
    elif spoil == "flat hole":
        holes.append(np.linspace((cx, cy), (cx + 0.1 * r, cy + 0.2 * r), 3))
    elif spoil == "big hole":
        holes.append(star_ring(rng, 5, cx, cy, 2 * r, 3 * r))
    return [exterior, *holes]


class TestBatchEqualsPerFootprint:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(footprint_rings(), min_size=1, max_size=8))
    def test_measures_and_first_error(self, ring_lists):
        ids = list(range(1, len(ring_lists) + 1))
        measures, bad, error = _check_and_measure(_table(ids, ring_lists))
        first = None
        for i, rings in enumerate(ring_lists):
            try:
                want = per_footprint_measures(ids[i], rings[0], rings[1:])
            except GeometryError as exc:
                first = first or (i, str(exc))
                continue
            assert bits(measures[:, i]) == bits(want)
        assert (bad, error) == (first or (len(ids), ""))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(footprint_rings(), min_size=1, max_size=8))
    def test_build_equals_footprints_built_alone(self, ring_lists):
        ids = list(range(1, len(ring_lists) + 1))
        built, error = _build(ids, [[_ring_array(r) for r in rings] for rings in ring_lists])
        alone, first = [], ""
        for fid, rings in zip(ids, ring_lists):
            try:
                alone.append(BuildingFootprint(id=fid, exterior=rings[0], holes=rings[1:]))
            except GeometryError as exc:
                first = str(exc)
                break
        assert error == first
        assert [f.id for f in built] == [f.id for f in alone]
        for a, b in zip(built, alone):
            assert bits([a.area, a.perimeter, *a.centroid]) == bits([b.area, b.perimeter, *b.centroid])
            assert [r.tobytes() for r in a.rings()] == [r.tobytes() for r in b.rings()]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_rings, min_size=1, max_size=6))
    def test_self_intersection_matches_pairwise_oracle(self, rings):
        # One batch per vertex count, as a footprint table groups its rings.
        arrays = [np.asarray(r, dtype=np.float64) for r in rings]
        for n in {len(a) for a in arrays}:
            group = np.stack([a for a in arrays if len(a) == n])
            x, y = group[..., 0], group[..., 1]
            got = _self_intersecting(x, y, np.roll(x, -1, axis=1), np.roll(y, -1, axis=1))
            assert got.tolist() == [self_intersects_oracle(a) for a in group]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(footprint_rings(), min_size=1, max_size=6),
           st.lists(st.floats(-720.0, 720.0), min_size=1, max_size=5))
    def test_projected_widths_equal_per_building(self, ring_lists, directions):
        fps = []
        for i, rings in enumerate(ring_lists):
            try:
                fps.append(BuildingFootprint(id=i + 1, exterior=rings[0], holes=rings[1:]))
            except GeometryError:
                pass
        assert bits(projected_widths(footprint_table(fps), directions)) == bits(
            [[projected_width(f, d) for f in fps] for d in directions]
        )


@st.composite
def raster_footprints(draw):
    """Up to 12 footprints on and around a 24 x 20 grid: rectangles (some with
    a hole) and stars with vertices on half metres, so on cell centres and
    with horizontal edges, and slivers between cell centres; they overlap, and
    their ids are not in list order."""
    def half(lo, hi):
        return draw(st.integers(2 * lo, 2 * hi)) / 2

    out = []
    for fid in draw(st.permutations(range(1, 41)))[: draw(st.integers(1, 12))]:
        kind = draw(st.sampled_from(["rect", "star", "sliver"]))
        x, y = half(-3, 26), half(-3, 22)
        if kind == "rect":
            w, h = half(1, 12), half(1, 12)
            ring = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
            holes = []
            if w >= 3 and h >= 3 and draw(st.booleans()):
                holes = [[(x + 1, y + 1), (x + w - 1, y + 1), (x + w - 1, y + h - 1), (x + 1, y + h - 1)]]
        elif kind == "star":
            n, r = draw(st.integers(3, 12)), draw(st.floats(1.0, 8.0))
            angles = 2 * np.pi * (np.arange(n) + draw(st.floats(0.0, 0.9))) / n
            ring = np.c_[x + r * np.cos(angles), y + r * np.sin(angles)]
            holes = []
            if draw(st.booleans()):
                ring = np.round(ring * 2) / 2
        else:
            x0 = np.floor(x) + draw(st.floats(0.55, 0.9))
            ring = [(x0, y), (x0 + 0.05, y), (x0 + 0.05, y + half(1, 6)), (x0, y + 3)]
            holes = []
        try:
            out.append(BuildingFootprint(id=fid, exterior=ring, holes=holes))
        except GeometryError:
            pass  # a star rounded into a degenerate or crossing ring
    return out


class TestRasterizeEqualsPerFootprintLoop:
    @settings(max_examples=150, deadline=None)
    @given(raster_footprints(),
           st.sampled_from([(1.0, (0.0, 0.0)), (0.5, (0.0, 0.0)), (1.0, (-0.25, 0.5))]))
    def test_cells_ids_and_warnings(self, fps, grid):
        cell_size, origin = grid
        t = template(24, 20, cell_size, origin)
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            mask = rasterize(fps, t)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            want_mask, want_ids = per_footprint_rasterize(fps, t)
        np.testing.assert_array_equal(mask.source_ids, want_ids)
        np.testing.assert_array_equal(mask.raster.values, want_mask)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]

    def test_between_cell_centres_warns(self):
        with pytest.warns(UserWarning, match="footprint 5 covers no cell centers"):
            mask = rasterize([square(fid=5, x=3.6, y=1.2, w=0.3, h=4.0)], template(8, 8))
        assert not mask.raster.values.any()

    def test_vertices_on_cell_centres_half_open(self):
        # Centres on the left and bottom edges are inside, on the right and top outside.
        mask = rasterize([square(x=0.5, y=1.5, w=2.0, h=1.0)], template(4, 4))
        assert np.argwhere(mask.source_ids).tolist() == [[1, 0], [1, 1]]

    def test_no_footprints(self):
        mask = rasterize([], template(3, 2))
        assert not mask.source_ids.any() and mask.source_ids.shape == (2, 3)
