import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanmorph.errors import FormatError, GeometryError
from urbanmorph.footprints import (
    BuildingFootprint,
    _ring_self_intersects,
    centroid,
    polygon_area,
    polygon_perimeter,
    projected_width,
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
            assert polygon_area(f) == per_ring_area(f)
            assert polygon_perimeter(f) == per_ring_perimeter(f)
            got_x, got_y = centroid(f)
            want_x, want_y = per_ring_centroid(f)
            assert got_x == want_x and got_y == want_y


class TestConstruction:
    def test_degenerate_hole_rejected(self):
        with pytest.raises(GeometryError, match="footprint 7 hole 0"):
            square(fid=7, w=4, h=4, holes=[[(1, 1), (2, 2), (3, 3)]])

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
        assert polygon_area(square()) == pytest.approx(1.0)

    def test_rectangle(self):
        assert polygon_area(square(w=10, h=20)) == pytest.approx(200.0)

    def test_random_convex_pentagon_matches_fan(self):
        rng = np.random.default_rng(4)
        angles = np.sort(rng.uniform(0, 2 * np.pi, 5))
        radii = rng.uniform(3, 8, 5)
        ring = np.c_[radii * np.cos(angles) + 10, radii * np.sin(angles) + 10]
        f = BuildingFootprint(id=1, exterior=ring)
        expect, _, _ = fan_triangulation_area_centroid(ring)
        assert polygon_area(f) == pytest.approx(expect, abs=1e-9)

    def test_hole_subtracted(self):
        f = square(w=10, h=10, holes=[[(2, 2), (4, 2), (4, 4), (2, 4)]])
        assert polygon_area(f) == pytest.approx(96.0)

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            BuildingFootprint(id=1, exterior=[(0, 0), (1, 1), (2, 2)])


class TestPerimeter:
    def test_unit_square(self):
        assert polygon_perimeter(square()) == pytest.approx(4.0)

    def test_rectangle(self):
        assert polygon_perimeter(square(w=10, h=20)) == pytest.approx(60.0)

    def test_right_triangle(self):
        f = BuildingFootprint(id=1, exterior=[(0, 0), (3, 0), (0, 4)])
        assert polygon_perimeter(f) == pytest.approx(12.0)

    def test_holes_counted(self):
        f = square(w=10, h=10, holes=[[(2, 2), (4, 2), (4, 4), (2, 4)]])
        assert polygon_perimeter(f) == pytest.approx(48.0)


class TestCentroid:
    def test_unit_square(self):
        assert centroid(square()) == pytest.approx((0.5, 0.5))

    def test_rectangle(self):
        assert centroid(square(w=10, h=20)) == pytest.approx((5.0, 10.0))

    def test_l_shape_matches_fan(self):
        ring = [(0, 0), (4, 0), (4, 1), (1, 1), (1, 3), (0, 3)]
        f = BuildingFootprint(id=1, exterior=ring)
        _, cx, cy = fan_triangulation_area_centroid(ring)
        got = centroid(f)
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
            bound = 2 * polygon_perimeter(f) * t.cell_size
            assert abs(pixel_area - polygon_area(f)) <= bound

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
