import hashlib
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from urbanmorph.errors import PackingError
from urbanmorph.footprints import BuildingFootprint
from urbanmorph import synth
from urbanmorph.pointcloud import Label, PointCloud, read_points_csv, write_glbp_pieces
from urbanmorph.pipeline import STAGE_FILES
from urbanmorph.raster import downsample_average
from urbanmorph.synth import SyntheticCitySpec, _place_buildings, generate_city, write_scene


def write_into(scene, out_dir):
    """``write_scene`` into ``out_dir``, under the pipeline's file names."""
    return write_scene(scene, {key: str(Path(out_dir) / name)
                               for key, name in STAGE_FILES["synth"][1].items()})


def written_points(scene, out_dir):
    """The whole point cloud that ``write_scene`` writes for ``scene``, read back."""
    points = read_points_csv(write_into(scene, out_dir)["points"])
    labels, xs, ys, zs = next(points.blocks(len(points)))
    return PointCloud(xs=xs, ys=ys, zs=zs, labels=labels)


def small_spec(**kw):
    defaults = dict(
        extent_m=300.0,
        n_buildings=12,
        footprint_min=10.0,
        footprint_max=25.0,
        height_min=3.0,
        height_max=30.0,
        coarse_factor=10,
        noise_sigma=1.0,
        seed=4,
    )
    defaults.update(kw)
    return SyntheticCitySpec(**defaults)


class TestSpec:
    def test_extent_rounded_up_to_coarse_multiple(self):
        spec = SyntheticCitySpec(extent_m=2000.0, coarse_factor=30)
        assert spec.size_cells == 2010
        assert spec.size_cells % 30 == 0
        spec2 = SyntheticCitySpec(extent_m=300.0, coarse_factor=10)
        assert spec2.size_cells == 300

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SyntheticCitySpec(extent_m=-1.0)
        with pytest.raises(ValueError):
            SyntheticCitySpec(footprint_min=30.0, footprint_max=10.0)
        with pytest.raises(ValueError):
            SyntheticCitySpec(noise_sigma=-0.5)
        with pytest.raises(ValueError):
            SyntheticCitySpec(coarse_factor=0)

    def test_snapped_scene_without_size_rejected(self):
        # No multiple of 30 lies in [8, 12]: a snapped building has no size.
        kw = dict(footprint_min=8.0, footprint_max=12.0, coarse_factor=30)
        with pytest.raises(ValueError, match="coarse_factor 30"):
            small_spec(snap_to_coarse=True, **kw)
        # Without buildings, or unsnapped, no size is drawn from that range.
        small_spec(snap_to_coarse=True, n_buildings=0, **kw)
        small_spec(**kw)


class TestGenerate:
    def test_building_invariants(self):
        scene = generate_city(small_spec())
        assert len(scene.footprints) == 12
        assert sorted(f.id for f in scene.footprints) == list(range(1, 13))
        spec = scene.spec
        for f in scene.footprints:
            xs = [p[0] for p in f.exterior]
            ys = [p[1] for p in f.exterior]
            assert 0 <= min(xs) and max(xs) <= spec.size_cells
            assert 0 <= min(ys) and max(ys) <= spec.size_cells
            w, h = max(xs) - min(xs), max(ys) - min(ys)
            assert spec.footprint_min <= w <= spec.footprint_max
            assert spec.footprint_min <= h <= spec.footprint_max
            assert spec.height_min <= scene.heights[f.id] <= spec.height_max

    def test_no_overlap(self):
        scene = generate_city(small_spec(n_buildings=20, seed=9))
        # Mask pixel count must equal the sum of rasterized footprint areas,
        # which fails if any two rectangles overlap.
        per_footprint = sum(
            np.count_nonzero(scene.mask.source_ids == f.id) for f in scene.footprints
        )
        assert np.count_nonzero(scene.mask.source_ids) == per_footprint
        total_area = sum(f.area for f in scene.footprints)
        assert abs(per_footprint - total_area) / total_area < 0.25

    def test_truth_heights_match_mask(self):
        scene = generate_city(small_spec())
        for f in scene.footprints:
            cells = scene.truth_ndsm.values[scene.mask.source_ids == f.id]
            np.testing.assert_allclose(cells, np.float32(scene.heights[f.id]))
        np.testing.assert_array_equal(
            scene.truth_ndsm.values[scene.mask.source_ids == 0], 0.0
        )

    def test_zero_buildings(self):
        scene = generate_city(small_spec(n_buildings=0, noise_sigma=0.0))
        assert scene.footprints == []
        np.testing.assert_array_equal(scene.truth_ndsm.values, 0.0)
        np.testing.assert_array_equal(scene.coarse_ndsm.values, 0.0)

    def test_noiseless_coarse_is_block_average(self):
        scene = generate_city(small_spec(noise_sigma=0.0))
        expect = downsample_average(scene.truth_ndsm, scene.spec.coarse_factor)
        np.testing.assert_array_equal(scene.coarse_ndsm.values, expect.values)

    def test_factor_one_noiseless_coarse_equals_truth(self):
        scene = generate_city(small_spec(coarse_factor=1, noise_sigma=0.0))
        np.testing.assert_array_equal(
            scene.coarse_ndsm.values, scene.truth_ndsm.values
        )

    def test_point_cloud_consistent(self, tmp_path):
        scene = generate_city(small_spec())
        points = written_points(scene, tmp_path)
        size = scene.spec.size_cells
        n_other = size * size // 1000
        assert len(points) == size * size + n_other
        # Ground points sit on the terrain.
        ground = points.labels == int(Label.GROUND)
        np.testing.assert_allclose(points.zs[ground], 100.0)

    def test_terrain_slope(self):
        scene = generate_city(small_spec(terrain_slope=0.02, n_buildings=0))
        # Elevation rises 0.02 m per meter eastwards from a 100 m base.
        terrain = scene.spec.terrain_at(scene.mask.grid.cell_centers_x())
        assert terrain[0] == pytest.approx(100.0 + 0.02 * 0.5)
        assert terrain[100] == pytest.approx(100.0 + 0.02 * 100.5)

    def test_snap_to_coarse(self):
        scene = generate_city(
            small_spec(snap_to_coarse=True, footprint_min=10.0, footprint_max=30.0)
        )
        step = scene.spec.coarse_factor
        for f in scene.footprints:
            xs = [p[0] for p in f.exterior]
            ys = [p[1] for p in f.exterior]
            for v in (min(xs), max(xs), min(ys), max(ys)):
                assert v % step == 0

    def test_snapped_placement_retries_in_its_slot(self):
        # Four 150 m slots and sides of 30 to 180 m: three draws leave no
        # multiple of 30 in their slot and are drawn again, and every
        # building is still placed.
        spec = SyntheticCitySpec(extent_m=300, n_buildings=4, footprint_min=30,
                                 footprint_max=180, coarse_factor=30, snap_to_coarse=True,
                                 seed=1)
        scene = generate_city(spec)
        assert len(scene.footprints) == 4
        slots = set()
        for f in scene.footprints:
            (x0, y0), (x1, y1) = f.exterior.min(axis=0), f.exterior.max(axis=0)
            col, row = x0 // 150, y0 // 150
            assert x1 <= (col + 1) * 150 and y1 <= (row + 1) * 150
            slots.add((row, col))
            assert np.all(f.exterior % 30 == 0)
        assert len(slots) == 4
        again = generate_city(spec)
        assert [f.exterior.tobytes() for f in again.footprints] == [
            f.exterior.tobytes() for f in scene.footprints]

    def test_population_nonnegative_and_tracks_density(self):
        scene = generate_city(small_spec())
        assert scene.population.values.min() >= 0.0
        assert scene.population.values.max() > 0.0
        assert scene.population.cell_size == scene.spec.coarse_factor

    def test_infeasible_packing_raises(self):
        # Buildings bigger than their slots can never be placed.
        with pytest.raises(PackingError):
            generate_city(
                small_spec(n_buildings=100, footprint_min=40.0, footprint_max=50.0)
            )

    def test_every_draw_wider_than_slot_raises_after_retries(self):
        # Four 100 m slots, and every draw is wider than 100 m.
        with pytest.raises(PackingError, match="in a 100.0 m slot after 25 tries"):
            generate_city(small_spec(extent_m=200.0, n_buildings=4,
                                     footprint_min=100.0, footprint_max=1000.0))

    def test_slot_narrower_than_footprint_raises_before_draw(self):
        # 10**6 slots a side: drawing 10**12 of 10**12 slots cannot be allocated.
        with pytest.raises(PackingError, match="in a 0.0 m slot"):
            generate_city(small_spec(n_buildings=10**12))


class TestDeterminism:
    def test_same_seed_same_scene(self, tmp_path):
        a = generate_city(small_spec())
        b = generate_city(small_spec())
        assert a.heights == b.heights
        np.testing.assert_array_equal(a.truth_ndsm.values, b.truth_ndsm.values)
        np.testing.assert_array_equal(a.coarse_ndsm.values, b.coarse_ndsm.values)
        np.testing.assert_array_equal(written_points(a, tmp_path / "a").zs,
                                      written_points(b, tmp_path / "b").zs)

    def test_different_seed_differs(self):
        a = generate_city(small_spec(seed=1))
        b = generate_city(small_spec(seed=2))
        assert a.heights != b.heights

    def test_written_files_byte_identical(self, tmp_path):
        def digest(d):
            paths = write_into(generate_city(small_spec()), d)
            return {
                k: hashlib.sha256(open(p, "rb").read()).hexdigest()
                for k, p in sorted(paths.items())
            }

        assert digest(tmp_path / "a") == digest(tmp_path / "b")


# The scene builder that ``generate_city`` replaced, kept as a bit-for-bit
# oracle: footprints built one at a time, the terrain and truth through
# float64 grids, and the points from two ``nonzero`` calls and one
# concatenation per column.


def scene_oracle(spec, mask):
    """The footprints, terrain, truth and points of ``generate_city(spec)``,
    given its footprint mask."""
    rng = np.random.default_rng(spec.seed)
    size = spec.size_cells
    rects = _place_buildings(spec, rng)
    footprints = [
        BuildingFootprint(id=i + 1, exterior=[(x, y), (x + w, y), (x + w, y + h), (x, y + h)])
        for i, (x, y, w, h) in enumerate(rects)
    ]
    height_lut = np.zeros(len(footprints) + 1)
    for f in footprints:
        height_lut[f.id] = float(rng.uniform(spec.height_min, spec.height_max))
    xc = (np.arange(size) + 0.5) * 1.0
    terrain = (100.0 + spec.terrain_slope * xc)[None, :].repeat(size, axis=0).astype(np.float32)
    truth_vals = height_lut[mask.source_ids]
    gy, gx = np.nonzero(mask.source_ids == 0)
    by, bx = np.nonzero(mask.source_ids > 0)
    n_other = size * size // 1000
    ox = rng.uniform(0, size, n_other)
    oy = rng.uniform(0, size, n_other)

    def center(idx):
        return idx + 0.5

    def t_at(x):
        return 100.0 + spec.terrain_slope * x

    points = PointCloud(
        xs=np.concatenate([center(gx), center(bx), ox]),
        ys=np.concatenate([center(gy), center(by), oy]),
        zs=np.concatenate([
            t_at(center(gx)),
            t_at(center(bx)) + truth_vals[by, bx],
            t_at(ox) + rng.uniform(2.0, 12.0, n_other),
        ]),
        labels=np.concatenate([
            np.full(gx.size, int(Label.GROUND), dtype=np.int8),
            np.full(bx.size, int(Label.BUILDING), dtype=np.int8),
            np.full(n_other, int(Label.OTHER), dtype=np.int8),
        ]),
    )
    return footprints, terrain, truth_vals.astype(np.float32), points


class TestSceneMatchesOracle:
    @pytest.mark.parametrize("spec", [
        small_spec(),
        small_spec(terrain_slope=0.013, seed=11),
        small_spec(snap_to_coarse=True, footprint_min=10.0, footprint_max=30.0, terrain_slope=-0.4),
        small_spec(n_buildings=0, noise_sigma=0.0),
        small_spec(extent_m=97.0, n_buildings=3, coarse_factor=7, height_min=0.0, seed=3),
    ])
    def test_bits(self, tmp_path, spec):
        scene = generate_city(spec)
        footprints, terrain, truth, points = scene_oracle(spec, scene.mask)
        written = written_points(scene, tmp_path)
        assert len(scene.footprints) == len(footprints)
        for a, b in zip(scene.footprints, footprints):
            assert a.id == b.id and a.exterior.tobytes() == b.exterior.tobytes() and a.holes == []
            assert (a.area, a.perimeter, a.centroid) == (b.area, b.perimeter, b.centroid)
        xc = scene.mask.grid.cell_centers_x()
        assert np.broadcast_to(spec.terrain_at(xc).astype(np.float32),
                               terrain.shape).tobytes() == terrain.tobytes()
        assert scene.truth_ndsm.values.tobytes() == truth.tobytes()
        for column in ("xs", "ys", "zs", "labels"):
            got, want = getattr(written, column), getattr(points, column)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        built = scene.mask.grid.with_values((scene.mask.source_ids > 0).astype(np.float32))
        density = downsample_average(built, spec.coarse_factor)
        assert scene.population.values.tobytes() == density.with_values(
            (gaussian_filter(density.values.astype(np.float64), sigma=2.0) * 10000.0)
            .astype(np.float32)).values.tobytes()


class TestPointsWrittenInBands:
    # Bands of one row, of 2,100 cells (7 rows of 300, 21 rows of 98: neither
    # grid is a whole number of bands) and of the default size.
    @pytest.mark.parametrize("band_cells", [1, 2100, synth._BAND_CELLS])
    @pytest.mark.parametrize("spec", [
        small_spec(terrain_slope=0.013, seed=11),
        small_spec(snap_to_coarse=True, footprint_min=10.0, footprint_max=30.0, terrain_slope=-0.4),
        small_spec(n_buildings=0, noise_sigma=0.0),
        small_spec(extent_m=97.0, n_buildings=3, coarse_factor=7, height_min=0.0, seed=3),
    ])
    def test_glbp_bytes(self, tmp_path, monkeypatch, spec, band_cells):
        monkeypatch.setattr(synth, "_BAND_CELLS", band_cells)
        scene = generate_city(spec)
        *_, points = scene_oracle(spec, scene.mask)
        write_glbp_pieces(tmp_path / "oracle.glbp", len(points), [(0, points)])
        written = Path(write_into(scene, tmp_path)["points"]).read_bytes()
        assert written == (tmp_path / "oracle.glbp").read_bytes()
