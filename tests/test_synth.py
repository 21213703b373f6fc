import hashlib

import numpy as np
import pytest

from urbanmorph.errors import PackingError
from urbanmorph.raster import downsample_average
from urbanmorph.synth import SyntheticCitySpec, generate_city, write_scene


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
        assert np.count_nonzero(scene.mask.raster.values) == per_footprint
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

    def test_point_cloud_consistent(self):
        scene = generate_city(small_spec())
        size = scene.spec.size_cells
        n_other = size * size // 1000
        assert len(scene.points) == size * size + n_other
        # Ground points sit on the terrain; roofs on terrain + height.
        from urbanmorph.pointcloud import Label

        ground = scene.points.labels == int(Label.GROUND)
        np.testing.assert_allclose(scene.points.zs[ground], 100.0)

    def test_terrain_slope(self):
        scene = generate_city(small_spec(terrain_slope=0.02, n_buildings=0))
        # Elevation rises 0.02 m per meter eastwards from a 100 m base.
        assert scene.terrain.values[0, 0] == pytest.approx(100.0 + 0.02 * 0.5)
        assert scene.terrain.values[5, 100] == pytest.approx(100.0 + 0.02 * 100.5)

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


class TestDeterminism:
    def test_same_seed_same_scene(self):
        a = generate_city(small_spec())
        b = generate_city(small_spec())
        assert a.heights == b.heights
        np.testing.assert_array_equal(a.truth_ndsm.values, b.truth_ndsm.values)
        np.testing.assert_array_equal(a.coarse_ndsm.values, b.coarse_ndsm.values)
        np.testing.assert_array_equal(a.points.zs, b.points.zs)

    def test_different_seed_differs(self):
        a = generate_city(small_spec(seed=1))
        b = generate_city(small_spec(seed=2))
        assert a.heights != b.heights

    def test_written_files_byte_identical(self, tmp_path):
        def digest(d):
            paths = write_scene(generate_city(small_spec()), d)
            return {
                k: hashlib.sha256(open(p, "rb").read()).hexdigest()
                for k, p in sorted(paths.items())
            }

        assert digest(tmp_path / "a") == digest(tmp_path / "b")
