"""Acceptance gate: seven end-of-build criteria, one pass/fail line each.

Each test prints a single ``[ACCEPTANCE] criterion N (<name>): PASS|FAIL``
line (visible with ``pytest -s`` or in the captured output on failure).
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from urbanmorph.footprints import (
    BuildingFootprint,
    FootprintMask,
    rasterize,
)
from urbanmorph.lod1 import Lod1Building, assign_heights, read_lod1
from urbanmorph.network import (
    ModelConfig,
    TrainConfig,
    Weights,
    init_weights,
    loss_and_gradient,
    train,
)
from urbanmorph.pipeline import run_all
from urbanmorph.raster import (
    Raster,
    denormalize,
    minmax_normalize,
    read_raster,
    resample_cubic,
    write_raster,
)
from urbanmorph.synth import SyntheticCitySpec, generate_city
from urbanmorph.tiler import padded, windows
from urbanmorph.ucp import aggregate_all, covered_area
from urbanmorph.validation import PairedSeries, mape, pair_grids, rmse

NODATA = -9999.0


@contextmanager
def acceptance(number, name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({name}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({name}): PASS")


def make_raster(values, cell_size=1.0, origin=(0.0, 0.0)):
    arr = np.asarray(values, dtype=np.float32)
    return Raster(
        width=arr.shape[1],
        height=arr.shape[0],
        origin_x=origin[0],
        origin_y=origin[1],
        cell_size=cell_size,
        nodata=NODATA,
        values=arr,
    )


def rect(fid, x, y, w, h):
    return BuildingFootprint(
        id=fid, exterior=[(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
    )


def series(pred, ref):
    pred = np.asarray(pred, dtype=np.float64)
    return PairedSeries(
        predicted=pred,
        reference=np.asarray(ref, dtype=np.float64),
        cell_ids=[(0, i) for i in range(pred.size)],
    )


def test_criterion_1_formula_fidelity():
    with acceptance(1, "formula fidelity"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)

        # Hand fixtures at printed precision.
        assert rmse(series([5.0, 0.0], [0.0, 0.0])) == pytest.approx(
            math.sqrt(12.5), abs=1e-12
        )
        slab = Lod1Building(footprint=rect(1, 45, 45, 10, 10), height=5.0, n_cells=-1)
        slab_mask = rasterize(
            [slab.footprint],
            make_raster(np.zeros((100, 100), np.float32)),
        )
        slab_grid = aggregate_all([slab], slab_mask, resolution=100.0)
        assert slab_grid.lambda_b[0, 0] == pytest.approx(0.03, abs=1e-12)

        # 1000 randomized RMSE / MAPE fixtures vs loop oracles.
        for _ in range(1000):
            n = int(rng.integers(1, 25))
            p = rng.uniform(-60, 60, n)
            r = rng.uniform(1.5, 60, n)  # above the MAPE floor
            s = series(p, r)
            oracle_rmse = math.sqrt(sum((a - b) ** 2 for a, b in zip(p, r)) / n)
            got = rmse(s)
            assert abs(got - oracle_rmse) <= 1e-9 * max(oracle_rmse, 1e-30)
            oracle_mape = 100.0 * sum(abs(a - b) / abs(b) for a, b in zip(p, r)) / n
            got_m = mape(s).value
            assert abs(got_m - oracle_mape) <= 1e-9 * max(oracle_mape, 1e-30)

        # 1000 randomized plan-area / surface-ratio / histogram scenes
        # vs per-cell brute-force loops.
        size, res = 30, 15.0
        template = make_raster(np.zeros((size, size), np.float32))
        for trial in range(1000):
            n_b = int(rng.integers(1, 4))
            buildings = []
            for i in range(n_b):
                w, h = rng.uniform(3, 9, 2)
                x = rng.uniform(0, size - w)
                y = rng.uniform(0, size - h)
                buildings.append(
                    Lod1Building(
                        footprint=rect(i + 1, x, y, w, h),
                        height=float(rng.uniform(0.5, 20)),
                        n_cells=-1,
                    )
                )
            mask = rasterize([b.footprint for b in buildings], template)
            grid = aggregate_all(buildings, mask, resolution=res)
            for row in range(2):
                for col in range(2):
                    block = mask.source_ids[
                        int(row * res) : int((row + 1) * res),
                        int(col * res) : int((col + 1) * res),
                    ]
                    roof = int((block > 0).sum())
                    oracle_lp = roof / res**2
                    assert abs(grid.lambda_p[row, col] - oracle_lp) <= 1e-9 * max(
                        oracle_lp, 1e-30
                    )
                    members = [
                        b
                        for b in buildings
                        if (
                            math.floor(b.footprint.centroid[0] / res),
                            math.floor(b.footprint.centroid[1] / res),
                        )
                        == (col, row)
                    ]
                    walls = sum(
                        b.footprint.perimeter * b.height for b in members
                    )
                    oracle_lb = (roof + walls) / res**2
                    assert abs(grid.lambda_b[row, col] - oracle_lb) <= 1e-9 * max(
                        oracle_lb, 1e-30
                    )
                    oracle_hist = np.zeros(grid.nbins)
                    for b in members:
                        oracle_hist[min(int(b.height // 5.0), grid.nbins - 1)] += 1
                    if members:
                        oracle_hist /= len(members)
                    assert np.all(
                        np.abs(grid.hist[row, col] - oracle_hist)
                        <= 1e-9 * np.maximum(oracle_hist, 1e-30)
                    )
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f} s (limit 10 s)"


def test_criterion_2_round_trips(tmp_path, stitch):
    with acceptance(2, "round-trip identities"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(202)

        # The windows of the padded stack, stitched, bit-exact over >= 50 sizes.
        sizes = [(int(h), int(w)) for h, w in rng.integers(1, 520, (52, 2))]
        sizes += [(256, 256), (300, 300), (1, 1)]
        for height, width in sizes:
            r = make_raster(rng.uniform(-50, 50, (height, width)).astype(np.float32))
            stack = padded(r, 1)
            stack[:height, :width, 0] = r.values
            back = stitch(r, np.stack([stack[win][..., 0] for win in windows(r)]))
            assert back.values.tobytes() == r.values.tobytes(), (height, width)

        # denormalize(normalize(.)) within 1e-5 of the value range.
        for _ in range(50):
            r = make_raster(rng.uniform(-80, 200, (24, 24)).astype(np.float32))
            norm, params = minmax_normalize(r)
            back = denormalize(norm, params)
            span = float(params.max_value - params.min_value)
            assert np.abs(back.values - r.values).max() <= 1e-5 * max(span, 1.0)

        # Raster file write/read round trip bit-exact.
        for i in range(10):
            r = make_raster(
                rng.uniform(-1e4, 1e4, (17, 23)).astype(np.float32),
                cell_size=float(rng.uniform(0.5, 40)),
                origin=(float(rng.uniform(-1e5, 1e5)), float(rng.uniform(-1e5, 1e5))),
            )
            path = tmp_path / f"r{i}.glbr"
            write_raster(r, path)
            back = read_raster(path)
            assert back.values.tobytes() == r.values.tobytes()
            assert (back.origin_x, back.origin_y, back.cell_size) == (
                r.origin_x,
                r.origin_y,
                r.cell_size,
            )
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f} s (limit 30 s)"


def test_criterion_3_gradient_correctness():
    with acceptance(3, "gradient correctness"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(303)
        eps = 1e-6
        worst = 0.0
        for net in range(20):
            depth = 1 + net % 2
            cfg = ModelConfig(
                depth=depth,
                base_filters=1 + (net // 2) % 2,
                in_channels=1 + net % 2,
                seed=net,
            )
            w = init_weights(cfg)
            # Jitter every parameter (biases included) so no pre-activation
            # sits exactly on a ReLU kink, where the one-sided derivative
            # and the central difference legitimately disagree.
            w = Weights(w.config, w.flat + rng.uniform(0.01, 0.05, w.flat.size))
            x = rng.uniform(-1, 1, (8, 8, cfg.in_channels))
            target = rng.uniform(0, 1, (8, 8))
            _, grad = loss_and_gradient(w, x, target)
            flat = w.flat.copy()
            for i in range(flat.size):
                up, down = flat.copy(), flat.copy()
                up[i] += eps
                down[i] -= eps
                lp, _ = loss_and_gradient(Weights(w.config, up), x, target)
                lm, _ = loss_and_gradient(Weights(w.config, down), x, target)
                fd = (lp - lm) / (2 * eps)
                scale = max(abs(fd), abs(grad[i]))
                if scale < 1e-10:
                    continue
                rel = abs(fd - grad[i]) / scale
                worst = max(worst, rel)
                assert rel < 1e-4, f"net {net} param {i}: fd={fd} bp={grad[i]}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f} s (limit 2 min)"


def _overfit_fixture():
    spec = SyntheticCitySpec(
        extent_m=64,
        n_buildings=4,
        footprint_min=8,
        footprint_max=16,
        height_min=3,
        height_max=30,
        coarse_factor=8,
        noise_sigma=1.0,
        seed=11,
    )
    scene = generate_city(spec)
    ndsm_norm, _ = minmax_normalize(resample_cubic(scene.coarse_ndsm, 1.0))
    pop_norm, _ = minmax_normalize(resample_cubic(scene.population, 1.0))
    tile = np.stack(
        [ndsm_norm.values, pop_norm.values, scene.mask.source_ids > 0], axis=-1
    ).astype(np.float64)
    target, _ = minmax_normalize(scene.truth_ndsm)
    return tile, target.values.astype(np.float64)


def test_criterion_4_overfit_sanity():
    with acceptance(4, "overfit sanity"):
        t0 = time.perf_counter()
        tile, target = _overfit_fixture()
        cfg = ModelConfig(depth=2, base_filters=8, in_channels=3, seed=0)
        train_cfg = TrainConfig(learning_rate=0.1, epochs=200)

        w = init_weights(cfg)
        loss0, _ = loss_and_gradient(w, tile, target)
        trained, history = train(w, [(tile, target)], train_cfg)
        lossN, _ = loss_and_gradient(trained, tile, target)
        assert len(history) == 200
        assert lossN < 0.1 * loss0, f"final {lossN} vs initial {loss0}"

        # Deterministic per seed: a second run reproduces the weights bit-exact.
        trained2, history2 = train(init_weights(cfg), [(tile, target)], train_cfg)
        np.testing.assert_array_equal(trained.flat, trained2.flat)
        assert history == history2
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"criterion 4 took {elapsed:.1f} s (limit 5 min)"


@pytest.fixture(scope="module")
def benchmark_run(tmp_path_factory, criterion5):
    """Seed-fixed 2 km synthetic city through the full baseline pipeline."""
    out = str(tmp_path_factory.mktemp("bench"))
    t0 = time.perf_counter()
    run_all(criterion5(out))
    return out, time.perf_counter() - t0


def _ucp_from_lod1(out, name, resolution=300.0):
    buildings = read_lod1(os.path.join(out, name))
    pred = read_raster(os.path.join(out, "predicted_heights.glbr"))
    template = pred.with_values(np.zeros((pred.height, pred.width), np.float32))
    mask = rasterize([b.footprint for b in buildings], template)
    return aggregate_all(buildings, mask, resolution=resolution)


def test_criterion_5_end_to_end_benchmark(benchmark_run):
    with acceptance(5, "end-to-end synthetic benchmark"):
        out, elapsed = benchmark_run
        grid_pred = _ucp_from_lod1(out, "lod1_pred.geojson")
        grid_ref = _ucp_from_lod1(out, "lod1_ref.geojson")

        mean_rmse = rmse(pair_grids(grid_pred, grid_ref, "mean"))
        lp_rmse = rmse(pair_grids(grid_pred, grid_ref, "lambda_p"))

        # Frozen thresholds derived once from this seeded fixture
        # (observed: mean 2.698 m, lambda_p 0.0); both sit inside the
        # analytic caps of 2 x sigma_noise = 4 m and 0.02.
        assert mean_rmse <= 3.0, f"mean-height RMSE {mean_rmse:.3f} m"
        assert mean_rmse <= 4.0
        assert lp_rmse <= 0.005, f"lambda_p RMSE {lp_rmse:.5f}"
        assert lp_rmse <= 0.02
        assert elapsed < 180.0, f"criterion 5 took {elapsed:.1f} s (limit 3 min)"


def test_criterion_6_histogram_procedure():
    with acceptance(6, "histogram procedure"):
        for seed in (0, 1, 2):
            spec = SyntheticCitySpec(
                extent_m=400,
                n_buildings=25,
                footprint_min=10,
                footprint_max=30,
                height_min=1.0,
                height_max=40.0,
                coarse_factor=10,
                seed=seed,
            )
            scene = generate_city(spec)
            buildings = assign_heights(scene.truth_ndsm, scene.mask, scene.footprints)
            grid = aggregate_all(buildings, scene.mask, resolution=100.0)

            sums = grid.hist.sum(axis=-1)
            assert np.allclose(sums[grid.count > 0], 1.0, atol=1e-12)
            assert np.all(sums[grid.count == 0] == 0.0)

            # The fraction of buildings below 5 m equals histogram bin 0
            # exactly (bins are half-open, so 5.0 itself is excluded).
            below = np.zeros((grid.geom.rows, grid.geom.cols))
            totals = np.zeros((grid.geom.rows, grid.geom.cols))
            for b in buildings:
                cx, cy = b.footprint.centroid
                row = math.floor(cy / 100.0)
                col = math.floor(cx / 100.0)
                totals[row, col] += 1
                if b.height < 5.0:
                    below[row, col] += 1
            expect = np.divide(
                below, totals, out=np.zeros_like(below), where=totals > 0
            )
            assert np.array_equal(grid.hist[:, :, 0], expect)


def test_criterion_7_nesting_consistency():
    with acceptance(7, "nesting consistency"):
        spec = SyntheticCitySpec(
            extent_m=1500,
            n_buildings=40,
            footprint_min=20,
            footprint_max=60,
            height_min=3,
            height_max=40,
            coarse_factor=10,
            seed=5,
        )
        scene = generate_city(spec)
        mask = scene.mask

        coarse = aggregate_all([], mask, resolution=1000.0)
        coarse_geom, coarse_lp = coarse.geom, coarse.lambda_p
        coarse_area = covered_area(coarse_geom)

        size = mask.grid.width
        for row in range(coarse_geom.rows):
            for col in range(coarse_geom.cols):
                r0, c0 = row * 1000, col * 1000
                r1, c1 = min(r0 + 1000, size), min(c0 + 1000, size)
                sub = FootprintMask(
                    grid=Raster(
                        width=c1 - c0,
                        height=r1 - r0,
                        origin_x=float(c0),
                        origin_y=float(r0),
                        cell_size=1.0,
                        nodata=NODATA,
                        values=mask.grid.values[r0:r1, c0:c1].copy(),
                    ),
                    source_ids=mask.source_ids[r0:r1, c0:c1].copy(),
                )
                fine = aggregate_all([], sub, resolution=300.0)
                weights = covered_area(fine.geom)
                nested = float((fine.lambda_p * weights).sum() / weights.sum())
                assert coarse_lp[row, col] == pytest.approx(nested, rel=1e-12, abs=1e-15)
                assert weights.sum() == pytest.approx(coarse_area[row, col])
