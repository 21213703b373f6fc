"""The three benchmark workloads: how each builds its inputs and its timed chain.

Every workload is a function of (seed, scale).  ``scale`` multiplies the
scene extent (building counts follow the area), so ``scale=1`` is the size
the benchmark measures and a small scale gives the quick runs the tests use.
``setup`` writes the inputs the program receives and ``run_chain`` runs the
timed pipeline stages, the workload's ``chain``, in order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from urbanmorph import (
    BuildingFootprint,
    Raster,
    SyntheticCitySpec,
    downsample_average,
    generate_city,
    pipeline,
    rasterize,
    write_footprints,
    write_raster,
)


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    chain: tuple[str, ...]


def _buildings(full_count: int, full_extent: float, extent: float) -> int:
    """Keep the building density of the full-size scene at another extent."""
    return max(1, round(full_count * (extent / full_extent) ** 2))


def city2k_run(seed: int, scale: float) -> Workload:
    # The criterion-5 scene (2 km, 150 buildings) at 720 m (19 buildings)
    # with the same building density: a child then takes a few seconds, so a
    # run repeats it often enough for a steady median.  At 510 m the
    # mean-height RMSE over only 2 x 2 UCP cells exceeded the 4 m cap on 2 of
    # 1,000 seeds.
    extent = 720.0 * scale
    return Workload(
        name="city2k_run",
        params=dict(
            extent=extent,
            n_buildings=_buildings(150, 2000.0, extent),
            footprint_min=90.0,
            footprint_max=120.0,
            height_min=3.0,
            height_max=60.0,
            coarse_factor=30,
            noise_sigma=2.0,
            snap_to_coarse=True,
            seed=seed,
            resolutions="300",
            predictor="baseline",
        ),
        chain=tuple(pipeline.RUN_ORDER),
    )


def dense_ucp(seed: int, scale: float) -> Workload:
    # 2,500 footprints on 1.5 km, scaled to 375 m (156 footprints) with the
    # same density, for the same reason as city2k_run.
    extent = 375.0 * scale
    return Workload(
        name="dense_ucp",
        params=dict(
            extent=extent,
            n_buildings=_buildings(2500, 1500.0, extent),
            vertices=12,
            coarse_factor=10,
            noise_sigma=2.0,
            seed=seed,
            resolutions="100,300",
            directions="0,45,90,135",
            predictor="baseline",
        ),
        chain=("resample", "predict", "lod1", "ucp", "validate", "report"),
    )


def net_train_predict(seed: int, scale: float) -> Workload:
    # 1,024 m (16 tiles) in the full-size scene; 512 m gives 4 tiles of 256^2.
    extent = 512.0 * scale
    return Workload(
        name="net_train_predict",
        params=dict(
            extent=extent,
            n_buildings=_buildings(20, 512.0, extent),
            footprint_min=20.0,
            footprint_max=min(60.0, extent / 5),
            height_min=3.0,
            height_max=30.0,
            coarse_factor=8,
            noise_sigma=1.0,
            seed=seed,
            resolutions="100",
            predictor="network",
            depth=3,
            base_filters=8,
            epochs=1,
        ),
        chain=("train", "predict", "lod1", "ucp", "validate"),
    )


WORKLOADS = {w.__name__: w for w in (city2k_run, dense_ucp, net_train_predict)}

_CONFIG_KEYS = set(pipeline.PipelineConfig.__dataclass_fields__)


def setup(workload: Workload, out_dir: str) -> pipeline.PipelineConfig:
    """Generate and write the workload's inputs; return the config to run."""
    os.makedirs(out_dir, exist_ok=True)
    kwargs = {k: v for k, v in workload.params.items() if k in _CONFIG_KEYS}
    cfg = pipeline.PipelineConfig(out=out_dir, **kwargs)
    if workload.name == "city2k_run":
        return cfg  # run_all's synth stage makes the inputs
    cfg = replace(
        cfg,
        footprints=cfg.path("footprints.geojson"),
        coarse_ndsm=cfg.path("coarse_ndsm.glbr"),
        population=cfg.path("population.glbr"),
    )
    if workload.name == "dense_ucp":
        _write_dense_scene(workload.params, cfg)
    else:
        _write_synth_scene(workload.params, cfg)
        pipeline.STAGES["resample"](cfg)
    return cfg


def run_chain(workload: Workload, cfg: pipeline.PipelineConfig) -> None:
    """The timed part.  Stages are looked up in ``pipeline.STAGES`` at call
    time, so a wrapper installed there sees every stage."""
    if workload.name == "city2k_run":
        pipeline.run_all(cfg)
        return
    for name in workload.chain:
        pipeline.STAGES[name](cfg)


def _write_synth_scene(params: dict, cfg: pipeline.PipelineConfig) -> None:
    spec = SyntheticCitySpec(
        extent_m=params["extent"],
        n_buildings=params["n_buildings"],
        footprint_min=params["footprint_min"],
        footprint_max=params["footprint_max"],
        height_min=params["height_min"],
        height_max=params["height_max"],
        coarse_factor=params["coarse_factor"],
        noise_sigma=params["noise_sigma"],
        seed=params["seed"],
    )
    scene = generate_city(spec)
    write_footprints(scene.footprints, cfg.footprints)
    write_raster(scene.coarse_ndsm, cfg.coarse_ndsm)
    write_raster(scene.population, cfg.population)
    write_raster(scene.truth_ndsm, cfg.path("ndsm_ref.glbr"))


def convex_footprints(n: int, extent: float, vertices: int, rng) -> list[BuildingFootprint]:
    """``n`` non-overlapping convex polygons, one per slot of a square grid.

    Each is a regular ``vertices``-gon stretched and rotated (an affine image
    of a convex polygon stays convex), inside a circle of 0.45 slot widths.
    """
    side = math.ceil(math.sqrt(n))
    slot = extent / side
    slots = np.sort(rng.choice(side * side, size=n, replace=False))
    theta = 2.0 * math.pi * np.arange(vertices) / vertices
    out = []
    for i, s in enumerate(slots):
        row, col = divmod(int(s), side)
        a, b = rng.uniform(0.25, 0.45, 2) * slot
        phi = rng.uniform(0.0, math.pi)
        x, y = a * np.cos(theta), b * np.sin(theta)
        cx, cy = (col + 0.5) * slot, (row + 0.5) * slot
        ring = np.column_stack(
            (cx + x * math.cos(phi) - y * math.sin(phi), cy + x * math.sin(phi) + y * math.cos(phi))
        )
        out.append(BuildingFootprint(id=i + 1, exterior=ring))
    return out


def _write_dense_scene(params: dict, cfg: pipeline.PipelineConfig) -> None:
    rng = np.random.default_rng(params["seed"])
    factor = params["coarse_factor"]
    size = -(-math.ceil(params["extent"]) // factor) * factor
    template = Raster(
        width=size,
        height=size,
        origin_x=0.0,
        origin_y=0.0,
        cell_size=1.0,
        nodata=-9999.0,
        values=np.zeros((size, size), dtype=np.float32),
    )
    footprints = convex_footprints(params["n_buildings"], size, params["vertices"], rng)
    heights = np.concatenate(([0.0], rng.uniform(3.0, 60.0, len(footprints))))
    truth_vals = heights[rasterize(footprints, template).source_ids]
    # The reference nDSM is the rasterized truth; the coarse layer is its
    # block average plus noise, and population a smoothed built density, as
    # in the package's synthetic city.
    truth = template.with_values(truth_vals.astype(np.float32))
    coarse = downsample_average(truth, factor)
    noisy = coarse.values.astype(np.float64) + rng.normal(
        0.0, params["noise_sigma"], coarse.values.shape
    )
    built = downsample_average(
        template.with_values((truth_vals > 0).astype(np.float32)), factor
    )
    pop = gaussian_filter(built.values.astype(np.float64), sigma=2.0) * 10000.0
    write_footprints(footprints, cfg.footprints)
    write_raster(coarse.with_values(noisy.astype(np.float32)), cfg.coarse_ndsm)
    write_raster(built.with_values(pop.astype(np.float32)), cfg.population)
    write_raster(truth, cfg.path("ndsm_ref.glbr"))
