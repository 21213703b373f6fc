"""Deterministic synthetic city scenes for desk-scale pipeline runs.

Stands in for real survey data: random non-overlapping rectangular
buildings, a flat or ramped terrain, a labeled point cloud sampled at cell
centers, a coarse noisy height layer fabricated by block-averaging the
truth, and a smoothed population proxy.  Everything is reproducible from the
seed alone; no wall-clock or OS entropy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import GeometryError, PackingError
from .footprints import BuildingFootprint, FootprintMask, _build, _table, rasterize
from .footprints import write_footprints
from .pointcloud import Label, PointCloud, write_points_glbp
from .raster import DEFAULT_NODATA, Raster, downsample_average, write_raster

_PLACEMENT_RETRIES = 25
_TERRAIN_BASE = 100.0


@dataclass(frozen=True)
class SyntheticCitySpec:
    extent_m: float = 2000.0
    n_buildings: int = 150
    footprint_min: float = 20.0
    footprint_max: float = 60.0
    height_min: float = 3.0
    height_max: float = 60.0
    terrain_slope: float = 0.0  # meters of elevation per meter along +x; 0 = flat
    coarse_factor: int = 30
    noise_sigma: float = 0.0
    seed: int = 0
    snap_to_coarse: bool = False

    def __post_init__(self):
        if self.extent_m <= 0:
            raise ValueError("extent must be positive")
        if self.n_buildings < 0:
            raise ValueError("building count must be >= 0")
        if not (0 < self.footprint_min <= self.footprint_max):
            raise ValueError("footprint size range must be ordered and positive")
        if not (0 <= self.height_min <= self.height_max):
            raise ValueError("height range must be ordered and non-negative")
        if self.coarse_factor < 1:
            raise ValueError("coarse factor must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")

    @property
    def size_cells(self) -> int:
        """Fine (1-m) grid size, rounded up to a multiple of the coarse factor
        so the coarse layer tiles the scene exactly."""
        n = int(math.ceil(self.extent_m))
        return -(-n // self.coarse_factor) * self.coarse_factor


@dataclass
class SynthScene:
    spec: SyntheticCitySpec
    footprints: list[BuildingFootprint]
    heights: dict[int, float]
    terrain: Raster
    truth_ndsm: Raster
    mask: FootprintMask = field(repr=False)
    points: PointCloud = field(repr=False)
    coarse_ndsm: Raster = field(repr=False)
    population: Raster = field(repr=False)


def _snap_range(lo: float, hi: float, step: int) -> list[int]:
    vals = [v for v in range(0, int(hi) + 1, step) if lo <= v <= hi]
    return vals


def _place_buildings(spec: SyntheticCitySpec, rng: np.random.Generator) -> list[tuple[float, float, float, float]]:
    """Random non-overlapping rectangles via jittered slot placement.

    The scene is divided into ceil(sqrt(n))^2 slots and each building is
    drawn inside its own randomly chosen slot, which keeps placement random
    while guaranteeing no overlap at any feasible density.
    """
    if spec.n_buildings == 0:
        return []
    size = spec.size_cells
    nslots = int(math.ceil(math.sqrt(spec.n_buildings)))
    slot_w = size / nslots
    chosen = rng.choice(nslots * nslots, size=spec.n_buildings, replace=False)
    chosen.sort()

    rects = []
    for slot in chosen:
        sr, sc = divmod(int(slot), nslots)
        x0s, y0s = sc * slot_w, sr * slot_w
        placed = False
        for _ in range(_PLACEMENT_RETRIES):
            if spec.snap_to_coarse:
                step = spec.coarse_factor
                sizes = _snap_range(spec.footprint_min, spec.footprint_max, step)
                if not sizes:
                    break
                w = float(rng.choice(sizes))
                h = float(rng.choice(sizes))
                xs = _snap_range(math.ceil(x0s), math.floor(x0s + slot_w - w), step)
                ys = _snap_range(math.ceil(y0s), math.floor(y0s + slot_w - h), step)
                xs = [x for x in xs if x >= x0s and x + w <= x0s + slot_w]
                ys = [y for y in ys if y >= y0s and y + h <= y0s + slot_w]
                if not xs or not ys:
                    continue
                x = float(rng.choice(xs))
                y = float(rng.choice(ys))
            else:
                w = float(rng.uniform(spec.footprint_min, spec.footprint_max))
                h = float(rng.uniform(spec.footprint_min, spec.footprint_max))
                if w > slot_w or h > slot_w:
                    continue
                x = float(rng.uniform(x0s, x0s + slot_w - w))
                y = float(rng.uniform(y0s, y0s + slot_w - h))
            rects.append((x, y, w, h))
            placed = True
            break
        if not placed:
            raise PackingError(
                f"could not place a {spec.footprint_min}-{spec.footprint_max} m "
                f"building in a {slot_w:.1f} m slot after {_PLACEMENT_RETRIES} tries"
            )
    return rects


def generate_city(spec: SyntheticCitySpec) -> SynthScene:
    rng = np.random.default_rng(spec.seed)
    size = spec.size_cells
    template = Raster(width=size, height=size, origin_x=0.0, origin_y=0.0, cell_size=1.0,
                      nodata=DEFAULT_NODATA, values=np.zeros((size, size), dtype=np.float32))

    rects = _place_buildings(spec, rng)
    corners = np.array([[(x, y), (x + w, y), (x + w, y + h), (x, y + h)] for x, y, w, h in rects])
    footprints, error = _build(_table(range(1, len(rects) + 1), [[c] for c in corners]))
    if error:
        raise GeometryError(error)
    heights = {f.id: float(rng.uniform(spec.height_min, spec.height_max)) for f in footprints}

    mask = rasterize(footprints, template)
    ids = mask.source_ids.ravel()

    # Terrain and truth height field at 1 m.
    terrain_at = lambda x: _TERRAIN_BASE + spec.terrain_slope * x
    xc = template.cell_centers_x()
    terrain = template.with_values(np.broadcast_to(terrain_at(xc).astype(np.float32), (size, size)))
    height_lut = np.array([0.0, *heights.values()])  # by id; ids run from 1
    truth = template.with_values(height_lut.astype(np.float32)[mask.source_ids])

    # One labeled point per cell center: ground where open, building roofs
    # where built, each in row-major order, plus a sparse scattering of
    # 'other' clutter.
    cells = size * size
    n_other = cells // 1000
    order = np.argsort(ids > 0, kind="stable")
    n_ground = cells - np.count_nonzero(ids)
    xs, ys, zs = np.empty((3, cells + n_other))
    np.remainder(order, size, out=xs[:cells])
    np.floor_divide(order, size, out=ys[:cells])
    xs[:cells] += 0.5
    ys[:cells] += 0.5
    xs[cells:] = rng.uniform(0, size, n_other)
    ys[cells:] = rng.uniform(0, size, n_other)
    np.multiply(xs, spec.terrain_slope, out=zs)
    zs += _TERRAIN_BASE  # terrain_at(xs), in place
    zs[n_ground:cells] += height_lut[ids[order[n_ground:]]]
    zs[cells:] += rng.uniform(2.0, 12.0, n_other)
    labels = np.full(cells + n_other, Label.OTHER, dtype=np.int8)
    labels[:n_ground], labels[n_ground:cells] = Label.GROUND, Label.BUILDING
    points = PointCloud(xs=xs, ys=ys, zs=zs, labels=labels)

    coarse = downsample_average(truth, spec.coarse_factor)
    if spec.noise_sigma > 0:
        noisy = coarse.values.astype(np.float64) + rng.normal(
            0.0, spec.noise_sigma, coarse.values.shape
        )
        coarse = coarse.with_values(noisy.astype(np.float32))

    built_density = downsample_average(mask.raster, spec.coarse_factor)
    pop_vals = gaussian_filter(built_density.values.astype(np.float64), sigma=2.0)
    population = built_density.with_values((pop_vals * 10000.0).astype(np.float32))

    return SynthScene(
        spec=spec,
        footprints=footprints,
        heights=heights,
        terrain=terrain,
        truth_ndsm=truth,
        mask=mask,
        points=points,
        coarse_ndsm=coarse,
        population=population,
    )


def write_scene(scene: SynthScene, out_dir) -> dict[str, str]:
    """Write the scene as pipeline input files; byte-identical per seed."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "footprints": os.path.join(out_dir, "footprints.geojson"),
        "points": os.path.join(out_dir, "points.glbp"),
        "truth_ndsm": os.path.join(out_dir, "truth_ndsm.glbr"),
        "terrain": os.path.join(out_dir, "terrain.glbr"),
        "coarse_ndsm": os.path.join(out_dir, "coarse_ndsm.glbr"),
        "population": os.path.join(out_dir, "population.glbr"),
    }
    write_footprints(scene.footprints, paths["footprints"])
    write_points_glbp(scene.points, paths["points"])
    write_raster(scene.truth_ndsm, paths["truth_ndsm"])
    write_raster(scene.terrain, paths["terrain"])
    write_raster(scene.coarse_ndsm, paths["coarse_ndsm"])
    write_raster(scene.population, paths["population"])
    return paths
