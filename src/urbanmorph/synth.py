"""Deterministic synthetic city scenes for desk-scale pipeline runs.

Stands in for real survey data: random non-overlapping rectangular
buildings, a flat or ramped terrain, a labeled point cloud sampled at cell
centers, a coarse noisy height layer fabricated by block-averaging the
truth, and a smoothed population proxy.  Everything is reproducible from the
seed alone; no wall-clock or OS entropy.

A scene holds its grids (the footprint ids and the truth, 12 bytes a cell)
and the few ``other`` clutter points, but not its point cloud of one point
per cell.  ``write_scene`` writes the cloud from row bands of the footprint
id grid (``SynthScene.point_pieces``), each band's points going straight to
their place in the file, so it holds one band's points at a time; the whole
cloud is the file it writes.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import PackingError
from .footprints import BuildingFootprint, FootprintMask, _build, _table, rasterize
from .footprints import write_footprints
from .pointcloud import Label, PointCloud, write_glbp_pieces
from .raster import DEFAULT_NODATA, Raster, _row_blocks, downsample_average, write_raster

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
        if self.snap_to_coarse and self.n_buildings > 0 and not self.snapped_sizes:
            raise ValueError(
                f"bad footprint_min {self.footprint_min!r} and footprint_max "
                f"{self.footprint_max!r}: no multiple of coarse_factor {self.coarse_factor} "
                "between them for a snapped footprint"
            )

    @property
    def snapped_sizes(self) -> range:
        """The footprint sides a snapped scene draws from."""
        return _snap_range(self.footprint_min, self.footprint_max, self.coarse_factor)

    @property
    def size_cells(self) -> int:
        """Fine (1-m) grid size, rounded up to a multiple of the coarse factor
        so the coarse layer tiles the scene exactly."""
        n = int(math.ceil(self.extent_m))
        return -(-n // self.coarse_factor) * self.coarse_factor

    def terrain_at(self, x):
        """Terrain elevation at ``x`` metres east of the scene's origin."""
        return _TERRAIN_BASE + self.terrain_slope * x

    @property
    def peak_elevation(self) -> float:
        """The largest |terrain| across the scene plus ``height_max``: no
        terrain, roof or truth value of the scene is larger in magnitude."""
        return max(abs(self.terrain_at(0.0)), abs(self.terrain_at(self.size_cells))) + self.height_max


@dataclass
class SynthScene:
    spec: SyntheticCitySpec
    footprints: list[BuildingFootprint]
    heights: dict[int, float]
    truth_ndsm: Raster
    mask: FootprintMask = field(repr=False)
    clutter: PointCloud = field(repr=False)  # the 'other' points, last in the cloud
    coarse_ndsm: Raster = field(repr=False)
    population: Raster = field(repr=False)

    def point_pieces(self) -> Iterator[tuple[int, PointCloud]]:
        """The scene's point cloud as ``(start, points)`` pieces, each of the
        points from index ``start`` on.

        One labeled point per cell center: ground where open, building roofs
        where built, each in row-major order, then the clutter.  The cells
        come in the row blocks of ``raster._row_blocks``; a block yields its
        ground piece and its roof piece, at the next free index of each label.
        """
        ids = self.mask.source_ids
        rows, size = ids.shape
        height_lut = np.array([0.0, *self.heights.values()])  # by id; ids run from 1
        starts = {Label.GROUND: 0, Label.BUILDING: ids.size - np.count_nonzero(ids)}
        for block in _row_blocks(rows, size):
            band, r0 = ids[block], block.start
            for label in starts:
                cells = np.flatnonzero(band > 0 if label == Label.BUILDING else band == 0)
                xs = np.remainder(cells, size) + 0.5
                ys = np.floor_divide(cells, size) + (r0 + 0.5)
                zs = self.spec.terrain_at(xs)
                if label == Label.BUILDING:
                    zs += height_lut[band.ravel()[cells]]
                labels = np.full(cells.size, label, dtype=np.int8)
                yield starts[label], PointCloud(xs=xs, ys=ys, zs=zs, labels=labels)
                starts[label] += cells.size
        yield ids.size, self.clutter

    @property
    def n_points(self) -> int:
        return self.mask.source_ids.size + len(self.clutter)


def _snap_range(lo: float, hi: float, step: int) -> range:
    """The multiples of ``step`` in [lo, hi], for lo >= 0."""
    return range(-(-math.ceil(lo) // step) * step, math.floor(hi) + 1, step)


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
    failed = PackingError(
        f"could not place a {spec.footprint_min}-{spec.footprint_max} m "
        f"building in a {slot_w:.1f} m slot after {_PLACEMENT_RETRIES} tries"
    )
    if slot_w < spec.footprint_min:  # every try would fail: fail before the draw
        raise failed
    chosen = rng.choice(nslots * nslots, size=spec.n_buildings, replace=False)
    chosen.sort()

    step = spec.coarse_factor
    sizes = spec.snapped_sizes
    rects = []
    for slot in chosen:
        sr, sc = divmod(int(slot), nslots)
        x0s, y0s = sc * slot_w, sr * slot_w
        placed = False
        for _ in range(_PLACEMENT_RETRIES):
            if spec.snap_to_coarse:
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
            raise failed
    return rects


def generate_city(spec: SyntheticCitySpec) -> SynthScene:
    rng = np.random.default_rng(spec.seed)
    size = spec.size_cells
    # The fine grid, for its geometry only: its values are a view of one zero.
    template = Raster(width=size, height=size, origin_x=0.0, origin_y=0.0, cell_size=1.0,
                      nodata=DEFAULT_NODATA, values=np.broadcast_to(np.float32(0), (size, size)))

    rects = _place_buildings(spec, rng)
    corners = np.array([[(x, y), (x + w, y), (x + w, y + h), (x, y + h)] for x, y, w, h in rects])
    footprints = _build(_table(range(1, len(rects) + 1), [[c] for c in corners]))
    heights = {f.id: float(rng.uniform(spec.height_min, spec.height_max)) for f in footprints}

    mask = rasterize(footprints, template)

    # Truth height field at 1 m.
    height_lut = np.array([0.0, *heights.values()])  # by id; ids run from 1
    truth = template.with_values(height_lut.astype(np.float32)[mask.source_ids])

    # The sparse 'other' clutter, drawn before the coarse noise; the cell
    # points are made as they are written (``SynthScene.point_pieces``).
    n_other = size * size // 1000
    cx = rng.uniform(0, size, n_other)
    cy = rng.uniform(0, size, n_other)
    cz = spec.terrain_at(cx)
    cz += rng.uniform(2.0, 12.0, n_other)
    clutter = PointCloud(xs=cx, ys=cy, zs=cz, labels=np.full(n_other, Label.OTHER, dtype=np.int8))

    coarse = downsample_average(truth, spec.coarse_factor)
    if spec.noise_sigma > 0:
        noisy = coarse.values.astype(np.float64) + rng.normal(
            0.0, spec.noise_sigma, coarse.values.shape
        )
        coarse = coarse.with_values(noisy.astype(np.float32))

    built = mask.grid.with_values(mask.source_ids > 0)
    built_density = downsample_average(built, spec.coarse_factor)
    pop_vals = gaussian_filter(built_density.values.astype(np.float64), sigma=2.0)
    population = built_density.with_values((pop_vals * 10000.0).astype(np.float32))

    return SynthScene(
        spec=spec,
        footprints=footprints,
        heights=heights,
        truth_ndsm=truth,
        mask=mask,
        clutter=clutter,
        coarse_ndsm=coarse,
        population=population,
    )


def write_scene(scene: SynthScene, paths: dict[str, str]) -> dict[str, str]:
    """Write the scene as pipeline input files at ``paths``, by key
    (``footprints``, ``points``, ``coarse_ndsm``, ``population``), creating
    their directories; byte-identical per seed.  The truth stays in memory:
    no stage reads it.  Returns ``paths``."""
    for path in paths.values():
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    write_footprints(scene.footprints, paths["footprints"])
    write_glbp_pieces(paths["points"], scene.n_points, scene.point_pieces())
    write_raster(scene.coarse_ndsm, paths["coarse_ndsm"])
    write_raster(scene.population, paths["population"])
    return paths
