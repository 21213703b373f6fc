"""File-based pipeline stages shared by the CLI.

Each stage reads its inputs from disk, writes its outputs into the
configured output directory, and is individually re-runnable: identical
inputs and seeds produce byte-identical outputs.

The rasters of a run live in the output directory as ``<key>.glbr``:

========================  ================  ================================
artifact                  written by        read by
========================  ================  ================================
``ndsm_resampled``        resample          rasterize-points, train, predict
``population_resampled``  resample          train, predict (network)
``dsm``, ``dem``          rasterize-points  ndsm
``ndsm_ref``              ndsm              train, predict (network), lod1
``predicted_heights``     predict           lod1, ucp, validate
========================  ================  ================================

All of them lie on the fine grid that ``resample`` sets.  Stages read them
through ``_read``, which rejects one off the grid of the first it reads, and
write them through ``_write``; only ``resample`` reads rasters by config path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import lod1 as lod1_mod
from . import network, synth, tiler, ucp, validation
from .errors import AlignmentError, ConfigError, FormatError
from .footprints import footprint_table, read_footprints, rasterize
from .pointcloud import fill_voids_nearest, grid_elevation, read_points_csv
from .pointcloud import height_above_ground
from .raster import DEFAULT_NODATA, Raster, minmax_normalize, read_raster, require_aligned
from .raster import resample_cubic, write_raster


# Bounds on the array sizes that run values imply, so that a finite but
# extreme value is a config error before any work, not an overflow or an
# allocation that cannot succeed.
MAX_GRID_CELLS = 2**30  # a fine grid, or one resolution's grid of whole blocks
MAX_HISTOGRAM_BINS = 10_000
# ``ucp`` holds the pred and ref histograms of every resolution at once: for
# each, an int64 count and a float64 fraction per cell and bin, with their
# temporaries about 40 bytes per cell and bin for the pair (measured).
HISTOGRAM_ENTRY_BYTES = 40
MAX_HISTOGRAM_BYTES = 2**28  # the pred and ref histograms of one resolution
# A synthetic scene's elevations are kept in float32 rasters.  Below 10 km
# the float32 spacing is at most 2**-10 m, about 1 mm, so the DSM, the DEM
# and the nDSM keep every height to the millimetre; far beyond it, the
# rounding of terrain plus height erases the buildings, and near the float32
# range the rasters overflow.
MAX_ELEVATION = 10_000.0


def _bounded_cells(side: float, what: str) -> None:
    """Reject a square grid of ``side`` cells a side beyond ``MAX_GRID_CELLS``."""
    if not side <= MAX_GRID_CELLS**0.5:
        raise ConfigError(f"{what}: {side:.3g} x {side:.3g} cells, more than {MAX_GRID_CELLS}")


@dataclass
class PipelineConfig:
    # input files
    points: str = ""
    footprints: str = ""
    coarse_ndsm: str = ""
    population: str = ""
    # output directory; stage outputs use fixed names inside it
    out: str = "out"
    # processing parameters
    fine_cell_size: float = 1.0
    resolutions: str = "300"
    directions: str = "0"
    predictor: str = "baseline"  # baseline | network
    epochs: int = 50
    learning_rate: float = 1e-3
    depth: int = 3
    base_filters: int = 8
    seed: int = 0
    statistic: str = "mean"
    bin_width: float = 5.0
    height_cap: float = 75.0
    min_reference: float = 1.0
    # synthetic scene parameters (used by the synth stage)
    extent: float = 512.0
    n_buildings: int = 20
    footprint_min: float = 20.0
    footprint_max: float = 60.0
    height_min: float = 3.0
    height_max: float = 30.0
    terrain_slope: float = 0.0
    coarse_factor: int = 8
    noise_sigma: float = 0.0
    snap_to_coarse: bool = False

    def _floats(self, key: str) -> list[float]:
        raw = str(getattr(self, key))
        try:
            vals = [float(v) for v in raw.split(",") if v.strip()]
            if np.isfinite(vals).all():
                return vals
        except ValueError:
            pass
        raise ConfigError(f"bad {key} '{raw}'")

    def positive(self, key: str, zero_ok: bool = False) -> float:
        """The value of ``key``, rejected unless > 0 (>= 0 with ``zero_ok``)."""
        value = getattr(self, key)
        if not (value >= 0 if zero_ok else value > 0):
            raise ConfigError(f"bad {key} {value!r}: must be {'>=' if zero_ok else '>'} 0")
        return value

    def one_of(self, key: str, allowed: tuple[str, ...]) -> str:
        if getattr(self, key) not in allowed:
            raise ConfigError(f"unknown {key} '{getattr(self, key)}'")
        return getattr(self, key)

    def resolution_list(self) -> list[float]:
        vals = self._floats("resolutions")
        if not vals or any(v <= 0 for v in vals):
            raise ConfigError(f"bad resolutions '{self.resolutions}'")
        return vals

    def direction_list(self) -> tuple[float, ...]:
        return tuple(self._floats("directions"))

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)


_BOOL_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def build_config(file_values: dict[str, str], overrides: dict[str, object]) -> PipelineConfig:
    cfg = PipelineConfig()
    valid = {f.name for f in fields(PipelineConfig)}
    merged: dict[str, object] = {}
    for key, raw in file_values.items():
        if key not in valid:
            raise ConfigError(f"unknown config key '{key}'")
        merged[key] = raw
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    kwargs = {}
    for key, raw in merged.items():
        current = getattr(cfg, key)
        try:
            if isinstance(current, bool):
                kwargs[key] = raw if isinstance(raw, bool) else _BOOL_VALUES[str(raw).lower()]
            elif isinstance(current, int):
                kwargs[key] = int(raw)
            elif isinstance(current, float):
                kwargs[key] = float(raw)
                if not np.isfinite(kwargs[key]):
                    raise ValueError(raw)
            else:
                kwargs[key] = str(raw)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad value for config key '{key}': {raw}") from exc
    return replace(cfg, **kwargs)


def _require_file(path: str, key: str) -> str:
    if not path:
        raise ConfigError(f"config key '{key}' is not set")
    if not os.path.isfile(path):
        raise ConfigError(f"config key '{key}': file not found: {path}")
    return path


def _read(cfg: PipelineConfig, *keys: str):
    """Yield the raster ``<out>/<key>.glbr`` of each key in turn, each checked
    to exist, to decode and to lie on the grid of the first one."""
    first = None
    for key in keys:
        path = _require_file(cfg.path(f"{key}.glbr"), key)
        r = read_raster(path)
        first = first or (path, r)
        try:
            require_aligned(first[1], r, f"{first[0]} and {path}")
        except AlignmentError as exc:
            raise FormatError(str(exc)) from exc
        yield r


def _write(cfg: PipelineConfig, **rasters: Raster) -> dict[str, str]:
    """Write each raster to ``<out>/<key>.glbr``, in order; the paths by key."""
    os.makedirs(cfg.out, exist_ok=True)
    paths = {key: cfg.path(f"{key}.glbr") for key in rasters}
    for key, r in rasters.items():
        write_raster(r, paths[key])
    return paths


def _mask_for(cfg: PipelineConfig, grid: Raster):
    footprints = read_footprints(_require_file(cfg.footprints, "footprints"))
    return footprints, rasterize(footprints, grid)


def _checked(cls, **kwargs):
    """``cls(**kwargs)``, with a rejected value reported as a config error."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- stages ------------------------------------------------------------------


def _synth_spec(cfg: PipelineConfig) -> synth.SyntheticCitySpec:
    """The scene ``cfg`` asks ``synth`` for, whose grid is at most
    ``MAX_GRID_CELLS`` and whose elevations are at most ``MAX_ELEVATION``
    in magnitude."""
    spec = _checked(
        synth.SyntheticCitySpec,
        extent_m=cfg.extent,
        n_buildings=cfg.n_buildings,
        footprint_min=cfg.footprint_min,
        footprint_max=cfg.footprint_max,
        height_min=cfg.height_min,
        height_max=cfg.height_max,
        terrain_slope=cfg.terrain_slope,
        coarse_factor=cfg.coarse_factor,
        noise_sigma=cfg.noise_sigma,
        seed=cfg.seed,
        snap_to_coarse=cfg.snap_to_coarse,
    )
    _bounded_cells(
        spec.size_cells, f"bad extent {cfg.extent!r} and coarse_factor {cfg.coarse_factor!r}"
    )
    if not spec.peak_elevation <= MAX_ELEVATION:
        raise ConfigError(
            f"bad terrain_slope {cfg.terrain_slope!r} and height_max {cfg.height_max!r}: "
            f"elevations up to {spec.peak_elevation:.3g} m on a {spec.size_cells} m scene, "
            f"beyond {MAX_ELEVATION:g} m"
        )
    return spec


def stage_synth(cfg: PipelineConfig) -> dict[str, str]:
    return synth.write_scene(synth.generate_city(_synth_spec(cfg)), cfg.out)


def stage_rasterize_points(cfg: PipelineConfig) -> dict[str, str]:
    """Grid the points on the fine grid of ``ndsm_resampled.glbr``, so that the
    reference and the prediction share their cells; points off it are dropped."""
    pc = read_points_csv(_require_file(cfg.points, "points"))
    (fine,) = _read(cfg, "ndsm_resampled")
    # The DSM and DEM keep their own sentinel: the coarse layer's may be a real elevation.
    dem, dsm = grid_elevation(pc, fine.with_values(fine.values, nodata=DEFAULT_NODATA))
    del pc  # the fill needs the grids alone
    if not dem.valid_mask.any():
        raise FormatError(
            f"{cfg.points}: no ground point on the grid of {cfg.path('ndsm_resampled.glbr')}"
        )
    return _write(cfg, dsm=dsm, dem=fill_voids_nearest(dem))


def stage_ndsm(cfg: PipelineConfig) -> dict[str, str]:
    dsm, dem = _read(cfg, "dsm", "dem")
    return _write(cfg, ndsm_ref=height_above_ground(dsm, dem))


def stage_resample(cfg: PipelineConfig) -> dict[str, str]:
    cs = cfg.positive("fine_cell_size")
    coarse = read_raster(_require_file(cfg.coarse_ndsm, "coarse_ndsm"))
    pop = read_raster(_require_file(cfg.population, "population"))
    side = max(max(r.extent_x, r.extent_y) for r in (coarse, pop)) / cs
    _bounded_cells(side, f"bad fine_cell_size {cs!r}")
    fine = resample_cubic(coarse, cs)
    pop_fine = resample_cubic(pop, cs)
    return _write(cfg, ndsm_resampled=fine, population_resampled=pop_fine)


def _network_inputs(cfg: PipelineConfig):
    """The normalized predictor channels (nDSM, population and footprint mask),
    and the normalized reference with its params.  A nodata cell is a
    FormatError, since the network would read the nodata value as data."""
    keys = ("ndsm_resampled", "population_resampled", "ndsm_ref")
    rasters = []
    for key, r in zip(keys, _read(cfg, *keys)):
        gaps = np.count_nonzero(~r.valid_mask)
        if gaps:
            raise FormatError(
                f"{cfg.path(f'{key}.glbr')}: {gaps} nodata cells; the network needs gap-free input"
            )
        rasters.append(r)
    ndsm_fine, pop_fine, ref = rasters
    _, mask = _mask_for(cfg, ndsm_fine)
    channels = [minmax_normalize(ndsm_fine)[0], minmax_normalize(pop_fine)[0], mask.raster]
    return channels, minmax_normalize(ref)


def _network_configs(cfg: PipelineConfig) -> tuple[network.ModelConfig, network.TrainConfig]:
    """The U-Net and training settings of ``cfg``; a rejected value is a config error."""
    return (
        _checked(
            network.ModelConfig, depth=cfg.depth, base_filters=cfg.base_filters, seed=cfg.seed
        ),
        _checked(network.TrainConfig, learning_rate=cfg.learning_rate, epochs=cfg.epochs),
    )


def stage_train(cfg: PipelineConfig) -> dict[str, str]:
    model_cfg, train_cfg = _network_configs(cfg)
    channels, (target_norm, _) = _network_inputs(cfg)
    # One split, so each target tile is cut from the window of its channels.
    _, tiles = tiler.split([*channels, target_norm])
    dataset = [(t[..., :-1], t[..., -1]) for t in tiles]
    weights = network.init_weights(model_cfg)
    trained, history = network.train(weights, dataset, train_cfg)
    network.write_weights(trained, cfg.path("weights.glbw"))
    network.write_loss_history(history, cfg.path("loss_history.csv"))
    return {"weights": cfg.path("weights.glbw"), "loss_history": cfg.path("loss_history.csv")}


PREDICTORS = ("baseline", "network")


def stage_predict(cfg: PipelineConfig) -> dict[str, str]:
    if cfg.one_of("predictor", PREDICTORS) == "baseline":
        (ndsm_fine,) = _read(cfg, "ndsm_resampled")
        _, mask = _mask_for(cfg, ndsm_fine)
        pred = network.baseline_predict(ndsm_fine, mask)
    else:
        channels, (_, target_params) = _network_inputs(cfg)
        weights = network.read_weights(_require_file(cfg.path("weights.glbw"), "weights"))
        pred = network.predict_city(weights, channels, target_params)
    return _write(cfg, predicted_heights=pred)


def stage_lod1(cfg: PipelineConfig) -> dict[str, str]:
    statistic = cfg.one_of("statistic", lod1_mod.STATISTICS)
    pred, ref = _read(cfg, "predicted_heights", "ndsm_ref")
    footprints, mask = _mask_for(cfg, pred)
    pred_buildings = lod1_mod.assign_heights(pred, mask, footprints, statistic)
    ref_buildings = lod1_mod.assign_heights(ref, mask, footprints, statistic)
    lod1_mod.write_lod1(pred_buildings, cfg.path("lod1_pred.geojson"))
    lod1_mod.write_lod1(ref_buildings, cfg.path("lod1_ref.geojson"))
    return {
        "lod1_pred": cfg.path("lod1_pred.geojson"),
        "lod1_ref": cfg.path("lod1_ref.geojson"),
    }


def _histogram_bins(cfg: PipelineConfig) -> tuple[dict[str, float], float]:
    """The height-histogram settings of ``cfg`` and their bin count; a rejected
    value is a config error."""
    bins = {"bin_width": cfg.positive("bin_width"),
            "height_cap": cfg.positive("height_cap", zero_ok=True)}
    nbins = bins["height_cap"] // bins["bin_width"] + 1  # as ucp.height_histogram counts
    if not nbins <= MAX_HISTOGRAM_BINS:
        raise ConfigError(
            f"bad bin_width {cfg.bin_width!r} and height_cap {cfg.height_cap!r}: "
            f"{nbins:.3g} histogram bins (at most {MAX_HISTOGRAM_BINS})"
        )
    return bins, nbins


def _check_resolutions(cfg: PipelineConfig, cell_size: float, side: float, nbins: float) -> None:
    """Reject a resolution of ``cfg`` that is not a whole number of ``cell_size``
    cells, whose grid of whole blocks over ``side`` cells a side is beyond
    ``MAX_GRID_CELLS``, or whose ``nbins``-bin histograms need more than
    ``MAX_HISTOGRAM_BYTES``."""
    what = f"bad resolutions '{cfg.resolutions}'"
    for resolution in cfg.resolution_list():
        ratio = resolution / cell_size
        _bounded_cells(ratio, what)  # one block is at most the whole grid
        px = round(ratio)
        if px < 1 or abs(ratio - px) > 1e-9:
            raise ConfigError(
                f"{what}: {resolution:g} m is not a whole number of {cell_size:g} m cells"
            )
        blocks = -(-side // px)
        _bounded_cells(blocks * px, what)
        size = blocks * blocks * nbins * HISTOGRAM_ENTRY_BYTES
        if not size <= MAX_HISTOGRAM_BYTES:
            raise ConfigError(
                f"bad bin_width {cfg.bin_width!r} and height_cap {cfg.height_cap!r}: "
                f"{nbins:g} bins in each of {blocks:g} x {blocks:g} cells at {resolution:g} m "
                f"take {size:.3g} bytes, more than {MAX_HISTOGRAM_BYTES}"
            )


def _checked_grid(cfg: PipelineConfig, nbins: float) -> Raster:
    """The raster ``predicted_heights.glbr``, on whose grid every resolution of
    ``cfg`` and its ``nbins``-bin histograms fit."""
    (pred,) = _read(cfg, "predicted_heights")
    _check_resolutions(cfg, pred.cell_size, max(pred.width, pred.height), nbins)
    return pred


def _ucp_grids(cfg: PipelineConfig) -> dict[tuple[str, float], ucp.UcpGrid]:
    """UCP grids of both LoD-1 sets, by kind (``pred``, ``ref``) and resolution.

    ``stage_lod1`` writes both sets from one footprint file, so the ``ref``
    set takes the ``pred`` set's footprints, built once, and one mask,
    rasterized once, serves both; a pair whose footprints differ is rejected.
    """
    resolutions, directions = cfg.resolution_list(), cfg.direction_list()
    bins, nbins = _histogram_bins(cfg)
    paths = [_require_file(cfg.path(f"lod1_{k}.geojson"), f"lod1_{k}") for k in ("pred", "ref")]
    pred = lod1_mod.read_lod1(paths[0])
    footprints = [b.footprint for b in pred]
    ref = lod1_mod.read_lod1(paths[1], footprints=footprints)
    tables = footprint_table(footprints), footprint_table([b.footprint for b in ref])
    if not all(map(np.array_equal, *tables)):
        raise FormatError(f"{paths[1]}: footprints differ from {paths[0]}")
    mask = rasterize(footprints, _checked_grid(cfg, nbins))
    return {
        (kind, resolution): ucp.aggregate_all(
            buildings,
            mask,
            resolution=resolution,
            directions=directions,
            **bins,
        )
        for kind, buildings in (("pred", pred), ("ref", ref))
        for resolution in resolutions
    }


def stage_ucp(cfg: PipelineConfig) -> dict[str, str]:
    grids = _ucp_grids(cfg)
    outputs = {}
    for resolution in cfg.resolution_list():
        for kind in ("pred", "ref"):
            grid = grids[kind, resolution]
            out_dir = cfg.path(f"ucp_{kind}_{resolution:g}m")
            ucp.export_rasters(grid, out_dir)
            ucp.export_csv(grid, os.path.join(out_dir, "ucp_table.csv"))
            outputs[f"ucp_{kind}_{resolution:g}m"] = out_dir
    return outputs


def stage_validate(cfg: PipelineConfig) -> dict[str, str]:
    """Compare the pred and ref grids that ``stage_ucp`` wrote, read back from
    their tables."""
    min_reference = cfg.positive("min_reference")  # a MAPE floor of 0 divides by 0
    grid = _checked_grid(cfg, _histogram_bins(cfg)[1])
    pairs = {}  # every table is read and checked before any output is written
    for resolution in cfg.resolution_list():
        geom = ucp.raster_grid(grid, resolution)
        names = [f"ucp_{kind}_{resolution:g}m" for kind in ("pred", "ref")]
        paths = [_require_file(os.path.join(cfg.path(n), "ucp_table.csv"), n) for n in names]
        pred, ref = (ucp.read_csv(path, geom) for path in paths)
        if (pred.nbins, list(pred.lambda_f)) != (ref.nbins, list(ref.lambda_f)):
            raise FormatError(f"{paths[1]}: columns differ from {paths[0]}")
        pairs[f"validation_{resolution:g}m"] = pred, ref
    for name, (pred, ref) in pairs.items():
        validation.export_comparison(pred, ref, cfg.path(name), min_reference=min_reference)
    return {name: cfg.path(name) for name in pairs}


def stage_report(cfg: PipelineConfig) -> dict[str, str]:
    """Read-only summary over previously produced outputs."""
    lines = ["pipeline report", "================", ""]
    lines.append(f"predictor: {cfg.predictor}")
    lines.append(f"seed: {cfg.seed}")
    lines.append("")
    for resolution in cfg.resolution_list():
        metrics_path = cfg.path(f"validation_{resolution:g}m/metrics.csv")
        lines.append(f"resolution {resolution:g} m:")
        if os.path.exists(metrics_path):
            with open(metrics_path) as f:
                for line in f:
                    lines.append("  " + line.rstrip())
        else:
            lines.append("  (no validation output)")
        lines.append("")
    report_path = cfg.path("report.txt")
    with open(report_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return {"report": report_path}


STAGES = {
    "synth": stage_synth,
    "resample": stage_resample,
    "rasterize-points": stage_rasterize_points,
    "ndsm": stage_ndsm,
    "train": stage_train,
    "predict": stage_predict,
    "lod1": stage_lod1,
    "ucp": stage_ucp,
    "validate": stage_validate,
    "report": stage_report,
}

RUN_ORDER = [
    "synth",
    "resample",
    "rasterize-points",
    "ndsm",
    "predict",
    "lod1",
    "ucp",
    "validate",
    "report",
]


def _check_run_grids(cfg: PipelineConfig) -> None:
    """Reject a synthetic scene, fine cell, resolution or histogram of ``cfg``
    whose grids ``run_all`` could not build: the scene's 1 m grid
    (``_synth_spec``) and its fine grid are at most ``MAX_GRID_CELLS``, and so
    is each resolution's, with and without its histograms
    (``_check_resolutions``)."""
    cs = cfg.positive("fine_cell_size")
    spec = _synth_spec(cfg)
    side = np.floor(spec.size_cells / cs) + 1
    _bounded_cells(side, f"bad fine_cell_size {cs!r} for a scene of {spec.size_cells} m")
    _check_resolutions(cfg, cs, side, _histogram_bins(cfg)[1])


def run_all(cfg: PipelineConfig) -> dict[str, str]:
    """Run the full pipeline in stage order; synth inputs feed later stages."""
    outputs: dict[str, str] = {}
    stages = list(RUN_ORDER)
    # Reject bad run values before any stage runs; each stage checks its own again.
    _check_run_grids(cfg)
    cfg.direction_list(), cfg.positive("min_reference")
    cfg.one_of("statistic", lod1_mod.STATISTICS)
    if cfg.one_of("predictor", PREDICTORS) == "network":
        _network_configs(cfg)
        stages.insert(stages.index("predict"), "train")
    for name in stages:
        result = STAGES[name](cfg)
        if name == "synth":
            cfg = replace(
                cfg,
                points=result["points"],
                footprints=result["footprints"],
                coarse_ndsm=result["coarse_ndsm"],
                population=result["population"],
            )
        outputs.update(result)
    return outputs
