"""File-based pipeline stages shared by the CLI.

Each stage reads its inputs from disk, writes its outputs into the
configured output directory, and is individually re-runnable: identical
inputs and seeds produce byte-identical outputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import lod1 as lod1_mod
from . import network, synth, tiler, ucp, validation
from .errors import ConfigError, FormatError
from .footprints import read_footprints, rasterize
from .pointcloud import Label, fill_voids_nearest, grid_elevation, read_points_csv
from .pointcloud import height_above_ground
from .raster import Raster, minmax_normalize, read_raster, resample_cubic, write_raster


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
        try:
            return [float(v) for v in str(getattr(self, key)).split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad {key} '{getattr(self, key)}'") from exc

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


_BOOL_KEYS = {"snap_to_coarse"}


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
            if key in _BOOL_KEYS:
                kwargs[key] = (
                    raw if isinstance(raw, bool) else str(raw).lower() in ("1", "true", "yes")
                )
            elif isinstance(current, int) and not isinstance(current, bool):
                kwargs[key] = int(raw)
            elif isinstance(current, float):
                kwargs[key] = float(raw)
            else:
                kwargs[key] = str(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for config key '{key}': {raw}") from exc
    return replace(cfg, **kwargs)


def _require_file(path: str, key: str) -> str:
    if not path:
        raise ConfigError(f"config key '{key}' is not set")
    if not os.path.exists(path):
        raise ConfigError(f"config key '{key}': file not found: {path}")
    return path


def _mask_for(cfg: PipelineConfig, template: Raster):
    footprints = read_footprints(_require_file(cfg.footprints, "footprints"))
    return footprints, rasterize(footprints, template)


def _template_like(r: Raster) -> Raster:
    return r.with_values(np.zeros((r.height, r.width), dtype=np.float32))


def _checked(cls, **kwargs):
    """``cls(**kwargs)``, with a rejected value reported as a config error."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- stages ------------------------------------------------------------------


def stage_synth(cfg: PipelineConfig) -> dict[str, str]:
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
    scene = synth.generate_city(spec)
    return synth.write_scene(scene, cfg.out)


def stage_rasterize_points(cfg: PipelineConfig) -> dict[str, str]:
    pc = read_points_csv(_require_file(cfg.points, "points"))
    x0, y0, x1, y1 = pc.extent
    cs = cfg.fine_cell_size
    # The last cell holds the maximum point, even one on a cell edge.
    width = max(1, int(np.floor((x1 - np.floor(x0 / cs) * cs) / cs)) + 1)
    height = max(1, int(np.floor((y1 - np.floor(y0 / cs) * cs) / cs)) + 1)
    template = Raster(
        width=width,
        height=height,
        origin_x=float(np.floor(x0 / cs) * cs),
        origin_y=float(np.floor(y0 / cs) * cs),
        cell_size=cs,
        nodata=-9999.0,
        values=np.zeros((height, width), dtype=np.float32),
    )
    dsm = grid_elevation(pc, {Label.BUILDING}, template)
    dem = fill_voids_nearest(grid_elevation(pc, {Label.GROUND}, template))
    os.makedirs(cfg.out, exist_ok=True)
    write_raster(dsm, cfg.path("dsm.glbr"))
    write_raster(dem, cfg.path("dem.glbr"))
    return {"dsm": cfg.path("dsm.glbr"), "dem": cfg.path("dem.glbr")}


def stage_ndsm(cfg: PipelineConfig) -> dict[str, str]:
    dsm = read_raster(_require_file(cfg.path("dsm.glbr"), "dsm"))
    dem = read_raster(_require_file(cfg.path("dem.glbr"), "dem"))
    write_raster(height_above_ground(dsm, dem), cfg.path("ndsm_ref.glbr"))
    return {"ndsm_ref": cfg.path("ndsm_ref.glbr")}


def stage_resample(cfg: PipelineConfig) -> dict[str, str]:
    coarse = read_raster(_require_file(cfg.coarse_ndsm, "coarse_ndsm"))
    pop = read_raster(_require_file(cfg.population, "population"))
    os.makedirs(cfg.out, exist_ok=True)
    fine = resample_cubic(coarse, cfg.fine_cell_size)
    pop_fine = resample_cubic(pop, cfg.fine_cell_size)
    write_raster(fine, cfg.path("ndsm_resampled.glbr"))
    write_raster(pop_fine, cfg.path("population_resampled.glbr"))
    return {
        "ndsm_resampled": cfg.path("ndsm_resampled.glbr"),
        "population_resampled": cfg.path("population_resampled.glbr"),
    }


def _network_input(cfg: PipelineConfig, key: str) -> Raster:
    """The raster ``<key>.glbr`` of ``cfg.out``; a nodata cell is a FormatError,
    since the network would read the nodata value as data."""
    path = _require_file(cfg.path(f"{key}.glbr"), key)
    r = read_raster(path)
    gaps = np.count_nonzero(~r.valid_mask)
    if gaps:
        raise FormatError(f"{path}: {gaps} nodata cells; the network needs gap-free input")
    return r


def _channels(cfg: PipelineConfig) -> list[Raster]:
    """Normalized predictor channels: nDSM, population and footprint mask."""
    ndsm_fine = _network_input(cfg, "ndsm_resampled")
    pop_fine = _network_input(cfg, "population_resampled")
    _, mask = _mask_for(cfg, _template_like(ndsm_fine))
    ndsm_norm, _ = minmax_normalize(ndsm_fine)
    pop_norm, _ = minmax_normalize(pop_fine)
    return [ndsm_norm, pop_norm, mask.raster]


def stage_tile(cfg: PipelineConfig) -> dict[str, str]:
    _, tiles = tiler.split(_channels(cfg))
    out_dir = cfg.path("tiles")
    tiler.dump_tiles(tiles, out_dir)
    return {"tiles": out_dir}


def _target(cfg: PipelineConfig):
    return minmax_normalize(_network_input(cfg, "ndsm_ref"))


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
    channels = _channels(cfg)
    target_norm, _ = _target(cfg)
    # One split, so each target tile is cut from the window of its channels.
    _, tiles = tiler.split([*channels, target_norm])
    dataset = [(np.stack(t.channels[:-1], axis=-1), t.channels[-1]) for t in tiles]
    weights = network.init_weights(model_cfg)
    trained, history = network.train(weights, dataset, train_cfg)
    network.write_weights(trained, cfg.path("weights.glbw"))
    network.write_loss_history(history, cfg.path("loss_history.csv"))
    return {"weights": cfg.path("weights.glbw"), "loss_history": cfg.path("loss_history.csv")}


PREDICTORS = ("baseline", "network")


def stage_predict(cfg: PipelineConfig) -> dict[str, str]:
    if cfg.one_of("predictor", PREDICTORS) == "baseline":
        ndsm_fine = read_raster(
            _require_file(cfg.path("ndsm_resampled.glbr"), "ndsm_resampled")
        )
        _, mask = _mask_for(cfg, _template_like(ndsm_fine))
        pred = network.baseline_predict(ndsm_fine, mask)
    else:
        channels = _channels(cfg)
        _, target_params = _target(cfg)
        weights = network.read_weights(_require_file(cfg.path("weights.glbw"), "weights"))
        pred = network.predict_city(weights, channels, target_params)
    write_raster(pred, cfg.path("predicted_heights.glbr"))
    return {"predicted_heights": cfg.path("predicted_heights.glbr")}


def stage_lod1(cfg: PipelineConfig) -> dict[str, str]:
    statistic = cfg.one_of("statistic", lod1_mod.STATISTICS)
    pred = read_raster(
        _require_file(cfg.path("predicted_heights.glbr"), "predicted_heights")
    )
    ref = read_raster(_require_file(cfg.path("ndsm_ref.glbr"), "ndsm_ref"))
    footprints, mask = _mask_for(cfg, _template_like(pred))
    pred_buildings = lod1_mod.assign_heights(pred, mask, footprints, statistic)
    ref_buildings = lod1_mod.assign_heights(ref, mask, footprints, statistic)
    lod1_mod.write_lod1(pred_buildings, cfg.path("lod1_pred.geojson"))
    lod1_mod.write_lod1(ref_buildings, cfg.path("lod1_ref.geojson"))
    return {
        "lod1_pred": cfg.path("lod1_pred.geojson"),
        "lod1_ref": cfg.path("lod1_ref.geojson"),
    }


def _footprint_key(buildings: list[lod1_mod.Lod1Building]) -> list:
    return [(b.footprint.id, [r.tolist() for r in b.footprint.rings()]) for b in buildings]


def _ucp_grids(cfg: PipelineConfig) -> dict[tuple[str, float], ucp.UcpGrid]:
    """UCP grids of both LoD-1 sets, by kind (``pred``, ``ref``) and resolution.

    ``stage_lod1`` writes both sets from one footprint file, so one mask,
    rasterized once, serves both; a pair whose footprints differ is rejected.
    """
    resolutions, directions = cfg.resolution_list(), cfg.direction_list()
    paths = [_require_file(cfg.path(f"lod1_{k}.geojson"), f"lod1_{k}") for k in ("pred", "ref")]
    pred, ref = (lod1_mod.read_lod1(path) for path in paths)
    if _footprint_key(pred) != _footprint_key(ref):
        raise FormatError(f"{paths[1]}: footprints differ from {paths[0]}")
    template = _template_like(
        read_raster(_require_file(cfg.path("predicted_heights.glbr"), "predicted_heights"))
    )
    mask = rasterize([b.footprint for b in pred], template)
    return {
        (kind, resolution): ucp.aggregate_all(
            buildings,
            mask,
            resolution=resolution,
            directions=directions,
            bin_width=cfg.bin_width,
            height_cap=cfg.height_cap,
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
    grids = _ucp_grids(cfg)
    outputs = {}
    for resolution in cfg.resolution_list():
        out_dir = cfg.path(f"validation_{resolution:g}m")
        pred, ref = grids["pred", resolution], grids["ref", resolution]
        validation.export_comparison(pred, ref, out_dir, min_reference=cfg.min_reference)
        outputs[f"validation_{resolution:g}m"] = out_dir
    return outputs


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
    "rasterize-points": stage_rasterize_points,
    "ndsm": stage_ndsm,
    "resample": stage_resample,
    "tile": stage_tile,
    "train": stage_train,
    "predict": stage_predict,
    "lod1": stage_lod1,
    "ucp": stage_ucp,
    "validate": stage_validate,
    "report": stage_report,
}

RUN_ORDER = [
    "synth",
    "rasterize-points",
    "ndsm",
    "resample",
    "predict",
    "lod1",
    "ucp",
    "validate",
    "report",
]


def run_all(cfg: PipelineConfig) -> dict[str, str]:
    """Run the full pipeline in stage order; synth inputs feed later stages."""
    outputs: dict[str, str] = {}
    stages = list(RUN_ORDER)
    # Reject bad run values before any stage runs; each stage checks its own again.
    cfg.resolution_list(), cfg.direction_list()
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
