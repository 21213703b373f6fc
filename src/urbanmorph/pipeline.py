"""File-based pipeline stages shared by the CLI.

Each stage reads its inputs from disk, writes its outputs into the
configured output directory, and is individually re-runnable: identical
inputs and seeds produce byte-identical outputs.

``STAGE_FILES`` is the table of a run's files: the keys each stage reads, and
the file in ``--out`` of each key it writes.  Every stage finds the files it
reads through ``_file``, and the paths it writes through ``_outputs``.  The
rasters of a run in ``--out`` lie on the fine grid that ``resample`` sets.
Stages read them through ``_read``, which rejects one off the grid of the
first it reads, and write them through ``_write``.  ``resample`` and the
network resample the inputs they read themselves, through ``_resampled``.
"""

from __future__ import annotations

import ctypes
import os
import platform
from dataclasses import dataclass, fields, replace

import numpy as np

from . import lod1 as lod1_mod
from . import network, synth, tiler, ucp, validation
from .errors import AlignmentError, ConfigError, FormatError
from .footprints import footprint_table, read_footprints, rasterize
from .pointcloud import fill_voids_nearest, grid_elevation, read_points_csv
from .pointcloud import height_above_ground
from .raster import DEFAULT_NODATA, Raster, minmax_normalize, minmax_params, read_raster
from .raster import require_aligned, resample_cubic, write_raster


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
# mallopt parameters of glibc's <malloc.h>, and its ceiling for the mmap
# threshold on a 64-bit host.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 2**20


def reuse_freed_memory() -> None:
    """On glibc, keep the heap memory a stage frees for the next to reuse.

    glibc gives each allocation above its mmap threshold (128 KiB, raised
    only by a later free) fresh zero pages, and returns freed heap memory to
    the OS past its trim threshold, so every stage faults its full-grid
    arrays in anew.  This fixes the mmap threshold at 32 MiB and turns
    trimming off: arrays below 32 MiB come from a heap that keeps what is
    freed, and larger ones are still mapped and unmapped, so the biggest
    grids of a large city still return to the OS.  The process keeps this
    policy for its lifetime.  Elsewhere than on glibc this does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, -1)


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

    def _named(self, key: str) -> list[float]:
        """The values of ``key``, rejected if two name the same outputs, which
        carry each value formatted with ``:g``."""
        vals, seen = self._floats(key), {}
        for v in vals:
            name = f"{v + 0.0:g}"  # + 0.0: -0 is 0, one lambda_f key
            if name in seen:
                raise ConfigError(
                    f"bad {key} '{getattr(self, key)}': {seen[name]!r} and {v!r} "
                    f"name the same outputs ('{name}')"
                )
            seen[name] = v
        return vals

    def resolution_list(self) -> list[float]:
        vals = self._named("resolutions")
        if not vals or any(v <= 0 for v in vals):
            raise ConfigError(f"bad resolutions '{self.resolutions}'")
        return vals

    def direction_list(self) -> tuple[float, ...]:
        return tuple(self._named("directions"))

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)


_BOOL_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not text ({exc})") from exc
    out = {}
    for lineno, line in enumerate(lines, start=1):
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


# The run files, by stage: the keys the stage reads, and the file in ``--out``
# of each key it writes.  A ``{res}`` stands for each resolution, formatted
# with ``:g``, and its file is a directory.  ``predict`` reads by predictor.
# The keys ``synth`` writes are the inputs: a config path set for one of
# them is read in place of its file.
STAGE_FILES = {
    "synth": ((), {"footprints": "footprints.geojson", "points": "points.glbp",
                   "coarse_ndsm": "coarse_ndsm.glbr", "population": "population.glbr"}),
    "resample": (("coarse_ndsm",), {"ndsm_resampled": "ndsm_resampled.glbr"}),
    "rasterize-points": (("points", "ndsm_resampled"), {"dsm": "dsm.glbr", "dem": "dem.glbr"}),
    "ndsm": (("dsm", "dem"), {"ndsm_ref": "ndsm_ref.glbr"}),
    "train": (("ndsm_resampled", "ndsm_ref", "population", "footprints"),
              {"weights": "weights.glbw", "loss_history": "loss_history.csv"}),
    "predict": ({"baseline": ("ndsm_resampled", "footprints"),
                 "network": ("ndsm_resampled", "ndsm_ref", "population", "footprints", "weights")},
                {"predicted_heights": "predicted_heights.glbr"}),
    "lod1": (("predicted_heights", "ndsm_ref", "footprints"),
             {"lod1_pred": "lod1_pred.geojson", "lod1_ref": "lod1_ref.geojson"}),
    "ucp": (("lod1_pred", "lod1_ref", "predicted_heights"),
            {"ucp_pred_{res}m": "ucp_pred_{res}m", "ucp_ref_{res}m": "ucp_ref_{res}m"}),
    "validate": (("predicted_heights", "ucp_pred_{res}m", "ucp_ref_{res}m"),
                 {"validation_{res}m": "validation_{res}m"}),
    "report": (("validation_{res}m",), {"report": "report.txt"}),
}
FILES = {key: name for _, writes in STAGE_FILES.values() for key, name in writes.items()}
INPUTS = tuple(STAGE_FILES["synth"][1])
UCP_TABLE = "ucp_table.csv"  # in each ``ucp_{kind}_{res}m`` directory


def _at(text: str, res: float) -> str:
    """``text`` with ``{res}`` as ``res`` formatted with ``:g``."""
    return text.format(res=f"{res:g}")


def _file(cfg: PipelineConfig, key: str, res: float = 0.0, *inner: str) -> str:
    """The file of ``key`` at ``res`` (``inner`` in it, for a directory), checked
    to exist: an input key's config path if set, else ``<out>/<file>``."""
    path = getattr(cfg, key) if key in INPUTS else ""
    path = path or os.path.join(cfg.out, _at(FILES[key], res), *inner)
    if not os.path.isfile(path):
        raise ConfigError(f"{path}: {_at(key, res)} file not found")
    return path


def _outputs(cfg: PipelineConfig, stage: str) -> dict[str, str]:
    """The path in ``--out`` of each key that ``stage`` writes, in declared
    order; a ``{res}`` key gives one per resolution, resolution by resolution."""
    writes = STAGE_FILES[stage][1]
    each = cfg.resolution_list() if "{res}" in "".join(writes) else [0.0]
    return {_at(key, res): cfg.path(_at(name, res)) for res in each for key, name in writes.items()}


def _aligned(a: Raster, b: Raster, what: str) -> None:
    """``require_aligned``, with a raster off the grid reported as a bad input."""
    try:
        require_aligned(a, b, what)
    except AlignmentError as exc:
        raise FormatError(str(exc)) from exc


def _gap_free(r: Raster, path: str, reader: str) -> Raster:
    if gaps := np.count_nonzero(~r.valid_mask):
        raise FormatError(f"{path}: {gaps} nodata cells; {reader} needs gap-free input")
    return r


def _grid_of(r: Raster, nodata: float | None = None) -> Raster:
    """``r``'s grid with no cells of its own: its values are a view of one
    nodata, ``r``'s unless ``nodata`` is given."""
    nodata = r.nodata if nodata is None else nodata
    return r.with_values(np.broadcast_to(np.float32(nodata), r.values.shape), nodata=nodata)


def _read(cfg: PipelineConfig, *keys: str):
    """Iterate over the raster of each key in turn, each checked to exist, to
    decode and to lie on the grid of the first one.  Between rasters the
    iterator holds the first one's grid and no raster, so a raster the caller
    drops is freed at once."""
    first = []

    def read(key):
        path = _file(cfg, key)
        r = read_raster(path)
        if not first:
            first[:] = path, _grid_of(r)
        _aligned(first[1], r, f"{first[0]} and {path}")
        return r

    return map(read, keys)


def _resampled(cfg: PipelineConfig, key: str, cell_size: float) -> Raster:
    """The gap-free raster of ``key``, resampled to ``cell_size`` cells on a
    grid of at most ``MAX_GRID_CELLS``."""
    path = _file(cfg, key)
    r = _gap_free(read_raster(path), path, "resampling")
    side = max(r.extent_x, r.extent_y) / cell_size
    _bounded_cells(side, f"bad fine_cell_size {cell_size!r} for {path}")
    return resample_cubic(r, cell_size)


def _write(cfg: PipelineConfig, stage: str, **rasters: Raster) -> dict[str, str]:
    """Write each raster to its key's file; the paths that ``stage`` writes, by key."""
    os.makedirs(cfg.out, exist_ok=True)
    paths = _outputs(cfg, stage)
    for key, r in rasters.items():
        write_raster(r, paths[key])
    return paths


def _mask_for(cfg: PipelineConfig, grid: Raster):
    footprints = read_footprints(_file(cfg, "footprints"))
    return footprints, rasterize(footprints, grid)


def _spec(cls, cfg: PipelineConfig):
    """``cls`` built from the fields it shares with ``cfg``, ``extent`` as
    ``extent_m``; a rejected value is a config error."""
    values = {**vars(cfg), "extent_m": cfg.extent}
    try:
        return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- stages ------------------------------------------------------------------


def _synth_spec(cfg: PipelineConfig) -> synth.SyntheticCitySpec:
    """The scene ``cfg`` asks ``synth`` for, whose grid is at most
    ``MAX_GRID_CELLS``, with at most one building a cell, and whose
    elevations are at most ``MAX_ELEVATION`` in magnitude."""
    spec = _spec(synth.SyntheticCitySpec, cfg)
    _bounded_cells(
        spec.size_cells, f"bad extent {cfg.extent!r} and coarse_factor {cfg.coarse_factor!r}"
    )
    if cfg.n_buildings > spec.size_cells**2:
        raise ConfigError(
            f"bad n_buildings {cfg.n_buildings!r}: more than the {spec.size_cells**2} cells "
            f"of a {spec.size_cells} m scene"
        )
    if not spec.peak_elevation <= MAX_ELEVATION:
        raise ConfigError(
            f"bad terrain_slope {cfg.terrain_slope!r} and height_max {cfg.height_max!r}: "
            f"elevations up to {spec.peak_elevation:.3g} m on a {spec.size_cells} m scene, "
            f"beyond {MAX_ELEVATION:g} m"
        )
    return spec


def stage_synth(cfg: PipelineConfig) -> dict[str, str]:
    return synth.write_scene(synth.generate_city(_synth_spec(cfg)), _outputs(cfg, "synth"))


def stage_rasterize_points(cfg: PipelineConfig) -> dict[str, str]:
    """Grid the points on the fine grid of ``ndsm_resampled``, so that the
    reference and the prediction share their cells; points off it are dropped."""
    pc = read_points_csv(points := _file(cfg, "points"))
    (fine,) = _read(cfg, "ndsm_resampled")
    # The fine grid, for its geometry only, so its cells are freed before the
    # gridding.  The DSM and DEM keep their own sentinel: the coarse layer's
    # may be a real elevation.
    fine = _grid_of(fine, DEFAULT_NODATA)
    dem, dsm = grid_elevation(pc, fine)
    del pc  # the fill needs the grids alone
    if not dem.valid_mask.any():
        raise FormatError(
            f"{points}: no ground point on the grid of {_file(cfg, 'ndsm_resampled')}"
        )
    return _write(cfg, "rasterize-points", dsm=dsm, dem=fill_voids_nearest(dem))


def stage_ndsm(cfg: PipelineConfig) -> dict[str, str]:
    dsm, dem = _read(cfg, "dsm", "dem")
    return _write(cfg, "ndsm", ndsm_ref=height_above_ground(dsm, dem))


def stage_resample(cfg: PipelineConfig) -> dict[str, str]:
    fine = _resampled(cfg, "coarse_ndsm", cfg.positive("fine_cell_size"))
    return _write(cfg, "resample", ndsm_resampled=fine)


def _network_inputs(cfg: PipelineConfig, target: bool):
    """The fine grid, the network's input stack on it and the reference's
    normalization params.  The stack is ``tiler.padded``'s for the grid, each
    channel written into its cells: the normalized nDSM, population and
    footprint mask, and if ``target`` the normalized reference last.  A nodata
    cell is a FormatError, since the network would read the nodata value as
    data; the population, read after the fine rasters, is resampled to their
    grid and the mask rasterized onto it, so each channel is aligned before
    it is written, and dropped after.  The stack is returned read-only, so
    every tile is a read-only view of it."""
    rasters = _read(cfg, "ndsm_resampled", "ndsm_ref")
    ndsm = _gap_free(next(rasters), path := _file(cfg, "ndsm_resampled"), "the network")
    grid = _grid_of(ndsm)
    ndsm = minmax_normalize(ndsm)[0]
    stack = tiler.padded(grid, 3 + target)
    cells = stack[: grid.height, : grid.width]
    cells[..., 0] = ndsm.values
    del ndsm
    (ref,) = rasters  # the generator ends here and keeps no raster
    ref = _gap_free(ref, _file(cfg, "ndsm_ref"), "the network")
    params = minmax_params(ref)
    if target:
        cells[..., -1] = minmax_normalize(ref, params)[0].values
    del ref
    pop = _resampled(cfg, "population", grid.cell_size)
    _aligned(grid, pop, f"{path} and {_file(cfg, 'population')} resampled to "
             f"{grid.cell_size:g} m")
    cells[..., 1] = minmax_normalize(pop)[0].values
    del pop
    cells[..., 2] = _mask_for(cfg, grid)[1].source_ids > 0
    stack.flags.writeable = False
    return grid, stack, params


def _network_configs(cfg: PipelineConfig) -> tuple[network.ModelConfig, network.TrainConfig]:
    """The U-Net and training settings of ``cfg``."""
    return _spec(network.ModelConfig, cfg), _spec(network.TrainConfig, cfg)


def stage_train(cfg: PipelineConfig) -> dict[str, str]:
    model_cfg, train_cfg = _network_configs(cfg)
    grid, stack, _ = _network_inputs(cfg, target=True)
    # Each pair is a view of one window of the stack: its channels and target.
    dataset = [(stack[win][..., :-1], stack[win][..., -1]) for win in tiler.windows(grid)]
    weights = network.init_weights(model_cfg)
    trained, history = network.train(weights, dataset, train_cfg)
    outputs = _outputs(cfg, "train")
    network.write_weights(trained, outputs["weights"])
    network.write_loss_history(history, outputs["loss_history"])
    return outputs


PREDICTORS = tuple(STAGE_FILES["predict"][0])


def stage_predict(cfg: PipelineConfig) -> dict[str, str]:
    if cfg.one_of("predictor", PREDICTORS) == "baseline":
        (ndsm_fine,) = _read(cfg, "ndsm_resampled")
        _, mask = _mask_for(cfg, ndsm_fine)
        pred = ndsm_fine.with_values(np.where(
            mask.source_ids > 0, np.maximum(ndsm_fine.values, 0.0), np.float32(0.0)))
    else:
        grid, stack, target_params = _network_inputs(cfg, target=False)
        path = _file(cfg, "weights")
        weights = network.read_weights(path)
        if (cin := weights.config.in_channels) != (n := stack.shape[-1]):
            raise FormatError(f"{path}: {cin} input channels; the pipeline gives {n}")
        pred = network.predict_city(weights, grid, stack, target_params)
    return _write(cfg, "predict", predicted_heights=pred)


def stage_lod1(cfg: PipelineConfig) -> dict[str, str]:
    statistic = cfg.one_of("statistic", lod1_mod.STATISTICS)
    pred, ref = _read(cfg, "predicted_heights", "ndsm_ref")
    footprints, mask = _mask_for(cfg, pred)
    pred_buildings = lod1_mod.assign_heights(pred, mask, footprints, statistic)
    ref_buildings = lod1_mod.assign_heights(ref, mask, footprints, statistic)
    outputs = _outputs(cfg, "lod1")
    lod1_mod.write_lod1(pred_buildings, outputs["lod1_pred"], (ref_buildings, outputs["lod1_ref"]))
    return outputs


def _histogram_bins(cfg: PipelineConfig) -> tuple[dict[str, float], float]:
    """The height-histogram settings of ``cfg`` and their bin count; a rejected
    value is a config error."""
    bins = {"bin_width": cfg.positive("bin_width"),
            "height_cap": cfg.positive("height_cap", zero_ok=True)}
    nbins = ucp.bin_count(**bins)
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
    """The raster ``predicted_heights``, on whose grid every resolution of
    ``cfg`` and its ``nbins``-bin histograms fit."""
    (pred,) = _read(cfg, "predicted_heights")
    _check_resolutions(cfg, pred.cell_size, max(pred.width, pred.height), nbins)
    return pred


def _ucp_grids(cfg: PipelineConfig) -> list[ucp.UcpGrid]:
    """UCP grids of both LoD-1 sets, ``pred`` then ``ref``, resolution by resolution.

    ``stage_lod1`` writes both sets from one footprint file, so the ``ref``
    set takes the ``pred`` set's footprints, built once, and one mask,
    rasterized once, serves both; a pair whose footprints differ is rejected.
    """
    resolutions, directions = cfg.resolution_list(), cfg.direction_list()
    bins, nbins = _histogram_bins(cfg)
    paths = [_file(cfg, key) for key in ("lod1_pred", "lod1_ref")]
    pred = lod1_mod.read_lod1(paths[0])
    footprints = [b.footprint for b in pred]
    ref = lod1_mod.read_lod1(paths[1], footprints=footprints)
    tables = footprint_table(footprints), footprint_table([b.footprint for b in ref])
    if not all(map(np.array_equal, *tables)):
        raise FormatError(f"{paths[1]}: footprints differ from {paths[0]}")
    mask = rasterize(footprints, _checked_grid(cfg, nbins))
    return [
        ucp.aggregate_all(buildings, mask, resolution=resolution, directions=directions, **bins)
        for resolution in resolutions
        for buildings in (pred, ref)
    ]


def stage_ucp(cfg: PipelineConfig) -> dict[str, str]:
    grids = _ucp_grids(cfg)
    outputs = _outputs(cfg, "ucp")
    for grid, out_dir in zip(grids, outputs.values(), strict=True):
        ucp.export_rasters(grid, out_dir)
        ucp.export_csv(grid, os.path.join(out_dir, UCP_TABLE))
    return outputs


def stage_validate(cfg: PipelineConfig) -> dict[str, str]:
    """Compare the pred and ref grids that ``stage_ucp`` wrote, read back from
    their tables."""
    min_reference = cfg.positive("min_reference")  # a MAPE floor of 0 divides by 0
    grid = _checked_grid(cfg, _histogram_bins(cfg)[1])
    pairs = []  # every table is read and checked before any output is written
    for resolution in cfg.resolution_list():
        geom = ucp.raster_grid(grid, resolution)
        paths = [_file(cfg, key, resolution, UCP_TABLE) for key in STAGE_FILES["ucp"][1]]
        pred, ref = (ucp.read_csv(path, geom) for path in paths)
        if (pred.nbins, list(pred.lambda_f)) != (ref.nbins, list(ref.lambda_f)):
            raise FormatError(f"{paths[1]}: columns differ from {paths[0]}")
        pairs.append((pred, ref))
    outputs = _outputs(cfg, "validate")
    for (pred, ref), out_dir in zip(pairs, outputs.values(), strict=True):
        validation.export_comparison(pred, ref, out_dir, min_reference=min_reference)
    return outputs


def stage_report(cfg: PipelineConfig) -> dict[str, str]:
    """Read-only summary over previously produced outputs."""
    lines = ["pipeline report", "================", ""]
    lines.append(f"predictor: {cfg.predictor}")
    lines.append(f"seed: {cfg.seed}")
    lines.append("")
    for resolution in cfg.resolution_list():
        lines.append(f"resolution {resolution:g} m:")
        try:
            with open(_file(cfg, "validation_{res}m", resolution, validation.METRICS)) as f:
                lines += ["  " + line.rstrip() for line in f]
        except ConfigError:  # validate has not run at this resolution
            lines.append("  (no validation output)")
        lines.append("")
    outputs = _outputs(cfg, "report")
    os.makedirs(cfg.out, exist_ok=True)
    with open(outputs["report"], "w") as f:
        f.write("\n".join(lines) + "\n")
    return outputs


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

# ``run_all``'s stages in ``STAGES`` order; ``train`` joins them for the network.
RUN_ORDER = [name for name in STAGES if name != "train"]


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
    """Run the full pipeline in stage order; later stages read synth's inputs.

    It first calls ``reuse_freed_memory``, so each stage reuses the memory
    the one before it freed; the process keeps that policy after it returns."""
    reuse_freed_memory()
    outputs: dict[str, str] = {}
    stages = list(RUN_ORDER)
    # Reject bad run values before any stage runs; each stage checks its own again.
    for key in INPUTS:
        if getattr(cfg, key):
            raise ConfigError(f"config key '{key}' is set, but a run reads the {key} synth writes")
    _check_run_grids(cfg)
    cfg.direction_list(), cfg.positive("min_reference")
    cfg.one_of("statistic", lod1_mod.STATISTICS)
    if cfg.one_of("predictor", PREDICTORS) == "network":
        _network_configs(cfg)
        stages.insert(stages.index("predict"), "train")
    for name in stages:
        outputs.update(STAGES[name](cfg))
    return outputs
