"""Flat-roof (LoD-1) buildings: zonal height assignment and GeoJSON I/O."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .footprints import BuildingFootprint, FootprintMask, footprint_table
from .footprints import _float_value, _int_value, _read_features, _write_table
from .raster import Raster, require_aligned

STATISTICS = ("mean", "median")
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103  # the least magnitude float32 rounds to inf


@dataclass
class Lod1Building:
    footprint: BuildingFootprint
    height: float
    n_cells: int

    def __post_init__(self):
        if not (np.isfinite(self.height) and self.height >= 0):
            raise ValueError(f"building {self.footprint.id}: height {self.height} invalid")
        if self.n_cells < -1:  # -1: not known
            raise ValueError(f"building {self.footprint.id}: n_cells {self.n_cells} invalid")
        if self.n_cells == 0 and self.height != 0:
            raise ValueError(f"building {self.footprint.id}: height without cells")


def assign_heights(
    pred: Raster,
    mask: FootprintMask,
    footprints: list[BuildingFootprint],
    statistic: str = "mean",
) -> list[Lod1Building]:
    """One flat-roof height per footprint from its owned prediction cells.

    Ownership comes from the mask's ``source_ids`` (highest id wins on
    overlaps).  The zonal statistic is the mean by default; ``median`` is
    available as a flag.  Footprints owning no cells get height 0 and a
    warning.  Output is ordered by footprint id.
    """
    require_aligned(pred, mask.grid, "prediction and mask")
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic '{statistic}'")

    cells, owners, bounds = mask.owned_cells
    values = pred.values.ravel()[cells].astype(np.float64)
    counts = dict(zip(owners.tolist(), np.diff(bounds).tolist()))
    chunks = zip(counts, np.split(values, bounds[1:-1]))
    if statistic == "mean":  # the bits of chunk.mean(): its sum over its size
        by_id = {fid: float(np.add.reduce(chunk)) / chunk.size for fid, chunk in chunks}
    else:
        by_id = {fid: float(np.median(chunk)) for fid, chunk in chunks}

    buildings = []
    for f in sorted(footprints, key=lambda f: f.id):
        n = counts.get(f.id, 0)
        if n == 0:
            warnings.warn(f"footprint {f.id} owns no prediction cells", stacklevel=2)
            buildings.append(Lod1Building(footprint=f, height=0.0, n_cells=0))
        else:
            buildings.append(
                Lod1Building(footprint=f, height=max(0.0, by_id[f.id]), n_cells=n)
            )
    return buildings


def write_lod1(buildings: list[Lod1Building], path,
               *others: tuple[list[Lod1Building], str]) -> None:
    """GeoJSON FeatureCollection with a ``height_m`` property per feature.

    Heights are serialized with enough digits to round-trip 32-bit floats.
    Each ``(buildings, path)`` pair of ``others`` is written too; its
    buildings hold the footprints of ``buildings``, in order, whose geometry
    text is rendered once for every file.
    """
    footprints = [b.footprint for b in buildings]
    files = {}
    for group, group_path in ((buildings, path), *others):
        if len(group) != len(footprints) or any(
                b.footprint is not f for b, f in zip(group, footprints)):
            raise ValueError(f"{group_path}: footprints differ from those of {path}")
        files[group_path] = {
            "height_m": [float(f"{np.float32(b.height):.9g}") for b in group],
            "n_cells": [int(b.n_cells) for b in group],
        }
    _write_table(footprint_table(footprints), files)


def read_lod1(path, footprints: list[BuildingFootprint] | None = None) -> list[Lod1Building]:
    """The buildings of a ``write_lod1`` file, each height the float32 that
    its text holds, as ``write_lod1`` wrote it.  ``footprints`` read before
    (from a file of the same footprints) are shared when the file's vertex
    table has their bits; the file's own are then not built again."""

    def building(fp: BuildingFootprint, props: dict) -> Lod1Building:
        if "height_m" not in props:
            raise FormatError(f"{path}: feature {fp.id} missing 'height_m'")
        height = _float_value(props["height_m"])
        height = np.inf if abs(height) >= _FLOAT32_OVERFLOW else float(np.float32(height))
        return Lod1Building(footprint=fp, height=height,
                            n_cells=_int_value(props.get("n_cells", -1)))

    return _read_features(path, building, footprints)
