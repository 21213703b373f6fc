"""Flat-roof (LoD-1) buildings: zonal height assignment and GeoJSON I/O."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .footprints import BuildingFootprint, FootprintMask
from .footprints import _footprint_to_feature, _read_features, _write_features
from .raster import Raster, require_aligned

STATISTICS = ("mean", "median")


@dataclass
class Lod1Building:
    footprint: BuildingFootprint
    height: float
    n_cells: int

    def __post_init__(self):
        if not (np.isfinite(self.height) and self.height >= 0):
            raise ValueError(f"building {self.footprint.id}: height {self.height} invalid")
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
    require_aligned(pred, mask.raster, "prediction and mask")
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic '{statistic}'")

    ids = mask.source_ids.ravel()
    owned = ids > 0

    by_id: dict[int, float] = {}
    counts: dict[int, int] = {}
    if owned.any():
        oid = ids[owned]
        oval = pred.values.ravel()[owned].astype(np.float64)
        order = np.argsort(oid, kind="stable")
        oid, oval = oid[order], oval[order]
        bounds = np.flatnonzero(np.diff(oid)) + 1
        for chunk_id, chunk in zip(
            oid[np.concatenate(([0], bounds))],
            np.split(oval, bounds),
        ):
            counts[int(chunk_id)] = chunk.size
            if statistic == "mean":
                by_id[int(chunk_id)] = float(chunk.mean())
            else:
                by_id[int(chunk_id)] = float(np.median(chunk))

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


def write_lod1(buildings: list[Lod1Building], path) -> None:
    """GeoJSON FeatureCollection with a ``height_m`` property per feature.

    Heights are serialized with enough digits to round-trip 32-bit floats.
    """
    _write_features(path, [
        _footprint_to_feature(
            b.footprint,
            {"height_m": float(f"{np.float32(b.height):.9g}"), "n_cells": b.n_cells},
        )
        for b in buildings
    ])


def read_lod1(path) -> list[Lod1Building]:
    def building(fp: BuildingFootprint, props: dict) -> Lod1Building:
        if "height_m" not in props:
            raise FormatError(f"{path}: feature {fp.id} missing 'height_m'")
        return Lod1Building(
            footprint=fp,
            height=float(props["height_m"]),
            n_cells=int(props.get("n_cells", -1)),
        )

    return _read_features(path, building)
