"""Shared test settings, the criterion-5 scene recipe and the tile oracle.

The ``ci`` hypothesis profile derandomizes the property tests, so a failure
in CI reproduces from its log: ``pytest --hypothesis-profile=ci``.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import urbanmorph
from urbanmorph import tiler
from urbanmorph.errors import ShapeError
from urbanmorph.pipeline import PipelineConfig

settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def criterion5():
    """The criterion-5 recipe as a config factory: 90-120 m footprints snapped
    to a 30 m coarse grid, heights 3-60 m, coarse noise 2 m and UCPs at
    300 m, with the building density of 150 buildings on 2 km at any extent
    (19 at 720 m)."""
    def config(out, extent=2000.0, seed=42, **overrides):
        return PipelineConfig(
            out=str(out), extent=extent, n_buildings=round(150 * (extent / 2000.0) ** 2),
            footprint_min=90.0, footprint_max=120.0, height_min=3.0, height_max=60.0,
            coarse_factor=30, noise_sigma=2.0, snap_to_coarse=True, seed=seed,
            resolutions="300", **overrides,
        )
    return config


def _stitch(grid, tiles):
    """The (n, size, size) ``tiles`` read back onto ``grid`` window by window
    of ``tiler.windows``, the padding dropped; a stack that does not cover
    the grid once is a ShapeError, so no comparison passes on a short one."""
    # A stack with no second axis, or of empty tiles, cannot match size 1.
    size = tiles.shape[1] if tiles.ndim > 1 and tiles.shape[1] else 1
    windows = tiler.windows(grid, size)
    expected = (len(windows), size, size)
    if tiles.shape != expected:
        raise ShapeError(f"tiles have shape {tiles.shape}, expected {expected}")
    out = np.empty((grid.height, grid.width), dtype=np.float32)
    for tile, window in zip(tiles, windows):
        cells = out[window]
        cells[...] = tile[: cells.shape[0], : cells.shape[1]]
    return grid.with_values(out)


@pytest.fixture(scope="session")
def stitch():
    """``stitch(grid, tiles)``, one channel's tiles in window order read back
    onto ``grid``: the inverse of cutting one channel of the ``tiler.padded``
    stack into its windows, and the oracle of the tiler's round trips and of
    ``network.predict_city``, which writes each tile's prediction into its
    window itself."""
    return _stitch


@pytest.fixture
def child_env():
    """``os.environ`` with the directory this ``urbanmorph`` was imported from
    first on ``PYTHONPATH``, for a child interpreter: the ``pythonpath``
    setting of pytest reaches only this process, so a child of a checkout
    that is not installed could not import the package."""
    src = str(Path(urbanmorph.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
