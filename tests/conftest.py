"""Shared test settings and the criterion-5 scene recipe.

The ``ci`` hypothesis profile derandomizes the property tests, so a failure
in CI reproduces from its log: ``pytest --hypothesis-profile=ci``.
"""

import pytest
from hypothesis import settings

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
