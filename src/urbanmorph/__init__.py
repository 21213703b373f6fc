"""Building heights from coarse open data, and gridded urban canopy parameters.

The pipeline: grid labeled point clouds to 1-m elevation rasters, normalize
a coarse height layer by cubic resampling, rasterize building footprints,
tile the channels, regress per-cell heights (trainable encoder-decoder or a
deterministic baseline), flatten per-footprint heights to LoD-1 buildings,
aggregate urban canopy parameters on a coarse grid, and validate against a
reference with RMSE / MAPE.
"""

from .errors import UrbanMorphError
from .raster import (
    NormalizationParams,
    Raster,
    clamp_nonnegative,
    denormalize,
    downsample_average,
    minmax_normalize,
    read_raster,
    resample_cubic,
    write_raster,
)
from .footprints import (
    BuildingFootprint,
    FootprintMask,
    projected_width,
    rasterize,
    read_footprints,
    write_footprints,
)
from .pointcloud import (
    GlbpPoints,
    Label,
    PointCloud,
    fill_voids_nearest,
    grid_elevation,
    height_above_ground,
    read_points_csv,
)
from .network import (
    ModelConfig,
    TrainConfig,
    Weights,
    forward,
    init_weights,
    loss_and_gradient,
    predict_city,
    read_weights,
    train,
    write_weights,
)
from .lod1 import Lod1Building, assign_heights, read_lod1, write_lod1
from .ucp import UcpGrid, aggregate_all
from .validation import PairedSeries, mape, pair_grids, rmse
from .synth import SyntheticCitySpec, SynthScene, generate_city, write_scene

__version__ = "0.1.0"
