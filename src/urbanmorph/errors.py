"""Exception hierarchy shared across the package."""


class UrbanMorphError(Exception):
    """Base class for all package errors."""


class AlignmentError(UrbanMorphError):
    """Rasters or grids do not share dimensions / georeference."""


class ShapeError(UrbanMorphError):
    """Array dimensions incompatible with the requested operation."""


class VoidError(UrbanMorphError):
    """Nodata encountered where a gap-free raster is required."""


class EmptyStatisticsError(UrbanMorphError):
    """A statistic was requested over zero valid cells."""


class FormatError(UrbanMorphError):
    """Malformed file content (a wrong magic, truncation, missing fields)."""


class GeometryError(UrbanMorphError):
    """Degenerate or invalid polygon geometry."""


class InputError(UrbanMorphError):
    """Non-finite or otherwise unusable numeric input."""


class DivergenceError(UrbanMorphError):
    """Training loss or weights became non-finite."""


class PackingError(UrbanMorphError):
    """Synthetic scene generator could not place the requested buildings."""


class EmptySeriesError(UrbanMorphError):
    """Validation metric requested on an empty paired series."""


class ConfigError(UrbanMorphError):
    """Bad or missing pipeline configuration value."""
