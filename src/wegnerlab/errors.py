"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Two sites with different particle count or dimension were combined."""


class DistributionError(ValueError):
    """A single-site distribution failed validation."""


class CapacityError(ValueError):
    """A dense operation was requested above the supported matrix size."""
