"""Common exception base so callers can classify failures."""


class OrbitLabError(Exception):
    """Base class for numerical / model failures raised by this package."""
