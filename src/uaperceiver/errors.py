"""Exception hierarchy shared across the package."""


class UAPError(Exception):
    """Base class for all package errors."""

    category = "error"


class DimensionError(UAPError):
    """Shapes or extents do not line up."""

    category = "dimension"


class NumericError(UAPError):
    """A NaN/Inf appeared, or a numeric precondition was violated."""

    category = "numeric"


class UsageError(UAPError):
    """An API was called outside its documented contract."""

    category = "usage"


class RangeError(UAPError):
    """A scalar argument fell outside its admissible interval."""

    category = "range"


class ConfigError(UAPError):
    """A run configuration could not be parsed or validated."""

    category = "config"


class FormatError(UAPError):
    """An on-disk artifact does not match its binary format."""

    category = "format"


class CompatibilityError(UAPError):
    """Checkpoint and configuration disagree."""

    category = "compatibility"


class WorkerError(UAPError):
    """A worker process ended without sending its result."""

    category = "worker"
