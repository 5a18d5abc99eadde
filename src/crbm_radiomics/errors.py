"""Exception types shared across the package."""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ManifestError(PipelineError):
    """Manifest file missing, malformed, or inconsistent."""


class RasterFormatError(PipelineError):
    """PGM file unreadable or outside the supported subset."""


class ShapeMismatchError(PipelineError):
    """Array dimensions incompatible with the requested operation."""


class ModelFormatError(PipelineError):
    """CRBM model file unreadable or not a saved model."""


class ConfigError(PipelineError):
    """Invalid configuration file or option value."""


class TrainingError(PipelineError):
    """Training aborted, e.g. non-finite parameters or empty data."""


class EnumerationGuardError(PipelineError):
    """Exact-enumeration oracle called on a model too large to enumerate."""
