"""Shared primitives: RNGs, errors, and utilities."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".": ("errors", "rng", "utils"),
    "errors": ("ReproError", "SyclError", "MigrationError",
               "FpgaToolError", "FitError", "TimingViolationError",
               "InvalidParameterError", "FeatureNotSupportedError",
               "KernelLaunchError", "DeviceNotFoundError", "PipeError",
               "DataflowDeadlockError", "CalibrationError"),
    "rng": ("LcgPark",),
    "utils": ("geomean", "human_time"),
})
