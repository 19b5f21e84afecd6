"""Shared primitives: vector types, RNGs, errors, and utilities."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".": ("errors", "rng", "utils", "vectypes"),
    "errors": ("ReproError", "SyclError", "MigrationError",
               "FpgaToolError", "FitError", "TimingViolationError",
               "InvalidParameterError", "FeatureNotSupportedError",
               "KernelLaunchError", "DeviceNotFoundError", "PipeError",
               "DataflowDeadlockError", "CalibrationError"),
    "rng": ("LcgPark",),
    "vectypes": ("Vec", "float2", "float3", "float4", "float8",
                 "as_vec_array", "vec_dot", "vec_length", "vec_normalize",
                 "vec_cross"),
    "utils": ("geomean", "human_time"),
})
