"""Mini-CUDA runtime substrate (the original Altis host API)."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".": ("curand",),
    "api": ("CudaContext", "CudaEvent", "DevicePtr", "Dim3",
            "cudaMemcpyHostToDevice", "cudaMemcpyDeviceToHost",
            "cudaMemcpyDeviceToDevice"),
})
