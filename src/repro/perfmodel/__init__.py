"""Analytical performance models: device specs (Table 2), kernel work
profiles, GPU/CPU roofline models, the FPGA pipeline model, runtime
overheads, and implementation-variant traits."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "fpga": ("FpgaKernelTiming", "FpgaModel"),
    "gpu": ("CpuModel", "GpuModel"),
    "overhead": ("RuntimeKind", "RuntimeOverheads", "overheads_for"),
    "profile": ("KernelProfile", "LaunchPlan"),
    "spec": ("DEVICE_SPECS", "DeviceKind", "DeviceSpec", "FpgaResources",
             "fpga_peak_fp32_tflops", "get_spec"),
    "timeline": ("RunDecomposition", "model_for", "time_launch_plan"),
    "traits": ("TRAITS", "ImplVariant", "Trait"),
})
