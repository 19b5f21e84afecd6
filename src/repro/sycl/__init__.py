"""A functional SYCL runtime model.

This package reproduces the SYCL 2020 surface the migrated Altis suite
uses — queues, buffers/accessors, profiling events, ND-range
execution with work-group barriers and local memory, Single-Task kernels
with Intel FPGA pipes, and the oneDPL algorithms — executing kernels
functionally on the host while advancing a modeled device clock.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".": ("onedpl",),
    "buffer": ("AccessMode", "Accessor", "Buffer", "LocalAccessor",
               "no_init"),
    "device": ("Aspect", "Device", "device", "select_device",
               "available_devices", "default_selector", "cpu_selector",
               "gpu_selector", "accelerator_selector", "fpga_selector"),
    "event": ("Event", "ProfilingInfo", "CommandKind"),
    "executor": ("ExecutionStats", "run_nd_range", "run_single_task",
                 "validate_launch", "execution_cache_info",
                 "clear_execution_caches"),
    "plan": ("LaunchPlan", "get_plan", "compile_plan", "plan_cache_info",
             "plan_pool_stats", "clear_plan_caches", "set_plan_cache_limit"),
    # the compiled (batched-numpy) tier
    "vectorize": ("CompiledKernel", "VectorizeFallback", "compile_batched",
                  "eligible_form", "prove_exact", "vectorize_enabled",
                  "vectorize_disabled",
                  "vectorize_cache_info", "clear_vectorize_caches"),
    "kernel": ("KernelSpec", "KernelKind", "KernelAttributes", "LoopSpec"),
    "ndrange": ("Range", "Id", "NdRange", "NdItem", "Group", "FenceSpace",
                "BarrierToken"),
    "pipes": ("Pipe", "PipeBlocked", "DataflowGraph"),
    "queue": ("Queue", "Handler", "SpecTiming", "TimelineEntry",
              "LaunchCounters"),
    "local_memory": ("group_local_memory_for_overwrite",),
})

# ``device`` is the one exported name that shadows a submodule: the first
# import of ``repro.sycl.device`` rebinds the package attribute to the
# module, so a lazy lookup after that would hand out the module instead
# of the factory.  Binding it eagerly keeps the factory.
from .device import device  # noqa: E402
