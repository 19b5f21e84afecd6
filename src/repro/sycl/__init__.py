"""A functional SYCL runtime model.

This package reproduces the SYCL 2020 surface the migrated Altis suite
uses — in-order queues with profiling events, ND-range execution with
work-group barriers and local memory, Single-Task kernels with Intel
FPGA pipes, and oneDPL's ``exclusive_scan`` — executing kernels
functionally on the host while advancing a modeled device clock.  Every
launch takes one path: ``Queue.parallel_for``/``single_task`` → the
executor, which validates and runs it.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".": ("onedpl",),
    "device": ("Device", "device"),
    "event": ("Event", "ProfilingInfo", "CommandKind"),
    "executor": ("ExecutionStats", "run_nd_range", "run_single_task",
                 "validate_launch", "execution_cache_info",
                 "clear_execution_caches"),
    "kernel": ("KernelSpec", "KernelKind", "KernelAttributes", "LoopSpec"),
    "ndrange": ("Range", "Id", "NdRange", "NdItem", "Group", "FenceSpace",
                "BarrierToken"),
    "pipes": ("Pipe", "PipeBlocked", "DataflowGraph"),
    "queue": ("Queue", "SpecTiming", "TimelineEntry", "LaunchCounters"),
    "local_memory": ("LocalAccessor", "group_local_memory_for_overwrite"),
})

# ``device`` is the one exported name that shadows a submodule: the first
# import of ``repro.sycl.device`` rebinds the package attribute to the
# module, so a lazy lookup after that would hand out the module instead
# of the factory.  Binding it eagerly keeps the factory.
from .device import device  # noqa: E402
