"""GPU (and CPU) kernel-time models: roofline with character penalties.

The model follows the classic roofline: a kernel is limited either by
compute throughput or by memory bandwidth::

    t_kernel = max( flops / (peak * eff_compute),
                    bytes / (bw   * eff_memory),
                    t_floor )

with efficiencies derived from the kernel's character:

* divergence wastes SIMD lanes multiplicatively;
* special-function ops run on the SFU/slow path at a fixed flop-rate
  discount;
* tiny launches cannot fill the device — a latency floor (plus an
  occupancy ramp for launches smaller than the device's thread
  capacity).

The CPU model is the same shape with a lower parallel ceiling — a
6-core Xeon running a SYCL CPU back-end reaches a modest fraction of
nominal peak on these irregular kernels.
"""

from __future__ import annotations

from ..perfmodel.profile import KernelProfile
from .spec import DeviceKind, DeviceSpec

__all__ = ["GpuModel", "CpuModel"]

#: flop-rate discount applied to special-function operations
_SPECIAL_OP_COST = 4.0
#: the minimum time any kernel occupies the device
_GPU_KERNEL_FLOOR_S = 2e-6
#: parallel-region fork/join + enqueue cost of the SYCL CPU back-end
_CPU_KERNEL_FLOOR_S = 120e-6


class GpuModel:
    """Roofline timing for one GPU device."""

    #: threads needed to saturate one SM / Xe-core
    THREADS_PER_CU = 1024
    #: memory-system efficiency for streaming access
    MEM_EFF = 0.80

    def __init__(self, spec: DeviceSpec):
        if spec.kind is DeviceKind.FPGA:
            raise ValueError("use FpgaModel for FPGA devices")
        self.spec = spec

    # -- components --------------------------------------------------------
    def occupancy(self, work_items: int) -> float:
        """Fraction of the device a launch can fill."""
        capacity = self.spec.compute_units * self.THREADS_PER_CU
        return min(1.0, work_items / capacity)

    def compute_efficiency(self, p: KernelProfile) -> float:
        eff = p.compute_efficiency
        eff *= 1.0 - 0.85 * p.branch_divergence
        return max(eff, 0.005)

    def effective_flops(self, p: KernelProfile) -> float:
        """FLOP count with special ops weighted by their slow-path cost."""
        return p.flops + p.special_ops * (_SPECIAL_OP_COST - 1.0)

    # -- timing -------------------------------------------------------------
    def kernel_time_s(self, p: KernelProfile) -> float:
        peak = self.spec.peak_flops(p.fp64)
        occ = self.occupancy(p.work_items)
        eff = self.compute_efficiency(p) * max(occ, 0.02)
        t_compute = self.effective_flops(p) / (peak * eff)
        t_memory = p.global_bytes / (self.spec.mem_bw * self.MEM_EFF * max(occ, 0.1))
        return max(t_compute, t_memory, _GPU_KERNEL_FLOOR_S)


class CpuModel(GpuModel):
    """Xeon CPU under the SYCL CPU back-end.

    Differences from the GPU shape: far fewer hardware threads, a
    higher achievable fraction of bandwidth (caches), and a lower
    achievable fraction of peak FLOP/s on branchy SIMT-style kernels
    (vectorization is imperfect).
    """

    THREADS_PER_CU = 2  # SMT-2 cores
    MEM_EFF = 0.70
    #: SIMT kernels reach a limited share of nominal AVX-512 peak
    CPU_PEAK_SHARE = 0.45

    def occupancy(self, work_items: int) -> float:
        capacity = self.spec.compute_units * self.THREADS_PER_CU
        # a CPU saturates with very few work-items
        return min(1.0, work_items / max(capacity, 1))

    def compute_efficiency(self, p: KernelProfile) -> float:
        base = p.cpu_efficiency if p.cpu_efficiency is not None else p.compute_efficiency
        eff = base * self.CPU_PEAK_SHARE
        # divergence hurts less than on GPUs (scalar fallback exists)
        eff *= 1.0 - 0.5 * p.branch_divergence
        return max(eff, 0.002)

    def kernel_time_s(self, p: KernelProfile) -> float:
        peak = self.spec.peak_flops(p.fp64)
        eff = self.compute_efficiency(p)
        t_compute = self.effective_flops(p) / (peak * eff)
        bw_eff = p.cpu_bw_efficiency if p.cpu_bw_efficiency is not None else self.MEM_EFF
        t_memory = p.global_bytes / (self.spec.mem_bw * bw_eff)
        return max(t_compute, t_memory, _CPU_KERNEL_FLOOR_S)
