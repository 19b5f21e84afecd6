"""Kernel work profiles — the contract between apps and device models.

A :class:`KernelProfile` states how much work one kernel launch performs
(floating-point operations, DRAM traffic, local-memory accesses,
work-item count and per-item loop trips) together with the kernel
characteristics that determine achievable efficiency (branch divergence,
special-function use, FP64).  Applications derive profiles from the same
problem dimensions their functional kernels execute, so the analytical
layer and the functional layer cannot drift apart silently.

Profiles compose: a launch sequence is a list of (profile, invocations).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..common.errors import CalibrationError

__all__ = ["KernelProfile", "LaunchPlan"]


@dataclass(frozen=True)
class KernelProfile:
    """Work and character of a single kernel launch.

    Attributes
    ----------
    flops:
        Total floating-point operations (FMA counts as 2).
    global_bytes:
        DRAM bytes moved (reads + writes), after ideal caching of
        work-group-local reuse.
    local_accesses:
        Shared/local-memory accesses (drives FPGA congestion and the
        paper's §5.2 shared-memory cases).
    work_items:
        Total work-items of the launch (1 for single-task).
    iters_per_item:
        Average per-item innermost trip count (pipeline depth driver).
    branch_divergence:
        Fraction of SIMD lanes wasted to divergent control flow (0..1);
        high for ParticleFilter, which is why §5.3 rewrites it
        single-task.
    special_ops:
        Transcendental/``pow``/``exp``/``sqrt`` operations (slower units).
    compute_efficiency:
        Fraction of device peak the kernel's instruction mix can reach
        with *no* divergence; scaled down by divergence.
    """

    name: str
    flops: float
    global_bytes: float
    work_items: int = 1
    local_accesses: float = 0.0
    iters_per_item: float = 1.0
    branch_divergence: float = 0.0
    special_ops: float = 0.0
    fp64: bool = False
    compute_efficiency: float = 0.35
    #: CPU-back-end-specific efficiency override (SYCL's CPU back-end
    #: vectorizes gather/argmin-style kernels far below nominal peak);
    #: ``None`` -> use ``compute_efficiency``
    cpu_efficiency: float | None = None
    #: CPU-back-end memory-bandwidth efficiency override for kernels with
    #: strided/multi-pass access that defeats the cache hierarchy
    cpu_bw_efficiency: float | None = None

    def __post_init__(self) -> None:
        if self.flops < 0 or self.global_bytes < 0 or self.local_accesses < 0:
            raise CalibrationError(f"{self.name}: negative work counts")
        if not 0.0 <= self.branch_divergence <= 1.0:
            raise CalibrationError(f"{self.name}: divergence must be in [0,1]")
        if not 0.0 < self.compute_efficiency <= 1.0:
            raise CalibrationError(f"{self.name}: efficiency must be in (0,1]")
        if self.work_items < 1:
            raise CalibrationError(f"{self.name}: work_items must be >= 1")

    def scaled(self, factor: float, name: str | None = None) -> "KernelProfile":
        """Uniformly scale the work (e.g. per-iteration -> per-run)."""
        return replace(
            self,
            name=name or self.name,
            flops=self.flops * factor,
            global_bytes=self.global_bytes * factor,
            local_accesses=self.local_accesses * factor,
            work_items=max(1, int(self.work_items * factor)),
            special_ops=self.special_ops * factor,
        )

    def with_(self, **kwargs) -> "KernelProfile":
        return replace(self, **kwargs)


@dataclass
class LaunchPlan:
    """A sequence of kernel launches making up one timed application run.

    ``invocations`` multiplies both kernel time and per-launch overhead —
    the distinction that makes the KMeans pipe optimization matter
    (baseline: 4 kernels x N iterations of launches; optimized: 2
    kernels launched once).
    """

    entries: list[tuple[KernelProfile, int]] = field(default_factory=list)
    #: host<->device traffic of the whole run, bytes
    transfer_bytes: float = 0.0

    def add(self, profile: KernelProfile, invocations: int = 1) -> "LaunchPlan":
        if invocations < 0:
            raise CalibrationError("invocations must be non-negative")
        self.entries.append((profile, invocations))
        return self

    def total_invocations(self) -> int:
        return sum(n for _, n in self.entries)

    def total_flops(self) -> float:
        return sum(p.flops * n for p, n in self.entries)

    def total_bytes(self) -> float:
        return sum(p.global_bytes * n for p, n in self.entries)
