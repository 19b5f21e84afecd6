"""Runtime/non-kernel overhead model (Figure 1's 'Non-Kernel' bars).

The paper decomposes FDTD2D's execution into kernel and non-kernel
regions and finds the migrated SYCL version pays substantially more
non-kernel time than CUDA on the RTX 2080 — profiling showed "extra
underlying CUDA APIs for context/event management" invoked by the
oneAPI plugin layer (§3.3, also observed in the Rodinia-DPCT study).

This module assigns per-runtime constants for the host-side costs:
kernel-launch overhead, per-event management, a fixed per-run cost and
transfer latency/bandwidth.  One-time device start-up (JIT, FPGA
bitstream programming) is not modeled: Altis times repeat runs, so it
falls outside every timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..common.errors import InvalidParameterError
from .spec import DeviceKind, DeviceSpec

__all__ = ["EVENTS_PER_LAUNCH", "RuntimeKind", "RuntimeOverheads",
           "overheads_for"]


#: event-management API calls per kernel launch (the start and stop
#: records that event timing needs); each costs ``event_s``
EVENTS_PER_LAUNCH = 2


class RuntimeKind:
    CUDA = "cuda"
    SYCL = "sycl"


@dataclass(frozen=True)
class RuntimeOverheads:
    """Host-side per-operation costs of one runtime on one device."""

    runtime: str
    launch_s: float          # per kernel launch
    event_s: float           # per event record/query
    transfer_latency_s: float
    transfer_bw: float       # bytes/s host<->device
    #: fixed per-run cost inside the timed region (context/event
    #: management on the oneAPI GPU plugin — Fig. 1's non-kernel gap —
    #: and thread-pool orchestration on the CPU back-end)
    per_run_s: float = 0.0

    def transfer_time_s(self, nbytes: float) -> float:
        return self.transfer_latency_s + nbytes / self.transfer_bw


#: (runtime, device-kind) -> constants.  SYCL's plugin layer on NVIDIA
#: GPUs triples the per-launch cost and adds event-management work; the
#: ratio is calibrated against Fig. 1 (CUDA 0.4 ms vs SYCL 2.7 ms of
#: non-kernel time at size 1, which includes ~dozens of launches).
_TABLE: dict[tuple[str, DeviceKind], dict] = {
    (RuntimeKind.CUDA, DeviceKind.GPU): dict(
        launch_s=4e-6, event_s=1e-6,
        transfer_latency_s=8e-6, transfer_bw=12e9,
        per_run_s=0.3e-3,
    ),
    (RuntimeKind.SYCL, DeviceKind.GPU): dict(
        launch_s=13e-6, event_s=6e-6,
        transfer_latency_s=12e-6, transfer_bw=11e9,
        per_run_s=1.6e-3,  # extra CUDA context/event APIs (§3.3, Fig. 1)
    ),
    (RuntimeKind.SYCL, DeviceKind.CPU): dict(
        launch_s=6e-6, event_s=2e-6,
        transfer_latency_s=1e-6, transfer_bw=40e9,
        per_run_s=20e-3,  # TBB arena spin-up + per-run JIT on the CPU BE
    ),
    (RuntimeKind.SYCL, DeviceKind.FPGA): dict(
        launch_s=90e-6, event_s=8e-6,
        transfer_latency_s=15e-6, transfer_bw=6.5e9,  # PCIe gen3 x8 boards
        per_run_s=1.0e-3,
    ),
}


@lru_cache(maxsize=64)
def overheads_for(runtime: str, spec: DeviceSpec) -> RuntimeOverheads:
    # Called once per figure cell; both argument types and the returned
    # dataclass are frozen, so the memoized instances are safely shared.
    key = (runtime, spec.kind)
    if key not in _TABLE:
        raise InvalidParameterError(
            f"no overhead model for runtime {runtime!r} on "
            f"{spec.kind.value} device {spec.key!r}")
    return RuntimeOverheads(runtime=runtime, **_TABLE[key])
