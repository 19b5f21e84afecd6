"""oneDPL's ``exclusive_scan``, as the migrated ``Where`` calls it.

DPCT migrates Thrust/CUB calls in Altis' ``Where`` to oneDPL.  The paper
found oneDPL's ``exclusive_scan`` to be **50% slower than CUDA's** on the
RTX 2080 (§3.3) and GPU-tuned (no FPGA specialization at the time,
§5.3), prompting a custom FPGA prefix-sum (Listing 2, ~100x faster on
Stratix 10 than running the GPU-tuned oneDPL version there).

Functionally the scan is a numpy cumulative sum; each call is described
by an :class:`AlgorithmCall` record so the performance model can apply
the library-implementation penalty appropriate for the target device.
SYCL events cannot time oneDPL calls (§3.2.1), so the queue records them
as host tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .event import CommandKind
from .queue import Queue

__all__ = ["AlgorithmCall", "exclusive_scan"]


@dataclass(frozen=True)
class AlgorithmCall:
    """Record of one oneDPL algorithm invocation (for the perf model)."""

    name: str
    n: int
    bytes_touched: int


def _record(queue: Queue | None, call: AlgorithmCall) -> None:
    if queue is None:
        return
    # oneDPL calls are timed host-side (std::chrono), not by SYCL events.
    spec = queue.device.spec
    eff_bw = spec.mem_bw * _library_efficiency(queue, call)
    dur = max(call.bytes_touched / eff_bw, 1e-7)
    queue._record(CommandKind.HOST_TASK, f"oneDPL::{call.name}", dur,
                  spec.kernel_launch_overhead_s, nbytes=call.bytes_touched)


def _library_efficiency(queue: Queue, call: AlgorithmCall) -> float:
    """Fraction of peak memory bandwidth the oneDPL implementation
    achieves on this device.

    GPU: 2/3 of what CUDA's CUB-based scan reaches (the paper's "50%
    slower" means time_oneDPL = 1.5 x time_CUB).  FPGA: the GPU-tuned
    work-group decomposition collapses on the FPGA's in-order pipelines —
    two orders of magnitude below the custom single-task scan (§5.3).
    """
    if queue.device.is_fpga:
        return 0.005
    if queue.device.is_gpu():
        return 0.55  # CUB reaches ~0.83 of peak; oneDPL = 0.83/1.5
    return 0.5


def exclusive_scan(data: np.ndarray, init=0, *, queue: Queue | None = None) -> np.ndarray:
    """``oneapi::dpl::exclusive_scan`` — out[i] = init + sum(data[:i])."""
    data = np.asarray(data)
    out = np.empty_like(data)
    np.cumsum(data[:-1], out=out[1:]) if data.size > 1 else None
    if data.size:
        out[0] = 0
    out = out + init
    _record(queue, AlgorithmCall("exclusive_scan", data.size, 2 * data.nbytes))
    return out
