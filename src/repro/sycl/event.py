"""SYCL events with profiling info.

The paper's §3.2.1 discusses a recurring DPCT issue: CUDA-event timing is
migrated to ``std::chrono`` host timing, which also captures invocation
overhead; the authors convert those back to SYCL events where possible.
This module models both clocks:

* :meth:`Event.get_profiling_info` — device-side timestamps
  (``command_start`` / ``command_end``), i.e. *kernel time only*;
* the queue records a host-side timeline in parallel, so the harness can
  also report the chrono-style measurement including overheads
  (see :mod:`repro.perfmodel.timeline`).

Timestamps are in nanoseconds of *modeled* device time, produced by the
performance model — not Python wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..common.errors import InvalidParameterError

__all__ = ["ProfilingInfo", "CommandKind", "Event"]


class CommandKind(str, Enum):
    KERNEL = "kernel"
    HOST_TASK = "host_task"


class ProfilingInfo(str, Enum):
    COMMAND_SUBMIT = "command_submit"
    COMMAND_START = "command_start"
    COMMAND_END = "command_end"


@dataclass
class Event:
    """Completion handle for one submitted command.

    ``submit_ns``/``start_ns``/``end_ns`` are modeled-device timestamps
    assigned by the queue at submission; in this in-order functional
    runtime every event is complete by the time user code can observe it.
    """

    kind: CommandKind
    name: str = ""
    submit_ns: int = 0
    start_ns: int = 0
    end_ns: int = 0
    profiling_enabled: bool = True
    #: bytes touched, for host tasks (oneDPL calls)
    bytes: int = 0

    def get_profiling_info(self, what: ProfilingInfo) -> int:
        if not self.profiling_enabled:
            raise InvalidParameterError(
                "queue was not created with property::queue::enable_profiling "
                "(the DPCT helper headers could not enable this - paper §3.2.2)"
            )
        if what is ProfilingInfo.COMMAND_SUBMIT:
            return self.submit_ns
        if what is ProfilingInfo.COMMAND_START:
            return self.start_ns
        if what is ProfilingInfo.COMMAND_END:
            return self.end_ns
        raise InvalidParameterError(f"unknown profiling query {what!r}")

    @property
    def duration_ns(self) -> int:
        """Device-time duration (the SYCL-event measurement style)."""
        return self.end_ns - self.start_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns * 1e-9

    def __repr__(self) -> str:
        return (
            f"Event({self.kind.value}, name={self.name!r}, "
            f"dur={self.duration_ns} ns)"
        )
