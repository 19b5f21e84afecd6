"""SYCL queues: command submission, modeled timing, and the handler API.

The queue executes commands **functionally** (on the host, via the
executor) and, in parallel, advances a **modeled device clock** using a
pluggable timing model.  Events carry the modeled timestamps, so
``event.get_profiling_info(command_start/command_end)`` reports device
kernel time exactly as SYCL-event profiling does on real hardware, while
the queue's host timeline also captures launch overheads and data
transfers (the ``std::chrono`` view DPCT generates — paper §3.2.1).

Timing models implement two methods::

    kernel_duration_s(kernel, nd_range, profile) -> float
    transfer_duration_s(nbytes, kind) -> float

The default :class:`SpecTiming` provides spec-derived estimates; the
harness installs the full per-application models from
:mod:`repro.perfmodel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..common.errors import InvalidParameterError, KernelLaunchError
from ..trace.metrics import registry as _trace_metrics
from ..trace.spans import current_tracer
from .buffer import Accessor, Buffer, LocalAccessor
from .device import Aspect, Device, device as get_device
from .event import CommandKind, Event
from .executor import ExecutionStats, run_nd_range, run_single_task
from .kernel import KernelKind, KernelSpec
from .ndrange import NdRange, Range

__all__ = ["Queue", "Handler", "SpecTiming", "TimelineEntry", "LaunchCounters"]

#: Modeled host-to-device interconnect (PCIe 3.0 x16 effective).
_PCIE_BW = 12e9
_PCIE_LATENCY_S = 10e-6


class SpecTiming:
    """Default timing model derived from the device spec only.

    Used when no per-application performance model is installed; gives
    order-of-magnitude kernel times from a work-item count heuristic.
    Real figures come from :mod:`repro.perfmodel` models installed by the
    harness.
    """

    def __init__(self, dev: Device):
        self.device = dev

    def kernel_duration_s(self, kernel: KernelSpec, nd_range: NdRange | None,
                          profile) -> float:
        spec = self.device.spec
        if profile is not None:
            # roofline on the declared profile
            compute = profile.flops / spec.peak_flops(profile.fp64)
            memory = profile.global_bytes / spec.mem_bw
            return max(compute, memory, 1e-7)
        items = nd_range.total_items() if nd_range is not None else 1
        # ~16 flops/item at 10% of peak as a placeholder estimate
        return max(items * 16.0 / (spec.peak_flops() * 0.1), 1e-7)

    def transfer_duration_s(self, nbytes: int, kind: CommandKind) -> float:
        return _PCIE_LATENCY_S + nbytes / _PCIE_BW


@dataclass
class LaunchCounters:
    """Aggregate per-launch counters a queue accumulates across its lifetime.

    These make executor/harness speedups measurable rather than asserted:
    ``path_counts`` records which execution path (vector / item /
    compiled / single_task) served each kernel launch, and ``gen_advances`` counts
    the generator resumptions the barrier-phase engine performed.
    Reset together with the timeline by :meth:`Queue.reset_timeline`.
    """

    kernel_launches: int = 0
    single_task_launches: int = 0
    memcpy_ops: int = 0
    h2d_bytes: int = 0
    items: int = 0
    groups: int = 0
    barrier_phases: int = 0
    gen_advances: int = 0
    path_counts: dict = field(default_factory=dict)

    def note_launch(self, stats: ExecutionStats) -> None:
        if stats.path == "single_task":
            self.single_task_launches += 1
        else:
            self.kernel_launches += 1
        self.items += stats.items
        self.groups += stats.groups
        self.barrier_phases += stats.barrier_phases
        self.gen_advances += stats.gen_advances
        if stats.path:
            self.path_counts[stats.path] = self.path_counts.get(stats.path, 0) + 1

    def note_memcpy(self, nbytes: int) -> None:
        self.memcpy_ops += 1
        self.h2d_bytes += nbytes


@dataclass
class TimelineEntry:
    """One host-timeline record: what ran and both clock views."""

    event: Event
    overhead_s: float  # host-side launch/runtime overhead (non-kernel)
    stats: ExecutionStats | None = None

    @property
    def device_s(self) -> float:
        return self.event.duration_s

    @property
    def total_s(self) -> float:
        return self.event.duration_s + self.overhead_s


class Handler:
    """The command-group handler passed to ``queue.submit`` lambdas."""

    def __init__(self, queue: "Queue"):
        self.queue = queue
        self._accessors: list[Accessor] = []
        self._locals: list[LocalAccessor] = []
        self._command: tuple | None = None

    def _register_accessor(self, acc: Accessor) -> None:
        self._accessors.append(acc)

    def _register_local(self, acc: LocalAccessor) -> None:
        self._locals.append(acc)

    def require(self, buf: Buffer, mode, *props) -> Accessor:
        """Convenience: create and register an accessor."""
        return Accessor(buf, self, mode, *props)

    def parallel_for(self, nd_range: NdRange, kernel: KernelSpec, *args,
                     profile=None, force_item: bool = False,
                     mode: str | None = None) -> None:
        if self._command is not None:
            raise InvalidParameterError("one command per command group")
        if kernel.is_single_task:
            raise KernelLaunchError(f"{kernel.name!r} is a single-task kernel")
        self._command = ("nd_range", kernel, nd_range, args, profile, force_item,
                         mode)

    def single_task(self, kernel: KernelSpec, *args, profile=None) -> None:
        if self._command is not None:
            raise InvalidParameterError("one command per command group")
        if not kernel.is_single_task:
            raise KernelLaunchError(f"{kernel.name!r} is an nd-range kernel")
        self._command = ("single_task", kernel, None, args, profile, False, None)

    def memcpy(self, dst, src, nbytes: int | None = None) -> None:
        if self._command is not None:
            raise InvalidParameterError("one command per command group")
        self._command = ("memcpy", dst, src, nbytes)


class Queue:
    """An in-order SYCL queue bound to one device.

    Parameters
    ----------
    dev:
        A :class:`Device` or a Table 2 catalogue key.
    enable_profiling:
        Models ``property::queue::enable_profiling``; without it, event
        profiling queries raise (the DPCT-helper limitation in §3.2.2).
    timing:
        Timing model; defaults to :class:`SpecTiming`.
    default_mode:
        Execution path applied to every launch whose kernel implements
        it (``"vector"``/``"item"``); kernels without that
        form keep the automatic selection.  This is how the differential
        tests pin one kernel form across a whole ``run_sycl`` pipeline.
        ``"compiled"`` pins the batched-numpy tier
        (:mod:`repro.sycl.vectorize`) for every nd-range kernel with an
        interpreter form; ineligible kernels fall back to that reference
        form with a recorded ``vectorize.fallback``.
    """

    def __init__(self, dev: Device | str | None = None, *,
                 enable_profiling: bool = True, timing=None,
                 default_mode: str | None = None):
        if dev is None:
            from .device import select_device

            dev = select_device()
        elif isinstance(dev, str):
            dev = get_device(dev)
        self.device = dev
        self.profiling = enable_profiling
        if self.profiling:
            dev.require(Aspect.QUEUE_PROFILING)
        self.timing = timing or SpecTiming(dev)
        if default_mode in ("auto", ""):
            default_mode = None
        if default_mode is not None and default_mode not in (
                "vector", "item", "compiled"):
            raise InvalidParameterError(
                f"unknown default_mode {default_mode!r}; "
                "expected vector/item/compiled/auto")
        self.default_mode = default_mode
        #: modeled device clock, nanoseconds
        self.now_ns: int = 0
        self.timeline: list[TimelineEntry] = []
        #: lifetime launch/transfer counters (reset with the timeline)
        self.counters = LaunchCounters()

    # -- internal clock helpers ------------------------------------------
    def _advance(self, seconds: float) -> tuple[int, int]:
        start = self.now_ns
        self.now_ns = start + max(0, int(round(seconds * 1e9)))
        return start, self.now_ns

    def _record(self, kind: CommandKind, name: str, device_s: float,
                overhead_s: float, nbytes: int = 0,
                stats: ExecutionStats | None = None) -> Event:
        submit = self.now_ns
        self._advance(overhead_s)
        start, end = self._advance(device_s)
        ev = Event(
            kind=kind,
            name=name,
            submit_ns=submit,
            start_ns=start,
            end_ns=end,
            profiling_enabled=self.profiling,
            bytes=nbytes,
        )
        self.timeline.append(TimelineEntry(event=ev, overhead_s=overhead_s, stats=stats))
        tracer = current_tracer()
        if tracer is not None:
            # modeled device clock, side by side with the wall spans:
            # ts/dur come from the queue's nanosecond timeline, on a
            # dedicated tid so the clock domains never nest.
            tracer.complete(
                name, "modeled", submit / 1e3, (end - submit) / 1e3,
                tid=f"modeled:{self.device.spec.key}",
                kind=kind.value if hasattr(kind, "value") else str(kind),
                device_us=(end - start) / 1e3,
                overhead_us=(start - submit) / 1e3,
                bytes=nbytes,
            )
        return ev

    # -- submission API ----------------------------------------------------
    def submit(self, cgf: Callable[[Handler], None]) -> Event:
        """``queue.submit([&](handler& h){...})``.

        Launches route through the plan cache (:mod:`repro.sycl.plan`):
        the first submission of a launch shape compiles a
        :class:`~repro.sycl.plan.LaunchPlan`, repeated submissions hit
        it warm —

        >>> import numpy as np
        >>> from repro.sycl import (KernelSpec, NdRange, Queue, Range,
        ...                         clear_plan_caches, plan_cache_info)
        >>> halve = KernelSpec(name="halve",
        ...                    vector_fn=lambda nd, a: np.divide(
        ...                        a, 2, out=a))
        >>> q = Queue("rtx2080")
        >>> clear_plan_caches()
        >>> a = np.full(8, 32.0)
        >>> for _ in range(3):
        ...     _ = q.submit(lambda h: h.parallel_for(
        ...         NdRange(Range(8), Range(4)), halve, a))
        >>> info = plan_cache_info()
        >>> (info["compiles"], info["hits"])
        (1, 2)
        >>> float(a[0])
        4.0
        """
        h = Handler(self)
        cgf(h)
        if h._command is None:
            raise InvalidParameterError("command group submitted no command")
        tag = h._command[0]
        if tag == "memcpy":
            _, dst, src, nbytes = h._command
            return self._do_memcpy(dst, src, nbytes)
        _, kernel, nd_range, args, profile, force_item, mode = h._command
        return self._launch(kernel, nd_range, args, profile, h, force_item,
                            mode=mode)

    def parallel_for(self, nd_range: NdRange | Range | tuple, kernel: KernelSpec,
                     *args, profile=None, force_item: bool = False,
                     mode: str | None = None) -> Event:
        """Shortcut submission without an explicit command group."""
        if not isinstance(nd_range, NdRange):
            rng = nd_range if isinstance(nd_range, Range) else Range(nd_range)
            # SYCL's basic parallel_for: runtime picks the work-group size.
            local = tuple(min(d, 64) if i == rng.ndim - 1 else 1
                          for i, d in enumerate(rng.dims))
            # ensure divisibility
            local = tuple(_largest_divisor(d, l) for d, l in zip(rng.dims, local))
            nd_range = NdRange(rng, Range(local))
        return self._launch(kernel, nd_range, args, profile, None, force_item,
                            mode=mode)

    def single_task(self, kernel: KernelSpec, *args, profile=None) -> Event:
        return self._launch(kernel, None, args, profile, None, False)

    def memcpy(self, dst, src, nbytes: int | None = None) -> Event:
        return self._do_memcpy(dst, src, nbytes)

    def wait(self) -> None:
        """In-order functional queue: everything already completed."""
        return None

    def wait_and_throw(self) -> None:
        return None

    # -- implementation ------------------------------------------------------
    def _buffer_transfers(self, args: tuple, handler: Handler | None) -> int:
        """Model implicit H2D transfers for accessor-covered buffers."""
        moved = 0
        seen: set[int] = set()
        accessors = list(handler._accessors) if handler is not None else []
        accessors += [a for a in args if isinstance(a, Accessor)]
        for acc in accessors:
            if id(acc.buffer) in seen:
                continue
            seen.add(id(acc.buffer))
            moved += acc.buffer._touch_device(acc.writable, discard=acc.noinit)
        return moved

    def _resolve_mode(self, kernel: KernelSpec, mode: str | None) -> str | None:
        """Apply the queue's ``default_mode`` when the launch does not
        pin one and the kernel implements that form."""
        if mode is not None or self.default_mode is None:
            return mode
        if kernel.kind != KernelKind.ND_RANGE:
            return None
        if self.default_mode == "compiled":
            # the compiled tier wraps the item_fn (static fallback
            # handles ineligible kernels)
            return "compiled" if kernel.item_fn is not None else None
        if getattr(kernel, f"{self.default_mode}_fn") is not None:
            return self.default_mode
        return None

    def _launch(self, kernel: KernelSpec, nd_range: NdRange | None, args: tuple,
                profile, handler: Handler | None, force_item: bool,
                mode: str | None = None) -> Event:
        mode = self._resolve_mode(kernel, mode)
        tracer = current_tracer()
        if tracer is None:
            return self._launch_inner(kernel, nd_range, args, profile, handler,
                                      force_item, mode)
        with tracer.span(f"launch:{kernel.name}", "launch",
                         kernel=kernel.name, device=self.device.spec.name,
                         device_key=self.device.spec.key) as sp:
            event = self._launch_inner(kernel, nd_range, args, profile,
                                       handler, force_item, mode)
            entry = self.timeline[-1]
            sp.args.update(
                path=entry.stats.path if entry.stats else "?",
                items=entry.stats.items if entry.stats else 0,
                groups=entry.stats.groups if entry.stats else 0,
                barrier_phases=entry.stats.barrier_phases if entry.stats else 0,
                modeled_device_us=entry.device_s * 1e6,
                modeled_overhead_us=entry.overhead_s * 1e6,
            )
            if profile is not None:
                # KernelProfile work counters, for roofline placement
                sp.args.update(flops=profile.flops,
                               global_bytes=profile.global_bytes,
                               fp64=profile.fp64)
        _trace_metrics.histogram("queue.launch_wall_us").observe(
            tracer.now_us() - sp.start_us)
        return event

    def _launch_inner(self, kernel: KernelSpec, nd_range: NdRange | None,
                      args: tuple, profile, handler: Handler | None,
                      force_item: bool, mode: str | None) -> Event:
        h2d = self._buffer_transfers(args, handler)
        if h2d:
            self.counters.note_memcpy(h2d)
            self._record(
                CommandKind.MEMCPY_H2D,
                f"{kernel.name}:h2d",
                self.timing.transfer_duration_s(h2d, CommandKind.MEMCPY_H2D),
                0.0,
                nbytes=h2d,
            )
        if kernel.kind == KernelKind.ND_RANGE:
            if nd_range is None:
                raise KernelLaunchError("nd-range kernel launched without a range")
            stats = run_nd_range(
                kernel, nd_range, args, force_item=force_item,
                device_max_wg=self.device.get_info("max_work_group_size"),
                mode=mode,
            )
        else:
            stats = run_single_task(kernel, args)
        self.counters.note_launch(stats)
        device_s = self.timing.kernel_duration_s(kernel, nd_range, profile)
        overhead_s = self._launch_overhead_s(kernel)
        return self._record(CommandKind.KERNEL, kernel.name, device_s, overhead_s,
                            stats=stats)

    def _launch_overhead_s(self, kernel: KernelSpec) -> float:
        base = self.device.spec.kernel_launch_overhead_s
        extra = getattr(self.timing, "launch_overhead_extra_s", 0.0)
        return base + extra

    def _do_memcpy(self, dst, src, nbytes: int | None) -> Event:
        dst_arr = dst.array() if hasattr(dst, "array") else dst
        src_arr = src.array() if hasattr(src, "array") else src
        if nbytes is None:
            nbytes = min(dst_arr.nbytes, src_arr.nbytes)
        tracer = current_tracer()
        copy_start = tracer.now_us() if tracer is not None else 0.0
        count = nbytes // dst_arr.dtype.itemsize
        flat_dst = dst_arr.reshape(-1)
        flat_src = src_arr.reshape(-1)
        flat_dst[:count] = flat_src[:count].astype(dst_arr.dtype, copy=False)
        if tracer is not None:
            tracer.complete("memcpy", "transfer", copy_start,
                            tracer.now_us() - copy_start, bytes=nbytes)
            _trace_metrics.counter("sycl.memcpy_bytes").inc(nbytes)
        self.counters.note_memcpy(nbytes)
        dur = self.timing.transfer_duration_s(nbytes, CommandKind.MEMCPY_H2D)
        return self._record(CommandKind.MEMCPY_H2D, "memcpy", dur, 0.0, nbytes=nbytes)

    # -- reporting ----------------------------------------------------------
    def kernel_time_s(self) -> float:
        """Sum of modeled device time of kernel commands (SYCL-event view)."""
        return sum(t.event.duration_s for t in self.timeline
                   if t.event.kind is CommandKind.KERNEL)

    def non_kernel_time_s(self) -> float:
        """Transfers + all overheads (the chrono-minus-kernel component)."""
        total = 0.0
        for t in self.timeline:
            total += t.overhead_s
            if t.event.kind is not CommandKind.KERNEL:
                total += t.event.duration_s
        return total

    def total_time_s(self) -> float:
        return self.kernel_time_s() + self.non_kernel_time_s()

    def reset_timeline(self) -> None:
        self.timeline.clear()
        self.now_ns = 0
        self.counters = LaunchCounters()


def _largest_divisor(n: int, at_most: int) -> int:
    """Largest divisor of ``n`` that is <= ``at_most`` (>=1)."""
    if n == 0:
        return 1
    for d in range(min(n, at_most), 0, -1):
        if n % d == 0:
            return d
    return 1
