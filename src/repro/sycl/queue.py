"""SYCL queues: kernel launches and the modeled device clock.

The queue executes kernels **functionally** (on the host, via the
executor) and, in parallel, advances a **modeled device clock** with
:class:`SpecTiming`.  Events carry the modeled timestamps, so
``event.get_profiling_info(command_start/command_end)`` reports device
kernel time exactly as SYCL-event profiling does on real hardware, while
the queue's host timeline also captures launch overheads and host tasks
(the ``std::chrono`` view DPCT generates — paper §3.2.1).

Every launch takes one path: :meth:`Queue.parallel_for` /
:meth:`Queue.single_task` → a cached :class:`~repro.sycl.plan.LaunchPlan`
→ the executor.  The modeled times of the paper's figures come from
:mod:`repro.perfmodel`, not from this clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..common.errors import InvalidParameterError, KernelLaunchError
from ..trace.metrics import registry as _trace_metrics
from ..trace.spans import current_tracer
from .device import Device, device as get_device
from .event import CommandKind, Event
from .executor import (_MODES, ExecutionStats, _note_execution_metrics,
                       run_nd_range, run_single_task)
from .kernel import KernelKind, KernelSpec
from .ndrange import NdRange, Range

__all__ = ["Queue", "SpecTiming", "TimelineEntry", "LaunchCounters"]


class SpecTiming:
    """The queue's timing model, derived from the device spec only.

    Gives order-of-magnitude kernel times: a roofline on the launch's
    declared profile, else a work-item count heuristic.
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


class Queue:
    """An in-order SYCL queue bound to one device.

    Parameters
    ----------
    dev:
        A :class:`Device` or a Table 2 catalogue key.
    enable_profiling:
        Models ``property::queue::enable_profiling``; without it, event
        profiling queries raise (the DPCT-helper limitation in §3.2.2).
    default_mode:
        The one way to pick a kernel form, for every nd-range launch on
        this queue.  ``"auto"`` (or ``None``) runs a kernel's
        ``vector_fn`` when it has one, else its ``item_fn``; ``"item"``
        pins the per-item interpreter; ``"compiled"`` runs the
        ``item_fn`` as the batched-numpy tier (:mod:`repro.sycl.vectorize`),
        and ineligible kernels fall back to the interpreter with a
        recorded ``vectorize.fallback``.  A kernel without an ``item_fn``
        runs auto in every mode.  This is how the differential tests pin
        one kernel form across a whole ``run_sycl`` pipeline.
    """

    def __init__(self, dev: Device | str, *, enable_profiling: bool = True,
                 default_mode: str | None = "auto"):
        if isinstance(dev, str):
            dev = get_device(dev)
        self.device = dev
        self.profiling = enable_profiling
        self.timing = SpecTiming(dev)
        default_mode = default_mode or "auto"
        if default_mode not in _MODES:
            raise InvalidParameterError(
                f"unknown default_mode {default_mode!r}; "
                f"expected one of {_MODES}")
        self.default_mode = default_mode
        #: modeled device clock, nanoseconds
        self.now_ns: int = 0
        self.timeline: list[TimelineEntry] = []
        #: lifetime launch counters (reset with the timeline)
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
                kind=kind.value,
                device_us=(end - start) / 1e3,
                overhead_us=(start - submit) / 1e3,
                bytes=nbytes,
            )
        return ev

    # -- submission API ----------------------------------------------------
    def parallel_for(self, nd_range: NdRange | Range | tuple, kernel: KernelSpec,
                     *args, profile=None) -> Event:
        """``queue.parallel_for(range, kernel)``.

        Launches route through the plan cache (:mod:`repro.sycl.plan`):
        the first launch of a shape compiles a
        :class:`~repro.sycl.plan.LaunchPlan`, repeated launches hit it
        warm —

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
        ...     _ = q.parallel_for(NdRange(Range(8), Range(4)), halve, a)
        >>> info = plan_cache_info()
        >>> (info["compiles"], info["hits"])
        (1, 2)
        >>> float(a[0])
        4.0

        A plain :class:`Range` lets the runtime pick the work-group size.
        """
        if not isinstance(nd_range, NdRange):
            rng = nd_range if isinstance(nd_range, Range) else Range(nd_range)
            # SYCL's basic parallel_for: runtime picks the work-group size.
            local = tuple(min(d, 64) if i == rng.ndim - 1 else 1
                          for i, d in enumerate(rng.dims))
            # ensure divisibility
            local = tuple(_largest_divisor(d, l) for d, l in zip(rng.dims, local))
            nd_range = NdRange(rng, Range(local))
        return self._launch(kernel, nd_range, args, profile)

    def single_task(self, kernel: KernelSpec, *args, profile=None) -> Event:
        return self._launch(kernel, None, args, profile)

    def dataflow(self, *launches: tuple) -> list[Event]:
        """Run single-task kernels that stream to each other through pipes.

        Each launch is ``(kernel, args, profile)``.  The kernels run
        together under a :class:`~repro.sycl.pipes.DataflowGraph`, as
        the paper's pipe designs do on the FPGA (§5.3, KMeans' Fig. 3b),
        and each is then booked on this queue like a :meth:`single_task`
        launch, with its own ``launch`` span and executor metrics when
        traced.  The kernels share one run, so those spans time the
        booking only.
        """
        from .pipes import DataflowGraph  # only the FPGA pipe designs run one

        graph = DataflowGraph()
        for kernel, args, _ in launches:
            if kernel.kind != KernelKind.SINGLE_TASK:
                raise KernelLaunchError(
                    f"dataflow kernel {kernel.name!r} is not single-task")
            graph.add_kernel(kernel.name, kernel.vector_fn or kernel.item_fn,
                             *args)
        graph.run()
        tracer = current_tracer()
        events = []
        for kernel, _, profile in launches:
            stats = ExecutionStats()
            stats.path = "single_task"
            stats.groups = stats.items = 1
            book = partial(self._book, kernel, None, profile, stats)
            if tracer is None:
                events.append(book())
            else:
                _note_execution_metrics(stats)
                events.append(self._traced(tracer, kernel, profile, book))
        return events

    # -- implementation ------------------------------------------------------

    def _launch(self, kernel: KernelSpec, nd_range: NdRange | None, args: tuple,
                profile) -> Event:
        tracer = current_tracer()
        if tracer is None:
            return self._launch_inner(kernel, nd_range, args, profile)
        return self._traced(tracer, kernel, profile, partial(
            self._launch_inner, kernel, nd_range, args, profile))

    def _traced(self, tracer, kernel: KernelSpec, profile, run) -> Event:
        """``run()`` one booking inside a ``launch`` span that carries the
        path, work counts and modeled times the profiler folds."""
        with tracer.span(f"launch:{kernel.name}", "launch",
                         kernel=kernel.name, device=self.device.spec.name,
                         device_key=self.device.spec.key) as sp:
            event = run()
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
                      args: tuple, profile) -> Event:
        if kernel.kind == KernelKind.ND_RANGE:
            if nd_range is None:
                raise KernelLaunchError("nd-range kernel launched without a range")
            # item and compiled both run the item_fn; a kernel without
            # one keeps the auto form
            mode = self.default_mode if kernel.item_fn is not None else "auto"
            stats = run_nd_range(
                kernel, nd_range, args,
                device_max_wg=self.device.get_info("max_work_group_size"),
                mode=mode,
            )
        else:
            stats = run_single_task(kernel, args)
        return self._book(kernel, nd_range, profile, stats)

    def _book(self, kernel: KernelSpec, nd_range: NdRange | None, profile,
              stats: ExecutionStats) -> Event:
        """Count one executed launch and advance the modeled clock."""
        self.counters.note_launch(stats)
        device_s = self.timing.kernel_duration_s(kernel, nd_range, profile)
        overhead_s = self.device.spec.kernel_launch_overhead_s
        return self._record(CommandKind.KERNEL, kernel.name, device_s, overhead_s,
                            stats=stats)

    # -- reporting ----------------------------------------------------------
    def kernel_time_s(self) -> float:
        """Sum of modeled device time of kernel commands (SYCL-event view)."""
        return sum(t.event.duration_s for t in self.timeline
                   if t.event.kind is CommandKind.KERNEL)

    def non_kernel_time_s(self) -> float:
        """Host tasks + all overheads (the chrono-minus-kernel component)."""
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
