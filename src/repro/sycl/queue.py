"""SYCL queues: kernel launches and the modeled device clock.

The queue executes kernels **functionally** (on the host, via the
executor) and, in parallel, advances a **modeled device clock**.  Events
carry the modeled timestamps, so
``event.get_profiling_info(command_start/command_end)`` reports device
kernel time exactly as SYCL-event profiling does on real hardware, while
the queue's host timeline also captures launch overheads and host tasks
(the ``std::chrono`` view DPCT generates — paper §3.2.1).

The clock books what :func:`~repro.perfmodel.timeline.time_launch_plan`
charges the same launches, without variant traits (a queue knows its
runtime, not the app): ``model_for(spec)``'s time for each launch's
profile, ``launch_s + EVENTS_PER_LAUNCH·event_s`` per launch and
``per_run_s`` once per timeline from ``overheads_for(runtime, spec)``.

Every launch takes one path: :meth:`Queue.parallel_for` /
:meth:`Queue.single_task` → the executor
(:func:`~repro.sycl.executor.run_nd_range`), which validates and runs
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..common.errors import InvalidParameterError, KernelLaunchError
from ..perfmodel.overhead import EVENTS_PER_LAUNCH, overheads_for
from ..perfmodel.timeline import model_for
from ..trace.spans import current_tracer
from .device import Device, device as get_device
from .event import CommandKind, Event
from .executor import _MODES, ExecutionStats, run_nd_range, run_single_task
from .kernel import KernelKind, KernelSpec
from .ndrange import NdRange, Range

__all__ = ["Queue", "TimelineEntry"]


@dataclass
class TimelineEntry:
    """One host-timeline record: what ran and both clock views."""

    event: Event
    overhead_s: float  # host-side launch/runtime overhead (non-kernel)
    #: a kernel launch's path and work counts (``None`` on host tasks)
    stats: ExecutionStats | None = None
    #: the part of ``overhead_s`` that is the runtime's once-per-run
    #: cost (non-zero on a timeline's first entry only)
    per_run_s: float = 0.0

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
    runtime:
        ``"sycl"`` or ``"cuda"``: whose overheads the clock books; a
        device the runtime cannot target raises.
    enable_profiling:
        Models ``property::queue::enable_profiling``; without it, event
        profiling queries raise (the DPCT-helper limitation in §3.2.2).
    default_mode:
        The one way to pick a kernel form, for every nd-range launch on
        this queue.  ``"auto"`` (or ``None``) runs a kernel's
        ``vector_fn`` when it has one, else its ``item_fn``; ``"item"``
        pins the per-item interpreter.  A kernel without an ``item_fn``
        runs auto in every mode.  This is how the differential tests pin
        one kernel form across a whole ``run_sycl`` pipeline.
        ``"compiled"`` is accepted as a spelling of ``"auto"``; it named
        a batched tier that no longer exists, and it stays until ROADMAP
        item 3 retires perfbench's ``suite-compiled`` workload.
    """

    def __init__(self, dev: Device | str, *, runtime: str = "sycl",
                 enable_profiling: bool = True,
                 default_mode: str | None = "auto"):
        if isinstance(dev, str):
            dev = get_device(dev)
        self.device = dev
        self.profiling = enable_profiling
        self.model = model_for(dev.spec)
        self.overheads = overheads_for(runtime, dev.spec)
        if default_mode in (None, "compiled"):
            default_mode = "auto"
        if default_mode not in _MODES:
            raise InvalidParameterError(
                f"unknown default_mode {default_mode!r}; "
                f"expected one of {_MODES}")
        self.default_mode = default_mode
        #: modeled device clock, nanoseconds
        self.now_ns: int = 0
        self.timeline: list[TimelineEntry] = []

    # -- internal clock helpers ------------------------------------------
    def _advance(self, seconds: float) -> tuple[int, int]:
        start = self.now_ns
        self.now_ns = start + max(0, int(round(seconds * 1e9)))
        return start, self.now_ns

    def _record(self, kind: CommandKind, name: str, device_s: float,
                overhead_s: float, nbytes: int = 0,
                stats: ExecutionStats | None = None) -> Event:
        # the runtime's fixed per-run cost opens every timeline
        per_run_s = 0.0 if self.timeline else self.overheads.per_run_s
        overhead_s += per_run_s
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
        self.timeline.append(TimelineEntry(event=ev, overhead_s=overhead_s,
                                           stats=stats, per_run_s=per_run_s))
        tracer = current_tracer()
        if tracer is not None:
            # modeled device clock, side by side with the wall spans:
            # ts/dur come from the queue's nanosecond timeline, on a
            # dedicated tid so the clock domains never nest.
            tracer.complete(
                name, "modeled", submit / 1e3, (end - submit) / 1e3,
                f"modeled:{self.device.spec.key}",
                kind=kind.value,
                device_us=(end - start) / 1e3,
                overhead_us=(start - submit) / 1e3,
                per_run_us=per_run_s * 1e6,
                bytes=nbytes,
            )
        return ev

    # -- submission API ----------------------------------------------------
    def parallel_for(self, nd_range: NdRange | Range | tuple, kernel: KernelSpec,
                     *args, profile=None) -> Event:
        """``queue.parallel_for(range, kernel)``.

        Each launch runs through the executor and keeps its path and
        work counts on its timeline entry —

        >>> import numpy as np
        >>> from repro.sycl import KernelSpec, NdRange, Queue, Range
        >>> halve = KernelSpec(name="halve",
        ...                    vector_fn=lambda nd, a: np.divide(
        ...                        a, 2, out=a))
        >>> q = Queue("rtx2080")
        >>> a = np.full(8, 32.0)
        >>> for _ in range(3):
        ...     _ = q.parallel_for(NdRange(Range(8), Range(4)), halve, a)
        >>> [entry.stats.path for entry in q.timeline]
        ['vector', 'vector', 'vector']
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
        launch: a timeline entry with ``single_task`` stats, and its own
        ``launch`` span when traced.  The kernels share one run, so
        those spans time the booking only.
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
            book = partial(self._book, kernel, profile, stats)
            events.append(book() if tracer is None
                          else self._traced(tracer, kernel, book))
        return events

    # -- implementation ------------------------------------------------------

    def _launch(self, kernel: KernelSpec, nd_range: NdRange | None, args: tuple,
                profile) -> Event:
        tracer = current_tracer()
        if tracer is None:
            return self._launch_inner(kernel, nd_range, args, profile)
        return self._traced(tracer, kernel, partial(
            self._launch_inner, kernel, nd_range, args, profile))

    def _traced(self, tracer, kernel: KernelSpec, run) -> Event:
        """``run()`` one booking inside a ``launch`` span that carries the
        path, work counts and modeled times the profiler folds."""
        with tracer.span(f"launch:{kernel.name}", "launch",
                         kernel=kernel.name, device=self.device.spec.name,
                         device_key=self.device.spec.key) as sp:
            event = run()
            entry = self.timeline[-1]
            stats = entry.stats
            sp.args.update(
                path=stats.path, items=stats.items, groups=stats.groups,
                barrier_phases=stats.barrier_phases,
                modeled_device_us=entry.device_s * 1e6,
                modeled_overhead_us=(entry.overhead_s - entry.per_run_s) * 1e6,
            )
        return event

    def _launch_inner(self, kernel: KernelSpec, nd_range: NdRange | None,
                      args: tuple, profile) -> Event:
        if kernel.kind == KernelKind.ND_RANGE:
            if nd_range is None:
                raise KernelLaunchError("nd-range kernel launched without a range")
            # a kernel without an item_fn keeps the auto form
            mode = self.default_mode if kernel.item_fn is not None else "auto"
            stats = run_nd_range(
                kernel, nd_range, args,
                device_max_wg=self.device.get_info("max_work_group_size"),
                mode=mode,
            )
        else:
            stats = run_single_task(kernel, args)
        return self._book(kernel, profile, stats)

    def _book(self, kernel: KernelSpec, profile,
              stats: ExecutionStats) -> Event:
        """Book one executed launch on the modeled clock; a launch
        without a profile books its overhead only."""
        if profile is None:
            device_s = 0.0
        elif self.device.is_fpga:
            device_s = self.model.kernel_time_s(kernel, profile)
        else:
            device_s = self.model.kernel_time_s(profile)
        overhead_s = (self.overheads.launch_s
                      + EVENTS_PER_LAUNCH * self.overheads.event_s)
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


def _largest_divisor(n: int, at_most: int) -> int:
    """Largest divisor of ``n`` that is <= ``at_most`` (>=1)."""
    if n == 0:
        return 1
    for d in range(min(n, at_most), 0, -1):
        if n % d == 0:
            return d
    return 1
