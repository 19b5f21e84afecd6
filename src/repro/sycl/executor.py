"""Functional execution of SYCL kernels.

:func:`run_nd_range` is the whole nd-range launch.  Every launch
validates its work-group shape, then takes one of two paths, picked by
the launch's mode (``auto`` or ``item``, set once per
:class:`~repro.sycl.queue.Queue`):

* **vectorized** — the kernel's ``vector_fn`` is invoked once for the
  whole range (numpy fast path, the idiomatic HPC-Python form); auto
  mode takes it whenever the kernel has one;
* **per-item** — the kernel's ``item_fn`` is run for every work-item
  (item mode, or auto mode on a kernel without a ``vector_fn``), with a
  fresh :class:`~repro.sycl.ndrange.Group` per work-group.
  Kernels that synchronize are generator functions; the executor runs all
  items of a work-group *phase by phase*: it advances every generator to
  its next ``yield item.barrier(...)`` before any generator continues.
  This is exactly the SIMT barrier contract — every work-item of the
  group reaches barrier *k* before any proceeds past it.

The per-item path reads its (global id, local id) coordinates from
memoized lattices (``lru_cache`` over immutable tuples only, so
concurrent launches can share them safely); nothing else is kept
between launches.

The executor validates work-group limits against kernel attributes,
reproducing the runtime errors the paper hit when Altis' default
work-group sizes exceeded the FPGA compiler's preconfigured maxima (§4).
"""

from __future__ import annotations

import inspect
import itertools
from contextlib import nullcontext as _null_context
from functools import lru_cache
from typing import Iterable

from ..common.errors import KernelLaunchError
from ..trace.metrics import registry as _metrics
from ..trace.spans import current_tracer
from .kernel import KernelSpec
from .local_memory import LocalAccessor
from .ndrange import BarrierToken, Group, NdItem, NdRange

__all__ = [
    "validate_launch",
    "run_nd_range",
    "run_single_task",
    "ExecutionStats",
    "execution_cache_info",
    "clear_execution_caches",
]


class ExecutionStats:
    """Counters the executor produces for one launch (functional layer)."""

    __slots__ = ("groups", "items", "barrier_phases", "path", "gen_advances")

    def __init__(self) -> None:
        self.groups = 0
        self.items = 0
        self.barrier_phases = 0
        #: which execution path ran: vector / item / single_task
        self.path = ""
        #: generator resumptions performed by the phase engine (scheduler
        #: work; 0 on the vector path)
        self.gen_advances = 0

    def __repr__(self) -> str:
        return (
            f"ExecutionStats(path={self.path!r}, groups={self.groups}, "
            f"items={self.items}, barrier_phases={self.barrier_phases}, "
            f"gen_advances={self.gen_advances})"
        )


def validate_launch(kernel: KernelSpec, nd_range: NdRange,
                    device_max_wg: int | None = None) -> None:
    """Check the launch configuration against kernel attributes.

    Raises :class:`KernelLaunchError` when the work-group shape violates
    ``reqd_work_group_size`` or exceeds ``max_work_group_size`` or the
    device limit — the error class the paper saw on FPGAs before adding
    the attributes.
    """
    attrs = kernel.attributes
    local = tuple(nd_range.local_range)
    if attrs.reqd_work_group_size is not None:
        # SYCL attribute order matches the range dimensions used at launch;
        # compare trailing dims so (1,1,B) matches a 1-D launch of B.
        reqd = tuple(d for d in attrs.reqd_work_group_size if d != 1) or (1,)
        got = tuple(d for d in local if d != 1) or (1,)
        if reqd != got:
            raise KernelLaunchError(
                f"kernel {kernel.name!r} requires work-group "
                f"{attrs.reqd_work_group_size}, launched with {local}"
            )
    if attrs.max_work_group_size is not None:
        limit = 1
        for d in attrs.max_work_group_size:
            limit *= d
        if nd_range.group_size() > limit:
            raise KernelLaunchError(
                f"kernel {kernel.name!r} work-group size {nd_range.group_size()} "
                f"exceeds max_work_group_size {limit}"
            )
    if device_max_wg is not None and nd_range.group_size() > device_max_wg:
        # Without an explicit max_work_group_size attribute the device's
        # preconfigured limit applies (128 on the modeled FPGAs, §4).
        if attrs.max_work_group_size is None:
            raise KernelLaunchError(
                f"work-group size {nd_range.group_size()} exceeds the device "
                f"limit {device_max_wg}; add reqd/max_work_group_size "
                f"attributes (paper §4 'Default work-group sizes')"
            )


# ---------------------------------------------------------------------------
# Memoized index-space lattices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def _point_grid(extents: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All index points of a rectangular extent, row-major."""
    return tuple(itertools.product(*(range(e) for e in extents)))


@lru_cache(maxsize=256)
def _nd_lattice(global_dims: tuple[int, ...], local_dims: tuple[int, ...]
                ) -> tuple[tuple[tuple[int, ...], tuple], ...]:
    """The (group id, ((global id, local id), ...)) lattice of an nd_range.

    Only immutable coordinate tuples are cached — ``Group``/``NdItem``
    objects carry per-launch state (local memory) and are built fresh —
    so reuse across launches and across harness worker threads is safe.
    """
    local_points = _point_grid(local_dims)
    lattice = []
    group_extents = tuple(g // l for g, l in zip(global_dims, local_dims))
    for gid in _point_grid(group_extents):
        base = tuple(g * l for g, l in zip(gid, local_dims))
        items = tuple(
            (tuple(b + p for b, p in zip(base, lid)), lid)
            for lid in local_points
        )
        lattice.append((gid, items))
    return tuple(lattice)


def execution_cache_info() -> dict:
    """lru_cache statistics of the memoized index grids and lattices."""
    return {
        "point_grid": _point_grid.cache_info(),
        "nd_lattice": _nd_lattice.cache_info(),
    }


def clear_execution_caches() -> None:
    _point_grid.cache_clear()
    _nd_lattice.cache_clear()


# ---------------------------------------------------------------------------
# The shared barrier-phase engine
# ---------------------------------------------------------------------------

def _advance_barrier_phases(kernel: KernelSpec, gens: Iterable,
                            stats: ExecutionStats, *, tracer=None) -> None:
    """Run one work-group's generator kernels phase by phase until all
    complete.

    Each phase advances every live generator to its next ``yield
    item.barrier(...)`` (or to its end) before any generator continues
    past it.  Every yield must be a :class:`BarrierToken`, and within
    one phase either *every* live work-item reaches the barrier or every
    one runs to completion; any mix is the divergent-barrier error the
    SIMT contract forbids.

    With a ``tracer`` each phase is recorded as a ``barrier-phase`` span
    under the caller's open kernel-form span; ``tracer=None`` adds one
    branch per phase and nothing else.
    """
    live = list(gens)
    phase_index = 0
    while live:
        phase_start = tracer.now_us() if tracer is not None else 0.0
        reached = []
        append = reached.append
        for gen in live:
            try:
                token = next(gen)
            except StopIteration:
                continue
            if not isinstance(token, BarrierToken):
                raise KernelLaunchError(
                    f"kernel {kernel.name!r} yielded {token!r}; barrier "
                    "kernels must `yield item.barrier(...)`"
                )
            append(gen)
        stats.gen_advances += len(live)
        if reached:
            if len(reached) != len(live):
                raise KernelLaunchError(
                    f"kernel {kernel.name!r}: divergent barrier - only "
                    f"{len(reached)} of {len(live)} work-items reached it"
                )
            stats.barrier_phases += 1
        if tracer is not None:
            tracer.complete(
                f"{kernel.name}:barrier-phase", "barrier-phase",
                phase_start, tracer.now_us() - phase_start,
                phase=phase_index, participants=len(live),
                reached_barrier=bool(reached),
            )
            phase_index += 1
        live = reached


# ---------------------------------------------------------------------------
# Launch entry points
# ---------------------------------------------------------------------------

#: the executor's modes: ``auto`` runs a kernel's ``vector_fn``, else its
#: ``item_fn``; ``item`` pins the ``item_fn``
_MODES = ("auto", "item")


def _select_path(kernel: KernelSpec, mode: str) -> str:
    """The path a launch in ``mode`` takes: ``"vector"`` or ``"item"``."""
    if mode not in _MODES:
        raise KernelLaunchError(
            f"unknown execution mode {mode!r}; expected one of {_MODES}")
    if mode == "auto" and kernel.vector_fn is not None:
        return "vector"
    if kernel.item_fn is None:
        raise KernelLaunchError(
            f"kernel {kernel.name!r} has no item_fn (mode={mode!r})")
    return "item"


def run_nd_range(kernel: KernelSpec, nd_range: NdRange, args: tuple,
                 *, device_max_wg: int | None = None,
                 mode: str = "auto") -> ExecutionStats:
    """Execute an ND-range kernel functionally.

    ``mode`` is one of :data:`_MODES`: ``"auto"`` runs the whole-range
    ``vector_fn`` when the kernel has one, else the per-item
    ``item_fn``; ``"item"`` pins the per-item interpreter.  An invalid
    launch raises :class:`KernelLaunchError` every time it is made.
    """
    validate_launch(kernel, nd_range, device_max_wg)
    stats = ExecutionStats()
    stats.path = path = _select_path(kernel, mode)
    stats.groups = nd_range.num_groups()
    stats.items = nd_range.total_items()
    tracer = current_tracer()
    with (tracer.span(f"{kernel.name}:{path}", "kernel-form",
                      kernel=kernel.name, path=path)
          if tracer is not None else _null_context()):
        if path == "vector":
            kernel.vector_fn(nd_range, *args)
        else:
            _run_items(kernel, nd_range, args, stats, tracer)
    if tracer is not None:
        _note_execution_metrics(stats)
    return stats


def _run_items(kernel: KernelSpec, nd_range: NdRange, args: tuple,
               stats: ExecutionStats, tracer) -> None:
    """Run ``item_fn`` over every work-item, one fresh group at a time."""
    fn = kernel.item_fn
    generator = inspect.isgeneratorfunction(fn)
    locals_ = [a for a in args if isinstance(a, LocalAccessor)]
    for gid, coords in _nd_lattice(nd_range.global_range.dims,
                                   nd_range.local_range.dims):
        group = Group(gid, nd_range)
        items = [NdItem(glob, lid, group) for glob, lid in coords]
        for acc in locals_:
            acc._begin_group()
        if generator:
            _advance_barrier_phases(
                kernel, [fn(item, *args) for item in items], stats,
                tracer=tracer)
        else:
            for item in items:
                fn(item, *args)
        for acc in locals_:
            acc._end_group()


def _note_execution_metrics(stats: ExecutionStats) -> None:
    """Fold one launch's stats into the metrics registry (traced runs)."""
    _metrics.counter("executor.launches").inc()
    _metrics.counter("executor.items").inc(stats.items)
    _metrics.counter("executor.groups").inc(stats.groups)
    _metrics.counter("executor.barrier_phases").inc(stats.barrier_phases)
    _metrics.counter("executor.gen_advances").inc(stats.gen_advances)
    _metrics.counter(f"executor.path.{stats.path}").inc()


def run_single_task(kernel: KernelSpec, args: tuple) -> ExecutionStats:
    """Execute a single-task kernel (no index space).

    Pipe-blocking single-task kernels must run together through
    :meth:`Queue.dataflow <repro.sycl.queue.Queue.dataflow>`; calling
    them here runs them to completion and will raise if a pipe read ever
    blocks.
    """
    stats = ExecutionStats()
    stats.path = "single_task"
    fn = kernel.vector_fn or kernel.item_fn
    tracer = current_tracer()
    with (tracer.span(f"{kernel.name}:single_task", "kernel-form",
                      kernel=kernel.name, path="single_task")
          if tracer is not None else _null_context()):
        result = fn(*args)
        if inspect.isgenerator(result):
            # Drain a generator-style kernel; any yield means it blocked
            # on a pipe with no co-scheduled producer.
            for _ in result:
                raise KernelLaunchError(
                    f"single-task kernel {kernel.name!r} blocked on a pipe; "
                    "submit it through Queue.dataflow instead"
                )
    stats.groups = 1
    stats.items = 1
    if tracer is not None:
        _note_execution_metrics(stats)
    return stats
