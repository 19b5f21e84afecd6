"""Launch-plan compilation and the warm-plan cache.

The paper attributes most of the optimized-SYCL win to restructuring
*launch* work, not arithmetic (§4, Fig. 1's non-kernel time), and Altis
deliberately measures the repeated-launch steady state.  The executor
used to re-derive the same launch-invariant facts on every
:func:`~repro.sycl.executor.run_nd_range` call: attribute validation,
path selection, ``inspect`` generator probing, lattice lookups, and
fresh :class:`~repro.sycl.ndrange.Group` construction.

This module compiles all of that **once per launch shape**.  The first
launch of a ``(kernel, nd_range, mode, device limit)`` tuple builds
an immutable :class:`LaunchPlan`:

* the selected execution path and the validated work-group limits;
* a reference to the memoized group grid of the range (the per-item
  lattice is looked up by the first per-item launch, so a plan on the
  ``vector_fn`` path never builds one);
* ``inspect``-derived facts — whether the chosen form is a generator,
  and its argument arity (the binding order of ``(index, *args)``).

Subsequent launches of the same tuple execute through the plan with
zero re-inspection; plans also keep a **thread-local pool** of ``Group``
objects, so the per-group index state is not rebuilt on every launch of
a steady-state wavefront.

Plans live in a process-wide LRU cache mirroring the executor's lattice
caches — :func:`plan_cache_info` / :func:`clear_plan_caches` — and are
shared by every ``Queue`` on every thread.
With a tracer installed, compilation emits a ``plan.compile`` span,
warm launches emit ``plan.hit`` spans, and the ``plan.*`` metrics show
the amortization (see ``docs/performance.md``).

Plan reuse is observable through the cache counters:

>>> import numpy as np
>>> from repro.sycl import KernelSpec, NdRange, Range
>>> from repro.sycl.executor import run_nd_range
>>> from repro.sycl.plan import clear_plan_caches, plan_cache_info
>>> doubler = KernelSpec(name="doubler",
...                      vector_fn=lambda nd, a: np.multiply(a, 2, out=a))
>>> clear_plan_caches()
>>> a = np.ones(16)
>>> for _ in range(4):
...     stats = run_nd_range(doubler, NdRange(Range(16), Range(8)), (a,))
>>> stats.path
'vector'
>>> info = plan_cache_info()
>>> (info["compiles"], info["hits"], info["size"])
(1, 3, 1)
>>> float(a[0])
16.0
"""

from __future__ import annotations

import inspect
import threading
from collections import OrderedDict
from contextlib import nullcontext as _null_context

from ..trace.metrics import registry as _metrics
from ..trace.spans import current_tracer
from .executor import (
    ExecutionStats,
    _advance_barrier_phases,
    _nd_lattice,
    _note_execution_metrics,
    _point_grid,
    _select_path,
    validate_launch,
)
from .kernel import KernelSpec
from .local_memory import LocalAccessor
from .ndrange import Group, NdItem, NdRange

__all__ = [
    "LaunchPlan",
    "get_plan",
    "compile_plan",
    "plan_cache_info",
    "clear_plan_caches",
    "set_plan_cache_limit",
    "plan_pool_stats",
]


# ---------------------------------------------------------------------------
# The process-wide plan cache
# ---------------------------------------------------------------------------

_CACHE: "OrderedDict[tuple, LaunchPlan]" = OrderedDict()
_LOCK = threading.Lock()
_MAXSIZE = 256
_HITS = 0
_MISSES = 0
_COMPILES = 0
_EVICTIONS = 0


def plan_cache_info() -> dict:
    """Counters of the process-wide plan cache (mirrors
    :func:`~repro.sycl.executor.execution_cache_info`)."""
    with _LOCK:
        tiers: dict = {}
        for plan in _CACHE.values():
            tiers.setdefault(plan.path, {"count": 0})["count"] += 1
        return {
            "hits": _HITS,
            "misses": _MISSES,
            "compiles": _COMPILES,
            "evictions": _EVICTIONS,
            "size": len(_CACHE),
            "maxsize": _MAXSIZE,
            # live plans per execution path (vector / item), so a
            # change of kernel form is visible without tracing
            "tiers": tiers,
        }


def clear_plan_caches() -> None:
    """Drop every cached plan and zero the cache counters."""
    global _HITS, _MISSES, _COMPILES, _EVICTIONS
    with _LOCK:
        _CACHE.clear()
        _HITS = _MISSES = _COMPILES = _EVICTIONS = 0


def plan_pool_stats() -> dict:
    """Work-group-pool footprint of the live plan cache.

    Walks the cached plans and reports how many have materialized their
    *calling thread's* pooled ``Group`` objects (pools are thread-local,
    so other threads' pools are invisible here by design), how many
    pooled groups that is in total.  Used by the ``repro profile``
    report.
    """
    with _LOCK:
        plans = list(_CACHE.values())
    pooled_plans = 0
    poolable_groups = 0
    materialized_groups = 0
    for plan in plans:
        poolable_groups += plan.num_groups
        groups = getattr(plan._tls, "groups", None)
        if groups is not None:
            pooled_plans += 1
            materialized_groups += len(groups)
    return {
        "plans": len(plans),
        "pooled_plans": pooled_plans,
        "poolable_groups": poolable_groups,
        "materialized_groups": materialized_groups,
    }


def set_plan_cache_limit(maxsize: int) -> int:
    """Bound the LRU cache at ``maxsize`` plans; returns the old bound."""
    global _MAXSIZE
    with _LOCK:
        previous = _MAXSIZE
        _MAXSIZE = max(1, int(maxsize))
        while len(_CACHE) > _MAXSIZE:
            _evict_oldest_locked()
    return previous


def _evict_oldest_locked() -> None:
    global _EVICTIONS
    _CACHE.popitem(last=False)
    _EVICTIONS += 1


def _plan_key(kernel: KernelSpec, nd_range: NdRange,
              device_max_wg: int | None, mode: str) -> tuple:
    # Content-based, not id(kernel)-based: apps may rebuild equal
    # KernelSpec copies per launch (``with_attributes``); two specs with
    # the same implementation functions and attributes launch the same.
    return (
        kernel.item_fn, kernel.vector_fn, kernel.name,
        kernel.attributes,
        nd_range.global_range.dims, nd_range.local_range.dims,
        mode, device_max_wg,
    )


def get_plan(kernel: KernelSpec, nd_range: NdRange, *,
             device_max_wg: int | None = None,
             mode: str = "auto") -> "LaunchPlan":
    """The cached plan for one launch shape, compiling it on first use.

    Invalid launch configurations raise
    :class:`~repro.common.errors.KernelLaunchError` — and are never
    cached, so every launch of a bad shape keeps failing loudly.
    """
    global _HITS, _MISSES
    key = _plan_key(kernel, nd_range, device_max_wg, mode)
    with _LOCK:
        plan = _CACHE.get(key)
        if plan is not None:
            _CACHE.move_to_end(key)
            _HITS += 1
        else:
            _MISSES += 1
    if plan is not None:
        tracer = current_tracer()
        if tracer is not None:
            tracer.complete("plan.hit", "plan", tracer.now_us(), 0.0,
                            kernel=kernel.name, path=plan.path)
            _metrics.counter("plan.hits").inc()
        return plan
    return _compile_and_insert(kernel, nd_range, key, device_max_wg, mode)


def compile_plan(kernel: KernelSpec, nd_range: NdRange, *,
                 device_max_wg: int | None = None,
                 mode: str = "auto") -> "LaunchPlan":
    """Compile a plan without touching the cache (introspection aid)."""
    return LaunchPlan(kernel, nd_range, mode, device_max_wg=device_max_wg)


def _compile_and_insert(kernel, nd_range, key, device_max_wg,
                        mode) -> "LaunchPlan":
    global _COMPILES
    tracer = current_tracer()
    if tracer is None:
        plan = compile_plan(kernel, nd_range, device_max_wg=device_max_wg,
                            mode=mode)
    else:
        with tracer.span("plan.compile", "plan", kernel=kernel.name):
            plan = compile_plan(kernel, nd_range,
                                device_max_wg=device_max_wg, mode=mode)
        _metrics.counter("plan.compiles").inc()
    with _LOCK:
        winner = _CACHE.setdefault(key, plan)
        if winner is plan:
            _COMPILES += 1
            while len(_CACHE) > _MAXSIZE:
                _evict_oldest_locked()
        if tracer is not None:
            _metrics.gauge("plan.cache_size").set(len(_CACHE))
    return winner


# ---------------------------------------------------------------------------
# The launch plan
# ---------------------------------------------------------------------------

class LaunchPlan:
    """Everything launch-invariant about one ``(kernel, nd_range)`` shape.

    Compilation validates the launch (work-group attributes and device
    limit), selects the execution path, resolves the memoized group
    grid, and probes the kernel form with :mod:`inspect` — work that
    would otherwise repeat per launch.  These facts are immutable.

    ``execute`` is the one implementation of a launch.  Traced and
    untraced launches run the same runners over the plan's thread-local
    ``Group`` pool; a traced launch wraps them in a kernel-form span and
    records every barrier phase as a ``barrier-phase`` span.
    """

    __slots__ = (
        "kernel", "nd_range", "path", "is_generator", "arity",
        "run_fn", "group_ids", "group_size", "num_groups",
        "total_items", "_tls",
    )

    def __init__(self, kernel: KernelSpec, nd_range: NdRange,
                 mode: str = "auto", *, device_max_wg: int | None = None):
        validate_launch(kernel, nd_range, device_max_wg)
        self.kernel = kernel
        self.nd_range = nd_range
        self.path = _select_path(kernel, mode)
        self.run_fn = (kernel.vector_fn if self.path == "vector"
                       else kernel.item_fn)
        self.is_generator = inspect.isgeneratorfunction(self.run_fn)
        code = getattr(self.run_fn, "__code__", None)
        #: positional binding order of the kernel call: the index object
        #: (nd_range / nd_item) plus this many launch arguments
        self.arity = (code.co_argcount - 1) if code is not None else None
        self.group_size = nd_range.group_size()
        self.num_groups = nd_range.num_groups()
        self.total_items = nd_range.total_items()
        # resolved reference into the executor's memoized group grid;
        # the per-item lattice is looked up by ``_items`` on first use
        self.group_ids = _point_grid(nd_range.group_range().dims)
        self._tls = threading.local()

    def __repr__(self) -> str:
        return (f"LaunchPlan({self.kernel.name!r}, path={self.path!r}, "
                f"groups={self.num_groups}, items={self.total_items})")

    def describe(self) -> dict:
        """The plan's launch-invariant facts, as plain data."""
        return {
            "kernel": self.kernel.name,
            "path": self.path,
            "is_generator": self.is_generator,
            "arity": self.arity,
            "global_range": self.nd_range.global_range.dims,
            "local_range": self.nd_range.local_range.dims,
            "groups": self.num_groups,
            "group_size": self.group_size,
            "items": self.total_items,
        }

    # -- group pooling -----------------------------------------------------

    def _groups(self) -> tuple:
        """This thread's pooled ``Group`` objects for the plan's range.

        Pools are thread-local, so threads launching one plan
        concurrently never share mutable group state.  Each launch
        sees freshly cleared local memory — indistinguishable from a
        brand-new ``Group``.
        """
        groups = getattr(self._tls, "groups", None)
        if groups is None:
            groups = tuple(Group(gid, self.nd_range)
                           for gid in self.group_ids)
            self._tls.groups = groups
        else:
            for group in groups:
                if group._local_mem:
                    group._local_mem.clear()
        return groups

    def _items(self) -> tuple:
        """Pooled ``(group, nd_items)`` pairs for the per-item path."""
        pairs = getattr(self._tls, "items", None)
        if pairs is None:
            groups = self._groups()
            lattice = _nd_lattice(self.nd_range.global_range.dims,
                                  self.nd_range.local_range.dims)
            pairs = tuple(
                (group, tuple(NdItem(glob, lid, group)
                              for glob, lid in coords))
                for group, (_, coords) in zip(groups, lattice))
            self._tls.items = pairs
        else:
            for group, _ in pairs:
                if group._local_mem:
                    group._local_mem.clear()
        return pairs

    # -- execution ---------------------------------------------------------

    def execute(self, args: tuple) -> ExecutionStats:
        """Run one launch through the plan."""
        stats = ExecutionStats()
        tracer = current_tracer()
        stats.path = path = self.path
        with (tracer.span(f"{self.kernel.name}:{path}", "kernel-form",
                          kernel=self.kernel.name, path=path)
              if tracer is not None else _null_context()):
            if path == "vector":
                self.run_fn(self.nd_range, *args)
                stats.groups = self.num_groups
                stats.items = self.total_items
            else:
                self._run_item(args, stats, tracer)
        if tracer is not None:
            _note_execution_metrics(stats)
        return stats

    def _run_item(self, args: tuple, stats: ExecutionStats,
                  tracer=None) -> None:
        locals_ = [a for a in args if isinstance(a, LocalAccessor)]
        fn = self.run_fn
        generator = self.is_generator
        stats.groups = self.num_groups
        stats.items = self.total_items
        for group, items in self._items():
            for acc in locals_:
                acc._begin_group()
            if generator:
                _advance_barrier_phases(
                    self.kernel, [fn(item, *args) for item in items], stats,
                    tracer=tracer)
            else:
                for item in items:
                    fn(item, *args)
            for acc in locals_:
                acc._end_group()
