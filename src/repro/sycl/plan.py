"""Launch-plan compilation and the warm-plan cache.

The paper attributes most of the optimized-SYCL win to restructuring
*launch* work, not arithmetic (§4, Fig. 1's non-kernel time), and Altis
deliberately measures the repeated-launch steady state.  The executor
used to re-derive the same launch-invariant facts on every
:func:`~repro.sycl.executor.run_nd_range` call: attribute validation,
path selection, ``inspect`` generator probing, lattice lookups, and
fresh :class:`~repro.sycl.ndrange.Group` construction.

This module compiles all of that **once per launch shape**.  The first
launch of a ``(kernel, nd_range, path-pins, device limit)`` tuple builds
an immutable :class:`LaunchPlan`:

* the selected execution path and the validated work-group limits;
* a reference to the memoized group grid of the range (the per-item
  lattice is looked up by the first per-item launch, so a compiled plan
  whose certificate hits never builds one);
* ``inspect``-derived facts — whether the chosen form is a generator,
  and its argument arity (the binding order of ``(index, *args)``);
* a barrier-phase schedule, recorded by the plan's first strict
  execution and reused for introspection and stats accounting.

Subsequent launches of the same tuple execute through the plan with
zero re-inspection; plans also keep a **thread-local pool** of ``Group``
objects, so the per-group index state (and, for kernels that declare
the ``local_mem_reuse`` feature, their staged local tiles) is not
rebuilt on every launch of a steady-state wavefront.

Plans live in a process-wide LRU cache mirroring the executor's lattice
caches — :func:`plan_cache_info` / :func:`clear_plan_caches` — and are
shared by every ``Queue`` and every harness ``pool_map`` worker thread.
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
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager

from ..common.errors import KernelLaunchError
from ..trace.metrics import registry as _metrics
from ..trace.spans import current_tracer
from .buffer import LocalAccessor
from .executor import (
    ExecutionStats,
    _advance_barrier_phases,
    _nd_lattice,
    _note_execution_metrics,
    _point_grid,
    _run_path,
    _select_path,
    validate_launch,
)
from .kernel import KernelSpec
from .ndrange import Group, NdItem, NdRange
from .vectorize import (
    VectorizeFallback,
    compile_batched,
    eligible_form,
    note_fallback as _note_vectorize_fallback,
    vectorize_enabled,
)

__all__ = [
    "LaunchPlan",
    "get_plan",
    "compile_plan",
    "plan_cache_info",
    "clear_plan_caches",
    "set_plan_cache_limit",
    "plan_pool_stats",
    "plans_disabled",
    "plans_enabled",
    "certificate_store",
    "using_certificate_store",
]


# ---------------------------------------------------------------------------
# The process-wide plan cache
# ---------------------------------------------------------------------------

_CACHE: "OrderedDict[tuple, LaunchPlan]" = OrderedDict()
_LOCK = threading.Lock()
_MAXSIZE = 256
_ENABLED = True
_HITS = 0
_MISSES = 0
_COMPILES = 0
_EVICTIONS = 0


def plans_enabled() -> bool:
    """Whether launches route through the plan cache (see
    :func:`plans_disabled`)."""
    return _ENABLED


@contextmanager
def plans_disabled():
    """Execute a block through the un-planned legacy launch path.

    Process-wide switch, meant for benchmarks and differential tests
    that compare planned against un-planned execution.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


# ---------------------------------------------------------------------------
# Validation certificates (off unless installed)
# ---------------------------------------------------------------------------

#: what :func:`using_certificate_store` installed: ``None`` (persist
#: nothing), a cache root not yet opened, or an open store
_CERTIFICATES = None
_CERT_LOCK = threading.Lock()


def certificate_store():
    """The installed :class:`~repro.sycl.certificates.CertificateStore`,
    or ``None`` (every compiled plan validates in full).

    An installed cache root is opened here, on the first compiled launch
    that needs validating, so processes that never validate a compiled
    plan never load :mod:`repro.sycl.certificates`.
    """
    global _CERTIFICATES
    installed = _CERTIFICATES
    if not isinstance(installed, (str, os.PathLike)):
        return installed
    with _CERT_LOCK:
        if isinstance(_CERTIFICATES, (str, os.PathLike)):
            from .certificates import CertificateStore

            _CERTIFICATES = CertificateStore(_CERTIFICATES)
        return _CERTIFICATES


@contextmanager
def using_certificate_store(store):
    """Install validation certificates process-wide for a block.

    ``store`` is a :class:`~repro.sycl.certificates.CertificateStore`, a
    cache root to open one under (``<root>/certificates``) when a plan
    first needs it, or ``None`` for no store.  The previous setting is
    restored after the block.  Library callers that install nothing
    persist nothing.
    """
    global _CERTIFICATES
    previous, _CERTIFICATES = _CERTIFICATES, store
    try:
        yield store
    finally:
        _CERTIFICATES = previous


def plan_cache_info() -> dict:
    """Counters of the process-wide plan cache (mirrors
    :func:`~repro.sycl.executor.execution_cache_info`)."""
    with _LOCK:
        tiers: dict = {}
        validated_by: dict = {}
        for plan in _CACHE.values():
            entry = tiers.setdefault(plan.path,
                                     {"count": 0, "fallbacks": {}})
            entry["count"] += 1
            if plan.fallback_reason is not None:
                entry["fallbacks"][plan.kernel.name] = plan.fallback_reason
            ck = plan.compiled
            if ck is not None:
                how = ck.validated_by or "unvalidated"
                validated_by[how] = validated_by.get(how, 0) + 1
        return {
            "hits": _HITS,
            "misses": _MISSES,
            "compiles": _COMPILES,
            "evictions": _EVICTIONS,
            "size": len(_CACHE),
            "maxsize": _MAXSIZE,
            # per-plan execution tier (compiled / vector / group / item)
            # so tier regressions are visible without tracing.  Each
            # entry carries a plan count plus, for plans that *missed*
            # the compiled tier while it was requested, the per-kernel
            # fallback reason (static ineligibility or the runtime
            # demotion message) — a demoted compiled plan shows up
            # under its interpreter tier with the reason it fell.
            "tiers": tiers,
            # how the live compiled plans were proven: "shadow" (this
            # process compared bitwise), "certificate" (a persisted
            # proof) or "unvalidated" (no launch yet)
            "validated_by": validated_by,
        }


def clear_plan_caches() -> None:
    """Drop every compiled plan and zero the cache counters."""
    global _HITS, _MISSES, _COMPILES, _EVICTIONS
    with _LOCK:
        _CACHE.clear()
        _HITS = _MISSES = _COMPILES = _EVICTIONS = 0


def plan_pool_stats() -> dict:
    """Work-group-pool footprint of the live plan cache.

    Walks the cached plans and reports how many have materialized their
    *calling thread's* pooled ``Group`` objects (pools are thread-local,
    so other workers' pools are invisible here by design), how many
    pooled groups that is in total, and how many plans opted into
    ``local_mem_reuse``.  Used by the ``repro profile`` report.
    """
    with _LOCK:
        plans = list(_CACHE.values())
    pooled_plans = 0
    poolable_groups = 0
    materialized_groups = 0
    local_mem_reuse_plans = 0
    for plan in plans:
        poolable_groups += plan.num_groups
        if plan.local_mem_reuse:
            local_mem_reuse_plans += 1
        groups = getattr(plan._tls, "groups", None)
        if groups is not None:
            pooled_plans += 1
            materialized_groups += len(groups)
    return {
        "plans": len(plans),
        "pooled_plans": pooled_plans,
        "poolable_groups": poolable_groups,
        "materialized_groups": materialized_groups,
        "local_mem_reuse_plans": local_mem_reuse_plans,
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


def _normalize_mode(mode: str | None) -> str | None:
    return None if mode in (None, "auto", "") else mode


def _plan_key(kernel: KernelSpec, nd_range: NdRange, force_item: bool,
              device_max_wg: int | None, mode: str | None,
              grid: bool) -> tuple:
    # Content-based, not id(kernel)-based: apps may rebuild equal
    # KernelSpec copies per launch (``with_attributes``); two specs with
    # the same implementation functions and attributes launch the same.
    return (
        kernel.item_fn, kernel.group_fn, kernel.vector_fn, kernel.name,
        kernel.attributes,
        nd_range.global_range.dims, nd_range.local_range.dims,
        force_item, mode, device_max_wg, grid,
        # a vectorize_disabled() block must never reuse a plan compiled
        # to the batched tier (and vice versa) — the flag splits the key
        vectorize_enabled(),
    )


def get_plan(kernel: KernelSpec, nd_range: NdRange, *,
             force_item: bool = False, device_max_wg: int | None = None,
             mode: str | None = None, grid: bool = False
             ) -> "LaunchPlan | None":
    """The cached plan for one launch shape, compiling it on first use.

    Returns ``None`` inside a :func:`plans_disabled` block.  Invalid
    launch configurations raise the same
    :class:`~repro.common.errors.KernelLaunchError` the legacy path
    raises — and are never cached, so every launch of a bad shape keeps
    failing loudly.
    """
    global _HITS, _MISSES
    if not _ENABLED:
        return None
    mode = _normalize_mode(mode)
    key = _plan_key(kernel, nd_range, force_item, device_max_wg, mode, grid)
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
    return _compile_and_insert(kernel, nd_range, key, force_item,
                               device_max_wg, mode, grid)


def compile_plan(kernel: KernelSpec, nd_range: NdRange, *,
                 force_item: bool = False, device_max_wg: int | None = None,
                 mode: str | None = None, grid: bool = False) -> "LaunchPlan":
    """Compile a plan without touching the cache (introspection aid)."""
    return LaunchPlan(kernel, nd_range, _normalize_mode(mode),
                      force_item=force_item, device_max_wg=device_max_wg,
                      grid=grid)


def _compile_and_insert(kernel, nd_range, key, force_item, device_max_wg,
                        mode, grid) -> "LaunchPlan":
    global _COMPILES
    tracer = current_tracer()
    if tracer is None:
        plan = compile_plan(kernel, nd_range, force_item=force_item,
                            device_max_wg=device_max_wg, mode=mode, grid=grid)
    else:
        with tracer.span("plan.compile", "plan", kernel=kernel.name,
                         grid=grid):
            plan = compile_plan(kernel, nd_range, force_item=force_item,
                                device_max_wg=device_max_wg, mode=mode,
                                grid=grid)
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
# The compiled plan
# ---------------------------------------------------------------------------

class LaunchPlan:
    """Everything launch-invariant about one ``(kernel, nd_range)`` shape.

    Compilation validates the launch (work-group attributes and device
    limit), selects the execution path, resolves the memoized group
    grid, and probes the chosen kernel form with :mod:`inspect` —
    exactly the work the legacy path repeats per launch.  The compiled
    facts are immutable; the only write-once field is the barrier-phase
    schedule, recorded by the plan's first strict execution.

    ``execute`` runs one launch through the plan.  Traced launches
    delegate to the executor's shared path runner so the span tree
    (``launch`` → kernel-form → ``barrier-phase``) is byte-identical to
    un-planned execution; untraced warm launches take the specialized
    fast paths, reusing the plan's thread-local ``Group`` pool.
    """

    __slots__ = (
        "kernel", "nd_range", "path", "grid", "is_generator", "arity",
        "run_fn", "group_ids", "group_size", "num_groups",
        "total_items", "local_mem_reuse", "barrier_schedule", "compiled",
        "fallback_reason", "_tls",
    )

    def __init__(self, kernel: KernelSpec, nd_range: NdRange,
                 mode: str | None, *, force_item: bool = False,
                 device_max_wg: int | None = None, grid: bool = False):
        validate_launch(kernel, nd_range, device_max_wg)
        self.kernel = kernel
        self.nd_range = nd_range
        self.grid = grid
        self.compiled = None
        #: why this plan is not (or no longer) on the compiled tier:
        #: the static ineligibility reason when compiled mode was
        #: requested, or the runtime demotion message after ``_demote``;
        #: ``None`` for compiled plans and paths that never tried
        self.fallback_reason = None
        if grid:
            self.path = _select_grid_path(kernel)
        else:
            self.path = _select_path(kernel, force_item, mode,
                                     allow_compiled=True)
        if self.path == "compiled":
            self.compiled, _reason = compile_batched(kernel, nd_range)
            if self.compiled is None:  # defensive: eligibility raced
                self.path = "item" if kernel.item_fn is not None else "group"
                self.fallback_reason = _reason
        elif not grid and _normalize_mode(mode) == "compiled":
            # compiled mode was requested but the plan landed on an
            # interpreter tier — record why, so plan_cache_info()'s
            # tier map can name the miss
            if not vectorize_enabled():
                self.fallback_reason = "vectorizer disabled"
            else:
                _form, _why = eligible_form(kernel)
                if _form is None:
                    self.fallback_reason = _why
        # the interpreter form behind the plan: for a compiled plan this
        # is the validation reference / demotion target
        interp_path = (self.compiled.fallback_path
                       if self.compiled is not None else self.path)
        self.run_fn = getattr(kernel, f"{interp_path}_fn")
        self.is_generator = inspect.isgeneratorfunction(self.run_fn)
        code = getattr(self.run_fn, "__code__", None)
        #: positional binding order of the kernel call: the index object
        #: (nd_range / group / nd_item) plus this many launch arguments
        self.arity = (code.co_argcount - 1) if code is not None else None
        self.group_size = nd_range.group_size()
        self.num_groups = nd_range.num_groups()
        self.total_items = nd_range.total_items()
        # resolved reference into the executor's memoized group grid;
        # the per-item lattice is looked up by ``_items`` on first use
        self.group_ids = _point_grid(nd_range.group_range().dims)
        self.local_mem_reuse = bool(kernel.feature("local_mem_reuse"))
        #: per-group barrier-phase counts, recorded once by the first
        #: strict execution (``None`` until then; ``()`` for paths that
        #: never synchronize)
        self.barrier_schedule: tuple | None = (
            None if self.is_generator else ())
        self._tls = threading.local()

    def __repr__(self) -> str:
        return (f"LaunchPlan({self.kernel.name!r}, path={self.path!r}, "
                f"groups={self.num_groups}, items={self.total_items}, "
                f"grid={self.grid})")

    def describe(self) -> dict:
        """The compiled launch-invariant facts, as plain data."""
        return {
            "kernel": self.kernel.name,
            "path": self.path,
            "compiled_form": (self.compiled.form
                              if self.compiled is not None else None),
            "compiled_validated": (self.compiled.validated
                                   if self.compiled is not None else None),
            # "shadow" / "certificate" once validated, else None
            "validated_by": (self.compiled.validated_by
                             if self.compiled is not None else None),
            "grid": self.grid,
            "is_generator": self.is_generator,
            "arity": self.arity,
            "global_range": self.nd_range.global_range.dims,
            "local_range": self.nd_range.local_range.dims,
            "groups": self.num_groups,
            "group_size": self.group_size,
            "items": self.total_items,
            "local_mem_reuse": self.local_mem_reuse,
            "barrier_schedule": self.barrier_schedule,
            "fallback_reason": self.fallback_reason,
        }

    # -- group pooling -----------------------------------------------------

    def _groups(self) -> tuple:
        """This thread's pooled ``Group`` objects for the plan's range.

        Pools are thread-local, so concurrent ``pool_map`` workers
        reusing one plan never share mutable group state.  Unless the
        kernel declares the ``local_mem_reuse`` feature (a promise that
        every local-memory cell is written before it is read, as NW's
        tile wavefront does), each launch sees freshly cleared local
        memory — indistinguishable from a brand-new ``Group``.
        """
        groups = getattr(self._tls, "groups", None)
        if groups is None:
            groups = tuple(Group(gid, self.nd_range)
                           for gid in self.group_ids)
            self._tls.groups = groups
        elif not self.local_mem_reuse:
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
        elif not self.local_mem_reuse:
            for group, _ in pairs:
                if group._local_mem:
                    group._local_mem.clear()
        return pairs

    # -- execution ---------------------------------------------------------

    def execute(self, args: tuple) -> ExecutionStats:
        """Run one launch through the plan.

        The caller remains responsible for the per-launch duties that
        must *not* amortize — the executor polls the fault-injection /
        deadline hook before looking the plan up, so faults and retries
        stay per-launch even on a fully warm cache.
        """
        stats = ExecutionStats()
        stats.path = self.path
        tracer = current_tracer()
        if self.path == "compiled":
            return self._execute_compiled(args, stats, tracer)
        if tracer is not None:
            # Traced launches keep the exact legacy span structure by
            # delegating to the shared path runner (fresh groups, the
            # strict phase engine, per-phase spans).
            with tracer.span(f"{self.kernel.name}:{self.path}",
                             "kernel-form", kernel=self.kernel.name,
                             path=self.path, **({"grid": True} if self.grid
                                                else {})):
                if self.grid:
                    self._run_grid(args, stats, tracer)
                else:
                    _run_path(self.kernel, self.nd_range, args, self.path,
                              stats, tracer)
            _note_execution_metrics(stats)
            return stats
        if self.grid:
            self._run_grid(args, stats, None)
        elif self.path == "vector":
            self.run_fn(self.nd_range, *args)
            stats.groups = self.num_groups
            stats.items = self.total_items
        elif self.path == "group":
            self._run_group(args, stats)
        else:
            self._run_item(args, stats)
        return stats

    def _execute_compiled(self, args: tuple, stats: ExecutionStats,
                          tracer) -> ExecutionStats:
        ck = self.compiled
        if ck is None:  # demoted by a concurrent launch (GIL-ordered:
            # _demote writes path before compiled, so path is final here)
            stats.path = self.path
            if tracer is not None:
                with tracer.span(f"{self.kernel.name}:{self.path}",
                                 "kernel-form", kernel=self.kernel.name,
                                 path=self.path):
                    _run_path(self.kernel, self.nd_range, args, self.path,
                              stats, tracer)
                _note_execution_metrics(stats)
            else:
                _run_path(self.kernel, self.nd_range, args, self.path,
                          stats, None)
            return stats
        if tracer is not None:
            with tracer.span(f"{self.kernel.name}:compiled", "kernel-form",
                             kernel=self.kernel.name, path="compiled",
                             batched_form=ck.form, validated=ck.validated):
                self._run_compiled(ck, args, stats, tracer)
            _note_execution_metrics(stats)
        else:
            self._run_compiled(ck, args, stats, None)
        return stats

    def _run_compiled(self, ck, args: tuple, stats: ExecutionStats,
                      tracer) -> None:
        """One launch of the batched tier.

        First launch (``validated`` False): the batched program runs on
        buffer *copies* while the interpreter reference form runs on the
        real buffers; a bitwise match promotes the plan, anything else
        permanently demotes it — the interpreter result is authoritative
        either way, so the launch's outputs are byte-identical to the
        interpreter by construction.  Validated launches run the batched
        program directly; argument types the batched runtime cannot
        represent demote *before* any buffer is touched.  Data-dependent
        numpy errors on a validated plan (e.g. an out-of-bounds indirect
        store) propagate, exactly as the interpreter's would mid-loop.

        With a certificate store installed
        (:mod:`repro.sycl.certificates`), an intact certificate for this
        launch's key stands in for the shadow run, and a shadow run that
        matches writes one.
        """
        store = payload = None
        if not ck.validated:
            store = certificate_store()
            if store is not None:
                from .certificates import certificate_payload

                payload = certificate_payload(self.kernel, ck.form,
                                              self.run_fn, ck.fn,
                                              self.nd_range, args)
                if payload is not None and store.lookup(payload):
                    ck.validated_by = "certificate"
        if ck.validated:
            try:
                bound = ck.bind(args)
            except VectorizeFallback as exc:
                self._demote(str(exc))
                stats.path = self.path
                _run_path(self.kernel, self.nd_range, args, self.path,
                          stats, tracer)
                return
            phases = ck.run(bound, tracer)
            stats.groups = self.num_groups
            stats.items = self.total_items
            if ck.is_generator:
                # one batched phase = one barrier phase in every group
                stats.barrier_phases = phases * self.num_groups
                stats.gen_advances = phases + 1
            return
        if tracer is None:
            matched = self._shadow_validate(ck, args, stats, None)
        else:
            with tracer.span("vectorize.validate", "vectorize",
                             kernel=self.kernel.name, form=ck.form):
                matched = self._shadow_validate(ck, args, stats, tracer)
        if matched and payload is not None:
            store.record(payload)

    def _shadow_validate(self, ck, args: tuple, stats: ExecutionStats,
                         tracer) -> bool:
        """The batched program on buffer copies, the interpreter on the
        real buffers, then a bitwise comparison; promotes on a match and
        demotes otherwise.  Returns whether the plan was promoted."""
        try:
            shadow_args = ck.shadow_run(args)
        except Exception as exc:  # noqa: BLE001 — any failure demotes
            self._demote(f"{type(exc).__name__}: {exc}")
            stats.path = self.path
            _run_path(self.kernel, self.nd_range, args, self.path,
                      stats, tracer)
            return False
        # authoritative interpreter run on the real buffers
        _run_path(self.kernel, self.nd_range, args, ck.fallback_path,
                  stats, tracer)
        if ck.buffers_match(shadow_args, args):
            ck.validated_by = "shadow"  # stats.path stays "compiled"
            return True
        self._demote("batched result diverged from the interpreter")
        stats.path = self.path
        return False

    def _demote(self, reason: str) -> None:
        """Permanently fall this plan back to its interpreter form."""
        ck = self.compiled
        if ck is None:  # concurrent launch demoted first
            return
        _note_vectorize_fallback(self.kernel.name, reason, "runtime")
        self.fallback_reason = reason
        self.path = ck.fallback_path
        self.compiled = None

    def _run_group(self, args: tuple, stats: ExecutionStats) -> None:
        locals_ = [a for a in args if isinstance(a, LocalAccessor)]
        fn = self.run_fn
        if not self.is_generator:
            for group in self._groups():
                for acc in locals_:
                    acc._begin_group()
                fn(group, *args)
                for acc in locals_:
                    acc._end_group()
            stats.groups = self.num_groups
            stats.items = self.total_items
            return
        if self.barrier_schedule is None:
            self._first_strict_group(args, stats, locals_)
            return
        # Warm path: the first strict execution validated the yielded
        # tokens, so each group's independent generator is drained at
        # full speed; counting the yields keeps the stats exact even
        # for data-dependent phase structures.
        phases = 0
        advances = 0
        for group in self._groups():
            for acc in locals_:
                acc._begin_group()
            n = 0
            for _ in fn(group, *args):
                n += 1
            phases += n
            advances += n + 1
            for acc in locals_:
                acc._end_group()
        stats.groups = self.num_groups
        stats.items = self.total_items
        stats.barrier_phases = phases
        stats.gen_advances = advances

    def _first_strict_group(self, args, stats, locals_) -> None:
        """First execution: the strict phase engine per group (token and
        divergence checks), recording the barrier-phase schedule."""
        schedule = []
        fn = self.run_fn
        for group in self._groups():
            for acc in locals_:
                acc._begin_group()
            before = stats.barrier_phases
            _advance_barrier_phases(self.kernel, (fn(group, *args),), stats)
            schedule.append(stats.barrier_phases - before)
            for acc in locals_:
                acc._end_group()
        stats.groups = self.num_groups
        stats.items = self.total_items
        self.barrier_schedule = tuple(schedule)

    def _run_item(self, args: tuple, stats: ExecutionStats) -> None:
        locals_ = [a for a in args if isinstance(a, LocalAccessor)]
        fn = self.run_fn
        stats.groups = self.num_groups
        stats.items = self.total_items
        if not self.is_generator:
            for group, items in self._items():
                for acc in locals_:
                    acc._begin_group()
                for item in items:
                    fn(item, *args)
                for acc in locals_:
                    acc._end_group()
            return
        if self.barrier_schedule is None:
            self._first_strict_item(args, stats, locals_)
            return
        # Warm path: a list-based lockstep engine.  Token types were
        # validated by the first strict execution; the all-or-none
        # divergence contract is still enforced every launch.
        name = self.kernel.name
        phases = 0
        advances = 0
        for group, items in self._items():
            for acc in locals_:
                acc._begin_group()
            live = [fn(item, *args) for item in items]
            while live:
                nxt = []
                append = nxt.append
                for gen in live:
                    try:
                        next(gen)
                    except StopIteration:
                        continue
                    append(gen)
                advances += len(live)
                if nxt:
                    if len(nxt) != len(live):
                        raise KernelLaunchError(
                            f"kernel {name!r}: divergent barrier - only "
                            f"{len(nxt)} of {len(live)} work-items "
                            "reached it")
                    phases += 1
                live = nxt
            for acc in locals_:
                acc._end_group()
        stats.barrier_phases = phases
        stats.gen_advances = advances

    def _first_strict_item(self, args, stats, locals_) -> None:
        schedule = []
        fn = self.run_fn
        for group, items in self._items():
            for acc in locals_:
                acc._begin_group()
            before = stats.barrier_phases
            _advance_barrier_phases(
                self.kernel, [fn(item, *args) for item in items], stats)
            schedule.append(stats.barrier_phases - before)
            for acc in locals_:
                acc._end_group()
        self.barrier_schedule = tuple(schedule)

    def _run_grid(self, args: tuple, stats: ExecutionStats, tracer) -> None:
        """Grid-synchronized execution: barriers interlock across the
        whole grid, so every launch runs the strict phase engine — the
        plan amortizes selection, inspection, lattice lookups, and group
        construction only."""
        locals_ = [a for a in args if isinstance(a, LocalAccessor)]
        for acc in locals_:
            acc._begin_group()  # one grid-wide instance
        fn = self.run_fn
        stats.groups = self.num_groups
        stats.items = self.total_items
        if self.path == "group":
            gens = [fn(group, *args) for group in self._groups()]
        else:
            gens = [fn(item, *args)
                    for group, items in self._items()
                    for item in items]
        _advance_barrier_phases(self.kernel, gens, stats, grid=True,
                                tracer=tracer)
        if self.barrier_schedule is None:
            self.barrier_schedule = (stats.barrier_phases,)
        for acc in locals_:
            acc._end_group()


def _select_grid_path(kernel: KernelSpec) -> str:
    """Path selection for grid-synchronized launches (mirrors the legacy
    checks in :func:`~repro.sycl.executor.run_grid_synchronized`)."""
    if (kernel.group_fn is not None
            and inspect.isgeneratorfunction(kernel.group_fn)):
        return "group"
    if kernel.item_fn is None:
        raise KernelLaunchError(
            f"kernel {kernel.name!r} needs an item_fn for grid sync")
    if not inspect.isgeneratorfunction(kernel.item_fn):
        raise KernelLaunchError(
            f"kernel {kernel.name!r} never synchronizes; use run_nd_range")
    return "item"
