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
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager, nullcontext as _null_context

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
    "certificate_store",
    "using_certificate_store",
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
                for how in list(ck.proofs.values()) or ["unvalidated"]:
                    validated_by[how] = validated_by.get(how, 0) + 1
        return {
            "hits": _HITS,
            "misses": _MISSES,
            "compiles": _COMPILES,
            "evictions": _EVICTIONS,
            "size": len(_CACHE),
            "maxsize": _MAXSIZE,
            # per-plan execution tier (compiled / vector / item)
            # so tier regressions are visible without tracing.  Each
            # entry carries a plan count plus, for plans that *missed*
            # the compiled tier while it was requested, the per-kernel
            # fallback reason (static ineligibility or the runtime
            # demotion message) — a demoted compiled plan shows up
            # under its interpreter tier with the reason it fell.
            "tiers": tiers,
            # how the live compiled plans' argument signatures were
            # proven: "static" (the exactness pass), "replay" (exact
            # for one launch apart from residual calls checked per
            # lane), "shadow" (this process compared bitwise),
            # "certificate" (a persisted proof), or "unvalidated" for a
            # plan with no proven signature yet
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


def _normalize_mode(mode: str | None) -> str | None:
    return None if mode in (None, "auto", "") else mode


def _plan_key(kernel: KernelSpec, nd_range: NdRange, force_item: bool,
              device_max_wg: int | None, mode: str | None,
              grid: bool) -> tuple:
    # Content-based, not id(kernel)-based: apps may rebuild equal
    # KernelSpec copies per launch (``with_attributes``); two specs with
    # the same implementation functions and attributes launch the same.
    return (
        kernel.item_fn, kernel.vector_fn, kernel.name,
        kernel.attributes,
        nd_range.global_range.dims, nd_range.local_range.dims,
        force_item, mode, device_max_wg, grid,
        # a vectorize_disabled() block must never reuse a plan compiled
        # to the batched tier (and vice versa) — the flag splits the key
        vectorize_enabled(),
    )


def get_plan(kernel: KernelSpec, nd_range: NdRange, *,
             force_item: bool = False, device_max_wg: int | None = None,
             mode: str | None = None, grid: bool = False) -> "LaunchPlan":
    """The cached plan for one launch shape, compiling it on first use.

    Invalid launch configurations raise
    :class:`~repro.common.errors.KernelLaunchError` — and are never
    cached, so every launch of a bad shape keeps failing loudly.
    """
    global _HITS, _MISSES
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
    grid, and probes the kernel form with :mod:`inspect` — work that
    would otherwise repeat per launch.  The compiled facts are
    immutable; the only write-once field is the barrier-phase schedule,
    recorded by the plan's first strict execution.

    ``execute`` is the one implementation of a launch.  Traced and
    untraced launches run the same runners over the plan's thread-local
    ``Group`` pool; a traced launch wraps them in a kernel-form span and
    drives barrier kernels through the strict phase engine, so every
    phase is recorded as a ``barrier-phase`` span.
    """

    __slots__ = (
        "kernel", "nd_range", "path", "grid", "is_generator", "arity",
        "run_fn", "group_ids", "group_size", "num_groups",
        "total_items", "barrier_schedule", "compiled",
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
            _check_grid_kernel(kernel)
            self.path = "item"
        else:
            self.path = _select_path(kernel, force_item, mode)
        if self.path == "compiled":
            self.compiled, _reason = compile_batched(kernel, nd_range)
            if self.compiled is None:  # defensive: eligibility raced
                self.path = "item"
                self.fallback_reason = _reason
        elif not grid and mode == "compiled":
            # compiled mode was requested but the plan landed on the
            # interpreter — record why, so plan_cache_info()'s tier map
            # can name the miss
            if not vectorize_enabled():
                self.fallback_reason = "vectorizer disabled"
            else:
                _form, _why = eligible_form(kernel)
                if _form is None:
                    self.fallback_reason = _why
        # the interpreter form behind the plan: for a compiled plan this
        # is the validation reference / demotion target
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
        ck = self.compiled
        return {
            "kernel": self.kernel.name,
            "path": self.path,
            "compiled_validated": ck.validated if ck is not None else None,
            # "static" / "replay" / "shadow" / "certificate" once
            # validated, else None
            "validated_by": ck.validated_by if ck is not None else None,
            "grid": self.grid,
            "is_generator": self.is_generator,
            "arity": self.arity,
            "global_range": self.nd_range.global_range.dims,
            "local_range": self.nd_range.local_range.dims,
            "groups": self.num_groups,
            "group_size": self.group_size,
            "items": self.total_items,
            "barrier_schedule": self.barrier_schedule,
            "fallback_reason": self.fallback_reason,
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
        ck = self.compiled
        if ck is not None:
            return self._execute_compiled(ck, args, stats, tracer)
        # _demote writes path before clearing compiled, so a plan read
        # as demoted here already carries its final path
        stats.path = path = self.path
        with (tracer.span(f"{self.kernel.name}:{path}", "kernel-form",
                          kernel=self.kernel.name, path=path,
                          **({"grid": True} if self.grid else {}))
              if tracer is not None else _null_context()):
            self._run(args, stats, tracer)
        if tracer is not None:
            _note_execution_metrics(stats)
        return stats

    def _run(self, args: tuple, stats: ExecutionStats, tracer) -> None:
        """One launch on the plan's interpreter path."""
        if self.grid:
            self._run_grid(args, stats, tracer)
        elif self.path == "vector":
            self.run_fn(self.nd_range, *args)
            stats.groups = self.num_groups
            stats.items = self.total_items
        else:
            self._run_item(args, stats, tracer)

    def _execute_compiled(self, ck, args: tuple, stats: ExecutionStats,
                          tracer) -> ExecutionStats:
        stats.path = "compiled"
        signature = ck.signature(args)
        with (tracer.span(f"{self.kernel.name}:compiled", "kernel-form",
                          kernel=self.kernel.name, path="compiled",
                          validated=signature in ck.proofs)
              if tracer is not None else _null_context()):
            self._run_compiled(ck, signature, args, stats, tracer)
        if tracer is not None:
            _note_execution_metrics(stats)
        return stats

    def _run_compiled(self, ck, signature: tuple, args: tuple,
                      stats: ExecutionStats, tracer) -> None:
        """One launch of the batched tier.

        Validation is per argument signature (dtype, shape and layout of
        every buffer, type of every scalar): one plan serves CFD's FP32
        and FP64 launches alike, and each must be proven on its own
        arguments.  The first launch of a signature runs the batched
        program on buffer *copies* while the per-item interpreter runs
        on the real buffers; a bitwise match proves the signature,
        anything else permanently demotes the plan — the interpreter
        result is authoritative either way, so the launch's outputs are
        byte-identical to the interpreter by construction.  Proven
        launches run the batched program directly; argument types the
        batched runtime cannot represent demote *before* any buffer is
        touched.  Data-dependent numpy errors on a proven launch (e.g.
        an out-of-bounds indirect store) propagate, exactly as the
        interpreter's would mid-loop.

        The order is static proof, certificate, replay, shadow.  A
        signature the static exactness pass proves
        (:func:`~repro.sycl.vectorize.prove_exact`) runs the batched
        program directly from its first launch, with no store lookup and
        no shadow run.  Otherwise, with a certificate store installed
        (:mod:`repro.sycl.certificates`), an intact certificate for this
        launch's key stands in for validation, and a validation that
        matches writes one.  Validation is a replay
        (:meth:`~repro.sycl.vectorize.CompiledKernel.replay`) when the
        launch-mode pass proves this launch exact apart from residual
        calls, else a shadow run; both vouch for this launch alone, and
        the memo and the certificate generalize from either alike.
        """
        store = payload = None
        proven = (signature in ck.proofs
                  or ck.prove_statically(self.run_fn, args, signature))
        if not proven:
            store = certificate_store()
            if store is not None:
                from .certificates import certificate_payload

                payload = certificate_payload(self.kernel, self.run_fn,
                                              ck.fn, self.nd_range, args)
                if payload is not None and store.lookup(payload):
                    ck.proofs[signature] = "certificate"
                    proven = True
        if proven:
            try:
                bound = ck.bind(args)
            except VectorizeFallback as exc:
                self._demote(str(exc))
                stats.path = self.path
                self._run_item(args, stats, tracer)
                return
            self._batched_stats(ck, ck.run(bound, tracer), stats)
            return
        with (tracer.span("vectorize.validate", "vectorize",
                          kernel=self.kernel.name)
              if tracer is not None else _null_context()) as span:
            sites = ck.replay_sites(self.run_fn, args)
            if span is not None:
                span.args["how"] = "shadow" if sites is None else "replay"
            if sites is None:
                matched = self._shadow_validate(ck, signature, args, stats,
                                                tracer)
            else:
                matched = self._replay_validate(ck, sites, signature, args,
                                                stats, tracer)
        if matched and payload is not None:
            store.record(payload)

    def _batched_stats(self, ck, phases: int, stats: ExecutionStats) -> None:
        stats.groups = self.num_groups
        stats.items = self.total_items
        if ck.is_generator:
            # one batched phase = one barrier phase in every group
            stats.barrier_phases = phases * self.num_groups
            stats.gen_advances = phases + 1

    def _replay_validate(self, ck, sites: dict, signature: tuple,
                         args: tuple, stats: ExecutionStats, tracer) -> bool:
        """The batched program on buffer copies with its residual calls
        replayed per lane; on a match the outputs are copied back and
        ``signature`` is proven, on any failure the plan demotes and the
        interpreter runs on the real buffers.  Returns whether it
        matched."""
        _metrics.counter("vectorize.replay.checks").inc()
        try:
            phases = ck.replay(args, sites, tracer)
        except Exception as exc:  # noqa: BLE001 — any failure demotes
            _metrics.counter("vectorize.replay.mismatches").inc()
            self._demote(f"{type(exc).__name__}: {exc}")
            stats.path = self.path
            self._run_item(args, stats, tracer)
            return False
        ck.proofs[signature] = "replay"
        self._batched_stats(ck, phases, stats)
        return True

    def _shadow_validate(self, ck, signature: tuple, args: tuple,
                         stats: ExecutionStats, tracer) -> bool:
        """The batched program on buffer copies, the interpreter on the
        real buffers, then a bitwise comparison; proves ``signature``
        on a match and demotes otherwise.  Returns whether it matched."""
        try:
            shadow_args = ck.shadow_run(args)
        except Exception as exc:  # noqa: BLE001 — any failure demotes
            self._demote(f"{type(exc).__name__}: {exc}")
            stats.path = self.path
            self._run_item(args, stats, tracer)
            return False
        # authoritative interpreter run on the real buffers
        self._run_item(args, stats, tracer)
        if ck.buffers_match(shadow_args, args):
            ck.proofs[signature] = "shadow"  # stats.path stays "compiled"
            return True
        self._demote("batched result diverged from the interpreter")
        stats.path = self.path
        return False

    def _demote(self, reason: str) -> None:
        """Permanently fall this plan back to the per-item interpreter."""
        ck = self.compiled
        if ck is None:  # concurrent launch demoted first
            return
        _note_vectorize_fallback(self.kernel.name, reason, "runtime")
        self.fallback_reason = reason
        self.path = "item"
        self.compiled = None

    def _run_item(self, args: tuple, stats: ExecutionStats,
                  tracer=None) -> None:
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
        if tracer is not None or self.barrier_schedule is None:
            self._strict_item(args, stats, locals_, tracer)
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

    def _strict_item(self, args, stats, locals_, tracer) -> None:
        """The strict phase engine per group (token and divergence
        checks, per-phase spans when traced); the first such run
        records the barrier-phase schedule."""
        schedule = []
        fn = self.run_fn
        for group, items in self._items():
            for acc in locals_:
                acc._begin_group()
            before = stats.barrier_phases
            _advance_barrier_phases(
                self.kernel, [fn(item, *args) for item in items], stats,
                tracer=tracer)
            schedule.append(stats.barrier_phases - before)
            for acc in locals_:
                acc._end_group()
        if self.barrier_schedule is None:
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
        gens = [fn(item, *args)
                for group, items in self._items()
                for item in items]
        _advance_barrier_phases(self.kernel, gens, stats, grid=True,
                                tracer=tracer)
        if self.barrier_schedule is None:
            self.barrier_schedule = (stats.barrier_phases,)
        for acc in locals_:
            acc._end_group()


def _check_grid_kernel(kernel: KernelSpec) -> None:
    """Grid sync runs the generator ``item_fn`` (paper §2.2)."""
    if kernel.item_fn is None:
        raise KernelLaunchError(
            f"kernel {kernel.name!r} needs an item_fn for grid sync")
    if not inspect.isgeneratorfunction(kernel.item_fn):
        raise KernelLaunchError(
            f"kernel {kernel.name!r} never synchronizes; use run_nd_range")
