"""Functional benchmark runner: run an app on a device at a test scale
and verify the result against the numpy reference.

This is the "does the suite actually compute the right thing" driver —
the performance figures come from :mod:`repro.harness.experiments`.

Three harness-level facilities live here because both the suite sweep
and the figure builders use them:

* :func:`pool_map` — ordered ``concurrent.futures`` fan-out over
  independent cells (process pool when the function is pickle-safe and
  ``fork`` is available, thread pool otherwise — numpy releases the GIL
  on the heavy kernels, so threads still overlap), with optional
  error capture into :class:`~repro.resilience.FailedCell` records;
* :func:`generate_workload` — a content-keyed workload memo
  (``(config, size, seed, scale)``) that returns **deep copies**, since
  ``run_sycl`` mutates workload arrays in place;
* :func:`run_suite_functional` — the whole-suite sweep, with
  checkpoint-resume through an append-only
  :class:`~repro.harness.resultdb.SweepJournal` so a killed sweep loses
  at most its in-flight cells.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from contextlib import nullcontext as _null_context
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..altis.base import Variant, Workload
from ..altis.registry import make_app
from ..common.cache import code_fingerprint
from ..common.errors import CellExecutionError, InvalidParameterError
from ..resilience import FailedCell
from ..sycl import Queue
from ..trace.metrics import registry as _trace_metrics
from ..trace.spans import Tracer, current_tracer, install_tracer

if TYPE_CHECKING:  # pragma: no cover
    from .resultdb import SweepJournal

__all__ = [
    "RunResult",
    "CellOutcome",
    "run_functional",
    "run_suite_functional",
    "pool_map",
    "resolve_pool_mode",
    "generate_workload",
    "workload_cache_stats",
    "clear_workload_cache",
    "journal_record",
    "journal_record_trusted",
    "result_from_record",
]

#: per-config functional test scale: small enough for CI, large enough
#: to exercise real work-group structure
_DEFAULT_SCALES = {
    "CFD FP32": 0.002, "CFD FP64": 0.002,
    "DWT2D": 0.03, "FDTD2D": 0.05, "KMeans": 0.01,
    "LavaMD": 0.3, "Mandelbrot": 0.01, "NW": 0.02,
    "PF Naive": 0.05, "PF Float": 0.05,
    "Raytracing": 0.03, "SRAD": 0.02, "Where": 0.0005,
}

#: per-config verification tolerances (iterative FP apps accumulate error)
_TOLERANCES = {
    "KMeans": (1e-3, 1e-3),
    "LavaMD": (1e-3, 1e-4),
    "CFD FP32": (1e-4, 1e-6),
    "CFD FP64": (1e-4, 1e-6),
}


# ---------------------------------------------------------------------------
# Ordered pool fan-out
# ---------------------------------------------------------------------------

def resolve_pool_mode(fn: Callable, mode: str = "auto") -> str:
    """Pick ``"process"`` or ``"thread"`` for ``pool_map``.

    ``auto`` selects a process pool only when the function can actually
    cross a process boundary: a module-level, non-lambda callable (after
    unwrapping ``functools.partial``) with ``fork`` available.  Anything
    else — closures, lambdas, bound app methods — runs on threads.
    """
    if mode in ("process", "thread"):
        return mode
    if mode != "auto":
        raise InvalidParameterError(
            f"unknown pool mode {mode!r}; expected auto/process/thread")
    import multiprocessing  # only pooled maps pay for it

    target = fn
    while isinstance(target, partial):
        target = target.func
    name = getattr(target, "__qualname__", "<lambda>")
    picklable = (
        getattr(target, "__module__", None) is not None
        and "<locals>" not in name
        and "<lambda>" not in name
    )
    if picklable and "fork" in multiprocessing.get_all_start_methods():
        return "process"
    return "thread"


@dataclass
class CellOutcome:
    """Everything one pool cell reports home: the value or a structured
    failure, and (for process workers) the trace spans recorded
    remotely."""

    index: int
    key: str
    value: object = None
    error_kind: str | None = None
    message: str = ""
    #: the raw exception (dropped before crossing a process boundary)
    cause: BaseException | None = None
    events: list | None = None

    @property
    def ok(self) -> bool:
        return self.error_kind is None


def _run_cell(fn: Callable, item, index: int, key: str) -> CellOutcome:
    """Run one cell under a ``cell`` trace span, capturing its failure
    as a structured outcome (never raises)."""
    tracer = current_tracer()
    cell_cm = (tracer.span(f"cell:{key}", "cell")
               if tracer is not None else _null_context())
    with cell_cm:
        try:
            return CellOutcome(index=index, key=key, value=fn(item))
        except Exception as exc:  # structured capture; caller decides
            return CellOutcome(index=index, key=key,
                               error_kind=type(exc).__name__,
                               message=str(exc), cause=exc)


def _pool_cell(fn: Callable, traced: str | None, strip_cause: bool,
               spec: tuple) -> CellOutcome:
    """Pool-worker entry (module-level so a process pool can pickle it).
    ``traced="process"`` runs under a private tracer whose spans ship
    home in the outcome; ``"shared"`` records into the process tracer."""
    index, key, item = spec
    if traced == "process":
        tracer = Tracer(pid="worker")
        previous = install_tracer(tracer)
        try:
            outcome = _run_cell(fn, item, index, key)
        finally:
            install_tracer(previous)
        outcome.events = tracer.events()
    else:
        outcome = _run_cell(fn, item, index, key)
    if strip_cause:
        outcome.cause = None  # exceptions may not survive pickling
    return outcome


def _collect_outcomes(outcomes: list, capture_errors: bool) -> list:
    """Turn outcomes into results: failures become
    :class:`~repro.resilience.FailedCell` records (``capture_errors``)
    or raise a :class:`CellExecutionError` carrying the cell identity."""
    results = []
    first_error: CellOutcome | None = None
    for outcome in outcomes:
        if outcome.ok:
            results.append(outcome.value)
            continue
        if capture_errors:
            results.append(FailedCell(
                key=outcome.key, index=outcome.index,
                error_kind=outcome.error_kind, message=outcome.message))
        elif first_error is None:
            first_error = outcome
    if first_error is not None:
        raise _cell_error(first_error) from first_error.cause
    return results


def _cell_error(outcome: CellOutcome) -> CellExecutionError:
    return CellExecutionError(
        f"pool cell {outcome.index} ({outcome.key!r}) failed: "
        f"{outcome.error_kind}: {outcome.message}",
        key=outcome.key, index=outcome.index)


def pool_map(fn: Callable, items: Sequence | Iterable, *,
             workers: int | None = None, mode: str = "auto",
             capture_errors: bool = False,
             cell_key: Callable | None = None,
             on_result: Callable | None = None) -> list:
    """Map ``fn`` over ``items`` with a worker pool, preserving order.

    ``workers=None`` or ``workers <= 1`` runs serially (no pool
    overhead, exact seed behavior).  Results always come back in input
    order regardless of completion order, so sweeps stay deterministic
    under parallelism.

    When a tracer is active the trace context crosses the pool: thread
    workers record straight into the shared tracer (distinct ``tid`` per
    worker thread); process workers run under a private tracer whose
    spans are adopted into the parent trace afterwards, so a parallel
    sweep always yields one merged trace.

    ``capture_errors=True`` turns failed cells into
    :class:`~repro.resilience.FailedCell` records in the result list
    instead of aborting the map.  A worker exception that does propagate
    is raised as :class:`CellExecutionError` carrying the cell's key and
    index — never a bare re-raise.  ``on_result`` is invoked in the
    parent with each :class:`CellOutcome` as it completes (completion
    order), which is how the suite journals finished cells before the
    sweep ends.

    >>> pool_map(str, [1, 2, 3])
    ['1', '2', '3']
    >>> pool_map(len, ["aa", "b", "cccc"], workers=2, mode="thread")
    [2, 1, 4]
    """
    items = list(items)
    serial = workers is None or workers <= 1 or len(items) <= 1
    if serial and not capture_errors and on_result is None:
        # no cell spans or outcome records, just the documented error
        results = []
        for i, item in enumerate(items):
            try:
                results.append(fn(item))
            except Exception as exc:
                key = str(cell_key(item) if cell_key else item)
                raise _cell_error(CellOutcome(
                    index=i, key=key, error_kind=type(exc).__name__,
                    message=str(exc))) from exc
        return results
    keys = [str(cell_key(it) if cell_key else it) for it in items]
    if serial:
        outcomes = []
        for i, item in enumerate(items):
            outcome = _run_cell(fn, item, i, keys[i])
            outcomes.append(outcome)
            if on_result is not None:
                on_result(outcome)
            if not capture_errors and not outcome.ok:
                break  # abort mode fails fast; earlier cells stay journaled
        return _collect_outcomes(outcomes, capture_errors)

    # the serial path above never loads the pool machinery
    from concurrent.futures import (ProcessPoolExecutor, ThreadPoolExecutor,
                                    as_completed)

    workers = min(workers, len(items))
    pool_mode = resolve_pool_mode(fn, mode)
    tracer = current_tracer()
    traced = (None if tracer is None
              else "process" if pool_mode == "process" else "shared")
    mapped = partial(_pool_cell, fn, traced, pool_mode == "process")
    pool_cls = (ProcessPoolExecutor if pool_mode == "process"
                else ThreadPoolExecutor)
    slots: list = [None] * len(items)
    with pool_cls(max_workers=workers) as pool:
        futures = {pool.submit(mapped, (i, keys[i], item)): i
                   for i, item in enumerate(items)}
        for future in as_completed(futures):
            if future.cancelled():
                continue  # abort mode cancelled it below; result() would raise
            outcome = future.result()  # _pool_cell never raises
            slots[futures[future]] = outcome
            if on_result is not None:
                on_result(outcome)
            if not capture_errors and not outcome.ok:
                for pending in futures:  # abort mode: stop scheduling
                    pending.cancel()
    outcomes = [o for o in slots if o is not None]
    if traced == "process":
        for outcome in outcomes:
            if outcome.events:
                tracer.adopt(outcome.events, pid=f"cell-{outcome.index}")
    return _collect_outcomes(outcomes, capture_errors)


# ---------------------------------------------------------------------------
# Workload memo
# ---------------------------------------------------------------------------

_WORKLOAD_CACHE: OrderedDict[tuple, Workload] = OrderedDict()
_WORKLOAD_CACHE_MAX = 64
#: ``pool_map(mode="thread")`` workers share the memo across threads;
#: the composite get/move_to_end/popitem sequences need a real lock
_WORKLOAD_CACHE_LOCK = threading.Lock()
_workload_cache_hits = 0
_workload_cache_misses = 0


def _copy_workload(workload: Workload) -> Workload:
    tracer = current_tracer()
    arrays = {}
    for name, arr in workload.arrays.items():
        if tracer is None:
            arrays[name] = np.copy(arr)
        else:
            # the staging copy is the functional analogue of the H2D
            # transfer: kernels mutate these arrays as device memory
            start = tracer.now_us()
            arrays[name] = np.copy(arr)
            tracer.complete(f"h2d:{name}", "transfer", start,
                            tracer.now_us() - start, bytes=arr.nbytes,
                            array=name)
            _trace_metrics.counter("harness.staged_bytes").inc(arr.nbytes)
    return Workload(
        app=workload.app,
        size=workload.size,
        arrays=arrays,
        params=dict(workload.params),
    )


def generate_workload(config: str, size: int, *, seed: int = 0,
                      scale: float = 1.0) -> Workload:
    """Memoized workload generation keyed ``(config, size, seed, scale)``.

    Generation is deterministic in the key, so cached entries are exact.
    Returned workloads are deep copies — apps mutate arrays in place
    (NW's score matrix, KMeans' centers), and a shared instance would
    poison every later cache hit.
    """
    global _workload_cache_hits, _workload_cache_misses
    key = (config, size, seed, float(scale))
    with _WORKLOAD_CACHE_LOCK:
        cached = _WORKLOAD_CACHE.get(key)
        if cached is not None:
            _WORKLOAD_CACHE.move_to_end(key)
            _workload_cache_hits += 1
        else:
            _workload_cache_misses += 1
    if cached is not None:
        return _copy_workload(cached)
    workload = make_app(config).generate(size, seed=seed, scale=scale)
    stored = _copy_workload(workload)
    with _WORKLOAD_CACHE_LOCK:
        _WORKLOAD_CACHE[key] = stored
        while len(_WORKLOAD_CACHE) > _WORKLOAD_CACHE_MAX:
            _WORKLOAD_CACHE.popitem(last=False)
    return workload


def workload_cache_stats() -> dict:
    with _WORKLOAD_CACHE_LOCK:
        return {
            "hits": _workload_cache_hits,
            "misses": _workload_cache_misses,
            "size": len(_WORKLOAD_CACHE),
            "max": _WORKLOAD_CACHE_MAX,
        }


def clear_workload_cache() -> None:
    global _workload_cache_hits, _workload_cache_misses
    with _WORKLOAD_CACHE_LOCK:
        _WORKLOAD_CACHE.clear()
        _workload_cache_hits = 0
        _workload_cache_misses = 0


# ---------------------------------------------------------------------------
# Functional runs
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    config: str
    device_key: str
    variant: Variant
    verified: bool
    modeled_kernel_s: float
    modeled_total_s: float
    #: ``None`` for results reconstructed from a resume journal
    workload: Workload | None = None
    #: the arrays ``run_sycl`` returned (golden-fixture checksums hash these)
    outputs: dict | None = None


def run_functional(config: str, device_key: str = "rtx2080",
                   variant: Variant = Variant.SYCL_OPT,
                   scale: float | None = None, seed: int = 0,
                   mode: str | None = None) -> RunResult:
    """Generate -> run -> verify one benchmark configuration.

    ``mode`` pins one executor path (vector/item/compiled) for every launch
    whose kernel implements it — the differential tests' entry point.

    >>> result = run_functional("NW", seed=0)
    >>> result.verified
    True
    >>> result.config, result.device_key
    ('NW', 'rtx2080')
    >>> result.modeled_kernel_s > 0
    True
    """
    tracer = current_tracer()
    app_span = (tracer.span(f"app:{config}", "app", config=config,
                            device=device_key, variant=variant.value,
                            seed=seed, mode=mode or "auto")
                if tracer is not None else _null_context())
    with app_span:
        app = make_app(config)
        scale = scale if scale is not None else _DEFAULT_SCALES.get(config, 0.02)
        workload = generate_workload(config, 1, seed=seed, scale=scale)
        queue = Queue(device_key, default_mode=mode)
        result = app.run_sycl(queue, workload, variant)
        if config == "Raytracing" and variant is Variant.CUDA:
            verified = True  # different RNG stream: not comparable (paper §3.3)
        else:
            expected = app.reference(workload)
            rtol, atol = _TOLERANCES.get(config, (1e-4, 1e-5))
            app.verify(result, expected, rtol=rtol, atol=atol)
            verified = True
    _trace_metrics.counter("harness.runs").inc()
    return RunResult(
        config=config,
        device_key=device_key,
        variant=variant,
        verified=verified,
        modeled_kernel_s=queue.kernel_time_s(),
        modeled_total_s=queue.total_time_s(),
        workload=workload,
        outputs=result,
    )


# ---------------------------------------------------------------------------
# Suite sweep with checkpoint-resume
# ---------------------------------------------------------------------------

def journal_record(result: RunResult, mode: str | None = None,
                   scale: float | None = None,
                   fingerprint: str | None = None) -> dict:
    """Serialize one completed suite cell for the append-only journal.

    Modeled times round-trip exactly through JSON (``repr``-based float
    encoding), and the output arrays are captured as SHA-256 digests so
    a resumed sweep can still prove its cells match the golden fixtures.
    Each record also carries the :func:`~repro.harness.resultdb.code_fingerprint`
    of the source tree and the workload ``scale`` that produced it, so a
    resume can reject records written by different code or a different
    sweep geometry instead of trusting the journal verbatim.

    The fingerprint is launch-invariant — one digest of the source tree
    covers every record of a sweep — so sweep drivers compute it once
    and pass it in; ``fingerprint=None`` falls back to computing it
    here (convenient for single records).
    """
    digests = {}
    for name, arr in sorted((result.outputs or {}).items()):
        arr = np.ascontiguousarray(np.asarray(arr))
        digests[name] = hashlib.sha256(arr.tobytes()).hexdigest()
    if scale is None:
        scale = _DEFAULT_SCALES.get(result.config, 0.02)
    return {
        "status": "done",
        "fingerprint": (code_fingerprint() if fingerprint is None
                        else fingerprint),
        "config": result.config,
        "device": result.device_key,
        "variant": result.variant.value,
        "mode": mode or "auto",
        "scale": float(scale),
        "verified": bool(result.verified),
        "kernel_s": result.modeled_kernel_s,
        "total_s": result.modeled_total_s,
        "digests": digests,
    }


def journal_record_trusted(record: dict, *, device_key: str,
                           variant: Variant, mode: str | None,
                           fingerprint: str | None) -> bool:
    """Whether a journal ``record`` may stand in for executing its cell.

    The ``--resume`` filter of :func:`run_suite_functional`: a record
    written by other code (stale fingerprint), for another device,
    variant, mode, suite config or workload scale, or whose report fields
    :func:`result_from_record` would misread (``verified`` not a bool,
    ``kernel_s``/``total_s`` not real numbers) is re-executed, never
    merged.
    """
    config = record.get("config")
    return (record.get("status") == "done"
            and record.get("fingerprint") == fingerprint
            and record.get("device") == device_key
            and record.get("variant") == variant.value
            and record.get("mode") == (mode or "auto")
            and isinstance(config, str) and config in _DEFAULT_SCALES
            and record.get("scale") == _DEFAULT_SCALES[config]
            and isinstance(record.get("verified"), bool)
            and _is_real(record.get("kernel_s"))
            and _is_real(record.get("total_s")))


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def result_from_record(record: dict) -> RunResult:
    """Rebuild a report-grade :class:`RunResult` from a journal record
    (no workload/outputs — those belong to the run that computed them)."""
    return RunResult(
        config=record["config"],
        device_key=record["device"],
        variant=Variant(record["variant"]),
        verified=bool(record["verified"]),
        modeled_kernel_s=float(record["kernel_s"]),
        modeled_total_s=float(record["total_s"]),
    )


def run_suite_functional(device_key: str = "rtx2080",
                         variant: Variant = Variant.SYCL_OPT, *,
                         workers: int | None = None,
                         pool_mode: str = "auto",
                         mode: str | None = None,
                         degrade: bool = False,
                         journal: SweepJournal | str | os.PathLike | None = None,
                         resume: bool = False) -> list:
    """Run every configuration once (the 'does it all work' sweep).

    Results are returned in suite (``_DEFAULT_SCALES``) order no matter
    which worker finishes first.

    Failure handling (off by default):

    * ``degrade=True`` — a cell that fails becomes a
      :class:`~repro.resilience.FailedCell` entry in the returned list
      instead of aborting the sweep;
    * ``journal`` (+ ``resume=True``) — completed cells are fsync'd to
      an append-only :class:`~repro.harness.resultdb.SweepJournal` as
      they finish; a resumed sweep re-executes only the cells the
      journal is missing (skips are counted on
      ``resilience.cells_resumed``) and merges journaled results back in
      suite order, byte-identical to an uninterrupted run.  Only records
      that :func:`journal_record_trusted` accepts are merged — stale or
      hand-edited journal entries are re-executed.  The fingerprint is
      computed **once per sweep** (it is launch-invariant) and shared by
      the resume filter and every appended record.
    """
    configs = list(_DEFAULT_SCALES)
    fingerprint = None
    if journal is not None:
        from .resultdb import SweepJournal

        if not isinstance(journal, SweepJournal):
            journal = SweepJournal(journal)
        # launch-invariant: one fingerprint covers the resume filter and
        # every record this sweep appends
        fingerprint = code_fingerprint()
    done: dict[str, dict] = {}
    if journal is not None and resume:
        for record in journal.load():
            if journal_record_trusted(record, device_key=device_key,
                                      variant=variant, mode=mode,
                                      fingerprint=fingerprint):
                done[record["config"]] = record
    if done:
        _trace_metrics.counter("resilience.cells_resumed").inc(len(done))
    pending = [c for c in configs if c not in done]

    fn = partial(run_functional, device_key=device_key, variant=variant,
                 mode=mode)
    if not degrade and journal is None:
        return pool_map(fn, configs, workers=workers, mode=pool_mode)

    on_result = None
    if journal is not None:
        def on_result(outcome: CellOutcome) -> None:
            if outcome.ok:
                journal.append(journal_record(outcome.value, mode=mode,
                                              fingerprint=fingerprint))

    fresh = pool_map(fn, pending, workers=workers, mode=pool_mode,
                     capture_errors=degrade, on_result=on_result)
    by_config = dict(zip(pending, fresh))
    merged = []
    for config in configs:
        if config in done:
            merged.append(result_from_record(done[config]))
            continue
        result = by_config[config]
        if isinstance(result, FailedCell):
            result.config = config
            result.device_key = device_key
            result.variant = variant.value
        merged.append(result)
    return merged
