"""Functional benchmark runner: run an app on a device at a test scale
and verify the result against the numpy reference.

This is the "does the suite actually compute the right thing" driver —
the performance figures come from :mod:`repro.harness.experiments`.

Two harness-level facilities live here:

* :func:`generate_workload` — a content-keyed workload memo
  (``(config, size, seed, scale)``) that returns **deep copies**, since
  ``run_sycl`` mutates workload arrays in place;
* :func:`run_suite_functional` — the whole-suite sweep, one cell at a
  time as the Altis harness runs them, with optional capture of failed
  cells into :class:`~repro.resilience.FailedCell` rows and
  checkpoint-resume through an append-only
  :class:`~repro.harness.resultdb.SweepJournal` so a killed sweep loses
  at most its in-flight cell.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from contextlib import nullcontext as _null_context
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..altis.base import Variant, Workload
from ..altis.registry import make_app
from ..common.cache import code_fingerprint
from ..common.errors import CellExecutionError
from ..resilience import FailedCell
from ..sycl import Queue
from ..trace.metrics import registry as _trace_metrics
from ..trace.spans import current_tracer

if TYPE_CHECKING:  # pragma: no cover
    from .resultdb import SweepJournal

__all__ = [
    "RunResult",
    "run_functional",
    "run_suite_functional",
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
# Workload memo
# ---------------------------------------------------------------------------

_WORKLOAD_CACHE: OrderedDict[tuple, Workload] = OrderedDict()
_WORKLOAD_CACHE_MAX = 64
#: callers on several threads may share the memo; the composite
#: get/move_to_end/popitem sequences need a real lock
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
                         mode: str | None = None,
                         degrade: bool = False,
                         journal: SweepJournal | str | os.PathLike | None = None,
                         resume: bool = False) -> list:
    """Run every configuration once (the 'does it all work' sweep).

    Cells run one after another in suite (``_DEFAULT_SCALES``) order,
    and the results come back in that order.  By default the first
    failing cell aborts the sweep with a :class:`CellExecutionError`
    carrying its ``key`` and ``index`` (chained to the cause).

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

    results = []
    for config in configs:
        if config in done:
            results.append(result_from_record(done[config]))
            continue
        try:
            result = run_functional(config, device_key, variant, mode=mode)
        except Exception as exc:
            # position among the cells this run executes (a resumed
            # sweep skips the journaled ones)
            index = pending.index(config)
            if not degrade:
                # "pool cell" is the established `suite aborted:` wording
                raise CellExecutionError(
                    f"pool cell {index} ({config!r}) failed: "
                    f"{type(exc).__name__}: {exc}",
                    key=config, index=index) from exc
            result = FailedCell(key=config, index=index,
                                error_kind=type(exc).__name__,
                                message=str(exc), config=config,
                                device_key=device_key, variant=variant.value)
        else:
            if journal is not None:
                journal.append(journal_record(result, mode=mode,
                                              fingerprint=fingerprint))
        results.append(result)
    return results
