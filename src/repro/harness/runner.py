"""Functional benchmark runner: run an app on a device at a test scale
and verify the result.

This is the "does the suite actually compute the right thing" driver —
the performance figures come from :mod:`repro.harness.experiments`.

A run is verified against the app's numpy reference, except for the
five configs whose ``vector_fn`` calls the very body ``reference()``
runs (CFD FP32/FP64, LavaMD, Mandelbrot, Raytracing): comparing those
with their reference would compare a function with itself.  At the
geometry the golden digests were made at (``rtx2080``, ``sycl_opt``,
auto mode, the default scale, seed 0) — every default ``suite`` cell —
their outputs are checked byte for byte against ``_GOLDEN_DIGESTS``
instead; any other geometry computes the reference as usual.

:func:`run_suite_functional` is the whole-suite sweep, one cell at a
time as the Altis harness runs them, with optional capture of failed
cells into :class:`~repro.resilience.FailedCell` rows and
checkpoint-resume through an append-only
:class:`~repro.harness.resultdb.SweepJournal` so a killed sweep loses
at most its in-flight cell.
"""

from __future__ import annotations

import hashlib
import os
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
from ..trace.spans import current_tracer

if TYPE_CHECKING:  # pragma: no cover
    from .resultdb import SweepJournal

__all__ = [
    "RunResult",
    "run_functional",
    "run_suite_functional",
    "generate_workload",
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

#: per-config verification tolerances; every other config must equal its
#: reference exactly (rtol = atol = 0), as every surveyed device, variant,
#: seed, size and mode does
_TOLERANCES = {
    # item mode sums LavaMD's forces in another order than the reference:
    # worst measured error 1.3e-5 absolute, 8.6e-3 relative on a near-zero
    # force (sizes 1-3, rtx2080/a100/stratix10, every variant)
    "LavaMD": (1e-3, 1e-4),
}


#: byte-exact digests of the outputs ``run_functional(config, seed=0)``
#: returns — device ``rtx2080``, variant ``sycl_opt``, auto mode, the
#: config's ``_DEFAULT_SCALES`` entry: per config, per output,
#: ``(sha256, shape, dtype)`` as :func:`_array_digest` computes them.
#: The golden rows of ``tests/test_differential_oracle.py`` pin every
#: config to this table; ``tests/test_golden_fixtures.py`` rewrites it
#: under ``REPRO_REGEN_GOLDEN=1``.
_GOLDEN_DIGESTS = {
    "CFD FP32": {
        "variables": (
            "7a7643a99ed890643b486337150e6469e12251106aa697533a89b70756553547",
            (194, 5), "float32"),
    },
    "CFD FP64": {
        "variables": (
            "a4334b7b23d3d582222465ff3881489e34ad3576dee382bef9762c51d9dafaf1",
            (194, 5), "float64"),
    },
    "DWT2D": {
        "coeffs": (
            "63665cad90711785931cebe691915a9e67a4589c62e483675f22e002fe683506",
            (32, 32), "int64"),
    },
    "FDTD2D": {
        "ez": (
            "d75ac27f41e81eb8b85c91034597241068b65a6cb0585f2b72517055fead7776",
            (26, 26), "float32"),
        "hx": (
            "9056f935dc47303033c9b0e097e252e24c93d3357c187982e49419fc99bae8fa",
            (26, 26), "float32"),
        "hy": (
            "d4015db957f878d898ee169c711b210f6e7da0b27e75dc6c6f0d33a3fdd8746b",
            (26, 26), "float32"),
    },
    "KMeans": {
        "assign": (
            "985a517fa0feb9e5e968ee15652833ebedb5d6041a3c4d07587866db136e5366",
            (328,), "int32"),
        "centers": (
            "5151c751857bd17293522eeecc65b01aaa5818b9054aa387ead20cbdd94b14e6",
            (16, 32), "float32"),
    },
    "LavaMD": {
        "f": (
            "b5a3c6b17fde6264fd950eef0cbb000833941c41920bc7b0568528e9b1e6a6ca",
            (8, 8, 3), "float32"),
        "v": (
            "a1df9e48f7b16ffcc3a2b944fc942d31647fbf054a6b59dddd1e1362dd3acb43",
            (8, 8), "float32"),
    },
    "Mandelbrot": {
        "out": (
            "db91bac95e6b1a2d44bc97160def6e2858999158de1ae5e004b8ed25daaf24c2",
            (20, 20), "int32"),
    },
    "NW": {
        "score": (
            "6da62bb80fb2c0799f2b887b1d5adfe997638df37b0f9543d9eeaee3be38c4f4",
            (41, 41), "int32"),
    },
    "PF Float": {
        "estimates": (
            "dc7cc8e8b350b57686edb3c1cc0c6f97437e181bfef45bde0410ad625faef3ee",
            (4, 2), "float64"),
    },
    "PF Naive": {
        "estimates": (
            "dc7cc8e8b350b57686edb3c1cc0c6f97437e181bfef45bde0410ad625faef3ee",
            (4, 2), "float64"),
    },
    "Raytracing": {
        "img": (
            "bce65c4474e1a5ea7952dcc2a9cc9ac8714a93f861db3a5cc8b6de8b4a3429fb",
            (15, 15, 3), "float64"),
    },
    "SRAD": {
        "img": (
            "1cc6483cc5ee8451e42dff0cbc1397ddb9cc1f22efde15707fed9c115ccc1cf9",
            (41, 41), "float32"),
    },
    "Where": {
        "matched": (
            "4d3a56c4edba28e9c4478be4fbc833d7bc9bb72bb0ba6039d71d5511db5f2277",
            (727, 4), "int32"),
        "prefix": (
            "6b7da794e19189bdb297bd61a54d1866f85b362fb061759eca9473423a66636f",
            (2097,), "int32"),
    },
}

#: configs whose ``vector_fn`` runs the body ``reference()`` runs, so
#: their golden-geometry cells are checked against ``_GOLDEN_DIGESTS``
_DIGEST_CHECKED = frozenset(
    ["CFD FP32", "CFD FP64", "LavaMD", "Mandelbrot", "Raytracing"])


def generate_workload(config: str, size: int, *, seed: int = 0,
                      scale: float = 1.0) -> Workload:
    """A fresh workload for ``config`` (deterministic in its arguments).

    Every call generates new arrays: ``run_sycl`` mutates its workload
    in place (NW's score matrix, KMeans' centers).
    """
    return make_app(config).generate(size, seed=seed, scale=scale)


def _array_digest(arr) -> tuple:
    """``(sha256, shape, dtype)`` of an array's C-order bytes."""
    arr = np.ascontiguousarray(np.asarray(arr))
    return (hashlib.sha256(arr.tobytes()).hexdigest(), arr.shape,
            str(arr.dtype))


def _check_golden_digests(config: str, outputs: dict) -> None:
    """Raise unless ``outputs`` match ``config``'s golden digests byte
    for byte (the digest-path counterpart of ``AltisApp.verify``)."""
    want = _GOLDEN_DIGESTS[config]
    got = {name: _array_digest(arr) for name, arr in outputs.items()}
    diverged = sorted(name for name in got.keys() | want.keys()
                      if got.get(name) != want.get(name))
    if diverged:
        raise AssertionError(
            f"{config}: outputs {diverged} diverge from their golden digests")


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
                   mode: str = "auto") -> RunResult:
    """Generate -> run -> verify one benchmark configuration.

    ``mode`` is the queue's kernel form (auto/item, see
    :class:`~repro.sycl.queue.Queue`) — the differential tests' entry
    point.  A ``_DIGEST_CHECKED`` config at the golden geometry (device
    ``rtx2080``, ``sycl_opt``, auto mode, default scale, seed 0) is
    verified against ``_GOLDEN_DIGESTS`` without computing its
    reference; every other run compares with ``app.reference()``.

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
                            seed=seed, mode=mode)
                if tracer is not None else _null_context())
    with app_span:
        app = make_app(config)
        scale = scale if scale is not None else _DEFAULT_SCALES.get(config, 0.02)
        workload = generate_workload(config, 1, seed=seed, scale=scale)
        queue = Queue(device_key, runtime=variant.runtime, default_mode=mode)
        result = app.run_sycl(queue, workload, variant)
        if config == "Raytracing" and variant is Variant.CUDA:
            pass  # different RNG stream: not comparable (paper §3.3)
        elif (config in _DIGEST_CHECKED and device_key == "rtx2080"
              and variant is Variant.SYCL_OPT
              and queue.default_mode == "auto"
              and scale == _DEFAULT_SCALES[config] and seed == 0):
            _check_golden_digests(config, result)
        else:
            expected = app.reference(workload)
            rtol, atol = _TOLERANCES.get(config, (0.0, 0.0))
            app.verify(result, expected, rtol=rtol, atol=atol)
    return RunResult(
        config=config,
        device_key=device_key,
        variant=variant,
        verified=True,
        modeled_kernel_s=queue.kernel_time_s(),
        modeled_total_s=queue.total_time_s(),
        workload=workload,
        outputs=result,
    )


# ---------------------------------------------------------------------------
# Suite sweep with checkpoint-resume
# ---------------------------------------------------------------------------

def journal_record(result: RunResult, mode: str = "auto",
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
    digests = {name: _array_digest(arr)[0]
               for name, arr in sorted((result.outputs or {}).items())}
    if scale is None:
        scale = _DEFAULT_SCALES.get(result.config, 0.02)
    return {
        "status": "done",
        "fingerprint": (code_fingerprint() if fingerprint is None
                        else fingerprint),
        "config": result.config,
        "device": result.device_key,
        "variant": result.variant.value,
        "mode": mode,
        "scale": float(scale),
        "verified": bool(result.verified),
        "kernel_s": result.modeled_kernel_s,
        "total_s": result.modeled_total_s,
        "digests": digests,
    }


def journal_record_trusted(record: dict, *, device_key: str,
                           variant: Variant, mode: str,
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
            and record.get("mode") == mode
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
                         mode: str = "auto",
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
      journal is missing (a traced sweep has one ``app`` span per
      executed cell) and merges journaled results back in suite order,
      byte-identical to an uninterrupted run.  Only records that
      :func:`journal_record_trusted` accepts are merged — stale or
      hand-edited journal entries are re-executed.  The fingerprint is
      computed **once per sweep** (it is launch-invariant) and shared by
      the resume filter and every appended record.  Records are keyed by
      the queue's resolved mode, so ``mode="compiled"`` (a spelling of
      auto) and ``mode="auto"`` resume each other's journals.
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
        # records carry the queue's resolved mode, so a journal written
        # under one spelling of a mode resumes under any other
        mode = Queue(device_key, default_mode=mode).default_mode
    done: dict[str, dict] = {}
    if journal is not None and resume:
        for record in journal.load():
            if journal_record_trusted(record, device_key=device_key,
                                      variant=variant, mode=mode,
                                      fingerprint=fingerprint):
                done[record["config"]] = record
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
                raise CellExecutionError(
                    f"cell {index} ({config!r}) failed: "
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
