"""Fault injection, retry/backoff, and degraded-mode records for the
harness — the recovery layer that keeps a suite sweep alive.

The paper's own migration study found that only ~70% of DPCT-migrated
applications ran before manual fixes (§3.2): partial failure is the
normal regime when sweeping many app x size x device configurations.
This package makes that regime testable and survivable:

* :mod:`~repro.resilience.faults` — :class:`FaultPlan`, a deterministic
  fault injector (exception / timeout / corrupt / slow) threaded through
  ``pool_map`` cells, executor launches, and ``FigureCache`` reads, with
  every decision drawn statelessly from the shared Philox RNG so runs
  reproduce exactly in any pool mode; plus the cooperative
  :class:`Deadline` that implements per-cell timeouts.
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy` (bounded,
  monotone, deterministically-jittered exponential backoff) and
  :func:`call_with_retry`, recorded as trace spans and ``resilience.*``
  counters.
* :mod:`~repro.resilience.checkpoint` — :class:`FailedCell`, the
  structured record a cell degrades into instead of aborting the run.

Checkpoint-resume for suite sweeps builds on this in the harness: see
:class:`repro.harness.resultdb.SweepJournal` and the ``--resume`` flag
of ``python -m repro suite`` (docs/resilience.md walks through the whole
subsystem).
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "checkpoint": ("FailedCell",),
    "faults": ("Deadline", "FaultPlan", "FaultRule", "cache_read_corrupted",
               "cell_scope", "current_cell", "current_fault_plan",
               "deterministic_uniform", "fault_injection",
               "install_fault_plan", "poll"),
    "retry": ("RetryPolicy", "call_with_retry"),
})
__all__.sort()  # the API reference lists this package alphabetically
