"""The async job queue: suite sweeps as first-class, resumable jobs.

A job wraps one :func:`repro.harness.runner.run_suite_functional` sweep
with everything a long-running service needs around it:

* **deterministic identity** — :func:`job_id` is a content hash of the
  tenant plus the full :class:`JobSpec`, so resubmitting the same work
  is idempotent (you get the same job back, not a duplicate run), and
  :func:`sweep_id` hashes only the fields that define *which cells run*
  (tenant, device, variant, mode, configs, tag).  The journal is keyed
  by the sweep id, which is what makes recovery work: a job resubmitted
  after a crash — even with different retry/fault knobs — reattaches to
  the same journal and re-executes only the unfinished cells.
* **states** — ``queued → running → done | degraded | failed``
  (:data:`STATES`); ``degraded`` means the sweep completed but some
  cells exhausted recovery and were recorded as
  :class:`~repro.resilience.FailedCell` rows.
* **checkpoint-resume** — every job journals through the fsync'd
  :class:`~repro.harness.resultdb.SweepJournal` in its tenant's
  namespace and always runs with ``resume=True``; a killed server loses
  at most its in-flight cells.
* **progress events** — an append-only per-job event log (state
  transitions, one event per executed cell with attempts and injected
  faults, resumed-cell accounting, and a final metrics summary) that the
  HTTP layer streams to clients as NDJSON.

The queue itself is a fixed pool of daemon worker threads over a
``queue.Queue`` — jobs from any number of tenants interleave, and the
``resilience.*`` retry/deadline/degrade machinery doubles as the
service's SLO controls (see docs/service.md).
"""

from __future__ import annotations

import hashlib
import json
import queue as _queue
import threading
import time
from dataclasses import dataclass, field, fields

from ..altis.base import Variant
from ..common.errors import (CellExecutionError, InvalidParameterError,
                             ReproError)
from ..harness.reporting import render_suite_report
from ..harness.runner import (_DEFAULT_SCALES, journal_record_trusted,
                              run_suite_functional)
from ..resilience import FailedCell, FaultPlan, RetryPolicy
from ..trace.metrics import registry as _metrics
from .tenants import Tenant, TenantRegistry

__all__ = ["STATES", "TERMINAL_STATES", "JobSpec", "Job", "JobQueue",
           "job_id", "sweep_id"]

#: job lifecycle states, in order of progress
STATES = ("queued", "running", "done", "degraded", "failed")

#: states a job never leaves
TERMINAL_STATES = frozenset({"done", "degraded", "failed"})

_EXECUTOR_MODES = (None, "auto", "vector", "item", "compiled")


@dataclass(frozen=True)
class JobSpec:
    """Everything that defines one sweep job (JSON-serializable).

    ``configs=None`` sweeps the full suite; a tuple restricts it.
    ``tag`` is a client-chosen namespace component folded into the job
    and sweep identity — two otherwise-identical submissions with
    different tags are distinct jobs with distinct journals.

    >>> spec = JobSpec(configs=("NW", "SRAD"), retries=2)
    >>> spec.cell_count()
    2
    >>> JobSpec().cell_count() == len(JobSpec.suite_configs())
    True
    """

    device: str = "rtx2080"
    variant: str = "sycl_opt"
    mode: str | None = None
    configs: tuple | None = None
    workers: int | None = None
    retries: int = 0
    cell_timeout: float | None = None
    inject_faults: str | None = None
    fault_seed: int = 0
    on_error: str = "degrade"
    #: benchmark config to profile after the sweep (artifacts land in
    #: the tenant's artifact dir; ``None`` skips profiling)
    profile: str | None = None
    tag: str = ""

    def __post_init__(self):
        try:
            Variant(self.variant)
        except ValueError:
            raise InvalidParameterError(
                f"unknown variant {self.variant!r}; expected one of "
                f"{[v.value for v in Variant]}") from None
        if self.mode not in _EXECUTOR_MODES:
            raise InvalidParameterError(
                f"unknown executor mode {self.mode!r}; "
                f"expected one of {_EXECUTOR_MODES[1:]}")
        if self.mode == "auto":  # canonical form, as the suite CLI does
            object.__setattr__(self, "mode", None)
        if self.on_error not in ("abort", "degrade"):
            raise InvalidParameterError(
                f"on_error must be 'abort' or 'degrade', "
                f"got {self.on_error!r}")
        if self.retries < 0:
            raise InvalidParameterError(
                f"retries must be >= 0, got {self.retries!r}")
        if self.configs is not None:
            object.__setattr__(self, "configs", tuple(self.configs))
            unknown = [c for c in self.configs if c not in _DEFAULT_SCALES]
            if unknown:
                raise InvalidParameterError(
                    f"unknown suite config(s) {unknown!r}; "
                    f"expected a subset of {list(_DEFAULT_SCALES)}")
        if self.inject_faults:
            FaultPlan.parse(self.inject_faults)  # validate at admission
        if self.profile is not None and self.profile not in _DEFAULT_SCALES:
            raise InvalidParameterError(
                f"unknown profile config {self.profile!r}")

    @staticmethod
    def suite_configs() -> tuple:
        """The full suite, in sweep order."""
        return tuple(_DEFAULT_SCALES)

    def resolved_configs(self) -> tuple:
        if self.configs is None:
            return self.suite_configs()
        # suite order, exactly as run_suite_functional schedules them
        wanted = set(self.configs)
        return tuple(c for c in _DEFAULT_SCALES if c in wanted)

    def cell_count(self) -> int:
        return len(self.resolved_configs())

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise InvalidParameterError(
                f"unknown job-spec field(s) {sorted(unknown)!r}; "
                f"expected a subset of {sorted(known)}")
        kwargs = dict(payload)
        if kwargs.get("configs") is not None:
            kwargs["configs"] = tuple(kwargs["configs"])
        return cls(**kwargs)


def _digest(*parts) -> str:
    payload = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def job_id(tenant: str, spec: JobSpec) -> str:
    """Deterministic job identity: tenant + the full spec.

    >>> a = job_id("acme", JobSpec(configs=("NW",)))
    >>> a == job_id("acme", JobSpec(configs=("NW",)))
    True
    >>> a == job_id("acme", JobSpec(configs=("NW",), retries=1))
    False
    """
    return "j-" + _digest(tenant, spec.to_dict())


def sweep_id(tenant: str, spec: JobSpec) -> str:
    """Deterministic *sweep* identity: only the fields that define which
    cells run.  Jobs that differ only in recovery knobs (retries,
    deadlines, fault plans) share a sweep id — and therefore a journal —
    which is what lets a resubmission resume a crashed sweep.

    >>> a = sweep_id("acme", JobSpec(configs=("NW",)))
    >>> a == sweep_id("acme", JobSpec(configs=("NW",), retries=5))
    True
    >>> a == sweep_id("acme", JobSpec(configs=("NW",), tag="other"))
    False
    """
    return "s-" + _digest(tenant, spec.device, spec.variant,
                          spec.mode or "auto",
                          list(spec.resolved_configs()), spec.tag)


class Job:
    """One submitted sweep: spec, state, event log, and (on completion)
    the rendered report — byte-identical to ``repro suite`` output."""

    def __init__(self, id: str, tenant: str, spec: JobSpec, sweep: str):
        self.id = id
        self.tenant = tenant
        self.spec = spec
        self.sweep = sweep
        self.state = "queued"
        self.error: str | None = None
        self.report: str | None = None
        self.artifacts: dict[str, str] = {}
        self.cells_total = spec.cell_count()
        self.cells_done = 0
        self.cells_failed = 0
        self.cells_resumed = 0
        self.retries = 0
        self.faults_injected = 0
        self.submitted_at = time.time()
        self.finished_at: float | None = None
        self._t0 = time.monotonic()
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._terminal = threading.Event()
        self.emit("state", state="queued")

    # -- events -----------------------------------------------------------
    def emit(self, type: str, **payload) -> dict:
        """Append one event to the job's log (thread-safe, monotonic
        sequence numbers and elapsed-ms stamps)."""
        with self._lock:
            event = {"seq": len(self._events), "type": type,
                     "t_ms": round((time.monotonic() - self._t0) * 1e3, 3),
                     "job": self.id}
            event.update(payload)
            self._events.append(event)
            return event

    def events(self, since: int = 0) -> list[dict]:
        """Events with ``seq >= since`` (the streaming cursor)."""
        with self._lock:
            return list(self._events[since:])

    # -- state ------------------------------------------------------------
    def transition(self, state: str, **payload) -> None:
        if state not in STATES:
            raise InvalidParameterError(f"unknown job state {state!r}")
        self.state = state
        self.emit("state", state=state, **payload)
        if state in TERMINAL_STATES:
            self.finished_at = time.time()
            self._terminal.set()

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._terminal.wait(timeout)

    def snapshot(self) -> dict:
        """The job's status document (the ``GET /v1/jobs/<id>`` payload)."""
        with self._lock:
            n_events = len(self._events)
        return {
            "id": self.id,
            "tenant": self.tenant,
            "sweep": self.sweep,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "cells": {
                "total": self.cells_total,
                "done": self.cells_done,
                "resumed": self.cells_resumed,
                "failed": self.cells_failed,
            },
            "retries": self.retries,
            "faults_injected": self.faults_injected,
            "error": self.error,
            "events": n_events,
            "artifacts": sorted(self.artifacts),
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }


class JobQueue:
    """Fixed worker pool executing jobs from every tenant, in FIFO order.

    ``workers`` daemon threads pull from one shared queue; each job's
    sweep may itself fan out over ``spec.workers`` pool workers, so the
    two levels compose (service-level concurrency x sweep-level
    parallelism).  ``kill()`` abandons the workers without draining —
    the crash path; journals on disk are the only state that survives,
    exactly like a real server loss.
    """

    def __init__(self, tenants: TenantRegistry, *, workers: int = 4):
        if workers < 1:
            raise InvalidParameterError(
                f"workers must be >= 1, got {workers!r}")
        self.tenants = tenants
        self._jobs: dict[str, Job] = {}
        self._code_fingerprint: str | None = None
        self._queue: _queue.Queue = _queue.Queue()
        self._lock = threading.Lock()
        self._killed = threading.Event()
        self._workers = [
            threading.Thread(target=self._worker, name=f"sweep-worker-{i}",
                             daemon=True)
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- submission -------------------------------------------------------
    def submit(self, tenant_name: str, spec: JobSpec) -> Job:
        """Admit one job (idempotent by job id).

        Resubmitting a spec whose job is queued, running, or already
        finished returns the existing job untouched.  Resubmitting a
        spec whose previous job **failed** requeues it — and because the
        journal is keyed by sweep id, the rerun resumes from the cells
        the failed attempt completed.  Quota charging is resume-aware:
        only the cells the journal is still missing are charged.
        """
        tenant = self.tenants.get(tenant_name)
        jid = job_id(tenant_name, spec)
        with self._lock:
            existing = self._jobs.get(jid)
            if existing is not None and existing.state != "failed":
                return existing
        sid = sweep_id(tenant_name, spec)
        # journal read (disk I/O) stays outside the lock; the
        # existing-check is redone under it before the charge lands
        charge = max(0, spec.cell_count()
                     - self._journaled_cells(tenant, sid, spec))
        with self._lock:
            # re-check: a concurrent duplicate (loadgen's
            # retry-on-connection-fault shape) may have inserted between
            # the fast-path check and here.  Admit + insert under one
            # lock, so exactly one submission charges the tenant and
            # takes the active-job slot.
            existing = self._jobs.get(jid)
            if existing is not None and existing.state != "failed":
                return existing
            try:
                tenant.admit(charge)
            except ReproError:
                _metrics.counter("service.jobs_rejected").inc()
                raise
            job = Job(jid, tenant_name, spec, sid)
            self._jobs[jid] = job
        _metrics.counter("service.jobs_submitted").inc()
        self._queue.put(jid)
        return job

    def _journaled_cells(self, tenant: Tenant, sid: str,
                         spec: JobSpec) -> int:
        """Completed cells already in the sweep's journal (resume credit).

        Applies the exact validity predicate the sweep's resume filter
        uses (:func:`~repro.harness.runner.journal_record_trusted`):
        records with a stale code fingerprint or drifted scale will be
        re-executed, so they earn no credit.
        """
        from ..harness.resultdb import SweepJournal

        journal = SweepJournal(tenant.journal_path(sid))
        wanted = set(spec.resolved_configs())
        fingerprint = self._fingerprint()
        return len({r.get("config") for r in journal.load()
                    if journal_record_trusted(
                        r, device_key=spec.device,
                        variant=Variant(spec.variant), mode=spec.mode,
                        wanted=wanted, fingerprint=fingerprint)})

    def _fingerprint(self) -> str:
        """The source-tree fingerprint, computed once per queue — it is
        launch-invariant, and the hot submit path must not re-hash the
        tree per request (idempotent, so a benign double-compute race
        is fine)."""
        if self._code_fingerprint is None:
            from ..harness.resultdb import code_fingerprint

            self._code_fingerprint = code_fingerprint()
        return self._code_fingerprint

    # -- lookup -----------------------------------------------------------
    def get(self, jid: str, tenant: str | None = None) -> Job | None:
        """The job, or ``None`` — including when ``tenant`` is given and
        does not own it (cross-tenant ids are indistinguishable from
        unknown ids, so ids never leak across namespaces)."""
        with self._lock:
            job = self._jobs.get(jid)
        if job is None:
            return None
        if tenant is not None and job.tenant != tenant:
            return None
        return job

    def jobs(self, tenant: str | None = None) -> list[Job]:
        with self._lock:
            jobs = list(self._jobs.values())
        if tenant is not None:
            jobs = [j for j in jobs if j.tenant == tenant]
        return sorted(jobs, key=lambda j: j.submitted_at)

    # -- lifecycle --------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Wait until every admitted job is terminal."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for job in self.jobs():
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            if not job.wait(remaining):
                return False
        return True

    def kill(self) -> None:
        """Abandon the queue without draining — the simulated crash.

        Workers stop picking up jobs; queued and in-flight jobs are left
        in their current state.  Durable state (fsync'd journals) is all
        a successor queue needs to resume the unfinished sweeps.
        """
        self._killed.set()
        for _ in self._workers:
            self._queue.put(None)  # wake blocked workers so they exit

    def stop(self, timeout: float | None = 30.0) -> bool:
        """Graceful shutdown: drain admitted jobs, then stop workers."""
        drained = self.drain(timeout)
        self.kill()
        return drained

    # -- execution --------------------------------------------------------
    def _worker(self) -> None:
        while not self._killed.is_set():
            jid = self._queue.get()
            if jid is None or self._killed.is_set():
                return
            with self._lock:
                job = self._jobs.get(jid)
            if job is None or job.state != "queued":
                continue
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        tenant = self.tenants.get(job.tenant)
        job.transition("running")
        _metrics.gauge("service.jobs_running").set(
            sum(1 for j in self.jobs() if j.state == "running"))
        started = time.monotonic()
        try:
            results = self._run_sweep(job, tenant)
            self._finish(job, tenant, results)
        except Exception as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            detail = {}
            if isinstance(exc, CellExecutionError):
                detail = {"cell": exc.key, "attempts": exc.attempts}
            job.transition("failed", error=job.error, **detail)
            _metrics.counter("service.jobs_failed").inc()
        finally:
            tenant.release()
            _metrics.histogram("service.job_duration_s").observe(
                time.monotonic() - started)

    def _run_sweep(self, job: Job, tenant: Tenant) -> list:
        spec = job.spec
        retry = (RetryPolicy(max_attempts=spec.retries + 1)
                 if spec.retries > 0 else None)
        plan = (FaultPlan.parse(spec.inject_faults, seed=spec.fault_seed)
                if spec.inject_faults else None)
        configs = spec.resolved_configs()
        executed = set()

        def progress(outcome) -> None:
            job.cells_done += 1 if outcome.ok else 0
            job.cells_failed += 0 if outcome.ok else 1
            job.retries += max(0, outcome.attempts - 1)
            job.faults_injected += outcome.injected
            executed.add(outcome.key)
            job.emit("cell", key=outcome.key, ok=outcome.ok,
                     attempts=outcome.attempts, injected=outcome.injected,
                     error=outcome.error_kind)

        results = run_suite_functional(
            spec.device, Variant(spec.variant), workers=spec.workers,
            mode=spec.mode, configs=configs, retry=retry,
            cell_timeout=spec.cell_timeout, fault_plan=plan,
            degrade=spec.on_error == "degrade",
            journal=tenant.journal_path(job.sweep), resume=True,
            progress=progress)
        resumed = [c for c in configs if c not in executed]
        job.cells_resumed = len(resumed)
        job.cells_done += len(resumed)
        if resumed:
            job.emit("resumed", cells=resumed)
        return results

    def _finish(self, job: Job, tenant: Tenant, results: list) -> None:
        job.report = render_suite_report(results) + "\n"
        degraded = sum(1 for r in results if isinstance(r, FailedCell))
        unverified = sum(1 for r in results
                         if not isinstance(r, FailedCell) and not r.verified)
        if job.spec.profile is not None:
            self._write_profile(job, tenant)
        job.emit("metrics", cells_done=job.cells_done,
                 cells_resumed=job.cells_resumed, cells_failed=degraded,
                 retries=job.retries, faults_injected=job.faults_injected,
                 verification_failures=unverified)
        if unverified:
            job.error = f"{unverified} cell(s) failed golden verification"
            job.transition("failed", error=job.error)
            _metrics.counter("service.jobs_failed").inc()
        elif degraded:
            job.transition("degraded", failed_cells=degraded)
            _metrics.counter("service.jobs_degraded").inc()
        else:
            job.transition("done")
            _metrics.counter("service.jobs_completed").inc()

    def _write_profile(self, job: Job, tenant: Tenant) -> None:
        """Post-sweep profiling: the Fig. 1-style per-kernel report and
        flamegraph for ``spec.profile``, into the tenant's artifact dir."""
        from ..trace.profile import profile_functional, write_profile

        run = profile_functional(job.spec.profile,
                                 device_key=job.spec.device,
                                 variant=job.spec.variant,
                                 mode=job.spec.mode)
        out = tenant.artifact_dir(job.id)
        paths = write_profile(out, run)
        job.artifacts = {name: str(path) for name, path in paths.items()}
        job.emit("artifacts", names=sorted(job.artifacts))
