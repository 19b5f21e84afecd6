"""Hierarchical execution spans.

One :class:`Tracer` collects the whole process' spans.  The hierarchy
mirrors the layers of a reproduction run::

    run (CLI invocation)
      app (one benchmark configuration, harness.runner)
        launch (one queue command, sycl.queue)
          kernel-form segment (vector / item / single_task, sycl.executor)
            barrier-phase (one phase of the generator scheduler)
      model (perfmodel.timeline launch-plan assembly)

Wall-clock spans nest through a per-thread stack; *modeled*-clock spans
(queue device timeline, launch-plan decompositions) are recorded with an
explicit ``tid`` and no parent, so the two clock domains never mix —
they land side by side in the exported Chrome trace instead.

Tracing is **disabled by default** and must stay zero-cost that way:
:func:`current_tracer` returns ``None`` and every instrumentation site
guards on that single global read.
"""

from __future__ import annotations

import itertools
import threading
import time

__all__ = [
    "Span",
    "Tracer",
    "current_tracer",
    "install_tracer",
    "tracing",
]


class Span:
    """One finished span: a named interval with a parent and arguments.

    ``start_us``/``dur_us`` are microseconds on the owning tracer's
    clock — wall time for stack-managed spans, modeled time for spans
    recorded through :meth:`Tracer.complete` with an explicit ``tid``.
    """

    __slots__ = ("id", "parent_id", "name", "cat", "start_us", "dur_us",
                 "pid", "tid", "args")

    def __init__(self, id: int, parent_id: int | None, name: str, cat: str,
                 start_us: float, dur_us: float, pid: str, tid: str,
                 args: dict):
        self.id = id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.start_us = start_us
        self.dur_us = dur_us
        self.pid = pid
        self.tid = tid
        self.args = args

    @property
    def end_us(self) -> float:
        return self.start_us + self.dur_us

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, cat={self.cat!r}, "
                f"start_us={self.start_us:.1f}, dur_us={self.dur_us:.1f})")


class _OpenSpan:
    __slots__ = ("id", "name", "cat", "start_us", "args")

    def __init__(self, id: int, name: str, cat: str, start_us: float,
                 args: dict):
        self.id = id
        self.name = name
        self.cat = cat
        self.start_us = start_us
        self.args = args


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_open")

    def __init__(self, tracer: "Tracer", open_span: _OpenSpan):
        self._tracer = tracer
        self._open = open_span

    def __enter__(self) -> _OpenSpan:
        self._tracer._push(self._open)
        return self._open

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._pop(self._open, failed=exc_type is not None)
        return False


class Tracer:
    """Thread-safe span collector for one process."""

    def __init__(self, pid: str = "repro"):
        self.pid = pid
        self._epoch = time.perf_counter()
        self._events: list[Span] = []
        self._stacks: dict[int, list[_OpenSpan]] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    # -- clock -----------------------------------------------------------
    def now_us(self) -> float:
        """Microseconds since this tracer was created."""
        return (time.perf_counter() - self._epoch) * 1e6

    # -- wall-clock spans (per-thread stack) -----------------------------
    def span(self, name: str, cat: str = "span", /, **args) -> _SpanContext:
        open_span = _OpenSpan(next(self._ids), name, cat, self.now_us(), args)
        return _SpanContext(self, open_span)

    def _stack(self) -> list[_OpenSpan]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(tid, [])
        return stack

    def _push(self, open_span: _OpenSpan) -> None:
        self._stack().append(open_span)

    def _pop(self, open_span: _OpenSpan, failed: bool = False) -> Span:
        stack = self._stack()
        while stack and stack[-1] is not open_span:
            # an inner span escaped its ``with`` (generator abandoned
            # mid-span); close it so the hierarchy stays consistent
            self._finish(stack.pop(), stack, failed=True)
        if stack:
            stack.pop()
        return self._finish(open_span, stack, failed=failed)

    def _finish(self, open_span: _OpenSpan, stack: list[_OpenSpan],
                failed: bool = False) -> Span:
        args = open_span.args
        if failed:
            args = dict(args, error=True)
        done = Span(
            id=open_span.id,
            parent_id=stack[-1].id if stack else None,
            name=open_span.name,
            cat=open_span.cat,
            start_us=open_span.start_us,
            dur_us=self.now_us() - open_span.start_us,
            pid=self.pid,
            tid=f"thread-{threading.get_ident()}",
            args=args,
        )
        with self._lock:
            self._events.append(done)
        return done

    # -- pre-timed spans -------------------------------------------------
    def complete(self, name: str, cat: str, start_us: float, dur_us: float,
                 tid: str | None = None, /, **args) -> Span:
        """Record a span whose interval was timed by the caller.

        Without ``tid`` the span joins the calling thread's stack as a
        child of the innermost open span (barrier phases).  With an
        explicit ``tid`` it is a free-standing modeled-clock span.  The
        parameters are positional-only, so any span arg name is free.
        """
        if tid is None:
            stack = self._stack()
            parent = stack[-1].id if stack else None
            tid = f"thread-{threading.get_ident()}"
        else:
            parent = None
        done = Span(next(self._ids), parent, name, cat, start_us,
                    max(0.0, dur_us), self.pid, tid, args)
        with self._lock:
            self._events.append(done)
        return done

    # -- collection ------------------------------------------------------
    def events(self) -> list[Span]:
        with self._lock:
            return list(self._events)


# ---------------------------------------------------------------------------
# The process-wide active tracer
# ---------------------------------------------------------------------------

_ACTIVE: Tracer | None = None


def current_tracer() -> Tracer | None:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE


def install_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` process-wide; returns the previous one so the
    caller can restore it (``install_tracer(prev)``)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


class tracing:
    """``with tracing() as tracer:`` — install a fresh tracer, restore on
    exit.  The primary entry point for tests and the CLI."""

    def __init__(self, pid: str = "repro"):
        self.tracer = Tracer(pid=pid)
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        self._previous = install_tracer(self.tracer)
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        install_tracer(self._previous)
        return False
