"""Trace export: Chrome-trace-format JSON and the flat launch table.

The Chrome trace format is the ``chrome://tracing`` / Perfetto JSON
object form: ``{"traceEvents": [...], ...}`` where every span is a
complete event (``"ph": "X"``) with microsecond ``ts``/``dur``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable

from .spans import Span

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "launch_table",
]


def to_chrome_trace(events: Iterable[Span]) -> dict:
    """Build the Chrome-trace document for a span list."""
    trace_events = []
    for ev in events:
        args = {k: _jsonable(v) for k, v in ev.args.items()}
        args["span_id"] = ev.id
        if ev.parent_id is not None:
            args["parent_id"] = ev.parent_id
        trace_events.append({
            "name": ev.name,
            "cat": ev.cat,
            "ph": "X",
            "ts": ev.start_us,
            "dur": ev.dur_us,
            "pid": ev.pid,
            "tid": ev.tid,
            "args": args,
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def write_chrome_trace(path: str | os.PathLike,
                       events: Iterable[Span]) -> Path:
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(events), indent=1))
    return path


def launch_table(events: Iterable[Span]) -> list[dict]:
    """Flatten launch spans into per-launch rows (reporting layer).

    Each row joins the wall-clock launch span with the modeled device
    time the queue attached to it — the same join Fig. 1 needs between
    measured harness time and modeled kernel time.
    """
    rows = []
    for ev in events:
        if ev.cat != "launch":
            continue
        args = ev.args
        rows.append({
            "kernel": args.get("kernel", ev.name),
            "path": args.get("path", "?"),
            "items": args.get("items", 0),
            "groups": args.get("groups", 0),
            "barrier_phases": args.get("barrier_phases", 0),
            "wall_us": ev.dur_us,
            "modeled_device_us": args.get("modeled_device_us", 0.0),
            "modeled_overhead_us": args.get("modeled_overhead_us", 0.0),
        })
    return rows
