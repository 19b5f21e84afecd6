"""Process-wide metrics registry of counters.

Naming follows the ``layer.quantity`` convention used across the
instrumentation (see docs/observability.md for the full catalogue):

* ``executor.launches``, ``executor.items``, ``executor.barrier_phases``,
  ``executor.gen_advances`` — functional-execution counters;
* ``perfmodel.plans_timed`` — launch-plan assemblies;
* ``harness.runs`` — functional runs;
* ``resilience.cells_resumed`` — suite cells a ``--resume`` merged from
  the sweep journal instead of re-executing.

The executor's launch counters update only while a tracer is active,
so the disabled path stays free; harness-level sites record
unconditionally (per-run cost is negligible).
"""

from __future__ import annotations

import threading

__all__ = ["Counter", "MetricsRegistry", "registry"]


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class MetricsRegistry:
    """Get-or-create registry of counters."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(name, Counter(name))
        return metric

    def snapshot(self) -> dict:
        with self._lock:
            metrics = dict(self._metrics)
        return {name: m.snapshot() for name, m in sorted(metrics.items())}

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


#: the process-wide default registry
registry = MetricsRegistry()
