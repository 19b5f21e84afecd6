"""Process-wide metrics registry: counters, gauges, histograms.

Naming follows the ``layer.quantity`` convention used across the
instrumentation (see docs/observability.md for the full catalogue):

* ``executor.launches``, ``executor.items``, ``executor.barrier_phases``,
  ``executor.gen_advances`` — functional-execution counters;
* ``sycl.h2d_bytes`` / ``sycl.d2h_bytes`` — modeled transfer volume;
* ``queue.launch_wall_us`` — histogram of wall-clock launch cost;
* ``perfmodel.plans_timed`` — launch-plan assemblies;
* ``harness.runs`` — functional runs;
* ``resilience.cells_resumed`` — suite cells a ``--resume`` merged from
  the sweep journal instead of re-executing.

Hot-path sites (executor, queue, buffer) update metrics only while a
tracer is active, so the disabled path stays free; harness-level sites
record unconditionally (per-run cost is negligible).
"""

from __future__ import annotations

import math
import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "registry"]


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


class Gauge:
    """Last-set value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming summary with log10 buckets and quantile estimates.

    Tracks count/sum/min/max plus decade buckets (``1e-1``..``1e9``
    upper bounds), enough to see the shape of launch costs without
    storing every sample.  A bounded reservoir additionally supports
    p50/p95/p99 estimates: once ``RESERVOIR`` samples are held, every
    other one is dropped and the keep-stride doubles, so the reservoir
    stays an evenly spaced (deterministic, order-dependent — never
    random) subsample of the observation sequence.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets",
                 "_samples", "_stride", "_lock")

    #: upper bounds of the decade buckets; the last bucket is +inf
    BOUNDS = tuple(10.0 ** e for e in range(-1, 10))

    #: reservoir capacity; halved (stride doubled) when exceeded
    RESERVOIR = 1024

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets = [0] * (len(self.BOUNDS) + 1)
        self._samples: list[float] = []
        self._stride = 1
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            for i, bound in enumerate(self.BOUNDS):
                if value <= bound:
                    self.buckets[i] += 1
                    break
            else:
                self.buckets[-1] += 1
            if self.count % self._stride == 0:
                self._samples.append(value)
                if len(self._samples) > self.RESERVOIR:
                    self._samples = self._samples[1::2]
                    self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in 0..100) over the reservoir.

        Exact while fewer than ``RESERVOIR`` values were observed;
        an evenly spaced subsample estimate afterwards.  Raises
        :class:`ValueError` when no values were observed — a percentile
        of an empty reservoir has no defined value, and returning a
        placeholder silently poisons downstream arithmetic.  Callers
        rendering optional summaries should use :meth:`snapshot`, whose
        ``p50``/``p95``/``p99`` are ``None`` for an empty histogram.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q!r} outside 0..100")
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            raise ValueError(
                f"percentile of histogram {self.name!r} with no samples"
            )
        rank = max(1, math.ceil(q / 100.0 * len(samples)))
        return samples[rank - 1]

    def _percentile_or_none(self, q: float) -> float | None:
        try:
            return self.percentile(q)
        except ValueError:
            return None

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "p50": self._percentile_or_none(50.0),
            "p95": self._percentile_or_none(95.0),
            "p99": self._percentile_or_none(99.0),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Get-or-create registry; names are unique across metric kinds."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(name, cls(name))
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict:
        with self._lock:
            metrics = dict(self._metrics)
        return {name: m.snapshot() for name, m in sorted(metrics.items())}

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


#: the process-wide default registry
registry = MetricsRegistry()
