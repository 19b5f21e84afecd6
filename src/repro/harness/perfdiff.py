"""Perf-regression sentinel over the bench trajectory — ``repro perfdiff``.

``repro bench`` appends a schema-versioned ``repro-bench/2``
record to ``BENCH_executor.json`` on every run, but until now nothing
watched the trajectory: a dispatch-overhead regression would land
silently.  This module compares the **last two** trajectory records
with per-metric tolerance bands and exits nonzero on regression, so CI
can gate on it right after the bench step.

Noise awareness is the whole design:

* wall-clock bench numbers on shared CI runners jitter by tens of
  percent, so each watched metric carries a *tolerance band* — the
  multiplicative headroom a new record gets before it counts as a
  regression (default 1.5x, far above run-to-run noise, far below a
  genuine 2x dispatch-overhead regression);
* list-valued timings (per-trial samples) are reduced with ``min``
  before comparison — best-of is the noise-robust summary the bench
  itself uses;
* records are only compared when they are *comparable*: same schema,
  same ``--quick`` shape, and the same stamped environment
  (:func:`~repro.harness.bench.bench_environment`) — cross-machine
  trajectories are refused with status ``"skipped"`` (exit 0), as are
  trajectories with fewer than two records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "DEFAULT_TOLERANCES",
    "MetricDiff",
    "PerfDiffResult",
    "extract_metrics",
    "compare_records",
    "perfdiff",
    "render_perfdiff",
]


@dataclass(frozen=True)
class Watched:
    """One watched trajectory metric.

    ``higher_is_better`` flips the regression direction (ratios and
    speedups regress *down*; times regress *up*).  ``tolerance`` is the
    multiplicative band: a lower-better metric regresses when
    ``new > old * tolerance``, a higher-better one when
    ``new < old / tolerance``.
    """

    path: tuple
    tolerance: float = 1.5
    higher_is_better: bool = False


#: The watched metrics and their tolerance bands.  Chosen to catch the
#: failures the bench exists to detect (dispatch-overhead growth, plan
#: cache or figure cache breakage) while shrugging off CI noise.
DEFAULT_TOLERANCES: tuple = (
    Watched(("nw_wavefront", "warm_planned_s")),
    # planned / raw-generator floor: 1.0 is a launch that costs nothing
    # beyond its kernel body
    Watched(("nw_wavefront", "overhead_ratio")),
    Watched(("executor_tiers", "compiled_s")),
    Watched(("executor_tiers", "compiled_vs_item"),
            higher_is_better=True, tolerance=2.0),
    # per-app compiled-tier speedups for the dialect-widening holdouts;
    # records predating the widening simply lack these paths
    Watched(("executor_tiers", "apps", "NW", "compiled_vs_item"),
            higher_is_better=True, tolerance=2.0),
    Watched(("executor_tiers", "apps", "KMeans", "compiled_vs_item"),
            higher_is_better=True, tolerance=2.0),
    Watched(("executor_tiers", "apps", "Mandelbrot", "compiled_vs_item"),
            higher_is_better=True, tolerance=2.0),
    Watched(("executor_tiers", "apps", "CFD FP32", "compiled_vs_item"),
            higher_is_better=True, tolerance=2.0),
    Watched(("executor_tiers", "apps", "LavaMD", "compiled_vs_item"),
            higher_is_better=True, tolerance=2.0),
    Watched(("figure_sweep", "warm_s")),
    Watched(("figure_sweep", "speedup_warm_over_cold"),
            higher_is_better=True, tolerance=2.0),
)


def _lookup(record: dict, path: tuple):
    node = record
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    if isinstance(node, list):
        node = min(node) if node else None
    return node if isinstance(node, (int, float)) else None


def extract_metrics(record: dict, watched=DEFAULT_TOLERANCES) -> dict:
    """The watched scalar values of one trajectory record (list-valued
    timings reduced with ``min``); missing metrics are omitted."""
    out = {}
    for w in watched:
        value = _lookup(record, w.path)
        if value is not None:
            out[".".join(w.path)] = value
    return out


@dataclass
class MetricDiff:
    """One watched metric's comparison."""

    name: str
    previous: float
    latest: float
    tolerance: float
    higher_is_better: bool
    regressed: bool

    @property
    def ratio(self) -> float:
        return self.latest / self.previous if self.previous else float("inf")


@dataclass
class PerfDiffResult:
    """Outcome of one trajectory comparison.

    ``status`` is ``"ok"``, ``"regression"``, or ``"skipped"`` (not
    comparable); :attr:`exit_code` maps regression to 1 and everything
    else to 0.
    """

    status: str
    reason: str = ""
    diffs: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.status == "regression" else 0

    @property
    def regressions(self) -> list:
        return [d for d in self.diffs if d.regressed]


def _incomparable(prev: dict, latest: dict) -> str | None:
    """Why two records cannot be compared (``None`` when they can)."""
    if prev.get("schema") != latest.get("schema"):
        return (f"schema changed {prev.get('schema')!r} -> "
                f"{latest.get('schema')!r}")
    if prev.get("quick") != latest.get("quick"):
        return (f"bench shape changed quick={prev.get('quick')} -> "
                f"quick={latest.get('quick')}")
    env_prev = prev.get("environment")
    env_latest = latest.get("environment")
    if env_prev is None or env_latest is None:
        return "a record has no environment stamp (pre-profiling bench)"
    if env_prev != env_latest:
        changed = sorted(k for k in set(env_prev) | set(env_latest)
                         if env_prev.get(k) != env_latest.get(k))
        return f"environment changed ({', '.join(changed)})"
    return None


def compare_records(prev: dict, latest: dict,
                    watched=DEFAULT_TOLERANCES) -> PerfDiffResult:
    """Compare two trajectory records metric by metric."""
    reason = _incomparable(prev, latest)
    if reason is not None:
        return PerfDiffResult(status="skipped", reason=reason)
    diffs = []
    for w in watched:
        old = _lookup(prev, w.path)
        new = _lookup(latest, w.path)
        if old is None or new is None or old <= 0:
            continue
        if w.higher_is_better:
            regressed = new < old / w.tolerance
        else:
            regressed = new > old * w.tolerance
        diffs.append(MetricDiff(
            name=".".join(w.path), previous=float(old), latest=float(new),
            tolerance=w.tolerance, higher_is_better=w.higher_is_better,
            regressed=regressed))
    if not diffs:
        return PerfDiffResult(status="skipped",
                              reason="no watched metrics in common")
    status = "regression" if any(d.regressed for d in diffs) else "ok"
    return PerfDiffResult(status=status, diffs=diffs)


def perfdiff(path: str | Path, watched=DEFAULT_TOLERANCES) -> PerfDiffResult:
    """Compare the last two trajectory records of a bench file."""
    path = Path(path)
    if not path.exists():
        return PerfDiffResult(status="skipped",
                              reason=f"{path} does not exist")
    try:
        trajectory = json.loads(path.read_text()).get("trajectory", [])
    except ValueError as exc:
        return PerfDiffResult(status="skipped",
                              reason=f"{path} is not valid JSON: {exc}")
    if len(trajectory) < 2:
        return PerfDiffResult(
            status="skipped",
            reason=f"need 2 trajectory records, found {len(trajectory)}")
    return compare_records(trajectory[-2], trajectory[-1], watched)


def render_perfdiff(result: PerfDiffResult) -> str:
    """Human-readable comparison table."""
    lines = [f"repro perfdiff: {result.status}"]
    if result.reason:
        lines.append(f"  ({result.reason})")
    if result.diffs:
        lines.append("")
        lines.append(f"{'metric':<42}{'previous':>12}{'latest':>12}"
                     f"{'ratio':>8}{'band':>8}  verdict")
        for d in result.diffs:
            direction = "higher-better" if d.higher_is_better else "lower-better"
            verdict = "REGRESSED" if d.regressed else "ok"
            lines.append(
                f"{d.name:<42}{d.previous:>12.6g}{d.latest:>12.6g}"
                f"{d.ratio:>8.3f}{d.tolerance:>7.2f}x  {verdict} "
                f"({direction})")
    return "\n".join(lines)
