"""Kernel-level profile aggregation — the ``repro profile`` engine.

The trace layer records *what happened* (hierarchical spans, counters);
this module answers *where the time went*.  It consumes one traced
run's span list and folds it into a structured per-kernel profile
report, the observability artifact the paper's Fig. 1 is built from:

* **hotspot table** — one row per kernel: launch count, total/self
  wall time, work-items and throughput, barrier phases, and the modeled
  device/overhead split the queue attributed to the same launches;
* **kernel vs non-kernel decomposition** — the Fig. 1 view for any
  app × device × size, derived from the modeled-clock spans exactly as
  :meth:`~repro.sycl.queue.Queue.kernel_time_s` /
  :meth:`~repro.sycl.queue.Queue.non_kernel_time_s` would compute it.

Wall-clock quantities vary run to run; everything else (launch counts,
items, barrier phases, modeled times) is deterministic for a fixed
configuration.  ``render_profile(..., deterministic=True)`` emits only
the deterministic columns — the projection the golden-report tests pin
byte-for-byte.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .spans import Span

__all__ = [
    "PROFILE_SCHEMA",
    "ProfileRun",
    "build_profile",
    "profile_functional",
    "render_profile",
    "write_profile",
]

#: Schema tag carried by every ``profile.json``; bump on key-structure
#: changes so downstream tooling can detect drift.
PROFILE_SCHEMA = "repro-profile/5"


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _children_by_parent(events: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for ev in events:
        if ev.parent_id is not None:
            children.setdefault(ev.parent_id, []).append(ev)
    return children


@dataclass
class _KernelAgg:
    """Mutable accumulator behind one hotspot row."""

    kernel: str
    launches: int = 0
    items: int = 0
    groups: int = 0
    barrier_phases: int = 0
    wall_us: float = 0.0
    body_wall_us: float = 0.0
    dispatch_wall_us: float = 0.0
    modeled_device_us: float = 0.0
    modeled_overhead_us: float = 0.0
    paths: dict = field(default_factory=dict)


def build_profile(events: Iterable[Span], *, device_key: str | None = None,
                  app: str | None = None, variant: str | None = None,
                  mode: str | None = None, scale: float | None = None,
                  seed: int | None = None) -> dict:
    """Fold one traced run's spans into the structured profile report.

    ``device_key`` names the report's device (a Table 2 catalogue
    key); when omitted it is recovered from the launch spans.  The
    report is plain JSON-serializable data — see the module docstring
    for the sections.
    """
    events = list(events)
    children = _children_by_parent(events)
    aggs: dict[str, _KernelAgg] = {}

    for ev in events:
        if ev.cat != "launch":
            continue
        args = ev.args
        kernel = args.get("kernel", ev.name)
        agg = aggs.get(kernel)
        if agg is None:
            agg = aggs[kernel] = _KernelAgg(kernel)
        agg.launches += 1
        agg.items += args.get("items", 0)
        agg.groups += args.get("groups", 0)
        agg.barrier_phases += args.get("barrier_phases", 0)
        agg.wall_us += ev.dur_us
        agg.modeled_device_us += args.get("modeled_device_us", 0.0)
        agg.modeled_overhead_us += args.get("modeled_overhead_us", 0.0)
        path = args.get("path", "?")
        agg.paths[path] = agg.paths.get(path, 0) + 1
        if device_key is None:
            device_key = args.get("device_key")
        body = sum(c.dur_us for c in children.get(ev.id, ())
                   if c.cat == "kernel-form")
        agg.body_wall_us += body
        agg.dispatch_wall_us += max(0.0, ev.dur_us - body)

    # -- the Fig. 1 decomposition, from the modeled-clock spans ----------
    kernel_us = overhead_us = host_task_us = 0.0
    for ev in events:
        if ev.cat != "modeled":
            continue
        if ev.args.get("kind") == "kernel":
            kernel_us += ev.args.get("device_us", 0.0)
            overhead_us += ev.args.get("overhead_us", 0.0)
        else:  # oneDPL calls, booked as host tasks
            host_task_us += ev.dur_us
    non_kernel_us = overhead_us + host_task_us

    # -- hotspot rows, deterministically ordered -------------------------
    rows = []
    for agg in sorted(aggs.values(),
                      key=lambda a: (-a.modeled_device_us, a.kernel)):
        wall_s = agg.wall_us / 1e6
        row = {
            "kernel": agg.kernel,
            "paths": dict(sorted(agg.paths.items())),
            "launches": agg.launches,
            "items": agg.items,
            "groups": agg.groups,
            "barrier_phases": agg.barrier_phases,
            "wall_us": agg.wall_us,
            "body_wall_us": agg.body_wall_us,
            "dispatch_wall_us": agg.dispatch_wall_us,
            "items_per_s": agg.items / wall_s if wall_s > 0 else 0.0,
            "modeled_device_us": agg.modeled_device_us,
            "modeled_overhead_us": agg.modeled_overhead_us,
        }
        rows.append(row)

    # -- run identity & device context -----------------------------------
    app_spans = [ev for ev in events if ev.cat == "app"]
    if app_spans and app is None:
        app = app_spans[0].args.get("config")
    run = {
        "app": app,
        "device": device_key,
        "variant": variant,
        "mode": mode,
        "scale": scale,
        "seed": seed,
        "app_wall_us": sum(ev.dur_us for ev in app_spans),
        "spans": len(events),
    }
    total_us = kernel_us + non_kernel_us
    return {
        "schema": PROFILE_SCHEMA,
        "run": run,
        "device_spec": _device_summary(device_key),
        "kernels": rows,
        "decomposition": {
            "kernel_us": kernel_us,
            "overhead_us": overhead_us,
            "host_task_us": host_task_us,
            "non_kernel_us": non_kernel_us,
            "total_us": total_us,
            "kernel_fraction": kernel_us / total_us if total_us else 0.0,
        },
    }


def _device_summary(device_key: str | None) -> dict | None:
    if device_key is None:
        return None
    from ..perfmodel.spec import get_spec

    spec = get_spec(device_key)
    return {
        "key": spec.key,
        "name": spec.name,
        "kind": spec.kind.value,
        "peak_fp32_tflops": spec.peak_fp32_tflops,
        "mem_bw_gbs": spec.mem_bw_gbs,
    }


# ---------------------------------------------------------------------------
# One-call orchestration (the CLI's and the tests' entry point)
# ---------------------------------------------------------------------------

@dataclass
class ProfileRun:
    """Everything one profiled run produced: the report, the raw spans,
    and the metrics-registry snapshot taken right after the run."""

    profile: dict
    events: list
    metrics: dict


def profile_functional(config: str, *, device_key: str = "rtx2080",
                       variant=None, mode: str = "auto",
                       scale: float | None = None,
                       seed: int = 0) -> ProfileRun:
    """Run one benchmark under a fresh tracer and profile it.

    A thin orchestration over :func:`repro.harness.runner.run_functional`
    and :func:`build_profile`; the harness import is deferred so the
    trace layer stays import-light.
    """
    from ..altis.base import Variant
    from ..harness.runner import run_functional
    from .metrics import registry
    from .spans import tracing

    variant = Variant.SYCL_OPT if variant is None else Variant(variant)
    with tracing() as tracer:
        with tracer.span("repro:profile", "run", command="profile",
                         config=config):
            run_functional(config, device_key, variant, scale=scale,
                           seed=seed, mode=mode)
        events = tracer.events()
    profile = build_profile(
        events, device_key=device_key, app=config, variant=variant.value,
        mode=mode, scale=scale, seed=seed)
    return ProfileRun(profile=profile, events=events,
                      metrics=registry.snapshot())


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt_units(value: float, unit: str = "") -> str:
    """Engineering-notation formatting (1234567 -> '1.23M')."""
    for bound, suffix in ((1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= bound:
            return f"{value / bound:.2f}{suffix}{unit}"
    return f"{value:.2f}{unit}"


def render_profile(profile: dict, *, deterministic: bool = False) -> str:
    """Markdown report for one profile.

    ``deterministic=True`` drops every wall-clock-derived column
    (wall/self times, items/s) and keeps the run-invariant ones — the
    projection pinned by the golden-report tests.
    """
    run = profile["run"]
    dev = profile.get("device_spec") or {}
    title = f"repro profile — {run.get('app', '?')} on {run.get('device', '?')}"
    lines = [f"# {title}", ""]
    ident = (f"variant={run.get('variant')}  mode={run.get('mode')}  "
             f"scale={run.get('scale')}  seed={run.get('seed')}")
    lines.append(ident)
    if dev:
        lines.append(f"device: {dev['name']} — "
                     f"{dev['peak_fp32_tflops']:.1f} TFLOP/s peak FP32, "
                     f"{dev['mem_bw_gbs']:.1f} GB/s")
    lines.append("")

    lines.append("## Kernel hotspots")
    lines.append("")
    if deterministic:
        header = ("| kernel | path | launches | items | phases | "
                  "model ms | ovh ms |")
        rule = "|---|---|---:|---:|---:|---:|---:|"
    else:
        header = ("| kernel | path | launches | items | phases | wall ms "
                  "| self ms | items/s | model ms | ovh ms |")
        rule = "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|"
    lines += [header, rule]
    for row in profile["kernels"]:
        paths = "+".join(sorted(row["paths"]))
        common = (f"| {row['kernel']} | {paths} | {row['launches']} "
                  f"| {row['items']} | {row['barrier_phases']} ")
        model = (f"| {row['modeled_device_us'] / 1e3:.3f} "
                 f"| {row['modeled_overhead_us'] / 1e3:.3f} |")
        if deterministic:
            lines.append(common + model)
        else:
            wall = (f"| {row['wall_us'] / 1e3:.3f} "
                    f"| {row['body_wall_us'] / 1e3:.3f} "
                    f"| {_fmt_units(row['items_per_s'])} ")
            lines.append(common + wall + model)
    lines.append("")

    d = profile["decomposition"]
    lines.append("## Execution-time decomposition (modeled, Fig. 1 view)")
    lines.append("")
    lines.append(f"- kernel time     : {d['kernel_us'] / 1e3:.3f} ms "
                 f"({100.0 * d['kernel_fraction']:.1f}%)")
    lines.append(f"- non-kernel time : {d['non_kernel_us'] / 1e3:.3f} ms "
                 f"(launch overhead {d['overhead_us'] / 1e3:.3f} ms, "
                 f"host tasks {d['host_task_us'] / 1e3:.3f} ms)")
    lines.append(f"- total           : {d['total_us'] / 1e3:.3f} ms")
    lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def write_profile(out_dir: str | os.PathLike, run: ProfileRun) -> dict[str, Path]:
    """Write the full artifact set of one profiled run.

    ``profile.json`` (structured report), ``profile.md`` (rendered
    report) and ``trace.json`` (Chrome trace with the metrics snapshot,
    loadable by Perfetto or speedscope).  Returns the paths by artifact
    name.
    """
    from .export import write_chrome_trace

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "profile.json": out / "profile.json",
        "profile.md": out / "profile.md",
        "trace.json": out / "trace.json",
    }
    paths["profile.json"].write_text(
        json.dumps(run.profile, indent=2, sort_keys=True) + "\n")
    paths["profile.md"].write_text(render_profile(run.profile))
    write_chrome_trace(paths["trace.json"], run.events, metrics=run.metrics)
    return paths
