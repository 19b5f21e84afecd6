"""The ``repro profile`` aggregation layer (repro.trace.profile).

Covers the tentpole acceptance criteria:

* golden profile reports for NW and FDTD2D — the deterministic render
  (no wall-clock columns) is pinned byte-for-byte in ``tests/golden/``;
* two runs of the same configuration produce identical deterministic
  reports (and identical profile dicts once wall-clock keys are
  stripped);
* a 13-config registry sweep asserting every launch span is attributed
  to exactly one hotspot row;
* the Fig. 1 FDTD2D kernel/non-kernel crossover reproduced from trace
  spans alone (small scale: non-kernel dominates; large: kernel does);
* roofline placement, flamegraph export, histogram percentiles, and the
  CLI subcommand.

Regenerate the goldens after an intentional report change with::

    PYTHONPATH=src REPRO_REGEN_GOLDEN=1 python -m pytest -q tests/test_trace_profile.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.altis.registry import APP_FACTORIES
from repro.trace.metrics import Histogram
from repro.trace.profile import (PROFILE_SCHEMA, build_profile,
                                 collapsed_stacks, profile_functional,
                                 render_profile, write_flamegraph,
                                 write_profile)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))


# ---------------------------------------------------------------------------
# Golden deterministic reports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config,slug", [("NW", "profile_nw.md"),
                                         ("FDTD2D", "profile_fdtd2d.md")])
def test_golden_profile_report(config, slug):
    run = profile_functional(config)
    report = render_profile(run.profile, deterministic=True)
    path = GOLDEN_DIR / slug
    if _REGEN:
        path.write_text(report)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"no golden report {path.name}; run with REPRO_REGEN_GOLDEN=1")
    assert report == path.read_text(), (
        f"{config}: deterministic profile report drifted from "
        f"{path.name}; if intentional, regenerate with REPRO_REGEN_GOLDEN=1")


_WALL_KEYS = ("wall_us", "body_wall_us", "dispatch_wall_us", "items_per_s",
              "compile_wall_us", "app_wall_us", "launch_wall_us")


def _strip_wall(node):
    if isinstance(node, dict):
        return {k: _strip_wall(v) for k, v in node.items()
                if k not in _WALL_KEYS}
    if isinstance(node, list):
        return [_strip_wall(v) for v in node]
    return node


def test_profile_deterministic_across_runs():
    a = profile_functional("FDTD2D")
    b = profile_functional("FDTD2D")
    assert (render_profile(a.profile, deterministic=True)
            == render_profile(b.profile, deterministic=True))
    # beyond the rendered projection: every non-wall quantity of the
    # structured report matches too
    assert _strip_wall(a.profile) == _strip_wall(b.profile)


# ---------------------------------------------------------------------------
# Registry sweep: every launch attributed to exactly one kernel row
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", sorted(APP_FACTORIES))
def test_every_launch_attributed(config):
    run = profile_functional(config)
    launches = [ev for ev in run.events if ev.cat == "launch"]
    assert launches, f"{config}: traced run produced no launch spans"
    rows = run.profile["kernels"]
    by_kernel = {row["kernel"]: row for row in rows}
    assert len(by_kernel) == len(rows), f"{config}: duplicate hotspot rows"
    counted = {name: 0 for name in by_kernel}
    for ev in launches:
        kernel = ev.args["kernel"]
        assert kernel in by_kernel, (
            f"{config}: launch span {kernel!r} missing from hotspot table")
        counted[kernel] += 1
    for name, row in by_kernel.items():
        assert row["launches"] == counted[name], (
            f"{config}: {name!r} row counts {row['launches']} launches, "
            f"trace has {counted[name]}")
    # rows are sorted by modeled device time, heaviest first
    device_times = [row["modeled_device_us"] for row in rows]
    assert device_times == sorted(device_times, reverse=True)


# ---------------------------------------------------------------------------
# Fig. 1 shape from spans alone
# ---------------------------------------------------------------------------

def test_fdtd2d_fig1_crossover_from_spans():
    small = profile_functional("FDTD2D", scale=0.05).profile["decomposition"]
    large = profile_functional("FDTD2D", scale=1.0).profile["decomposition"]
    # size 1 analogue: SYCL non-kernel time dominates
    assert small["non_kernel_us"] > small["kernel_us"]
    # size 3 analogue: kernel time dominates
    assert large["kernel_us"] > large["non_kernel_us"]
    # the decomposition is internally consistent
    for d in (small, large):
        assert d["non_kernel_us"] == pytest.approx(
            d["overhead_us"] + d["host_task_us"])
        assert d["total_us"] == pytest.approx(
            d["kernel_us"] + d["non_kernel_us"])
        assert 0.0 <= d["kernel_fraction"] <= 1.0


# ---------------------------------------------------------------------------
# Roofline placement and the dispatch split
# ---------------------------------------------------------------------------

def test_roofline_rows_bounded_by_the_roof():
    run = profile_functional("FDTD2D", scale=0.4)
    rows = [r for r in run.profile["kernels"] if r["roofline"] is not None]
    assert rows, "FDTD2D kernels declare work counters; expected rooflines"
    for row in rows:
        roof = row["roofline"]
        assert roof["device"] == "rtx2080"
        assert roof["attainable_gflops"] <= roof["peak_gflops"] + 1e-9
        assert roof["bound"] in ("compute", "memory")
        assert roof["fraction_of_roofline"] >= 0.0


def test_dispatch_wall_is_launch_minus_kernel_form():
    """A launch's wall time splits into its kernel-form child (the body)
    and the rest (dispatch); the report carries no plan-cache section."""
    run = profile_functional("NW")
    assert "plan_cache" not in run.profile
    assert not any(ev.cat == "plan" for ev in run.events)
    children = {}
    for ev in run.events:
        if ev.cat == "kernel-form":
            children[ev.parent_id] = children.get(ev.parent_id, 0.0) \
                + ev.dur_us
    launches = [ev for ev in run.events if ev.cat == "launch"]
    body = sum(children.get(ev.id, 0.0) for ev in launches)
    dispatch = sum(max(0.0, ev.dur_us - children.get(ev.id, 0.0))
                   for ev in launches)
    rows = run.profile["kernels"]
    assert sum(r["body_wall_us"] for r in rows) == pytest.approx(body)
    assert sum(r["dispatch_wall_us"] for r in rows) == pytest.approx(dispatch)


def test_profile_schema_and_run_identity():
    run = profile_functional("NW", device_key="a100", mode="item", scale=0.02, seed=3)
    p = run.profile
    assert p["schema"] == PROFILE_SCHEMA
    assert p["run"]["app"] == "NW"
    assert p["run"]["device"] == "a100"
    assert p["run"]["mode"] == "item"
    assert p["run"]["seed"] == 3
    assert p["device_spec"]["key"] == "a100"
    # the whole report round-trips through JSON (no inf/NaN/objects)
    assert json.loads(json.dumps(p)) == json.loads(json.dumps(p))


# ---------------------------------------------------------------------------
# Flamegraph export
# ---------------------------------------------------------------------------

def test_collapsed_stacks_folded_format(tmp_path):
    run = profile_functional("NW")
    lines = collapsed_stacks(run.events)
    assert lines == sorted(lines)
    total_self = 0
    for line in lines:
        stack, _, value = line.rpartition(" ")
        assert stack and int(value) > 0
        assert stack.startswith("repro:profile")
        total_self += int(value)
    wall = sum(ev.dur_us for ev in run.events
               if ev.cat == "run")  # the root span
    # self times telescope back to the root wall time, within the
    # per-span integer rounding (±0.5us each)
    assert total_self == pytest.approx(wall, abs=len(run.events))
    # no modeled-clock frames leak into the wall-clock flamegraph
    assert not any("modeled" in line for line in lines)
    out = write_flamegraph(tmp_path / "nw.folded", run.events)
    assert out.read_text().splitlines() == lines


def test_write_profile_artifacts(tmp_path):
    run = profile_functional("NW")
    paths = write_profile(tmp_path / "out", run)
    assert sorted(paths) == ["profile.folded", "profile.json", "profile.md",
                             "trace.json"]
    for path in paths.values():
        assert path.exists() and path.stat().st_size > 0
    doc = json.loads(paths["profile.json"].read_text())
    assert doc["schema"] == PROFILE_SCHEMA
    trace = json.loads(paths["trace.json"].read_text())
    assert trace["traceEvents"]
    assert "metrics" in trace["otherData"]


# ---------------------------------------------------------------------------
# Histogram percentiles (satellite)
# ---------------------------------------------------------------------------

def test_histogram_percentiles_exact_below_reservoir():
    h = Histogram("t")
    for v in range(1, 101):  # 1..100
        h.observe(float(v))
    snap = h.snapshot()
    assert snap["p50"] == 50.0
    assert snap["p95"] == 95.0
    assert snap["p99"] == 99.0
    assert h.percentile(0.0) == 1.0
    assert h.percentile(100.0) == 100.0


def test_histogram_percentiles_deterministic_when_bounded():
    def build():
        h = Histogram("t")
        for v in range(10_000):
            h.observe(float(v % 977))
        return h
    a, b = build(), build()
    assert a.snapshot() == b.snapshot()
    # the subsampled estimate stays close to the true quantile
    assert a.snapshot()["p50"] == pytest.approx(977 / 2, rel=0.1)
    assert len(a._samples) <= Histogram.RESERVOIR


def test_histogram_empty_and_validation():
    h = Histogram("t")
    snap = h.snapshot()
    assert snap["p50"] is None and snap["p95"] is None and snap["p99"] is None
    with pytest.raises(ValueError):
        h.percentile(101.0)
    # empty reservoir: a clear ValueError naming the histogram, never an
    # IndexError from indexing an empty sample list
    with pytest.raises(ValueError, match="no samples"):
        h.percentile(50.0)


def test_profile_renders_na_for_missing_percentiles():
    from repro.trace.profile import _fmt_opt
    assert _fmt_opt(None) == "n/a"
    assert _fmt_opt(3.14159) == "3.1"


# ---------------------------------------------------------------------------
# build_profile on synthetic spans (no harness run needed)
# ---------------------------------------------------------------------------

def test_build_profile_synthetic_spans():
    from repro.trace.spans import tracing

    with tracing() as tr:
        with tr.span("launch:k1", "launch", kernel="k1", device_key="a100",
                     items=64, groups=4, barrier_phases=2,
                     modeled_device_us=100.0, modeled_overhead_us=5.0,
                     flops=1e6, global_bytes=1e3, fp64=False,
                     path="item"):
            pass
        tr.complete("k1", "modeled", 0.0, 105.0, kind="kernel",
                    device_us=100.0, overhead_us=5.0)
        events = tr.events()
    p = build_profile(events)
    assert p["run"]["device"] == "a100"  # recovered from the launch span
    row, = p["kernels"]
    assert row["kernel"] == "k1" and row["launches"] == 1
    assert row["roofline"]["achieved_gflops"] == pytest.approx(10.0)
    d = p["decomposition"]
    assert d["kernel_us"] == 100.0 and d["overhead_us"] == 5.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_profile_subcommand(tmp_path, capsys):
    from repro.harness.cli import main, resolve_config

    assert resolve_config("nw") == "NW"
    assert resolve_config("fdtd2d") == "FDTD2D"
    assert resolve_config("pf-naive") == "PF Naive"
    with pytest.raises(SystemExit):
        resolve_config("nope")

    out = tmp_path / "prof"
    assert main(["profile", "nw", "--quick", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "Kernel hotspots" in text
    assert (out / "profile.json").exists()
    assert (out / "profile.md").exists()
    assert (out / "profile.folded").exists()
    assert (out / "trace.json").exists()


def test_cli_profile_lists_dataflow_pipe_kernels(tmp_path, capsys):
    """KMeans' FPGA pipe design books its two kernels through
    ``Queue.dataflow``; each gets a ``launch`` span like any other
    single-task launch, so the hotspot table lists both and the launch
    count matches the queue's own counter."""
    import re

    from repro.altis import Variant
    from repro.altis.kmeans import KMeans
    from repro.harness.cli import main
    from repro.harness.runner import _DEFAULT_SCALES
    from repro.sycl import Queue
    from repro.trace.metrics import registry

    app, queue = KMeans(), Queue("stratix10")
    app.run_sycl(queue, app.generate(1, seed=0,
                                     scale=_DEFAULT_SCALES["KMeans"]),
                 Variant.FPGA_OPT)
    single_tasks = registry.counter("executor.path.single_task")
    before = single_tasks.value
    assert main(["profile", "kmeans", "--device", "stratix10", "--variant",
                 "fpga_opt", "--quick", "--out", str(tmp_path / "p")]) == 0
    assert single_tasks.value - before == 2
    text = capsys.readouterr().out
    for kernel in ("mapCenters_st", "resetAccFin_st"):
        assert f"| {kernel} | single_task | 1 |" in text
    launches = int(re.search(r"^- launches: (\d+),", text, re.M).group(1))
    assert launches == queue.counters.single_task_launches == 2
