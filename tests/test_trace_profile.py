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
  spans alone (small grid: non-kernel dominates; large: kernel does);
* the dispatch split, the artifact set and the CLI subcommand.

Regenerate the goldens after an intentional report change with::

    PYTHONPATH=src REPRO_REGEN_GOLDEN=1 python -m pytest -q tests/test_trace_profile.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.altis.registry import APP_FACTORIES
from repro.trace.profile import (PROFILE_SCHEMA, build_profile,
                                 profile_functional, render_profile,
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
              "app_wall_us")


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
    # a 1536^2 grid: past the size the figure model turns kernel-bound
    # (at 512^2, size 1 itself, non-kernel time still dominates, as in
    # the paper's Fig. 1)
    large = profile_functional("FDTD2D", scale=3.0).profile["decomposition"]
    # a small grid: SYCL non-kernel time dominates
    assert small["non_kernel_us"] > small["kernel_us"]
    # a large grid: kernel time dominates
    assert large["kernel_us"] > large["non_kernel_us"]
    # the decomposition is internally consistent
    for d in (small, large):
        assert d["non_kernel_us"] == pytest.approx(
            d["per_run_us"] + d["overhead_us"] + d["host_task_us"])
        assert d["total_us"] == pytest.approx(
            d["kernel_us"] + d["non_kernel_us"])
        assert 0.0 <= d["kernel_fraction"] <= 1.0


def test_fdtd2d_sycl_pays_more_non_kernel_time_than_cuda():
    """Fig. 1's finding on the queue's clock: the migrated SYCL build
    pays the oneAPI plugin's extra runtime work (§3.3) that CUDA does
    not, for the same launches."""
    sycl = profile_functional("FDTD2D").profile["decomposition"]
    cuda = profile_functional("FDTD2D", variant="cuda").profile[
        "decomposition"]
    assert sycl["non_kernel_us"] > cuda["non_kernel_us"]
    assert sycl["kernel_us"] == cuda["kernel_us"]


@pytest.mark.parametrize("variant", ["sycl_opt", "cuda"])
def test_per_run_cost_is_booked_apart_from_the_launches(variant):
    """Each hotspot row carries its launches' overhead only; the
    runtime's once-per-run cost is the decomposition's ``per_run_us``,
    not a surcharge on whichever kernel launched first."""
    from repro.perfmodel.overhead import EVENTS_PER_LAUNCH, overheads_for
    from repro.perfmodel.spec import get_spec

    ovh = overheads_for("cuda" if variant == "cuda" else "sycl",
                        get_spec("rtx2080"))
    p = profile_functional("FDTD2D", variant=variant).profile
    per_launch_us = (ovh.launch_s + EVENTS_PER_LAUNCH * ovh.event_s) * 1e6
    for row in p["kernels"]:
        assert row["modeled_overhead_us"] == pytest.approx(
            row["launches"] * per_launch_us)
    d = p["decomposition"]
    assert d["per_run_us"] == pytest.approx(ovh.per_run_s * 1e6)
    assert d["overhead_us"] == pytest.approx(
        sum(row["modeled_overhead_us"] for row in p["kernels"]))


# ---------------------------------------------------------------------------
# The dispatch split and the report's shape
# ---------------------------------------------------------------------------

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
    assert p["schema"] == PROFILE_SCHEMA == "repro-profile/6"
    assert sorted(p) == ["decomposition", "device_spec", "kernels", "run",
                         "schema"]
    assert sorted(p["decomposition"]) == [
        "host_task_us", "kernel_fraction", "kernel_us", "non_kernel_us",
        "overhead_us", "per_run_us", "total_us"]
    assert p["kernels"]
    for row in p["kernels"]:
        assert sorted(row) == [
            "barrier_phases", "body_wall_us", "dispatch_wall_us", "groups",
            "items", "items_per_s", "kernel", "launches",
            "modeled_device_us", "modeled_overhead_us", "paths", "wall_us"]
    assert p["run"]["app"] == "NW"
    assert p["run"]["device"] == "a100"
    assert p["run"]["mode"] == "item"
    assert p["run"]["seed"] == 3
    assert p["device_spec"]["key"] == "a100"
    # the whole report round-trips through JSON (no inf/NaN/objects)
    assert json.loads(json.dumps(p)) == json.loads(json.dumps(p))


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

_ARTIFACTS = ["profile.json", "profile.md", "trace.json"]


def test_write_profile_artifacts(tmp_path):
    run = profile_functional("NW")
    paths = write_profile(tmp_path / "out", run)
    assert sorted(paths) == _ARTIFACTS
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == _ARTIFACTS
    for path in paths.values():
        assert path.exists() and path.stat().st_size > 0
    doc = json.loads(paths["profile.json"].read_text())
    assert doc["schema"] == PROFILE_SCHEMA
    trace = json.loads(paths["trace.json"].read_text())
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    assert any(ev["cat"] == "launch" and ev["args"]["path"]
               for ev in trace["traceEvents"])


# ---------------------------------------------------------------------------
# build_profile on synthetic spans (no harness run needed)
# ---------------------------------------------------------------------------

def test_build_profile_synthetic_spans():
    from repro.trace.spans import tracing

    with tracing() as tr:
        with tr.span("launch:k1", "launch", kernel="k1", device_key="a100",
                     items=64, groups=4, barrier_phases=2,
                     modeled_device_us=100.0, modeled_overhead_us=5.0,
                     path="item"):
            pass
        tr.complete("k1", "modeled", 0.0, 105.0, kind="kernel",
                    device_us=100.0, overhead_us=5.0)
        events = tr.events()
    p = build_profile(events)
    assert p["run"]["device"] == "a100"  # recovered from the launch span
    row, = p["kernels"]
    assert row["kernel"] == "k1" and row["launches"] == 1
    d = p["decomposition"]
    assert d["kernel_us"] == 100.0 and d["overhead_us"] == 5.0


def test_per_run_cost_on_a_host_task_is_not_host_task_time():
    """A oneDPL call that opens a queue's timeline carries the per-run
    cost; the profile books it as ``per_run_us``, and the non-kernel
    total is still the queue's own."""
    import numpy as np

    from repro.sycl import KernelSpec, NdRange, Queue, Range
    from repro.sycl.onedpl import exclusive_scan
    from repro.trace.spans import tracing

    queue = Queue("rtx2080")
    noop = KernelSpec(name="noop", vector_fn=lambda nd, a: None)
    with tracing() as tr:
        exclusive_scan(np.arange(8.0), queue=queue)
        queue.parallel_for(NdRange(Range(8), Range(4)), noop, np.zeros(8))
        events = tr.events()
    d = build_profile(events)["decomposition"]
    scan = queue.timeline[0]
    assert scan.per_run_s == queue.overheads.per_run_s > 0
    assert d["per_run_us"] == pytest.approx(scan.per_run_s * 1e6)
    assert d["host_task_us"] == pytest.approx(
        (scan.total_s - scan.per_run_s) * 1e6)
    assert d["non_kernel_us"] == pytest.approx(
        queue.non_kernel_time_s() * 1e6)


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
    assert sorted(p.name for p in out.iterdir()) == _ARTIFACTS


def test_cli_profile_lists_dataflow_pipe_kernels(tmp_path, capsys):
    """KMeans' FPGA pipe design books its two kernels through
    ``Queue.dataflow``; each gets a ``launch`` span like any other
    single-task launch, so the hotspot table lists both and its launch
    column sums to the launches on the queue's timeline."""
    from repro.altis import Variant
    from repro.altis.kmeans import KMeans
    from repro.harness.cli import main
    from repro.harness.runner import _DEFAULT_SCALES
    from repro.sycl import Queue
    from tests.launch_totals import fold_timeline

    app, queue = KMeans(), Queue("stratix10")
    app.run_sycl(queue, app.generate(1, seed=0,
                                     scale=_DEFAULT_SCALES["KMeans"]),
                 Variant.FPGA_OPT)
    out = tmp_path / "p"
    assert main(["profile", "kmeans", "--device", "stratix10", "--variant",
                 "fpga_opt", "--quick", "--out", str(out)]) == 0
    trace = json.loads((out / "trace.json").read_text())
    assert [ev["args"]["path"] for ev in trace["traceEvents"]
            if ev["cat"] == "launch"] == ["single_task", "single_task"]
    text = capsys.readouterr().out
    for kernel in ("mapCenters_st", "resetAccFin_st"):
        assert f"| {kernel} | single_task | 1 |" in text
    hotspots = text.split("## Kernel hotspots")[1].split("\n## ")[0]
    rows = [line.split("|") for line in hotspots.splitlines()
            if line.startswith("| ") and not line.startswith("| kernel |")]
    launches = sum(int(cells[3]) for cells in rows)
    assert launches == fold_timeline(queue).path_counts["single_task"] == 2
