"""Unit and integration tests for the tracing layer.

Covers the pieces the property tests don't: the queue/executor/harness
span integration on a real benchmark run, one trace shared by several
threads, and the CLI ``--trace`` export path.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.harness.cli import main
from repro.harness.reporting import render_trace_table
from repro.harness.runner import run_functional, run_suite_functional
from repro.trace import (
    Tracer,
    current_tracer,
    launch_table,
    to_chrome_trace,
    tracing,
)
from tests.launch_totals import LaunchTotals, fold_spans, fold_timeline


# ---------------------------------------------------------------------------
# Tracer basics
# ---------------------------------------------------------------------------

def test_span_stack_parents_nested_spans():
    tracer = Tracer()
    with tracer.span("outer", "a"):
        with tracer.span("inner", "b", detail=1):
            pass
    inner, outer = tracer.events()
    assert inner.name == "inner" and outer.name == "outer"
    assert inner.parent_id == outer.id
    assert outer.parent_id is None
    assert inner.args == {"detail": 1}


def test_complete_with_tid_is_free_standing():
    tracer = Tracer()
    with tracer.span("outer", "a"):
        modeled = tracer.complete("k", "modeled", 10.0, 5.0, "modeled:gpu",
                                  bytes=64)
        phase = tracer.complete("p", "barrier-phase", 0.0, 1.0)
    assert modeled.parent_id is None
    assert modeled.tid == "modeled:gpu"
    assert phase.parent_id == tracer.events()[-1].id  # stack-parented
    assert modeled.args == {"bytes": 64}


def test_exception_marks_span_failed():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("boom", "a"):
            raise RuntimeError("x")
    (ev,) = tracer.events()
    assert ev.args.get("error") is True


def test_tracing_context_installs_and_restores():
    assert current_tracer() is None
    with tracing() as tracer:
        assert current_tracer() is tracer
        with current_tracer().span("via-current-tracer"):
            pass
        assert len(tracer.events()) == 1
    assert current_tracer() is None


# ---------------------------------------------------------------------------
# Queue / executor / harness integration
# ---------------------------------------------------------------------------

def test_traced_run_emits_full_hierarchy():
    with tracing() as tracer:
        run_functional("NW", mode="item")
        events = tracer.events()
    cats = {ev.cat for ev in events}
    assert {"app", "launch", "kernel-form", "barrier-phase",
            "modeled"} <= cats
    assert "transfer" not in cats  # nothing in a run copies host to device

    launches = [ev for ev in events if ev.cat == "launch"]
    app_spans = [ev for ev in events if ev.cat == "app"]
    assert launches and len(app_spans) == 1
    for ev in launches:
        assert ev.parent_id == app_spans[0].id
        assert ev.args["modeled_device_us"] > 0.0
        assert ev.args["path"] in ("vector", "item")

    # kernel-form segments sit under their launch span
    forms = [ev for ev in events if ev.cat == "kernel-form"]
    launch_ids = {ev.id for ev in launches}
    assert forms and all(ev.parent_id in launch_ids for ev in forms)

    rows = launch_table(events)
    assert len(rows) == len(launches)
    table = render_trace_table(events)
    assert "needle_block" in table and "total" in table


def test_span_counts_follow_launch_counters_not_items():
    """Tracing records spans per launch and per barrier phase, never per
    work-item or per generator advance: every category's count is a
    function of the launch, group and phase totals of the queue's
    timeline."""
    from collections import Counter

    from repro.altis import Variant
    from repro.altis.nw import NW
    from repro.sycl import Queue

    app = NW()
    workload = app.generate(1, seed=0, scale=0.02)
    queue = Queue("rtx2080", default_mode="item")
    with tracing() as tracer:
        app.run_sycl(queue, workload, Variant.SYCL_OPT)
        events = tracer.events()
    c = fold_timeline(queue)
    assert set(c.path_counts) == {"item"}
    assert c.barrier_phases > c.groups > 0
    launches = c.path_counts["item"]
    # each group's generators end with one phase that reaches no barrier
    assert Counter(ev.cat for ev in events) == {
        "launch": launches, "kernel-form": launches,
        "modeled": launches, "barrier-phase": c.barrier_phases + c.groups}
    # each phase resumes every work-item still running in its group
    gen_advances = sum(ev.args["participants"] for ev in events
                       if ev.cat == "barrier-phase")
    assert len(events) < gen_advances


def test_untraced_run_records_no_spans():
    assert current_tracer() is None
    result = run_functional("NW")
    assert result.verified


# ---------------------------------------------------------------------------
# One trace across threads and across a suite sweep
# ---------------------------------------------------------------------------

def test_threads_record_into_one_trace():
    # all four threads hold their cell span open at once, so a shared
    # span stack would parent one thread's work under another's cell
    together = threading.Barrier(4, timeout=10)

    def run_cell(item: int) -> None:
        tracer = current_tracer()
        with tracer.span(f"cell:{item}", "cell"):
            together.wait()
            with tracer.span(f"work:{item}", "work", item=item):
                pass

    with tracing() as tracer:
        threads = [threading.Thread(target=run_cell, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        events = tracer.events()
    cells = [ev for ev in events if ev.cat == "cell"]
    work = [ev for ev in events if ev.cat == "work"]
    assert len(cells) == 4 and len(work) == 4
    assert len({ev.tid for ev in work}) == 4
    by_id = {ev.id: ev for ev in cells}
    for ev in work:  # each thread's stack parents its own spans
        parent = by_id[ev.parent_id]
        assert parent.tid == ev.tid
        assert parent.name == f"cell:{ev.args['item']}"


def test_traced_suite_has_one_app_span_per_config_and_no_cell_spans():
    from repro.harness.runner import _DEFAULT_SCALES

    with tracing() as tracer:
        results = run_suite_functional()
        events = tracer.events()
    assert all(r.verified for r in results)
    assert not any(ev.cat == "cell" for ev in events)
    apps = [ev.name for ev in events if ev.cat == "app"]
    assert apps == [f"app:{config}" for config in _DEFAULT_SCALES]


def test_launch_spans_fold_to_the_queue_timelines(monkeypatch):
    """A launch keeps its counts once, on its timeline entry, and its
    ``launch`` span copies them.  Over the default sweep, KMeans'
    ``fpga_opt`` pipe design (booked by ``Queue.dataflow``) and NW's
    per-item form, the spans fold to the queues' timelines, and
    ``plan_cache_info()`` counts the same launches per path."""
    from repro.altis import Variant
    from repro.harness import runner
    from repro.sycl.plan import plan_cache_info

    queues = []

    class RecordingQueue(runner.Queue):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            queues.append(self)

    monkeypatch.setattr(runner, "Queue", RecordingQueue)
    with tracing() as tracer:
        run_suite_functional()
        run_functional("KMeans", "stratix10", Variant.FPGA_OPT)
        run_functional("NW", mode="item")
        tiers = plan_cache_info()["tiers"]
        events = tracer.events()
    spans = fold_spans(events)
    assert spans == fold_timeline(*queues)
    assert {path: tier["count"] for path, tier in tiers.items()} == (
        spans.path_counts)
    assert sum(ev.cat == "app" for ev in events) == 15
    assert spans == LaunchTotals(
        {"vector": 71, "item": 9, "single_task": 2},
        items=35_975, groups=573, barrier_phases=400)


# ---------------------------------------------------------------------------
# Export + CLI
# ---------------------------------------------------------------------------

def test_export_stringifies_unjsonable_args():
    tracer = Tracer()
    tracer.complete("k", "x", 0.0, 1.0, "t", obj=object())
    doc = to_chrome_trace(tracer.events())
    arg = doc["traceEvents"][0]["args"]["obj"]
    assert isinstance(arg, str) and "object" in arg


def test_cli_trace_writes_valid_chrome_trace(tmp_path):
    out = tmp_path / "nw.json"
    status = main(["run", "NW", "--trace", "--trace-out", str(out),
                   "--mode", "item", "--quiet"])
    assert status == 0
    assert current_tracer() is None  # CLI restored the disabled state
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert events
    for ev in events:
        assert ev["ph"] == "X"
        assert isinstance(ev["ts"], (int, float))
        assert isinstance(ev["dur"], (int, float))
    cats = {ev["cat"] for ev in events}
    assert {"run", "app", "launch", "barrier-phase"} <= cats
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
