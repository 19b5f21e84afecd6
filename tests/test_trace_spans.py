"""Unit and integration tests for the tracing & metrics layer.

Covers the pieces the property tests don't: the metrics registry, the
queue/executor/harness span integration on a real benchmark run, one
trace shared by several threads, and the CLI ``--trace`` export path.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.harness.cli import main
from repro.harness.reporting import render_trace_table
from repro.harness.runner import run_functional, run_suite_functional
from repro.trace import (
    MetricsRegistry,
    Tracer,
    current_tracer,
    launch_table,
    span,
    to_chrome_trace,
    tracing,
    write_chrome_trace,
)


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
        modeled = tracer.complete("k", "modeled", 10.0, 5.0,
                                  tid="modeled:gpu", bytes=64)
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
        with span("via-convenience"):
            pass
        assert len(tracer.events()) == 1
    assert current_tracer() is None


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

def test_metrics_counter_gauge_histogram():
    # counters are the only metric kind; the name stays so the test id
    # stays comparable across commits
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.counter("c").inc(2.5)
    assert reg.counter("c") is reg.counter("c")
    assert reg.snapshot() == {"c": {"type": "counter", "value": 3.5}}


def test_metrics_counter_rejects_decrease():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("c").inc(-1)


def test_metrics_reset():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.reset()
    assert reg.snapshot() == {}


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
    function of the queue's own launch, group and phase counters."""
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
    c = queue.counters
    assert set(c.path_counts) == {"item"}
    assert c.barrier_phases > c.groups > 0
    launches = c.path_counts["item"]
    # each group's generators end with one phase that reaches no barrier
    assert Counter(ev.cat for ev in events) == {
        "launch": launches, "kernel-form": launches,
        "modeled": launches, "barrier-phase": c.barrier_phases + c.groups}
    assert len(events) < c.gen_advances


def test_traced_run_updates_metrics():
    from repro.trace.metrics import registry

    with tracing():
        run_functional("NW", mode="item")
    snap = registry.snapshot()
    assert snap["executor.launches"]["value"] > 0
    assert snap["harness.runs"]["value"] > 0
    assert "harness.staged_bytes" not in snap


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
        with span(f"cell:{item}", "cell"):
            together.wait()
            with span(f"work:{item}", "work", item=item):
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


# ---------------------------------------------------------------------------
# Export + CLI
# ---------------------------------------------------------------------------

def test_write_chrome_trace_with_metrics(tmp_path):
    tracer = Tracer()
    with tracer.span("s"):
        pass
    path = write_chrome_trace(tmp_path / "t.json", tracer.events(),
                              metrics={"c": {"type": "counter", "value": 1}})
    doc = json.loads(path.read_text())
    assert doc["otherData"]["metrics"]["c"]["value"] == 1


def test_export_stringifies_unjsonable_args():
    tracer = Tracer()
    tracer.complete("k", "x", 0.0, 1.0, tid="t", obj=object())
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
    assert "executor.launches" in doc["otherData"]["metrics"]
