"""Self-tests of the benchmark itself (not collected by the tier-1 run).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def span(id, parent, name, cat, start, dur):
    return {"id": id, "parent": parent, "name": name, "cat": cat,
            "start_us": start, "dur_us": dur}


# -- span self-time fold ----------------------------------------------------

def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [span(1, None, "root", "bench", 0, 100),
             span(2, 1, "a", "launch", 10, 20),    # 10..30
             span(3, 1, "b", "launch", 20, 30),    # 20..50, overlaps a
             span(4, 1, "c", "launch", 90, 30),    # 90..120, clipped at 100
             span(5, 2, "d", "kernel-form", 12, 5)]
    selfs = measure.self_times(spans)
    assert selfs[1] == pytest.approx(100 - 40 - 10)
    assert selfs[2] == pytest.approx(15)
    assert selfs[5] == pytest.approx(5)


SUITE_SPANS = [
    span(1, None, "import", "bench", -300, 200),
    span(2, None, "app:NW", "app", 0, 100),
    span(3, 2, "runner.generate", "bench", 1, 10),
    span(4, 3, "h2d:a", "transfer", 2, 4),           # inherits runner
    span(5, 2, "sycl.run", "bench", 20, 50),
    span(6, 5, "launch:k", "launch", 25, 40),
    span(7, 6, "plan.compile", "plan", 26, 4),
    span(8, 6, "k:vector", "kernel-form", 30, 30),
    span(9, 8, "k:barrier-phase", "barrier-phase", 31, 10),
    span(10, 6, "vectorize.fallback", "vectorize", 30, 0),
    span(11, 2, "altis.reference", "bench", 75, 10),
    span(12, 2, "altis.verify", "bench", 86, 10),
    span(13, None, "reporting.render", "bench", 110, 5),
    span(14, None, "launch:k", "modeled", 0, 1e9),     # device clock
    span(15, None, "warm", "bench", 200, 60),
    span(16, 15, "sycl.run", "bench", 201, 30),
    span(17, 16, "launch:k", "launch", 202, 20),
]


def test_fold_assigns_each_layer_and_keeps_warm_pass_apart():
    folded = measure.fold_layers(SUITE_SPANS)
    us = {k: round(v * 1e6, 6) for k, v in folded.items()}
    assert us == {"import.wall": 200, "runner.generate": 10,
                  "sycl.host": 10, "sycl.dispatch": 6, "sycl.plan": 4,
                  "sycl.kernel": 30, "altis.reference": 10,
                  "altis.verify": 10, "reporting.render": 5, "warm": 60}


def test_layer_self_times_plus_unattributed_account_for_traced_wall():
    traced = {"spans": SUITE_SPANS, "cells": 1,
              "plans": {"compiles": 1, "hits": 0,
                        "tiers": {"compiled": {"count": 3, "fallbacks": {}}}}}
    m = run.layer_metrics(traced, 0.001, measure.parse_importtime(""),
                          0.0002, 0.0008)
    layers = ("import.wall_s", "runner.generate_s", "altis.reference_s",
              "altis.verify_s", "sycl.host_s", "sycl.dispatch_s",
              "sycl.plan_s", "sycl.kernel_s", "perfmodel.figures_s",
              "fpga.table3_s", "reporting.render_s")
    total = sum(m[k] for k in layers) + m["process.unattributed_s"]
    assert total == pytest.approx(m["trace.wall_s"])
    assert m["trace.wall_s"] == pytest.approx(0.001 - 60e-6)
    assert m["sycl.run_s"] == pytest.approx(50e-6)
    assert m["sycl.warm_s"] == pytest.approx(30e-6)
    assert m["sycl.oneshot_s"] == pytest.approx(20e-6)
    assert m["sycl.run_s"] == pytest.approx(
        m["sycl.host_s"] + m["sycl.dispatch_s"] + m["sycl.plan_s"]
        + m["sycl.kernel_s"])
    assert (m["sycl.launches"], m["sycl.barrier_phases"]) == (1, 1)
    assert m["sycl.fallbacks"] == 1
    assert m["sycl.promoted_frac"] == pytest.approx(3 / 4)
    assert m["trace.overhead_s"] == pytest.approx(m["trace.wall_s"] - 0.0008)


# -- tail, normalisation and import parsing ---------------------------------

def test_tail_is_the_highest_quartile_with_ten_samples_beyond():
    assert measure.tail(range(1, 21)) == (10, 50, 20)
    assert measure.tail(range(1, 40)) == (20, 50, 39)   # p75 has 9 beyond
    assert measure.tail(range(1, 41)) == (30, 75, 40)
    assert measure.tail(range(1, 101)) == (75, 75, 100)
    assert measure.tail(range(1, 15)) == (4, 25, 14)
    assert measure.tail(range(1, 13)) == (3, 25, 12)  # short of ten beyond
    assert measure.tail([3.0, 1.0, 2.0]) == (1.0, 25, 3)


def test_times_are_scaled_by_the_bracketing_interpreter_start():
    floor = run.NOMINAL_FLOOR_S
    quiet = run.Invocation(1.0, 2.0, 40.0, 0, b"", b"", floor_s=floor)
    busy = run.Invocation(1.5, 3.0, 40.0, 0, b"", b"", floor_s=1.5 * floor)
    for inv in (quiet, busy):
        values, _, raw = run.end_to_end_metrics([inv], [inv])
        assert values["wall_s"] == pytest.approx(1.0)
        assert values["cpu_s"] == pytest.approx(2.0)
        assert values["setup_s"] == pytest.approx(1.0)
        assert values["peak_rss_mb"] == 40.0
        assert raw["wall_s"] == inv.wall_s


def test_parse_importtime_splits_numpy_stdlib_and_repro_subpackages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:      2000 |       2000 |     numpy.core.multiarray",
        "import time:      3000 |       5000 |   numpy",
        "import time:        50 |         50 |       repro.sycl.plan",
        "import time:        70 |        120 |     repro.sycl",
        "import time:        10 |         10 |   repro.__main__",
        "import time:         5 |        185 | repro",
        "import time:         7 |          7 |   repro.newpkg",
        "Traceback: not an import line",
    ])
    out = measure.parse_importtime(text)
    assert out["numpy"] == pytest.approx(5000e-6)
    assert out["stdlib"] == pytest.approx(100e-6)
    assert out["repro.sycl"] == pytest.approx(120e-6)
    assert out["repro.root"] == pytest.approx(15e-6)
    assert out["repro.other"] == pytest.approx(7e-6)
    assert out["repro_modules"] == 5


# -- failure counting with stub commands ------------------------------------

def stub(code: str, **kw) -> run.Workload:
    return run.Workload("stub", ("-c", code), **kw)


@pytest.mark.parametrize("code,reason", [
    ("import sys; print('x'); sys.exit(1)", "exit status 1"),
    ("print('NW  FAIL  kernel=1s')", "FAIL row"),
    ("print('only 1 row'); print('NW  ok  kernel=1s')", "1 of 2 suite rows"),
])
def test_every_bad_invocation_is_counted_with_its_reason(tmp_path, code,
                                                         reason):
    ledger = run.Ledger()
    workload = stub(code, suite_rows=2)
    primed = run.prime(workload, tmp_path, ledger)
    runs = run.closed_loop(workload, primed, 0.0, ledger)
    assert len(runs) == 1
    assert ledger.attempted == run.SETUPS + 1
    assert len(ledger.failures) == ledger.attempted
    assert all(reason in f for f in ledger.failures)


def test_output_changing_between_runs_fails_all_but_the_first(tmp_path):
    ledger = run.Ledger()
    workload = stub("import time; print(time.time_ns())")
    primed = run.prime(workload, tmp_path, ledger)
    run.closed_loop(workload, primed, 0.0, ledger)
    assert ledger.attempted == run.SETUPS + 1
    assert len(ledger.failures) == ledger.attempted - 1
    assert all("differs from the priming" in f for f in ledger.failures)


def test_steady_stub_passes_and_children_are_isolated(tmp_path):
    ledger = run.Ledger()
    workload = stub("import os; print(os.environ['REPRO_CACHE_DIR'] "
                    "== os.path.join(os.path.dirname(os.getcwd()), 'cache'))",
                    titles=(b"True",))
    primed = run.prime(workload, tmp_path, ledger)
    runs = run.closed_loop(workload, primed, 0.0, ledger)
    assert ledger.failures == []
    assert runs[0].floor_s > 0 and runs[0].cpu_s >= 0
    assert primed.cwd.is_relative_to(tmp_path)


# -- emitted names match BENCHMARK.json -------------------------------------

def test_workload_and_metric_names_match_benchmark_json():
    assert set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    inv = run.Invocation(1.0, 1.0, 1.0, 0, b"", b"", floor_s=0.05)
    values, _, _ = run.end_to_end_metrics([inv], [inv])
    assert {k: run.END_TO_END[k] for k in values} == e2e
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    emitted = run.layer_metrics({"spans": SUITE_SPANS, "cells": 1}, 1.0,
                                measure.parse_importtime(""), 0.1, 0.5)
    assert {k: run.layer_unit(k) for k in emitted} == layers


def test_benchmark_json_is_within_its_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# -- the real thing, briefly ------------------------------------------------

@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_figures_run_prints_exactly_the_declared_metrics(trace, section):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "figures",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    if trace:
        sycl = [v["value"] for k, v in result["metrics"].items()
                if k.startswith("sycl.")]
        assert not any(sycl)  # figures launches no kernels


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
