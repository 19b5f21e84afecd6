"""Perf smoke benchmark for the batched execution engine.

Run via ``PYTHONPATH=src python -m pytest -q benchmarks/test_executor_scaling.py``.

Measures and records to ``BENCH_executor.json`` (repo root):

* executor throughput (work-items/s) on the canonical barrier workload
  — the NW blocked wavefront — for the strict per-item interpreter and
  the compiled tier that runs the same ``item_fn`` as one batched
  program per barrier phase.  Asserts the compiled tier's >= 2x speedup;
* cold vs warm figure-sweep rebuild (Figs. 2/4/5 through a fresh
  :class:`FigureCache`), asserting the >= 3x warm-rebuild speedup with
  byte-identical values;
* the launch-plan overhead gate — ``repro bench``'s NW steady-state
  measurement, asserting warm planned per-item launches stay within
  1.5x of the raw generator-drive floor, with byte-identical scores
  and a schema-versioned trajectory record appended to
  ``BENCH_executor.json``.

Plain ``time.perf_counter`` timing, so the smoke run works even where
pytest-benchmark is absent.
"""

import json
import time
from pathlib import Path

import numpy as np

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_executor.json"


def _record(section: str, payload: dict) -> None:
    data = {}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except ValueError:
            data = {}
    data[section] = payload
    BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _nw_wavefront(mode: str | None, scale: float = 0.02):
    """Run the full NW blocked wavefront; returns (seconds, items)."""
    from repro.altis.nw import NW, _similarity
    from repro.sycl.buffer import LocalAccessor
    from repro.sycl import NdRange, Range
    from repro.sycl.executor import run_nd_range

    app = NW()
    wl = app.generate(1, scale=scale)
    p = wl.params
    n, block, penalty = p["n"], p["block"], p["penalty"]
    nb = n // block
    sim = _similarity(wl["seq_a"], wl["seq_b"], wl["blosum"]).astype(np.int32)
    kern = app.kernels()["needle_block"]
    tile = LocalAccessor((block + 1, block + 1), np.int32)
    score = wl["score"]
    score[0, :] = -penalty * np.arange(n + 1)
    score[:, 0] = -penalty * np.arange(n + 1)
    items = 0
    t0 = time.perf_counter()
    for d in range(2 * nb - 1):
        blocks = (d + 1) if d < nb else (2 * nb - 1 - d)
        stats = run_nd_range(kern, NdRange(Range(blocks * block), Range(block)),
                             (score, sim, tile, penalty, d, nb, n, block),
                             force_item=True, mode=mode)
        items += stats.items
    elapsed = time.perf_counter() - t0
    expected = app.reference(wl)["score"]
    np.testing.assert_array_equal(score, expected)
    return elapsed, items


def test_nw_wavefront_compiled_vs_item_speedup():
    """The compiled tier runs the wavefront's ``item_fn`` >= 2x faster
    than the strict per-item interpreter (3-4x measured on a shared
    2-vCPU host), byte-identically (both verify against
    ``nw_reference``)."""
    # compile and shadow-validate every diagonal's plan once per tier
    for mode in ("item", "compiled"):
        _nw_wavefront(mode)

    item_s, items = min(_nw_wavefront("item") for _ in range(3))
    compiled_s, compiled_items = min(_nw_wavefront("compiled")
                                     for _ in range(3))
    forced_s, _ = _nw_wavefront(None)  # force_item auto-selection
    assert compiled_items == items
    speedup = item_s / compiled_s
    _record("nw_wavefront", {
        "workload": "NW blocked wavefront, scale=0.02, best of 3",
        "items": items,
        "item_path_s": round(item_s, 6),
        "item_path_items_per_s": round(items / item_s),
        "compiled_path_s": round(compiled_s, 6),
        "compiled_path_items_per_s": round(items / compiled_s),
        "force_item_path_s": round(forced_s, 6),
        "speedup_compiled_over_item": round(speedup, 2),
    })
    assert speedup >= 2.0, (
        f"compiled tier only {speedup:.2f}x over per-item on the NW "
        "wavefront")


def test_tracing_overhead_disabled():
    """Tracing must be zero-cost when off: the disabled path executes one
    ``current_tracer()`` read per launch, so the untraced wavefront is
    the baseline by construction, and enabling tracing (which records a
    launch, kernel-form, and modeled span per launch plus barrier
    phases) must still stay in the same ballpark on the per-item
    path."""
    from repro.trace import current_tracer, tracing

    assert current_tracer() is None
    _nw_wavefront("item")  # compile the plans

    disabled_s = min(_nw_wavefront("item")[0] for _ in range(3))
    with tracing() as tracer:
        enabled_s = min(_nw_wavefront("item")[0] for _ in range(3))
        spans = len(tracer.events())
    assert current_tracer() is None
    assert spans > 0

    items = _nw_wavefront("item")[1]
    overhead_pct = (enabled_s - disabled_s) / disabled_s * 100.0
    _record("tracing_overhead", {
        "workload": "NW blocked wavefront, item path, scale=0.02, best of 3",
        "disabled_s": round(disabled_s, 6),
        "disabled_items_per_s": round(items / disabled_s),
        "enabled_s": round(enabled_s, 6),
        "enabled_items_per_s": round(items / enabled_s),
        "enabled_overhead_pct": round(overhead_pct, 2),
        "spans_recorded": spans,
    })
    # even *enabled*, span recording is per-launch/per-phase, never
    # per-item — on this phase-heavy microbenchmark (hundreds of barrier
    # phases, microseconds of work each) that costs ~2x, which is the
    # worst case by construction; a blowup past 4x means instrumentation
    # leaked into a per-item loop.  (The bound is 4x, not 3x: warm
    # launch plans made the *disabled* baseline faster, which widens
    # this ratio without any per-span regression — the denominator
    # shrank, not the numerator grew.)
    assert enabled_s < disabled_s * 4.0, (
        f"tracing overhead {overhead_pct:.1f}% on the per-item path")


def test_warm_plan_dispatch_overhead_speedup():
    """Warm planned launches must stay within 1.5x of the raw
    generator-drive floor on the NW wavefront steady state,
    byte-identically.

    The floor drives the same ``item_fn`` generators in lockstep with no
    plan, validation or stats: the kernel body alone.  Everything above
    it is the non-kernel time the plan compiler exists to eliminate, the
    same split the paper's Fig. 1 draws for the Altis steady state.
    """
    from repro.harness.bench import BENCH_SCHEMA, run_bench

    record, path = run_bench(BENCH_PATH, quick=False)
    assert path == BENCH_PATH
    nw = record["nw_wavefront"]

    # correctness before speed: every measured wavefront verified
    # against nw_reference, byte-for-byte
    assert nw["byte_identical"] is True
    assert record["executor_tiers"]["byte_identical"] is True
    assert record["figure_sweep"]["byte_identical"] is True

    assert nw["overhead_ratio"] <= 1.5, (
        f"warm planned launches cost {nw['overhead_ratio']:.2f}x the "
        f"raw generator floor (trials: {nw['overhead_ratio_trials']})")

    # the record must have landed as a schema-versioned trajectory entry
    data = json.loads(BENCH_PATH.read_text())
    assert data["trajectory"][-1]["schema"] == BENCH_SCHEMA
    assert data["trajectory"][-1] == record


def test_figure_sweep_warm_cache_speedup(tmp_path):
    """Figs. 2/4/5 rebuild: warm cache >= 3x faster, byte-identical."""
    from repro.harness import experiments
    from repro.harness.resultdb import FigureCache, _encode

    experiments.clear_experiment_caches()
    cache = FigureCache(tmp_path)

    t0 = time.perf_counter()
    cold = {
        "fig2": experiments.figure2(True, cache=cache),
        "fig4": experiments.figure4(cache=cache),
        "fig5": experiments.figure5(cache=cache),
    }
    cold_s = time.perf_counter() - t0

    experiments.clear_experiment_caches()  # only the disk cache stays warm
    t0 = time.perf_counter()
    warm = {
        "fig2": experiments.figure2(True, cache=cache),
        "fig4": experiments.figure4(cache=cache),
        "fig5": experiments.figure5(cache=cache),
    }
    warm_s = time.perf_counter() - t0

    assert cold == warm
    cold_bytes = json.dumps(_encode(cold), sort_keys=True)
    warm_bytes = json.dumps(_encode(warm), sort_keys=True)
    assert cold_bytes == warm_bytes
    speedup = cold_s / warm_s
    _record("figure_sweeps", {
        "figures": ["fig2", "fig4", "fig5"],
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup_warm_over_cold": round(speedup, 2),
        "byte_identical": cold_bytes == warm_bytes,
        "cache": cache.stats(),
    })
    assert speedup >= 3.0, f"warm figure rebuild only {speedup:.2f}x faster"
