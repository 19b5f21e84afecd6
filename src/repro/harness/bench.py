"""Steady-state launch benchmarks — the ``repro bench`` harness.

The launch-plan compiler (:mod:`repro.sycl.plan`) exists to amortize
per-launch dispatch work across the repeated, identically-shaped
launches that dominate the Altis steady state — the pattern behind the
paper's Fig. 1 split of kernel time vs. everything around it.  This
module measures that amortization on three workloads and appends a
schema-versioned record to ``BENCH_executor.json`` so the performance
trajectory of the executor is tracked across commits:

* **NW blocked wavefront** — the canonical barrier-heavy repeated-launch
  workload (``2*nb - 1`` launches per alignment), run through warm
  per-item plans (``mode="item"``) and against an in-benchmark *floor*:
  the same ``item_fn`` generators driven in lockstep over pre-built
  work-items, with no plan, no validation and no stats — the
  irreducible kernel-body cost.  The headline number is the
  **overhead ratio**, best planned time over best floor time (1.0 means
  launches cost nothing beyond the kernel body), with the per-launch
  overhead in microseconds alongside.
* **Executor tiers** — a repeated SRAD diffusion loop through the
  per-item interpreter and the compiled (batched-numpy) tier of
  :mod:`repro.sycl.vectorize`, asserting the compiled image is
  byte-identical to the per-item one and recording the compiled-tier
  speedup plus where every cached plan landed.
* **Figure sweep** — cold vs warm rebuild of a paper figure through a
  fresh :class:`~repro.harness.resultdb.FigureCache`.

Every benchmark verifies its outputs (NW against :func:`nw_reference`,
SRAD compiled against per-item, the figure sweep warm against cold,
byte for byte) and raises
:class:`~repro.common.errors.ReproError` on mismatch — a benchmark that
got fast by being wrong must fail loudly.

Command line::

    python -m repro bench --quick          # CI-sized run
    python -m repro bench --repeats 5      # more trials per benchmark
    python -m repro bench --out BENCH.json

Records append under the ``"trajectory"`` key; each carries
``"schema": "repro-bench/1"`` so downstream tooling can detect format
drift (the CI bench job diffs the schema against the previous record).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from ..common.errors import ReproError

__all__ = [
    "BENCH_SCHEMA",
    "bench_environment",
    "bench_nw_wavefront",
    "bench_executor_tiers",
    "bench_figure_sweep",
    "run_bench",
    "append_trajectory",
    "render_bench",
]

#: Schema tag carried by every trajectory record.  Bump on any change to
#: the record's key structure so the CI schema diff flags it.
BENCH_SCHEMA = "repro-bench/2"


def _best(fn, best_of: int) -> tuple[float, object]:
    """Best-of-N timing: minimum elapsed and the last returned payload."""
    best_s = float("inf")
    payload = None
    for _ in range(best_of):
        elapsed, payload = fn()
        if elapsed < best_s:
            best_s = elapsed
    return best_s, payload


# ---------------------------------------------------------------------------
# NW blocked wavefront: warm per-item plans vs the raw-generator floor
# ---------------------------------------------------------------------------

def bench_nw_wavefront(*, n: int = 32, block: int = 4, seed: int = 7,
                       trials: int = 3, best_of: int = 7) -> dict:
    """Steady-state NW wavefront: planned launch cost over the floor.

    Uses a custom block size (``nw_reference`` is block-independent, so
    the scores still verify) to get a launch-dominated shape: small
    tiles, many launches, little kernel body per launch.  The planned
    leg pins ``mode="item"``: under ``force_item`` or auto selection NW
    would run its whole-range ``vector_fn``.
    """
    from ..altis.nw import ALPHABET, _similarity, nw_reference
    from ..altis.nw import NW
    from ..sycl import NdRange, Range
    from ..sycl.buffer import LocalAccessor
    from ..sycl.executor import run_nd_range
    from ..sycl.ndrange import Group, NdItem
    from ..sycl.plan import clear_plan_caches, plan_cache_info

    if n % block != 0:
        raise ReproError(f"n={n} not divisible by block={block}")
    rng = np.random.default_rng(seed)
    seq_a = rng.integers(0, ALPHABET, size=n, dtype=np.int64)
    seq_b = rng.integers(0, ALPHABET, size=n, dtype=np.int64)
    blosum = rng.integers(-4, 12, size=(ALPHABET, ALPHABET), dtype=np.int32)
    blosum = ((blosum + blosum.T) // 2).astype(np.int32)
    penalty = 10
    nb = n // block
    launches = 2 * nb - 1
    sim = _similarity(seq_a, seq_b, blosum).astype(np.int32)
    expected = nw_reference(seq_a, seq_b, blosum, penalty)
    kern = NW().kernels()["needle_block"]
    item_fn = kern.item_fn
    tile = LocalAccessor((block + 1, block + 1), np.int32)

    base = np.zeros((n + 1, n + 1), dtype=np.int32)
    base[0, :] = -penalty * np.arange(n + 1)
    base[:, 0] = -penalty * np.arange(n + 1)

    def wavefront():
        score = base.copy()
        t0 = time.perf_counter()
        for d in range(launches):
            blocks = (d + 1) if d < nb else (2 * nb - 1 - d)
            run_nd_range(kern, NdRange(Range(blocks * block), Range(block)),
                         (score, sim, tile, penalty, d, nb, n, block),
                         mode="item")
        return time.perf_counter() - t0, score

    # The floor: drive the same item generators in lockstep over
    # pre-built work-items, one fresh tile per group as the executor
    # gives it.  Everything above this cost is launch overhead.
    pooled = []
    for d in range(launches):
        blocks = (d + 1) if d < nb else (2 * nb - 1 - d)
        nd = NdRange(Range(blocks * block), Range(block))
        groups = [Group((g,), nd) for g in range(blocks)]
        pooled.append([[NdItem((g * block + t,), (t,), group)
                        for t in range(block)]
                       for g, group in enumerate(groups)])
    done = object()

    def floor_run():
        score = base.copy()
        t0 = time.perf_counter()
        for d in range(launches):
            for items in pooled[d]:
                tile._begin_group()
                live = [item_fn(item, score, sim, tile, penalty, d, nb, n,
                                block) for item in items]
                while live:
                    live = [g for g in live if next(g, done) is not done]
                tile._end_group()
        return time.perf_counter() - t0, score

    clear_plan_caches()
    wavefront()  # compile the per-diagonal plans once
    warm_s, floor_s, ratios = [], [], []
    for _ in range(trials):
        warm, s_warm = _best(wavefront, best_of)
        floor, s_floor = _best(floor_run, best_of)
        for name, s in (("planned", s_warm), ("floor", s_floor)):
            if s.tobytes() != expected.tobytes():
                raise ReproError(
                    f"NW bench: {name} wavefront diverged from nw_reference")
        warm_s.append(round(warm, 6))
        floor_s.append(round(floor, 6))
        ratios.append(round(warm / floor, 3))
    info = plan_cache_info()
    return {
        "workload": (f"NW blocked wavefront, n={n}, block={block}, "
                     "mode=item, verified vs nw_reference"),
        "launches": launches,
        "items": sum(((d + 1) if d < nb else (2 * nb - 1 - d)) * block
                     for d in range(launches)),
        "trials": trials,
        "best_of": best_of,
        "warm_planned_s": warm_s,
        "floor_s": floor_s,
        "overhead_ratio_trials": ratios,
        # best planned over best floor: each side's least-disturbed trial
        "overhead_ratio": round(min(warm_s) / min(floor_s), 3),
        "overhead_us_per_launch": round(
            (min(warm_s) - min(floor_s)) / launches * 1e6, 2),
        "byte_identical": True,
        "plan_cache": {"compiles": info["compiles"], "hits": info["hits"],
                       "size": info["size"]},
    }


# ---------------------------------------------------------------------------
# Execution tiers: compiled (batched numpy) vs per-item on SRAD
# ---------------------------------------------------------------------------

def bench_executor_tiers(*, scale: float = 0.016, iterations: int = 8,
                         seed: int = 11, best_of: int = 5) -> dict:
    """Compiled tier vs the per-item interpreter on SRAD.

    Repeated identically-shaped 2-D launches of the two diffusion
    kernels, run two ways: ``mode="item"`` (the per-item interpreter —
    the reference the compiled tier validates against) and
    ``mode="compiled"`` (the batched program from
    :mod:`repro.sycl.vectorize`, evaluated once per launch over the
    memoized index lattice).  Asserts the compiled image is
    byte-identical to the per-item one, and records where each plan
    landed (:func:`plan_cache_info`'s ``tiers``) plus how many kernels
    fell back (``vectorize.fallback``) during an NW run in compiled
    mode — NW's blocked wavefront kernel is barrier- and
    local-tile-shaped, and since the dialect gained local-memory lanes
    it promotes, so the probe documents **zero** fallbacks.

    A second pass times the dialect-widening holdout apps end to end
    (``run_sycl`` under ``default_mode="item"`` vs ``"compiled"``),
    byte-compares their outputs, and records per-app speedups under
    ``apps`` — the perf gate for the static-loop/local-tile/builtin
    widenings (NW, KMeans, Mandelbrot, CFD, LavaMD).
    """
    from ..altis.srad import Srad
    from ..sycl import NdRange, Range
    from ..sycl.executor import run_nd_range
    from ..sycl.plan import clear_plan_caches, plan_cache_info
    from ..trace.metrics import registry

    app = Srad()
    wl = app.generate(1, seed=seed, scale=scale)
    rows, cols = wl.params["rows"], wl.params["cols"]
    lam = wl.params["lam"]
    ks = app.kernels()
    k1, k2 = ks["srad1"], ks["srad2"]
    wg = 16 if min(rows, cols) >= 16 else 8
    gr = -(-rows // wg) * wg
    gc = -(-cols // wg) * wg
    base = wl["img"].astype(np.float32)

    def diffuse(mode: str):
        img = base.copy()
        c_arr = np.zeros_like(img)
        dN = np.zeros_like(img)
        dS = np.zeros_like(img)
        dW = np.zeros_like(img)
        dE = np.zeros_like(img)
        t0 = time.perf_counter()
        for _ in range(iterations):
            mean = img[:rows, :cols].mean()
            var = img[:rows, :cols].var()
            q0sqr = var / (mean * mean)
            nd = NdRange(Range(gr, gc), Range(wg, wg))
            run_nd_range(k1, nd, (img, c_arr, dN, dS, dW, dE, q0sqr,
                                  rows, cols), mode=mode)
            run_nd_range(k2, nd, (img, c_arr, dN, dS, dW, dE, lam,
                                  rows, cols), mode=mode)
        return time.perf_counter() - t0, img

    clear_plan_caches()
    # warm every tier's plans; the compiled plans' first launch is their
    # shadow-validation launch, so the timed runs below are all hot
    for mode in ("item", "compiled"):
        diffuse(mode)
    tiers = plan_cache_info()["tiers"]
    item_s, img_item = _best(lambda: diffuse("item"), best_of)
    compiled_s, img_compiled = _best(lambda: diffuse("compiled"), best_of)
    if img_compiled.tobytes() != img_item.tobytes():
        raise ReproError(
            "tier bench: compiled image diverged from the per-item "
            "interpreter")

    # NW in compiled mode: the wavefront kernel's LocalAccessor tile is
    # now part of the batchable dialect, so the fallback counter must
    # stay flat across a full compiled-mode run.
    fallback = registry.counter("vectorize.fallback")
    before = fallback.value
    from .runner import run_functional
    run_functional("NW", seed=seed, mode="compiled")
    nw_fallbacks = fallback.value - before

    # Holdout apps end to end: per-item interpreter vs compiled tier.
    from ..altis.registry import make_app
    from ..sycl.queue import Queue

    apps = {}
    for config, app_scale in (("Mandelbrot", 0.005), ("KMeans", 0.01),
                              ("NW", 0.02), ("CFD FP32", 0.002),
                              ("LavaMD", 0.3)):
        app = make_app(config)

        def once(mode, app=app, app_scale=app_scale):
            q = Queue("rtx2080", default_mode=mode)
            wl = app.generate(1, seed=seed, scale=app_scale)
            t0 = time.perf_counter()
            outputs = app.run_sycl(q, wl)
            return time.perf_counter() - t0, outputs

        once("compiled")  # compile + shadow-validate the plans
        app_item_s, out_item = _best(lambda: once("item"), best_of)
        app_comp_s, out_comp = _best(lambda: once("compiled"), best_of)
        for key in out_item:
            if (np.asarray(out_item[key]).tobytes()
                    != np.asarray(out_comp[key]).tobytes()):
                raise ReproError(
                    f"tier bench: {config} compiled output {key!r} diverged "
                    "from the per-item interpreter")
        apps[config] = {
            "scale": app_scale,
            "item_s": round(app_item_s, 6),
            "compiled_s": round(app_comp_s, 6),
            "compiled_vs_item": round(app_item_s / app_comp_s, 2),
        }

    return {
        "workload": (f"SRAD tiers, {rows}x{cols}, {iterations} iterations "
                     "(2 launches each), identical inputs per tier"),
        "launches": 2 * iterations,
        "best_of": best_of,
        "item_s": round(item_s, 6),
        "compiled_s": round(compiled_s, 6),
        "compiled_vs_item": round(item_s / compiled_s, 2),
        "byte_identical": True,
        "tiers": dict(sorted(tiers.items())),
        "nw_compiled_fallbacks": nw_fallbacks,
        "apps": apps,
    }


# ---------------------------------------------------------------------------
# Figure sweep: cold vs warm rebuild through the persistent cache
# ---------------------------------------------------------------------------

def bench_figure_sweep(*, quick: bool = False) -> dict:
    """Cold vs warm rebuild of paper figures through a fresh FigureCache."""
    from . import experiments
    from .resultdb import FigureCache, _encode

    def build(cache):
        out = {"fig2": experiments.figure2(True, cache=cache)}
        if not quick:
            out["fig4"] = experiments.figure4(cache=cache)
        return out

    with tempfile.TemporaryDirectory() as td:
        cache = FigureCache(td)
        experiments.clear_experiment_caches()
        t0 = time.perf_counter()
        cold = build(cache)
        cold_s = time.perf_counter() - t0
        experiments.clear_experiment_caches()  # only the disk cache survives
        t0 = time.perf_counter()
        warm = build(cache)
        warm_s = time.perf_counter() - t0
    cold_bytes = json.dumps(_encode(cold), sort_keys=True)
    warm_bytes = json.dumps(_encode(warm), sort_keys=True)
    if cold_bytes != warm_bytes:
        raise ReproError("figure bench: warm rebuild not byte-identical")
    return {
        "figures": sorted(cold),
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup_warm_over_cold": round(cold_s / warm_s, 2),
        "byte_identical": True,
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def append_trajectory(record: dict, path: Path) -> None:
    """Append ``record`` to ``path``'s ``"trajectory"`` list (created on
    first use; the file's other sections are preserved)."""
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data.setdefault("trajectory", []).append(record)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def bench_environment() -> dict:
    """The machine identity stamped into every trajectory record.

    ``repro perfdiff`` refuses to compare records whose environments
    differ — wall-clock trajectories only mean something on one machine.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def run_bench(out: str | Path | None = None, *, quick: bool = False,
              repeats: int | None = None,
              timestamp: str | None = None) -> tuple[dict, Path]:
    """Run all steady-state benchmarks; append the trajectory record.

    Returns ``(record, path)``.  ``quick`` shrinks best-of counts and
    drops the slower figure from the sweep (the CI shape); ``repeats``
    overrides the per-benchmark trial count.  ``timestamp`` lets the
    caller stamp the record (the CLI does); ``None`` reads the clock
    here.
    """
    trials = repeats if repeats is not None else (2 if quick else 3)
    best_of = 3 if quick else 7
    if timestamp is None:
        timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    record = {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "timestamp": timestamp,
        "environment": bench_environment(),
        "nw_wavefront": bench_nw_wavefront(trials=trials, best_of=best_of),
        "executor_tiers": bench_executor_tiers(best_of=max(3, best_of - 2)),
        "figure_sweep": bench_figure_sweep(quick=quick),
    }
    path = Path(out) if out is not None else Path("BENCH_executor.json")
    append_trajectory(record, path)
    return record, path


def render_bench(record: dict) -> str:
    """Human-readable summary of one trajectory record."""
    nw = record["nw_wavefront"]
    figs = record["figure_sweep"]
    lines = [
        f"repro bench ({record['schema']}"
        f"{', quick' if record['quick'] else ''})",
        "",
        f"NW wavefront   : {nw['launches']} launches/alignment, "
        f"best of {nw['best_of']} x {nw['trials']} trials",
        f"  overhead ratio (planned/floor)           : "
        f"{nw['overhead_ratio']:.3f}x  {nw['overhead_ratio_trials']}",
        f"  overhead per launch                      : "
        f"{nw['overhead_us_per_launch']:.2f} us",
        f"  verified vs nw_reference, byte-identical : "
        f"{nw['byte_identical']}",
        f"figure sweep   : {'+'.join(figs['figures'])} warm rebuild "
        f"{figs['speedup_warm_over_cold']:.2f}x, byte-identical "
        f"{figs['byte_identical']}",
    ]
    tiers = record.get("executor_tiers")
    if tiers is not None:
        # tier entries are {"count", "fallbacks"} dicts (bare counts in
        # records older than the dialect widening)
        tier_counts = ", ".join(
            f"{k}={v['count'] if isinstance(v, dict) else v}"
            for k, v in sorted(tiers["tiers"].items()))
        extra = [
            f"executor tiers : compiled {tiers['compiled_s']*1e3:.2f} ms vs "
            f"item {tiers['item_s']*1e3:.2f} ms",
            f"  compiled speedup: {tiers['compiled_vs_item']:.2f}x vs item, "
            f"byte-identical {tiers['byte_identical']}",
            f"  plan tiers      : {tier_counts}; NW compiled-mode fallbacks "
            f"{tiers['nw_compiled_fallbacks']}",
        ]
        apps = tiers.get("apps") or {}
        if apps:
            extra.append(
                "  app speedups    : " + ", ".join(
                    f"{k} {v['compiled_vs_item']:.2f}x"
                    for k, v in sorted(apps.items())))
        lines[-1:-1] = extra
    return "\n".join(lines)
