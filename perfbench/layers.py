"""Traced re-enactment of one benchmarked command, layer by layer.

Run as a fresh process by ``run.py --trace 1``::

    PYTHONPATH=src python perfbench/layers.py --workload suite --seed 0 \\
        --out layers.json

It calls the command's own public functions in the command's order,
under a :func:`repro.trace.tracing` tracer, and wraps each call into a
layer in a ``bench`` span.  The spans ``repro.trace`` already records
inside those calls (``launch``, ``plan``, ``kernel-form``,
``barrier-phase``, transfers) nest under them.  Nothing inside ``src/``
is instrumented by this file.

* ``suite`` / ``suite-compiled`` — per config: ``generate_workload``,
  ``make_app(config).run_sycl``, ``.reference``, ``.verify``; then
  ``render_suite_report``.  A second, warm pass re-runs ``run_sycl`` on
  fresh copies of the same workloads in the same process (the ``warm``
  span), so one-shot costs (plan compile, translation, shadow
  validation) show as the difference.  ``--seed 0`` is the CLI's input.
* ``figures`` — the ``harness.experiments`` builders and the renderers
  for fig1 fig2 fig4 fig5 table2 table3, with the figure cache off.

The result is one JSON file: the spans, the plan and experiment cache
counters, and the rendered report text.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _import_repro(workload: str) -> None:
    """Import what the command imports, including its lazy imports."""
    import repro.harness.cli  # noqa: F401  (what ``python -m repro`` loads)

    if workload == "figures":
        import repro.fpga  # noqa: F401
        import repro.harness.experiments  # noqa: F401
        import repro.harness.reporting  # noqa: F401
        import repro.harness.resultdb  # noqa: F401
    else:
        import repro.common.errors  # noqa: F401
        import repro.harness.reporting  # noqa: F401
        import repro.harness.runner  # noqa: F401
        import repro.resilience  # noqa: F401


def _suite(tracer, mode: str | None, seed: int) -> dict:
    from repro.altis import Variant
    from repro.altis.registry import make_app
    from repro.harness import runner
    from repro.harness.reporting import render_suite_report
    from repro.sycl import Queue
    from repro.sycl.plan import plan_cache_info

    device_key, variant = "rtx2080", Variant.SYCL_OPT
    configs = list(runner._DEFAULT_SCALES)
    results = []
    for config in configs:
        scale = runner._DEFAULT_SCALES[config]
        with tracer.span(f"app:{config}", "app", config=config):
            app = make_app(config)
            with tracer.span("runner.generate", "bench"):
                workload = runner.generate_workload(config, 1, seed=seed,
                                                    scale=scale)
            with tracer.span("sycl.run", "bench"):
                queue = Queue(device_key, default_mode=mode)
                out = app.run_sycl(queue, workload, variant)
            with tracer.span("altis.reference", "bench"):
                expected = app.reference(workload)
            rtol, atol = runner._TOLERANCES.get(config, (1e-4, 1e-5))
            with tracer.span("altis.verify", "bench"):
                app.verify(out, expected, rtol=rtol, atol=atol)
        results.append(runner.RunResult(
            config=config, device_key=device_key, variant=variant,
            verified=True, modeled_kernel_s=queue.kernel_time_s(),
            modeled_total_s=queue.total_time_s()))
    with tracer.span("reporting.render", "bench"):
        report = render_suite_report(results) + "\n"
    plans = plan_cache_info()
    with tracer.span("warm", "bench"):
        for config in configs:
            workload = runner.generate_workload(
                config, 1, seed=seed, scale=runner._DEFAULT_SCALES[config])
            with tracer.span("sycl.run", "bench"):
                make_app(config).run_sycl(Queue(device_key, default_mode=mode),
                                          workload, variant)
    return {"report": report, "cells": len(configs),
            "plans": {"compiles": plans["compiles"], "hits": plans["hits"],
                      "tiers": plans["tiers"]}}


def _figures(tracer) -> dict:
    from repro.fpga import render_table3
    from repro.harness import experiments, reporting
    from repro.harness.resultdb import FigureCache

    cache = FigureCache(enabled=False)
    parts = []

    def emit(build, render, layer="perfmodel.figures"):
        with tracer.span(layer, "bench"):
            model = build()
        with tracer.span("reporting.render", "bench"):
            parts.append(render(model) + "\n\n")

    emit(lambda: experiments.figure1(cache=cache),
         lambda m: reporting.render_figure1(m, experiments.PAPER_FIG1))
    emit(lambda: experiments.figure2(True, cache=cache),
         lambda m: reporting.render_speedup_grid(
             "Figure 2 (optimized SYCL vs CUDA, RTX 2080)", m,
             experiments.PAPER_FIG2_OPTIMIZED))
    emit(lambda: experiments.figure4(cache=cache),
         lambda m: reporting.render_speedup_grid(
             "Figure 4 (FPGA optimized vs baseline, Stratix 10)", m,
             experiments.PAPER_FIG4))

    def fig5():
        model = experiments.figure5(cache=cache)
        return model, experiments.figure5_geomeans(model)

    emit(fig5, lambda m: reporting.render_figure5(
        m[0], experiments.PAPER_FIG5, m[1], experiments.PAPER_FIG5_GEOMEANS))
    emit(experiments.table2, reporting.render_table2)
    emit(experiments.table3, render_table3, layer="fpga.table3")
    info = experiments.experiment_cache_info()
    return {"report": "".join(parts), "cells": 0,
            "evals": {"perfmodel": info["modeled_time_s"].misses,
                      "fpga": info["fpga_total_s"].misses}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite", "suite-compiled", "figures"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    t_import = time.perf_counter()
    _import_repro(args.workload)
    t_imported = time.perf_counter()
    from repro.trace import tracing

    with tracing(pid="perfbench") as tracer:
        # place the import interval on the tracer's clock
        offset_us = time.perf_counter() * 1e6 - tracer.now_us()
        tracer.complete("import", "bench", t_import * 1e6 - offset_us,
                        (t_imported - t_import) * 1e6)
        if args.workload == "figures":
            result = _figures(tracer)
        else:
            mode = "compiled" if args.workload == "suite-compiled" else None
            result = _suite(tracer, mode, args.seed)
        events = tracer.events()
    result["spans"] = [
        {"id": ev.id, "parent": ev.parent_id, "name": ev.name, "cat": ev.cat,
         "start_us": ev.start_us, "dur_us": ev.dur_us}
        for ev in events]
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
