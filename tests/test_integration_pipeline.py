"""Integration tests: the paper's full methodology pipeline, end-to-end,
per application — migrate (DPCT) -> fix -> run functionally on a GPU
queue -> refactor for FPGA -> synthesize -> model the run."""

from collections import Counter

import numpy as np
import pytest

from repro.altis import Variant, make_app
from repro.altis.registry import FIG4_CONFIGS
from repro.common.errors import ReproError
from repro.dpct import Migrator
from repro.fpga.synthesis import synthesize
from repro.harness.runner import _DEFAULT_SCALES, run_functional
from repro.perfmodel import (LaunchPlan, get_spec, overheads_for,
                             time_launch_plan)
from repro.sycl import CommandKind, Queue


@pytest.mark.parametrize("config", sorted(FIG4_CONFIGS))
def test_full_pipeline(config):
    """Step through §3 -> §4 -> §5 for one benchmark configuration."""
    app = make_app(config)

    # §3.2: migrate the CUDA source model; apply every manual fix
    result = Migrator().migrate(app.source_model())
    result.apply_all_fixes()
    assert result.runs_without_errors()

    # §3.3: functional GPU run, verified (skip Raytracing's CUDA compare)
    queue = Queue("rtx2080")
    workload = app.generate(1, seed=0, scale=_DEFAULT_SCALES[config])
    out = app.run_sycl(queue, workload, Variant.SYCL_OPT)
    if config != "Raytracing":
        app.verify(out, app.reference(workload), rtol=1e-3, atol=1e-3)
    assert queue.kernel_time_s() > 0

    # §4: the refactored baseline FPGA design must fit and close timing
    base = app.fpga_setup(2, False, "stratix10")
    syn_base = synthesize(base.design, get_spec("stratix10"))
    assert syn_base.resources.fits()

    # §5: the optimized design must fit, close timing, and beat baseline
    opt = app.fpga_setup(2, True, "stratix10")
    syn_opt = synthesize(opt.design, get_spec("stratix10"))
    assert syn_opt.resources.fits()
    t_base = app.fpga_time(2, False, "stratix10").total_s
    t_opt = app.fpga_time(2, True, "stratix10").total_s
    assert t_opt < t_base

    # §5.5: the Agilex retarget builds (except the documented crash)
    try:
        agx = app.fpga_setup(2, True, "agilex")
        assert synthesize(agx.design, get_spec("agilex")).resources.fits()
    except ReproError:
        pytest.fail(f"{config}: Agilex retarget should build at size 2")


def test_cross_device_functional_equivalence():
    """The same functional kernel code produces identical results on any
    modeled device (SYCL portability, the suite's premise)."""
    app = make_app("Where")
    outs = {}
    for dev in ("xeon6128", "rtx2080", "a100", "stratix10"):
        wl = app.generate(1, seed=5, scale=0.0005)
        outs[dev] = app.run_sycl(Queue(dev), wl)["matched"]
    ref = outs["xeon6128"]
    for dev, arr in outs.items():
        np.testing.assert_array_equal(arr, ref, err_msg=dev)


def _booked_run(monkeypatch, config, device_key, variant, scale=None):
    """Run one config functionally and capture every launch the queue
    books: ``(result, queue, [(kernel name, profile), ...])``."""
    launches, queues = [], []
    book = Queue._book

    def spy(self, kernel, profile, stats):
        queues.append(self)
        launches.append((kernel.name, profile))
        return book(self, kernel, profile, stats)

    monkeypatch.setattr(Queue, "_book", spy)
    result = run_functional(config, device_key, variant, scale=scale)
    queue = queues[0]
    assert all(q is queue for q in queues)
    return result, queue, launches


@pytest.mark.parametrize("variant", [Variant.SYCL_OPT, Variant.CUDA],
                         ids=lambda v: v.value)
@pytest.mark.parametrize("config", list(_DEFAULT_SCALES))
def test_queue_clock_is_the_figure_model(config, variant, monkeypatch):
    """A functional run's modeled times are the figures' model of what
    it launched: ``time_launch_plan`` over the booked profiles, on the
    variant's runtime, plus the host tasks (Where's oneDPL scan) the
    queue recorded; the clock counts whole nanoseconds."""
    result, queue, launches = _booked_run(monkeypatch, config, "rtx2080",
                                          variant)
    booked = [(profile, 1) for _, profile in launches]
    assert booked and all(profile is not None for profile, _ in booked)
    spec = get_spec("rtx2080")
    model = time_launch_plan(LaunchPlan(booked), spec,
                             overheads_for(variant.runtime, spec))
    assert result.modeled_kernel_s == pytest.approx(
        model.kernel_s, rel=0, abs=1e-9 * len(booked))
    host_s = sum(entry.total_s for entry in queue.timeline
                 if entry.event.kind is CommandKind.HOST_TASK)
    assert result.modeled_total_s == pytest.approx(
        model.total_s + host_s, rel=0, abs=1e-9 * len(queue.timeline))


#: configs whose functional run books other launches than their own
#: ``launch_plan_for(workload.params, variant)`` plans, with the reason
#: (booked against planned, on rtx2080 under ``sycl_opt`` and ``cuda``)
_LAUNCH_DISAGREEMENTS = {
    "CFD FP32": "3 booked against 9 planned: the plan launches the flux "
                "kernel RK_STEPS times per iteration, the functional loop "
                "once",
    "CFD FP64": "as CFD FP32",
    "DWT2D": "6 booked against 2 planned: the functional run launches "
             "rows and columns once per level, the plan once in total, "
             "scaled by 4/3",
    "KMeans": "as many launches as planned (20 at the default scale), "
              "other profiles: the functional run books 'update' for "
              "reset, accumulate and finalize, the plan 'update' once and "
              "'small_kernels' twice per iteration",
    "PF Naive": "4 booked against 16 planned: the functional run launches "
                "find_index once per frame and computes the likelihood "
                "and weights in host numpy, the plan times 4 launches",
    "PF Float": "as PF Naive",
    "Where": "2 booked against 5 (sycl_opt) or 3 (cuda) planned: the "
             "functional scan is oneDPL's host task under both, the plan "
             "times it as 3 kernels (oneDPL) or 1 (CUB)",
}


@pytest.mark.parametrize("factor", [1, 2], ids=["default-scale", "2x"])
@pytest.mark.parametrize("variant", [Variant.SYCL_OPT, Variant.CUDA],
                         ids=lambda v: v.value)
@pytest.mark.parametrize("config", list(_DEFAULT_SCALES))
def test_functional_run_books_its_launch_plan(config, variant, factor,
                                              monkeypatch):
    """One launch structure per app: the (profile, count) multiset a
    functional run books is ``launch_plan_for`` at the workload's dims,
    except for the listed disagreements, which must still disagree."""
    result, _, launches = _booked_run(
        monkeypatch, config, "rtx2080", variant,
        scale=_DEFAULT_SCALES[config] * factor)
    plan = make_app(config).launch_plan_for(result.workload.params, variant)
    planned = Counter()
    for profile, count in plan.entries:
        if count:
            planned[profile] += count
    booked = Counter(profile for _, profile in launches)
    if config in _LAUNCH_DISAGREEMENTS:
        assert booked != planned, (
            f"{config} now books its launch plan; drop its row from "
            "_LAUNCH_DISAGREEMENTS")
    else:
        assert booked == planned


#: Fig. 4 configs whose functional ``fpga_opt`` run launches other
#: kernels than their synthesized optimized design, with the reason
_FPGA_KERNEL_DISAGREEMENTS = {
    "SRAD": "the functional run launches the ND-range srad1 and srad2; "
            "Table 3's design is the single-task srad_single_task",
    "PF Naive": "the functional run launches find_index_st; the design "
                "synthesizes likelihood and pf_find",
    "PF Float": "as PF Naive",
}


@pytest.mark.parametrize("config", sorted(FIG4_CONFIGS))
def test_fpga_run_launches_its_synthesized_design(config, monkeypatch):
    """The functional ``fpga_opt`` run on the Stratix 10 launches the
    kernels of the design Table 3 synthesizes, except for the listed
    disagreements, which must still disagree."""
    _, _, launches = _booked_run(monkeypatch, config, "stratix10",
                                 Variant.FPGA_OPT)
    design = make_app(config).fpga_setup(1, True, "stratix10").design
    launched = {name for name, _ in launches}
    synthesized = {kd.kernel.name for kd in design.kernels}
    if config in _FPGA_KERNEL_DISAGREEMENTS:
        assert launched != synthesized, (
            f"{config} now launches its design; drop its row from "
            "_FPGA_KERNEL_DISAGREEMENTS")
    else:
        assert launched == synthesized


def test_modeled_times_differ_across_devices():
    """...while the modeled performance does depend on the device."""
    app = make_app("Mandelbrot")
    times = {dev: app.reported_time_s(2, Variant.SYCL_OPT, dev)
             for dev in ("xeon6128", "rtx2080", "a100")}
    assert times["a100"] < times["rtx2080"] < times["xeon6128"]


def test_suite_wide_fpga_portfolio():
    """Every Fig. 4 config has both FPGA builds on the Stratix 10, and
    the optimized portfolio fits the device one app at a time."""
    for config in FIG4_CONFIGS:
        app = make_app(config)
        for optimized in (False, True):
            setup = app.fpga_setup(1, optimized, "stratix10")
            syn = synthesize(setup.design, get_spec("stratix10"))
            assert syn.resources.fits(), (config, optimized)
            assert syn.fmax_mhz >= get_spec("stratix10").fmax_min_mhz * 0.4
