"""Integration tests: the paper's full methodology pipeline, end-to-end,
per application — migrate (DPCT) -> fix -> run functionally on a GPU
queue -> refactor for FPGA -> synthesize -> model the run."""

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


@pytest.mark.parametrize("variant", [Variant.SYCL_OPT, Variant.CUDA],
                         ids=lambda v: v.value)
@pytest.mark.parametrize("config", list(_DEFAULT_SCALES))
def test_queue_clock_is_the_figure_model(config, variant, monkeypatch):
    """A functional run's modeled times are the figures' model of what
    it launched: ``time_launch_plan`` over the booked profiles, on the
    variant's runtime, plus the host tasks (Where's oneDPL scan) the
    queue recorded; the clock counts whole nanoseconds."""
    booked, queues = [], []
    book = Queue._book

    def spy(self, kernel, profile, stats):
        queues.append(self)
        booked.append((profile, 1))
        return book(self, kernel, profile, stats)

    monkeypatch.setattr(Queue, "_book", spy)
    result = run_functional(config, "rtx2080", variant)
    queue = queues[0]
    assert all(q is queue for q in queues)
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
