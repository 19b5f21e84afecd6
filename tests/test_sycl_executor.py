"""Unit tests for the ND-range executor (barriers, validation, stats)."""

import numpy as np
import pytest

from repro.common.errors import KernelLaunchError
from repro.sycl import (
    FenceSpace,
    KernelAttributes,
    KernelSpec,
    LocalAccessor,
    NdRange,
    Range,
    run_nd_range,
    run_single_task,
    validate_launch,
)


def _simple_kernel():
    def body(item, out):
        out[item.get_global_linear_id()] = item.get_global_linear_id() * 2

    return KernelSpec(name="double_ids", item_fn=body)


class TestBasicExecution:
    def test_item_path_covers_all_items(self):
        out = np.zeros(32, dtype=np.int64)
        stats = run_nd_range(_simple_kernel(), NdRange(Range(32), Range(8)),
                             (out,), mode="item")
        np.testing.assert_array_equal(out, np.arange(32) * 2)
        assert stats.items == 32
        assert stats.groups == 4

    def test_vector_path_preferred(self):
        calls = []

        def vec(nd_range, out):
            calls.append(nd_range.total_items())
            out[:] = 1

        k = KernelSpec(name="v", vector_fn=vec)
        out = np.zeros(16)
        run_nd_range(k, NdRange(Range(16), Range(4)), (out,))
        assert calls == [16]
        assert (out == 1).all()

    def test_item_mode_without_item_fn_raises(self):
        k = KernelSpec(name="v", vector_fn=lambda nd, *a: None)
        with pytest.raises(KernelLaunchError):
            run_nd_range(k, NdRange(Range(4), Range(4)), (), mode="item")

    def test_2d_ids(self):
        out = np.zeros((4, 4), dtype=np.int64)

        def body(item, out):
            out[item.get_global_id(0), item.get_global_id(1)] = (
                item.get_group(0) * 10 + item.get_group(1)
            )

        k = KernelSpec(name="ids2d", item_fn=body)
        run_nd_range(k, NdRange(Range(4, 4), Range(2, 2)), (out,), mode="item")
        assert out[0, 0] == 0 and out[3, 3] == 11 and out[0, 3] == 1


class TestBarriers:
    def test_barrier_phases_are_synchronized(self):
        """All items must write phase-1 data before any reads it."""
        loc = LocalAccessor(8, np.int64)

        def body(item, loc, out):
            lid = item.get_local_linear_id()
            loc[lid] = lid
            yield item.barrier(FenceSpace.LOCAL)
            # read a *different* item's slot: only correct if barrier held
            out[item.get_global_linear_id()] = loc[(lid + 1) % 8]

        out = np.full(16, -1, dtype=np.int64)
        k = KernelSpec(name="rotate", item_fn=body)
        stats = run_nd_range(k, NdRange(Range(16), Range(8)), (loc, out),
                             mode="item")
        expected = np.tile((np.arange(8) + 1) % 8, 2)
        np.testing.assert_array_equal(out, expected)
        assert stats.barrier_phases == 2  # one per group

    def test_uses_barrier_detection(self):
        def gen(item):
            yield item.barrier()

        assert KernelSpec(name="g", item_fn=gen).uses_barrier
        assert not _simple_kernel().uses_barrier

    def test_divergent_barrier_detected(self):
        def body(item):
            if item.get_local_linear_id() == 0:
                yield item.barrier()

        k = KernelSpec(name="divergent", item_fn=body)
        with pytest.raises(KernelLaunchError, match="divergent barrier"):
            run_nd_range(k, NdRange(Range(4), Range(4)), (), mode="item")

    def test_non_barrier_yield_rejected(self):
        def body(item):
            yield 42

        k = KernelSpec(name="bad", item_fn=body)
        with pytest.raises(KernelLaunchError, match="yield item.barrier"):
            run_nd_range(k, NdRange(Range(2), Range(2)), (), mode="item")

    def test_local_accessor_reset_between_groups(self):
        loc = LocalAccessor(4, np.int64)

        def body(item, loc, out):
            lid = item.get_local_linear_id()
            loc[lid] = loc[lid] + 1  # would accumulate if not reset
            yield item.barrier()
            out[item.get_global_linear_id()] = loc[lid]

        out = np.zeros(12, dtype=np.int64)
        k = KernelSpec(name="reset", item_fn=body)
        run_nd_range(k, NdRange(Range(12), Range(4)), (loc, out), mode="item")
        assert (out == 1).all()


class TestLaunchValidation:
    def test_reqd_work_group_size_mismatch(self):
        k = _simple_kernel().with_attributes(reqd_work_group_size=(1, 1, 16))
        with pytest.raises(KernelLaunchError, match="requires work-group"):
            validate_launch(k, NdRange(Range(32), Range(8)))

    def test_reqd_matches_trailing_dims(self):
        k = _simple_kernel().with_attributes(reqd_work_group_size=(1, 1, 8))
        validate_launch(k, NdRange(Range(32), Range(8)))  # ok

    def test_max_work_group_size(self):
        k = _simple_kernel().with_attributes(max_work_group_size=(1, 1, 4))
        with pytest.raises(KernelLaunchError, match="exceeds max"):
            validate_launch(k, NdRange(Range(32), Range(8)))

    def test_device_limit_without_attribute(self):
        """§4: Altis' default work-group sizes exceed the FPGA compiler's
        preconfigured limit, causing runtime errors until the attributes
        are added."""
        k = _simple_kernel()
        with pytest.raises(KernelLaunchError, match="device .*limit|exceeds the device"):
            validate_launch(k, NdRange(Range(512), Range(256)), device_max_wg=128)

    def test_attribute_overrides_device_limit(self):
        k = _simple_kernel().with_attributes(
            reqd_work_group_size=(1, 1, 256), max_work_group_size=(1, 1, 256))
        validate_launch(k, NdRange(Range(512), Range(256)), device_max_wg=128)


class TestSingleTask:
    def test_runs_once(self):
        hits = []
        k = KernelSpec(name="st", kind="single_task",
                       vector_fn=lambda: hits.append(1))
        stats = run_single_task(k, ())
        assert hits == [1]
        assert stats.items == 1

    def test_traced_launch_counts_its_item(self):
        # a traced single-task launch's span carries its one item and
        # group, as its timeline entry does
        from repro.sycl import Queue
        from repro.trace import tracing

        k = KernelSpec(name="st", kind="single_task", vector_fn=lambda: None)
        q = Queue("stratix10")
        with tracing() as tracer:
            q.single_task(k)
            (launch,) = [ev for ev in tracer.events() if ev.cat == "launch"]
        (entry,) = q.timeline
        assert launch.args["items"] == entry.stats.items == 1
        assert launch.args["groups"] == entry.stats.groups == 1
