"""Unit tests for queues, events, profiling, and modeled timelines."""

import numpy as np
import pytest

from repro.common.errors import FeatureNotSupportedError, InvalidParameterError
from repro.sycl import (
    CommandKind,
    KernelSpec,
    NdRange,
    ProfilingInfo,
    Queue,
    Range,
    device,
)
from repro.sycl.queue import _largest_divisor


def _noop_kernel():
    return KernelSpec(name="noop", vector_fn=lambda nd, *a: None)


class TestDeviceSelection:
    def test_device_cache(self):
        assert device("a100") is device("a100")

    def test_info_queries(self):
        dev = device("stratix10")
        assert dev.get_info("max_work_group_size") == 128
        with pytest.raises(FeatureNotSupportedError):
            dev.get_info("nonsense")


class TestQueueSubmission:
    def test_parallel_for_runs_kernel_and_returns_event(self, gpu_queue):
        out = np.zeros(8, dtype=np.float32)
        k = KernelSpec(name="fill", vector_fn=lambda nd, a: a.fill(3.0))
        ev = gpu_queue.parallel_for(NdRange(Range(8), Range(4)), k, out)
        assert ev.kind is CommandKind.KERNEL
        assert ev.name == "fill"
        assert (out == 3.0).all()

    def test_parallel_for_plain_range_picks_local(self, gpu_queue):
        ev = gpu_queue.parallel_for(Range(100), _noop_kernel())
        assert ev.kind is CommandKind.KERNEL

    def test_single_task_kind_check(self, gpu_queue):
        with pytest.raises(Exception):
            gpu_queue.single_task(_noop_kernel())  # nd-range kernel


class TestEvents:
    def test_profiling_timestamps_ordered(self, gpu_queue):
        ev = gpu_queue.parallel_for(Range(64), _noop_kernel())
        submit = ev.get_profiling_info(ProfilingInfo.COMMAND_SUBMIT)
        start = ev.get_profiling_info(ProfilingInfo.COMMAND_START)
        end = ev.get_profiling_info(ProfilingInfo.COMMAND_END)
        assert submit <= start < end
        assert ev.duration_ns == end - start

    def test_profiling_disabled_raises(self):
        """§3.2.2: the DPCT helper headers could not enable profiling,
        making event timing impossible — reproduced as an error."""
        q = Queue("rtx2080", enable_profiling=False)
        ev = q.parallel_for(Range(8), _noop_kernel())
        with pytest.raises(InvalidParameterError, match="enable_profiling"):
            ev.get_profiling_info(ProfilingInfo.COMMAND_START)

    def test_clock_monotonic_across_submissions(self, gpu_queue):
        e1 = gpu_queue.parallel_for(Range(8), _noop_kernel())
        e2 = gpu_queue.parallel_for(Range(8), _noop_kernel())
        assert e2.submit_ns >= e1.end_ns


class TestTimelineAccounting:
    def test_one_kernel_entry_per_launch(self, gpu_queue):
        e1 = gpu_queue.parallel_for(NdRange(Range(8), Range(4)),
                                    _noop_kernel())
        e2 = gpu_queue.parallel_for(NdRange(Range(8), Range(4)),
                                    _noop_kernel())
        assert [t.event for t in gpu_queue.timeline] == [e1, e2]
        assert all(t.event.kind is CommandKind.KERNEL
                   for t in gpu_queue.timeline)
        # launch overhead is host time, outside the event's device span
        entry = gpu_queue.timeline[0]
        assert entry.overhead_s == pytest.approx(
            gpu_queue.device.spec.kernel_launch_overhead_s)
        assert entry.total_s == pytest.approx(
            entry.device_s + entry.overhead_s)

    def test_kernel_vs_non_kernel_split(self, gpu_queue):
        gpu_queue.parallel_for(Range(256), _noop_kernel())
        assert gpu_queue.kernel_time_s() > 0
        assert gpu_queue.non_kernel_time_s() > 0
        assert gpu_queue.total_time_s() == pytest.approx(
            gpu_queue.kernel_time_s() + gpu_queue.non_kernel_time_s())

    def test_reset_timeline(self, gpu_queue):
        gpu_queue.parallel_for(Range(8), _noop_kernel())
        gpu_queue.reset_timeline()
        assert gpu_queue.total_time_s() == 0.0
        assert gpu_queue.now_ns == 0

    def test_queue_from_key_string(self):
        q = Queue("agilex")
        assert q.device.spec.key == "agilex"


class TestLargestDivisor:
    @pytest.mark.parametrize("n,at_most,expected", [
        (100, 64, 50), (128, 64, 64), (7, 4, 1), (12, 6, 6), (0, 8, 1),
    ])
    def test_cases(self, n, at_most, expected):
        assert _largest_divisor(n, at_most) == expected
