"""Unit tests for queues, events, profiling, and modeled timelines."""

import numpy as np
import pytest

from repro.common.errors import FeatureNotSupportedError, InvalidParameterError
from repro.perfmodel import FpgaModel, GpuModel, KernelProfile
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


#: the declared work of a 64-item launch
_PROFILE = KernelProfile(name="noop", flops=64 * 16, global_bytes=64 * 8,
                         work_items=64)


def _launch_overhead_s(queue):
    """One launch plus its two event records, on the queue's runtime."""
    return queue.overheads.launch_s + 2 * queue.overheads.event_s


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
        ev = gpu_queue.parallel_for(Range(64), _noop_kernel(),
                                    profile=_PROFILE)
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
        # launch overhead is host time, outside the event's device span;
        # the runtime's per-run cost opens the timeline
        first, second = gpu_queue.timeline
        per_launch = _launch_overhead_s(gpu_queue)
        assert first.overhead_s == pytest.approx(
            per_launch + gpu_queue.overheads.per_run_s)
        assert second.overhead_s == pytest.approx(per_launch)
        assert first.total_s == pytest.approx(
            first.device_s + first.overhead_s)

    def test_kernel_vs_non_kernel_split(self, gpu_queue):
        gpu_queue.parallel_for(Range(256), _noop_kernel(), profile=_PROFILE)
        assert gpu_queue.kernel_time_s() > 0
        assert gpu_queue.non_kernel_time_s() > 0
        assert gpu_queue.total_time_s() == pytest.approx(
            gpu_queue.kernel_time_s() + gpu_queue.non_kernel_time_s())

    def test_reset_timeline(self, gpu_queue):
        gpu_queue.parallel_for(Range(8), _noop_kernel())
        gpu_queue.reset_timeline()
        assert gpu_queue.total_time_s() == 0.0
        assert gpu_queue.now_ns == 0
        # the next booking opens a new run and pays its per-run cost again
        gpu_queue.parallel_for(Range(8), _noop_kernel())
        assert gpu_queue.timeline[0].overhead_s == pytest.approx(
            _launch_overhead_s(gpu_queue) + gpu_queue.overheads.per_run_s)

    def test_profile_less_launch_books_only_its_overhead(self, gpu_queue):
        gpu_queue.parallel_for(Range(8), _noop_kernel())
        gpu_queue.parallel_for(Range(8), _noop_kernel())
        second = gpu_queue.timeline[1]
        assert second.device_s == 0.0
        assert gpu_queue.kernel_time_s() == 0.0
        assert second.overhead_s == pytest.approx(
            _launch_overhead_s(gpu_queue))

    def test_kernel_time_is_the_device_model(self, gpu_queue, fpga_queue):
        gpu_ev = gpu_queue.parallel_for(Range(64), _noop_kernel(),
                                        profile=_PROFILE)
        want = GpuModel(gpu_queue.device.spec).kernel_time_s(_PROFILE)
        assert gpu_ev.duration_s == pytest.approx(want, abs=1e-9)
        # the FPGA clock times the launched kernel's structure
        kernel = _noop_kernel()
        fpga_ev = fpga_queue.parallel_for(NdRange(Range(64), Range(8)),
                                          kernel, profile=_PROFILE)
        want = FpgaModel(fpga_queue.device.spec).kernel_time_s(kernel,
                                                                _PROFILE)
        assert fpga_ev.duration_s == pytest.approx(want, abs=1e-9)

    def test_queue_from_key_string(self):
        q = Queue("agilex")
        assert q.device.spec.key == "agilex"


class TestLargestDivisor:
    @pytest.mark.parametrize("n,at_most,expected", [
        (100, 64, 50), (128, 64, 64), (7, 4, 1), (12, 6, 6), (0, 8, 1),
    ])
    def test_cases(self, n, at_most, expected):
        assert _largest_divisor(n, at_most) == expected
