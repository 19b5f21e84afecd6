"""Unit tests for oneDPL's exclusive_scan and group_local_memory_for_overwrite."""

import numpy as np
import pytest

from repro.common.errors import FeatureNotSupportedError
from repro.sycl import CommandKind, Queue, device, group_local_memory_for_overwrite
from repro.sycl.onedpl import exclusive_scan


class TestScan:
    def test_exclusive_scan_matches_cumsum(self, rng):
        data = rng.integers(0, 10, 100).astype(np.int64)
        out = exclusive_scan(data)
        expected = np.concatenate([[0], np.cumsum(data[:-1])])
        np.testing.assert_array_equal(out, expected)

    def test_exclusive_scan_init(self):
        out = exclusive_scan(np.array([1, 2, 3]), init=10)
        np.testing.assert_array_equal(out, [10, 11, 13])

    def test_exclusive_scan_single_element(self):
        np.testing.assert_array_equal(exclusive_scan(np.array([5])), [0])

    def test_records_host_task_on_queue(self, gpu_queue):
        exclusive_scan(np.arange(64), queue=gpu_queue)
        kinds = [t.event.kind for t in gpu_queue.timeline]
        assert CommandKind.HOST_TASK in kinds

    def test_fpga_scan_much_slower_than_gpu(self):
        """§5.3: the GPU-tuned oneDPL scan collapses on FPGA pipelines."""
        n = 1 << 20
        data = np.ones(n, dtype=np.int32)
        qg = Queue("rtx2080")
        qf = Queue("stratix10")
        exclusive_scan(data, queue=qg)
        exclusive_scan(data, queue=qf)
        t_gpu = qg.timeline[-1].event.duration_s
        t_fpga = qf.timeline[-1].event.duration_s
        assert t_fpga > 20 * t_gpu


class TestGroupLocalMemory:
    def test_fpga_only(self):
        """§5.2: group_local_memory_for_overwrite is provided by the
        oneAPI FPGA toolkit and not supported on CPUs/GPUs."""
        with pytest.raises(FeatureNotSupportedError):
            group_local_memory_for_overwrite(64, device=device("rtx2080"))
        with pytest.raises(FeatureNotSupportedError):
            group_local_memory_for_overwrite(64, device=device("xeon6128"))

    def test_fpga_allocation_is_static(self):
        acc = group_local_memory_for_overwrite(64, np.float32,
                                               device=device("stratix10"))
        assert acc.nbytes == 256  # the user-defined size

    def test_deviceless_allocation_allowed(self):
        assert group_local_memory_for_overwrite((4, 4)).shape == (4, 4)
