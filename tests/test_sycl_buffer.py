"""Unit tests for local accessors (work-group shared memory)."""

import numpy as np
import pytest

from repro.common.errors import InvalidParameterError
from repro.sycl import LocalAccessor


class TestLocalAccessor:
    def test_requires_group_context(self):
        acc = LocalAccessor(16, np.float32)
        with pytest.raises(InvalidParameterError):
            _ = acc[0]

    def test_fresh_per_group(self):
        acc = LocalAccessor(4, np.float32)
        acc._begin_group()
        acc[0] = 7
        acc._end_group()
        acc._begin_group()
        assert acc[0] == 0.0  # new group sees fresh storage

    def test_static_fpga_bytes(self):
        acc = LocalAccessor((8, 8), np.float32, static=True)
        assert acc.modeled_fpga_bytes == 256

    def test_dynamic_accessor_provisioned_16k(self):
        """§4: DPCT's dynamically sized accessors force a 16 KiB
        worst-case memory system on FPGA."""
        acc = LocalAccessor(2, np.float64, static=False)  # 16 bytes actual
        assert acc.modeled_fpga_bytes == 16 * 1024

    def test_nbytes(self):
        assert LocalAccessor((4, 4), np.float64).nbytes == 128
