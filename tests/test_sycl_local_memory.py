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

    def test_nbytes(self):
        assert LocalAccessor((4, 4), np.float64).nbytes == 128
