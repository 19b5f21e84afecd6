"""Unit tests for shared utilities."""

import pytest

from repro.common.utils import geomean, human_time


class TestGeomean:
    def test_basic(self):
        assert geomean([1, 4]) == pytest.approx(2.0)

    def test_identity(self):
        assert geomean([7.0]) == pytest.approx(7.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestFormatting:
    def test_human_time(self):
        assert "ns" in human_time(5e-9)
        assert "us" in human_time(5e-6)
        assert "ms" in human_time(5e-3)
        assert "s" in human_time(5.0)
