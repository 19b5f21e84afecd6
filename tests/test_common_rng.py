"""Unit tests for the Park-Miller LCG of ParticleFilter."""

import numpy as np
import pytest

from repro.common.rng import LcgPark


class TestLcgPark:
    def test_park_miller_known_sequence(self):
        # minimal-standard LCG: seed 1 -> 16807 -> 282475249 ...
        g = LcgPark(1)
        assert g.next_int() == 16807
        assert g.next_int() == 282475249

    def test_ten_thousandth_value(self):
        # classic validation: starting from 1, the 10,000th draw is 1043618065
        g = LcgPark(1)
        v = 0
        for _ in range(10000):
            v = g.next_int()
        assert v == 1043618065

    def test_zero_seed_coerced(self):
        assert LcgPark(0).state == 1

    def test_uniform_in_unit(self):
        g = LcgPark(7)
        for _ in range(100):
            assert 0.0 < g.uniform_float() < 1.0

    @pytest.mark.parametrize("seed,n", [(1, 1), (1, 51), (7, 200), (2**31 - 2, 9)])
    def test_normals_equal_repeated_normal(self, seed, n):
        fast, slow = LcgPark(seed), LcgPark(seed)
        got = fast.normals(n)
        want = np.array([slow.normal() for _ in range(n)])
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        assert fast.state == slow.state
        # the stream continues where n calls to normal() would leave it
        assert fast.normal() == slow.normal()

    def test_normals_zero_draws(self):
        g = LcgPark(5)
        before = g.state
        out = g.normals(0)
        assert out.shape == (0,)
        assert g.state == before
