"""Unit tests for the RNG substrates (XORWOW / Philox / Park-Miller)."""

import numpy as np
import pytest

from repro.common.rng import LcgPark, Philox4x32, Xorwow, make_rng


class TestXorwow:
    def test_deterministic(self):
        a = Xorwow(42)
        b = Xorwow(42)
        assert [a.next_uint32() for _ in range(10)] == [b.next_uint32() for _ in range(10)]

    def test_seed_changes_stream(self):
        a = [Xorwow(1).next_uint32() for _ in range(5)]
        b = [Xorwow(2).next_uint32() for _ in range(5)]
        assert a != b

    def test_uint32_range(self):
        g = Xorwow(7)
        for _ in range(1000):
            v = g.next_uint32()
            assert 0 <= v <= 0xFFFFFFFF

    def test_uniform_in_unit_interval(self):
        g = Xorwow(3)
        vals = [g.uniform_float() for _ in range(1000)]
        assert all(0.0 < v <= 1.0 for v in vals)
        # crude uniformity: mean near 0.5
        assert abs(np.mean(vals) - 0.5) < 0.05

    def test_weyl_counter_advances(self):
        g = Xorwow(5)
        g.next_uint32()
        assert g.counter == Xorwow.WEYL

    def test_fill_uniform_shape_and_dtype(self):
        out = Xorwow(1).fill_uniform(32)
        assert out.shape == (32,)
        assert out.dtype == np.float32

    def test_normal_finite(self):
        g = Xorwow(11)
        vals = [g.normal() for _ in range(500)]
        assert np.isfinite(vals).all()
        assert abs(np.mean(vals)) < 0.2


class TestPhilox:
    def test_block_size(self):
        assert len(Philox4x32(0).next_block()) == 4

    def test_deterministic(self):
        a = Philox4x32(99)
        b = Philox4x32(99)
        assert a.next_block() == b.next_block()

    def test_counter_increments(self):
        g = Philox4x32(1)
        b1 = g.next_block()
        b2 = g.next_block()
        assert b1 != b2

    def test_rounds_change_output(self):
        a = Philox4x32(1, rounds=10).next_block()
        b = Philox4x32(1, rounds=7).next_block()
        assert a != b

    def test_skip_ahead_matches_sequential(self):
        a = Philox4x32(5)
        for _ in range(3):
            a.next_block()
        b = Philox4x32(5)
        b.skip_ahead(3)
        assert a.next_block() == b.next_block()

    def test_skip_ahead_carries_across_words(self):
        g = Philox4x32(1)
        g.counter = [0xFFFFFFFF, 0, 0, 0]
        g.skip_ahead(1)
        assert g.counter == [0, 1, 0, 0]

    def test_uniform_distribution(self):
        g = Philox4x32(123)
        vals = g.fill_uniform(2000)
        assert abs(vals.mean() - 0.5) < 0.03
        assert vals.min() > 0.0 and vals.max() <= 1.0

    def test_streams_differ_from_xorwow(self):
        """The paper's point: DPCT's RNG swap changes the stream."""
        x = Xorwow(42).fill_uniform(64)
        p = Philox4x32(42).fill_uniform(64)
        assert not np.allclose(x, p)


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


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("xorwow", Xorwow), ("curand", Xorwow),
        ("philox", Philox4x32), ("philox4x32x10", Philox4x32),
        ("onemkl", Philox4x32), ("lcg", LcgPark),
    ])
    def test_kinds(self, name, cls):
        assert isinstance(make_rng(name, 1), cls)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_rng("mersenne")
