"""Property-based tests for the harness additions (ResultDB statistics,
HyperQ scheduler invariants)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.resultdb import Result, ResultDB
from repro.perfmodel import KernelProfile
from repro.sycl import KernelSpec, Range
from repro.sycl.streams import OutOfOrderQueue


# -- ResultDB statistics -------------------------------------------------------

values_strategy = st.lists(st.floats(-1e6, 1e6, allow_nan=False,
                                     allow_infinity=False),
                           min_size=1, max_size=50)


@given(values_strategy)
def test_result_stats_bounds(values):
    r = Result(test="t", attribute="a", unit="s", values=list(values))
    eps = 1e-9 * max(1.0, abs(r.min), abs(r.max))  # fp summation slack
    assert r.min <= r.median <= r.max
    assert r.min - eps <= r.mean <= r.max + eps
    assert r.stddev >= 0


@given(values_strategy)
def test_result_json_roundtrip(values):
    db = ResultDB()
    for v in values:
        db.add_result("t", "a", "s", v)
    restored = ResultDB.from_json(db.to_json())
    np.testing.assert_allclose(restored.get("t", "a").values, list(values))


@given(st.floats(-1e3, 1e3, allow_nan=False))
def test_single_value_result_degenerate_stats(v):
    r = Result(test="t", attribute="a", unit="s", values=[v])
    assert r.min == r.max == r.mean == r.median == v
    assert r.stddev == 0.0


# -- HyperQ scheduler ----------------------------------------------------------

def _noop():
    return KernelSpec(name="noop", vector_fn=lambda nd, *a: None)


@given(st.lists(st.integers(1, 16), min_size=1, max_size=10))
@settings(max_examples=25, deadline=None)
def test_concurrent_span_never_exceeds_serial(eighths):
    """Overlap can only help: makespan <= serial sum, and >= the longest
    single kernel."""
    q = OutOfOrderQueue("rtx2080")
    capacity = 46 * 1024
    for i, e in enumerate(eighths):
        prof = KernelProfile(name=f"k{i}", flops=1e7 * e, global_bytes=1e4,
                             work_items=max(1, capacity * e // 16))
        q.parallel_for(Range(64), _noop(), profile=prof)
    span = q.concurrent_span_s()
    serial = q.serial_span_s()
    longest = max(n.duration_s for n in q._schedule)
    assert span <= serial * (1 + 1e-9)
    assert span >= longest * (1 - 1e-9)


@given(st.integers(2, 8))
@settings(max_examples=10, deadline=None)
def test_full_chain_equals_serial(n):
    """A dependency chain admits no overlap at all."""
    q = OutOfOrderQueue("rtx2080")
    prev = None
    for i in range(n):
        prof = KernelProfile(name=f"k{i}", flops=1e7, global_bytes=1e4,
                             work_items=128)
        deps = [prev] if prev is not None else None
        prev = q.parallel_for(Range(64), _noop(), profile=prof,
                              depends_on=deps)
    assert q.concurrent_span_s() == q.serial_span_s()
