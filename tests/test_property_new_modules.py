"""Property-based tests for the ResultDB statistics."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.harness.resultdb import Result, ResultDB


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

