"""Property-based tests (hypothesis) on core data structures and
algorithm invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.altis.dwt2d import dwt53_forward, dwt53_inverse
from repro.altis.kmeans import _assign_points, _update_centers
from repro.altis.nw import nw_reference
from repro.altis.raytracing import Material
from repro.altis.where import custom_fpga_prefix_sum, where_reference
from repro.common.rng import LcgPark
from repro.common.utils import geomean
from repro.sycl import DataflowGraph, KernelSpec, NdRange, Pipe, Range
from repro.sycl.executor import run_nd_range
from repro.sycl.ndrange import linear_index
from repro.sycl.onedpl import exclusive_scan


# -- index spaces -------------------------------------------------------------

@given(st.integers(1, 64), st.integers(1, 8))
def test_ndrange_groups_times_size_equals_items(groups, local):
    nd = NdRange(Range(groups * local), Range(local))
    assert nd.num_groups() * nd.group_size() == nd.total_items()


@given(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)))
def test_linear_index_bijective(extents):
    seen = set()
    for i in range(extents[0]):
        for j in range(extents[1]):
            for k in range(extents[2]):
                seen.add(linear_index((i, j, k), extents))
    total = extents[0] * extents[1] * extents[2]
    assert seen == set(range(total))


@given(st.integers(1, 16), st.integers(1, 16))
@settings(max_examples=25, deadline=None)
def test_executor_visits_every_item_exactly_once(groups, local):
    counts = np.zeros(groups * local, dtype=np.int64)

    def body(item, counts):
        counts[item.get_global_linear_id()] += 1

    k = KernelSpec(name="count", item_fn=body)
    run_nd_range(k, NdRange(Range(groups * local), Range(local)), (counts,),
                 mode="item")
    assert (counts == 1).all()


# -- geometric mean -----------------------------------------------------------

@given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=20))
def test_geomean_between_min_and_max(values):
    g = geomean(values)
    assert min(values) * 0.999 <= g <= max(values) * 1.001


# -- Listing 1's fused material -----------------------------------------------

unit = st.floats(0, 1, allow_nan=False, width=32)


@given(st.integers(0, 2), st.tuples(unit, unit, unit), unit,
       st.floats(1, 2, allow_nan=False, width=32))
def test_material_float8_keeps_every_field(m_type, albedo, fuzz, ref_idx):
    m = Material(m_type, np.array(albedo), fuzz=fuzz, ref_idx=ref_idx)
    f8 = m.to_float8()
    assert f8.data.dtype == np.float32 and f8.data.shape == (8,)
    assert (f8.m_type, f8.fuzz, f8.ref_idx) == (m.m_type, m.fuzz, m.ref_idx)
    assert f8.albedo.tobytes() == m.albedo.tobytes()


# -- RNGs ---------------------------------------------------------------------

@given(st.integers(1, 2**31 - 2))
@settings(max_examples=30)
def test_lcg_stays_in_range(seed):
    g = LcgPark(seed)
    for _ in range(10):
        assert 0 < g.next_int() < LcgPark.M


# -- scans --------------------------------------------------------------------

@given(st.lists(st.integers(0, 1000), min_size=1, max_size=200))
def test_exclusive_scan_invariant(data):
    arr = np.array(data, dtype=np.int64)
    out = exclusive_scan(arr)
    assert out[0] == 0
    np.testing.assert_array_equal(out[1:], np.cumsum(arr)[:-1])


@given(st.lists(st.integers(0, 1), min_size=2, max_size=300))
def test_custom_fpga_scan_matches_onedpl(flags):
    arr = np.array(flags, dtype=np.int32)
    np.testing.assert_array_equal(custom_fpga_prefix_sum(arr),
                                  exclusive_scan(arr))


# -- app invariants -----------------------------------------------------------

@given(st.integers(0, 2**31 - 1), st.integers(4, 6))
@settings(max_examples=15, deadline=None)
def test_dwt_roundtrip_lossless(seed, log_n):
    rng = np.random.default_rng(seed)
    n = 1 << log_n
    img = rng.integers(-512, 512, size=(n, n)).astype(np.int64)
    levels = log_n - 3
    rec = dwt53_inverse(dwt53_forward(img, levels), levels)
    np.testing.assert_array_equal(rec, img)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_where_partition_invariants(seed):
    rng = np.random.default_rng(seed)
    records = rng.integers(0, np.iinfo(np.int32).max, size=(128, 4),
                           dtype=np.int32)
    matched, prefix = where_reference(records)
    # prefix is monotone non-decreasing and counts matches
    assert (np.diff(prefix) >= 0).all()
    assert len(matched) == int(prefix[-1]) + int(
        records[-1, 0] / np.iinfo(np.int32).max < 0.35)
    # every matched row satisfies the predicate
    keys = matched[:, 0].astype(np.float64) / np.iinfo(np.int32).max
    assert (keys < 0.35).all()


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_kmeans_update_reduces_inertia(seed):
    """One Lloyd step never increases the clustering objective."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(200, 4)).astype(np.float32)
    centers = points[rng.choice(200, 8, replace=False)]

    def inertia(c):
        d = ((points[:, None, :] - c[None, :, :]) ** 2).sum(-1)
        return d.min(axis=1).sum()

    before = inertia(centers)
    assign = _assign_points(points, centers)
    after = inertia(_update_centers(points, assign, 8))
    assert after <= before + 1e-3


@given(st.integers(0, 2**31 - 1), st.integers(8, 24))
@settings(max_examples=10, deadline=None)
def test_nw_score_matrix_bounded_steps(seed, n):
    """Adjacent DP cells differ by at most the penalty + max similarity."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 24, n)
    b = rng.integers(0, 24, n)
    blosum = rng.integers(-4, 12, size=(24, 24)).astype(np.int32)
    score = nw_reference(a, b, blosum, penalty=10)
    horiz = np.abs(np.diff(score, axis=1))
    assert horiz.max() <= 10 + 12  # penalty + max similarity


@given(st.integers(1, 6), st.lists(st.integers(0, 100), min_size=1,
                                   max_size=60))
@settings(max_examples=20, deadline=None)
def test_pipe_dataflow_preserves_sequence(capacity, values):
    """Any payload survives a bounded pipe in order."""
    p = Pipe(capacity=capacity)
    out = []

    def producer():
        for v in values:
            yield from p.write_blocking(v)

    def consumer():
        for _ in range(len(values)):
            out.append((yield from p.read_blocking()))

    g = DataflowGraph()
    g.add_kernel("p", producer)
    g.add_kernel("c", consumer)
    g.run()
    assert out == values
