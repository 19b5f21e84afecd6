"""Per-kernel item-vs-vector agreement, as rows of the differential
oracle (``test_differential_oracle.py``): each class names the kernels
whose ``item_fn`` its config's item row interprets (the ``compiled``
cases check the golden compiled row), plus what no row checks: NW's
barrier phases and KMeans' update on an empty cluster."""

import numpy as np
import pytest

from repro.harness.runner import generate_workload
from repro.sycl import Queue, Range
from tests.launch_totals import fold_timeline
from tests.test_differential_oracle import _REDUCED_SCALES, check


def _check(config, mode="item"):
    return check(config, "reduced" if mode == "item" else "golden", mode)


class TestMandelbrotItemPath:
    def test_bit_identical(self):
        _check("Mandelbrot")


class TestNwItemPath:
    @pytest.mark.parametrize("mode", ["item", "compiled"])
    def test_blocked_wavefront_with_barriers(self, mode):
        _, totals = _check("NW", mode)
        if mode == "item":
            # per group, one staging barrier + one per tile anti-diagonal
            block = generate_workload("NW", 1, scale=_REDUCED_SCALES["NW"]
                                      ).params["block"]
            assert totals.barrier_phases == 2 * block * totals.groups


class TestKMeansItemPath:
    @pytest.mark.parametrize("mode", ["item", "compiled"])
    def test_map_centers(self, mode):
        _check("KMeans", mode)

    @pytest.mark.parametrize("mode", ["item", "compiled"])
    def test_update_kernels_with_an_empty_cluster(self, mode):
        """reset/accumulate/finalize give ``_update_centers``' bytes from
        stale buffers, with one cluster no point is assigned to."""
        from repro.altis.kmeans import KMeans, _update_centers

        app = KMeans()
        wl = app.generate(1, scale=0.005)
        p = wl.params
        n, k, d = p["n"], p["k"], p["d"]
        points = wl["points"]
        assign = (np.arange(n) % (k - 1)).astype(np.int32)
        sums, counts = np.full((k, d), 7.0), np.full(k, 3)
        centers = np.empty((k, d), dtype=np.float32)
        ks = app.kernels()
        queue = Queue("rtx2080", default_mode=mode)
        queue.parallel_for(Range(k), ks["reset"], sums, counts, k, d)
        queue.parallel_for(Range(n), ks["accumulate"], points, assign, sums,
                           counts, n)
        queue.parallel_for(Range(k), ks["finalize"], centers, sums, counts, k)
        path = "item" if mode == "item" else "vector"
        assert fold_timeline(queue).path_counts == {path: 3}
        np.testing.assert_array_equal(
            centers, _update_centers(points, assign, k), strict=True)


class TestSradItemPath:
    @pytest.mark.parametrize("mode", ["item", "compiled"])
    def test_both_kernels(self, mode):
        _check("SRAD", mode)


class TestFdtdItemPath:
    def test_three_kernels(self):
        _check("FDTD2D")


class TestCfdItemPath:
    @pytest.mark.parametrize("fp64", [False, True])
    def test_flux_kernel(self, fp64):
        _check("CFD FP64" if fp64 else "CFD FP32")


class TestLavaMdItemPath:
    def test_interactions(self):
        _check("LavaMD")


class TestWhereItemPath:
    def test_mark_and_scatter(self):
        _check("Where")


class TestPfItemPath:
    def test_find_index_linear_search(self):
        _check("PF Naive")


class TestDwtItemPath:
    def test_row_and_col_kernels(self):
        _check("DWT2D")
