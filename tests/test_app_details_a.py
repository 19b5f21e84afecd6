"""App-specific edge cases and algorithm properties: CFD, FDTD2D,
KMeans, LavaMD, Mandelbrot."""

import numpy as np
import pytest

from repro.altis.cfd import NNB, Cfd, cfd_reference_iteration
from repro.altis.fdtd2d import FdTd2D, fdtd2d_reference
from repro.altis.base import Variant
from repro.altis.kmeans import (
    CHUNK,
    KMeans,
    _accumulate_vector,
    _assign_points,
    _cluster_sums,
    _reset_acc_fin_st,
    _update_centers,
    kmeans_reference,
)
from repro.altis.lavamd import LavaMD, _neighbour_boxes, lavamd_reference
from repro.altis.mandelbrot import _VIEW, Mandelbrot, mandelbrot_reference
from repro.sycl import DataflowGraph, Pipe, Queue


class TestCfdDetails:
    def _tiny(self, nel=8, seed=0, fp64=False):
        return Cfd(fp64=fp64).generate(1, seed=seed, scale=nel / 97_000)

    def test_uniform_farfield_is_steady(self):
        """A uniform free-stream state with no boundaries produces zero
        net flux (perfect cancellation across faces)."""
        rng = np.random.default_rng(0)
        nel = 16
        variables = np.tile([1.0, 1.0, 0.0, 0.0, 2.5], (nel, 1))
        neighbours = rng.integers(0, nel, size=(nel, NNB))
        normals = rng.normal(size=(nel, NNB, 3)) * 0.01
        out = cfd_reference_iteration(variables, neighbours, normals)
        # flux_i - flux_n cancel identically for identical states? No:
        # flux is the *average* of both sides; with identical states it
        # equals the one-sided flux, which is nonzero per face but the
        # update must stay finite and bounded
        assert np.isfinite(out).all()

    def test_wall_boundary_mirrors_momentum(self):
        """A wall face sees mirrored momentum: the averaged mass flux
        through it vanishes."""
        variables = np.array([[1.0, 2.0, 0.0, 0.0, 2.5]])
        neighbours = np.array([[-1, -1, -1, -1]])
        normals = np.zeros((1, NNB, 3))
        normals[0, :, 0] = 0.01  # all faces face +x
        out = cfd_reference_iteration(variables, neighbours, normals,
                                      dt=1e-3)
        # density unchanged: rho flux = 0.5*(rho*vn + rho*(-vn)) = 0
        assert out[0, 0] == pytest.approx(1.0)

    def test_farfield_sentinel_uses_freestream(self):
        variables = np.array([[1.0, 1.0, 0.0, 0.0, 2.5]])
        neighbours = np.array([[-2, -2, -2, -2]])
        normals = np.random.default_rng(1).normal(size=(1, NNB, 3)) * 0.01
        out = cfd_reference_iteration(variables, neighbours, normals)
        assert np.isfinite(out).all()

    def test_fp64_workload_dtype(self):
        w64 = Cfd(fp64=True).generate(1, scale=0.001)
        w32 = Cfd(fp64=False).generate(1, scale=0.001)
        assert w64["variables"].dtype == np.float64
        assert w32["variables"].dtype == np.float32

    def test_config_labels(self):
        assert Cfd(False).config == "CFD FP32"
        assert Cfd(True).config == "CFD FP64"

    def test_iteration_preserves_shape_and_finiteness(self):
        w = self._tiny(nel=64, seed=3)
        out = cfd_reference_iteration(w["variables"], w["neighbours"],
                                      w["normals"])
        assert out.shape == w["variables"].shape
        assert np.isfinite(out).all()


class TestFdtdDetails:
    def test_source_injected_each_step(self):
        out = fdtd2d_reference(16, 3)
        assert out["ez"][8, 8] == pytest.approx(np.sin(0.1 * 3), abs=1e-6)

    def test_fields_stay_zero_without_source_energy(self):
        """Away from the source cone, fields remain exactly zero after
        few steps (finite propagation speed of the update stencil)."""
        out = fdtd2d_reference(32, 2)
        assert out["ez"][0, 0] == 0.0
        assert out["hx"][0, 0] == 0.0

    def test_energy_spreads_with_steps(self):
        few = np.count_nonzero(fdtd2d_reference(32, 2)["ez"])
        many = np.count_nonzero(fdtd2d_reference(32, 10)["ez"])
        assert many > few

    def test_cuda_measured_equals_modeled_convention(self):
        app = FdTd2D()
        assert app.cuda_measurement(1, fixed=True) > \
            app.cuda_measurement(1, fixed=False)


class TestKMeansDetails:
    def test_fpga_opt_dataflow_is_booked_on_the_queue(self):
        """Fig. 3b's two pipe kernels launch once each, on the queue, so
        the run reports modeled kernel time like every other variant."""
        app = KMeans()
        workload = app.generate(1, seed=0, scale=0.01)
        queue = Queue("stratix10")
        app.run_sycl(queue, workload, Variant.FPGA_OPT)
        assert queue.counters.single_task_launches == 2
        assert queue.counters.kernel_launches == 0
        assert [t.event.name for t in queue.timeline] == [
            "mapCenters_st", "resetAccFin_st"]
        assert queue.kernel_time_s() > 0
        assert queue.total_time_s() > queue.kernel_time_s()

    def test_empty_cluster_guard(self):
        """A center with no members keeps a finite position (the
        count==0 -> 1 guard)."""
        points = np.zeros((4, 2), dtype=np.float32)
        assign = np.zeros(4, dtype=np.int64)  # all in cluster 0
        centers = _update_centers(points, assign, k=3)
        assert np.isfinite(centers).all()

    def test_assignment_is_nearest(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(50, 3)).astype(np.float32)
        centers = rng.normal(size=(4, 3)).astype(np.float32)
        assign = _assign_points(points, centers)
        d = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        np.testing.assert_array_equal(assign, d.argmin(axis=1))

    def test_converged_input_is_fixed_point(self):
        """Running Lloyd from already-converged centers changes nothing."""
        rng = np.random.default_rng(2)
        points = np.concatenate([rng.normal(-10, 0.1, (20, 2)),
                                 rng.normal(+10, 0.1, (20, 2))]).astype(np.float32)
        c0 = np.array([[-10.0, 0.0], [10.0, 0.0]], dtype=np.float32)
        c1, _ = kmeans_reference(points, c0, 1)
        c2, _ = kmeans_reference(points, c1, 1)
        np.testing.assert_allclose(c1, c2, atol=1e-5)

    def test_blobs_recovered(self):
        app = KMeans()
        wl = app.generate(1, seed=9, scale=0.02)
        res = app.reference(wl)
        # every point near its assigned center (blobs are separated)
        centers = res["centers"][res["assign"]]
        dist = np.linalg.norm(wl["points"] - centers, axis=1)
        assert np.median(dist) < 10.0


def _add_at_update(points, assign, k):
    """The ``np.add.at`` center update that ``_cluster_sums`` replaced,
    kept as the oracle for its bitwise equality."""
    sums = np.zeros((k, points.shape[1]), dtype=np.float64)
    np.add.at(sums, assign, points)
    counts = np.bincount(assign, minlength=k).astype(np.float64)
    counts[counts == 0] = 1.0
    return (sums / counts[:, None]).astype(points.dtype)


def _add_at_lloyd(points, centers0, iterations):
    centers = centers0.copy()
    assign = np.zeros(len(points), dtype=np.int32)
    for _ in range(iterations):
        assign = _assign_points(points, centers)
        centers = _add_at_update(points, assign, len(centers))
    return centers, assign


def _kmeans_workload(seed, scale, empty_cluster):
    wl = KMeans().generate(1, seed=seed, scale=scale)
    if empty_cluster:
        # the duplicate loses every argmin tie, so cluster 1 starts empty;
        # its center then falls back to the origin, far from every blob
        wl["centers0"][1] = wl["centers0"][0]
    return wl


class TestKMeansAccumulationOracle:
    """Every KMeans path sums clusters with one ``np.bincount``; the
    reference and the kernels share it, so ``verify`` cannot catch a
    slip.  These pin it byte for byte to the ``np.add.at`` form."""

    CASES = [(seed, scale, False) for seed in range(4) for scale in (0.01, 0.05)]
    CASES.append((0, 0.01, True))

    @pytest.mark.parametrize("seed,scale,empty", CASES)
    def test_every_path_matches_add_at(self, seed, scale, empty):
        wl = _kmeans_workload(seed, scale, empty)
        want_c, want_a = _add_at_lloyd(wl["points"], wl["centers0"],
                                       wl.params["iterations"])
        got_c, got_a = kmeans_reference(wl["points"], wl["centers0"],
                                        wl.params["iterations"])
        assert got_c.tobytes() == want_c.tobytes()
        assert got_a.tobytes() == want_a.tobytes()
        for variant in (Variant.SYCL_OPT, Variant.FPGA_OPT):
            out = KMeans().run_sycl(Queue("rtx2080"),
                                    _kmeans_workload(seed, scale, empty), variant)
            assert out["centers"].dtype == want_c.dtype
            assert out["centers"].tobytes() == want_c.tobytes(), variant
            assert out["assign"].tobytes() == want_a.tobytes(), variant
        if empty:
            assert 1 not in set(want_a.tolist())

    @staticmethod
    def _cancelling_points(rng, assign, d):
        """Small values plus, in each cluster, ten ``+1e30`` and ten
        ``-1e30`` per column.  A big value swallows the small ones added
        before it cancels, so the float64 sums depend on the order of
        addition."""
        points = rng.choice(np.array([1.0, 3.0, 0.5], dtype=np.float32),
                            size=(len(assign), d))
        for c in np.unique(assign):
            for j in range(d):
                rows = rng.permutation(np.flatnonzero(assign == c))[:20]
                points[rows[:10], j] = 1e30
                points[rows[10:], j] = -1e30
        return points

    def test_empty_cluster_sums_and_accumulate(self):
        rng = np.random.default_rng(3)
        assign = rng.choice([0, 2, 3], size=90).astype(np.int32)
        points = self._cancelling_points(rng, assign, 5)
        want = np.zeros((4, 5), dtype=np.float64)
        np.add.at(want, assign, points)
        backwards = np.zeros((4, 5), dtype=np.float64)
        np.add.at(backwards, assign[::-1], points[::-1])
        assert backwards.tobytes() != want.tobytes()  # the data sees order
        assert _cluster_sums(points, assign, 4).tobytes() == want.tobytes()
        assert (_update_centers(points, assign, 4).tobytes()
                == _add_at_update(points, assign, 4).tobytes())
        sums = np.zeros((4, 5), dtype=np.float64)
        counts = np.zeros(4, dtype=np.int64)
        _accumulate_vector(None, points, assign, sums, counts, 90)
        want_counts = np.zeros(4, dtype=np.int64)
        np.add.at(want_counts, assign, 1)
        assert sums.tobytes() == want.tobytes()
        assert counts.tobytes() == want_counts.tobytes()

    def test_streamed_accumulation_keeps_point_order(self):
        """The fused FPGA kernel receives assignments in chunks; its
        sums must add each cluster's points in stream order, as the
        per-chunk ``np.add.at`` did."""
        rng = np.random.default_rng(5)
        n, k, d = 2 * CHUNK + 37, 3, 2
        assign = rng.integers(0, k, size=n).astype(np.int32)
        points = self._cancelling_points(rng, assign, d)
        sums = np.zeros((k, d), dtype=np.float64)
        for start in range(0, n, CHUNK):
            np.add.at(sums, assign[start:start + CHUNK],
                      points[start:start + CHUNK])
        safe = np.maximum(np.bincount(assign, minlength=k), 1).astype(np.float64)
        want = (sums / safe[:, None]).astype(np.float32)
        backwards = np.zeros((k, d), dtype=np.float64)
        np.add.at(backwards, assign[::-1], points[::-1])
        assert (backwards / safe[:, None]).astype(np.float32).tobytes() != \
            want.tobytes()  # the data sees order

        assign_pipe = Pipe("assign", capacity=2)
        centers_pipe = Pipe("centers_fb", capacity=1)

        def producer():
            for start in range(0, n, CHUNK):
                chunk = assign[start:start + CHUNK]
                yield from assign_pipe.write_blocking((start, chunk))

        centers_out = np.zeros((k, d), dtype=np.float32)
        assign_out = np.zeros(n, dtype=np.int32)
        graph = DataflowGraph()
        graph.add_kernel("mapCenters", producer)
        graph.add_kernel("resetAccFin", _reset_acc_fin_st, points, centers_out,
                         assign_out, assign_pipe, centers_pipe, n, k, d, 1)
        graph.run()
        assert centers_out.tobytes() == want.tobytes()
        assert assign_out.tobytes() == assign.tobytes()


class TestLavaMdDetails:
    def test_neighbourhood_interior_is_27(self):
        assert len(_neighbour_boxes(1, 1, 1, 3)) == 27

    def test_neighbourhood_corner_is_8(self):
        assert len(_neighbour_boxes(0, 0, 0, 3)) == 8

    def test_neighbourhood_face_counts(self):
        assert len(_neighbour_boxes(1, 1, 0, 3)) == 18

    def test_potential_positive(self):
        """exp(-u) * q with positive charges: potential must be > 0."""
        app = LavaMD()
        wl = app.generate(1, scale=0.25)
        v, _f = lavamd_reference(wl["rv"], wl["qv"], wl.params["boxes1d"])
        assert (v > 0).all()

    def test_self_interaction_included(self):
        """A single box still interacts with itself (the j == b term)."""
        rv = np.zeros((1, 2, 3), dtype=np.float32)
        rv[0, 1] = [1.0, 0.0, 0.0]
        qv = np.ones((1, 2), dtype=np.float32)
        v, f = lavamd_reference(rv, qv, nb=1)
        assert v[0, 0] > 1.0  # self term (w=1,q=1) plus the neighbour

    def test_symmetric_forces_cancel_on_pair(self):
        """Two identical particles: net force on the pair is zero."""
        rv = np.zeros((1, 2, 3), dtype=np.float32)
        rv[0, 1] = [0.5, 0.0, 0.0]
        qv = np.ones((1, 2), dtype=np.float32)
        _v, f = lavamd_reference(rv, qv, nb=1)
        np.testing.assert_allclose(f.sum(axis=(0, 1)), 0.0, atol=1e-6)


class TestMandelbrotDetails:
    def test_interior_point_never_escapes(self):
        counts = mandelbrot_reference(64, 64, max_iters=100)
        # c = 0 (image centre row, at x=0 within the view) never escapes
        xs = np.linspace(-2.0, 0.75, 64)
        col = int(np.argmin(np.abs(xs)))
        row = 32  # y ~ 0 slightly off-centre is fine: |c| small
        assert counts[row, col] == 100

    def test_far_exterior_escapes_fast(self):
        counts = mandelbrot_reference(64, 64, max_iters=100)
        assert counts[0, 0] <= 2  # corner: c ~ (-2, -1.375)

    def test_counts_bounded_by_cap(self):
        counts = mandelbrot_reference(32, 32, max_iters=17)
        assert counts.max() <= 17
        assert counts.min() >= 0

    def test_symmetry_about_real_axis(self):
        """The view is symmetric in y, so the image is too."""
        counts = mandelbrot_reference(33, 33, max_iters=64)
        np.testing.assert_array_equal(counts, counts[::-1, :])

    def test_workload_scaling_keeps_cap(self):
        app = Mandelbrot()
        w = app.generate(2, scale=0.01)
        assert w.params["max_iters"] == 256


def _masked_mandelbrot(width, height, max_iters):
    """The masked full-grid escape loop that the compacted
    ``mandelbrot_reference`` replaced, kept as its oracle."""
    x0, x1, y0, y1 = _VIEW
    xs = np.linspace(x0, x1, width, dtype=np.float32)
    ys = np.linspace(y0, y1, height, dtype=np.float32)
    cx = np.broadcast_to(xs[None, :], (height, width))
    cy = np.broadcast_to(ys[:, None], (height, width))
    zx = np.zeros((height, width), dtype=np.float32)
    zy = np.zeros((height, width), dtype=np.float32)
    counts = np.zeros((height, width), dtype=np.int32)
    active = np.ones((height, width), dtype=bool)
    two = np.float32(2.0)
    four = np.float32(4.0)
    for _ in range(max_iters):
        nzx = zx * zx - zy * zy + cx
        nzy = two * zx * zy + cy
        zx = np.where(active, nzx, zx)
        zy = np.where(active, nzy, zy)
        escaped = zx * zx + zy * zy > four
        active &= ~escaped
        counts[active] += 1
        if not active.any():
            break
    return counts


@pytest.mark.parametrize("max_iters", [0, 1, 17, 256])
@pytest.mark.parametrize("width,height", [(1, 1), (7, 13), (20, 20), (64, 33)])
def test_mandelbrot_reference_matches_masked_loop(width, height, max_iters):
    """The reference is also the vector kernel, so ``verify`` cannot
    catch a slip in it; pin it byte for byte to the masked loop."""
    got = mandelbrot_reference(width, height, max_iters)
    want = _masked_mandelbrot(width, height, max_iters)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
