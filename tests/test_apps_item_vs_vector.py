"""Cross-validation: per-work-item kernels (the 'real' SYCL semantics,
with generator barriers) must agree with the numpy fast paths, byte for
byte except LavaMD, whose vector form reduces through ``einsum`` and
``.sum`` in an order a per-item loop does not reproduce.

NW, SRAD and KMeans are parametrized over both forms an ``item_fn``
runs in — ``mode="item"`` (the strict per-item interpreter) and
``mode="compiled"`` (the batched program shadow-validated against it)."""

import numpy as np
import pytest

from repro.altis import Variant
from repro.sycl import NdRange, Range
from repro.sycl.local_memory import LocalAccessor
from repro.sycl.executor import run_nd_range


class TestMandelbrotItemPath:
    def test_bit_identical(self):
        from repro.altis.mandelbrot import Mandelbrot

        app = Mandelbrot()
        wl = app.generate(1, scale=0.008)
        p = wl.params
        out = wl["out"]
        k = app.kernels()["ndrange"]
        gw = -(-p["width"] // 16) * 16
        run_nd_range(k, NdRange(Range(p["height"], gw), Range(1, 16)),
                     (out, p["width"], p["height"], p["max_iters"]),
                     mode="item")
        np.testing.assert_array_equal(out, app.reference(wl)["out"])


class TestNwItemPath:
    @pytest.mark.parametrize("mode", ["item", "compiled"])
    def test_blocked_wavefront_with_barriers(self, mode):
        from repro.altis.nw import NW, _similarity

        app = NW()
        wl = app.generate(1, scale=0.008)
        p = wl.params
        n, block, penalty = p["n"], p["block"], p["penalty"]
        nb = n // block
        score = wl["score"]
        score[0, :] = -penalty * np.arange(n + 1)
        score[:, 0] = -penalty * np.arange(n + 1)
        sim = _similarity(wl["seq_a"], wl["seq_b"], wl["blosum"]).astype(np.int32)
        kern = app.kernels()["needle_block"]
        tile = LocalAccessor((block + 1, block + 1), np.int32)
        for d in range(2 * nb - 1):
            blocks = (d + 1) if d < nb else (2 * nb - 1 - d)
            stats = run_nd_range(
                kern, NdRange(Range(blocks * block), Range(block)),
                (score, sim, tile, penalty, d, nb, n, block), mode=mode)
            assert stats.path == mode
            # both forms honor the same phase structure: per group, one
            # staging barrier + one per tile anti-diagonal
            assert stats.barrier_phases == 2 * block * stats.groups
        np.testing.assert_array_equal(score, app.reference(wl)["score"])


class TestKMeansItemPath:
    @pytest.mark.parametrize("mode", ["item", "compiled"])
    def test_map_centers(self, mode):
        from repro.altis.kmeans import KMeans, _assign_points

        app = KMeans()
        wl = app.generate(1, scale=0.005)
        p = wl.params
        points, centers = wl["points"], wl["centers0"]
        n, k, d = p["n"], p["k"], p["d"]
        assign = np.zeros(n, dtype=np.int32)
        kern = app.kernels()["mapCenters"]
        wg = 16
        gn = -(-n // wg) * wg
        stats = run_nd_range(kern, NdRange(Range(gn), Range(wg)),
                             (points, centers, assign, n, k, d), mode=mode)
        assert stats.path == mode
        np.testing.assert_array_equal(assign, _assign_points(points, centers))


class TestSradItemPath:
    @pytest.mark.parametrize("mode", ["item", "compiled"])
    def test_both_kernels(self, mode):
        from repro.altis.srad import Srad

        app = Srad()
        wl = app.generate(1, scale=0.008)
        p = wl.params
        rows, cols = p["rows"], p["cols"]
        img = wl["img"].astype(np.float32).copy()
        arrays = [np.zeros_like(img) for _ in range(5)]
        ks = app.kernels()
        wg = 8
        nd = NdRange(Range(-(-rows // wg) * wg, -(-cols // wg) * wg),
                     Range(wg, wg))
        for _ in range(p["iterations"]):
            mean, var = img.mean(), img.var()
            q0 = var / (mean * mean)
            run_nd_range(ks["srad1"], nd, (img, *arrays, q0, rows, cols),
                         mode=mode)
            run_nd_range(ks["srad2"], nd, (img, *arrays, p["lam"], rows, cols),
                         mode=mode)
        np.testing.assert_array_equal(img, app.reference(wl)["img"],
                                      strict=True)


class TestFdtdItemPath:
    def test_three_kernels(self):
        from repro.altis.fdtd2d import FdTd2D

        app = FdTd2D()
        wl = app.generate(1, scale=0.02)
        p = wl.params
        n = p["n"]
        ez, hx, hy = wl["ez"], wl["hx"], wl["hy"]
        ks = app.kernels()
        nd = NdRange(Range(n, n), Range(1, n))
        for t in range(p["steps"]):
            run_nd_range(ks["update_hx"], nd, (ez, hx, n), mode="item")
            run_nd_range(ks["update_hy"], nd, (ez, hy, n), mode="item")
            run_nd_range(ks["update_ez"], nd, (ez, hx, hy, n, t), mode="item")
        exp = app.reference(wl)
        np.testing.assert_array_equal(ez, exp["ez"], strict=True)


class TestCfdItemPath:
    @pytest.mark.parametrize("fp64", [False, True])
    def test_flux_kernel(self, fp64):
        from repro.altis.cfd import _FARFIELD, Cfd

        app = Cfd(fp64=fp64)
        wl = app.generate(1, scale=0.0005)
        p = wl.params
        nel = p["nel"]
        var = wl["variables"].copy()
        out = wl["out"]
        kern = app.kernels()["compute_flux"]
        farfield = np.asarray(_FARFIELD, dtype=var.dtype)
        wg = 16
        gn = -(-nel // wg) * wg
        for _ in range(p["iterations"]):
            run_nd_range(kern, NdRange(Range(gn), Range(wg)),
                         (var, wl["neighbours"], wl["normals"], farfield, out,
                          nel, p["dt"]), mode="item")
            var, out = out.copy(), var
        np.testing.assert_array_equal(var, app.reference(wl)["variables"],
                                      strict=True)


class TestLavaMdItemPath:
    def test_interactions(self):
        from repro.altis.lavamd import LavaMD

        app = LavaMD()
        wl = app.generate(1, scale=0.25)
        p = wl.params
        wg = p["par"]
        boxes = p["boxes1d"] ** 3
        kern = app.kernels()["lavamd_kernel"]
        run_nd_range(kern, NdRange(Range(boxes * wg), Range(wg)),
                     (wl["rv"], wl["qv"], wl["v"], wl["f"], p["boxes1d"],
                      p["par"]), mode="item")
        exp = app.reference(wl)
        np.testing.assert_allclose(wl["v"], exp["v"], rtol=1e-3, atol=1e-4)
        np.testing.assert_allclose(wl["f"], exp["f"], rtol=1e-3, atol=1e-4)


class TestWhereItemPath:
    def test_mark_and_scatter(self):
        from repro.altis.where import Where

        app = Where()
        wl = app.generate(1, scale=0.0002)
        p = wl.params
        n = p["n"]
        records, flags = wl["records"], wl["flags"]
        prefix, out = wl["prefix"], wl["out"]
        ks = app.kernels()
        wg = 32
        gn = -(-n // wg) * wg
        nd = NdRange(Range(gn), Range(wg))
        run_nd_range(ks["mark"], nd, (records, flags, n, p["threshold"]),
                     mode="item")
        prefix[1:n] = np.cumsum(flags[:n - 1])
        run_nd_range(ks["scatter"], nd, (records, flags, prefix, out, n),
                     mode="item")
        exp = app.reference(wl)
        n_match = int(flags[:n].sum())
        np.testing.assert_array_equal(out[:n_match], exp["matched"])


class TestPfItemPath:
    def test_find_index_linear_search(self):
        from repro.altis.particlefilter import (_find_index_item,
                                                _find_index_vector)
        from repro.sycl import KernelSpec

        rng = np.random.default_rng(3)
        n = 64
        w = rng.random(n)
        cdf = np.cumsum(w / w.sum())
        u = np.sort(rng.random(n))
        got = np.zeros(n, dtype=np.int64)
        k = KernelSpec(name="fi", item_fn=_find_index_item)
        run_nd_range(k, NdRange(Range(n), Range(16)), (cdf, u, got, n),
                     mode="item")
        want = np.zeros(n, dtype=np.int64)
        _find_index_vector(None, cdf, u, want, n)
        np.testing.assert_array_equal(got, want)


class TestDwtItemPath:
    def test_row_and_col_kernels(self):
        from repro.altis.dwt2d import Dwt2D

        app = Dwt2D()
        wl = app.generate(1, scale=0.03)
        p = wl.params
        data = wl["img"].astype(np.int64).copy()
        tmp = wl["tmp"]
        ks = app.kernels()
        ch = cw = p["h"]
        for _ in range(p["levels"]):
            run_nd_range(ks["fdwt53_rows"], NdRange(Range(ch), Range(min(8, ch))),
                         (data, tmp, ch, cw), mode="item")
            run_nd_range(ks["fdwt53_cols"], NdRange(Range(cw), Range(min(8, cw))),
                         (tmp, data, ch, cw), mode="item")
            ch //= 2
            cw //= 2
        np.testing.assert_array_equal(data, app.reference(wl)["coeffs"])
