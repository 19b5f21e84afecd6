"""Launch-plan compiler & warm-plan cache correctness.

The plan layer (:mod:`repro.sycl.plan`) must be invisible except for
speed: byte-identical outputs across the whole registry, identical
:class:`ExecutionStats`, identical error behavior, per-launch fault
injection, bounded memory, and safe concurrent reuse.
"""

import threading

import numpy as np
import pytest

from repro.altis import Variant
from repro.altis.registry import APP_FACTORIES, make_app
from repro.common.errors import KernelLaunchError
from repro.sycl import KernelSpec, NdRange, Queue, Range
from repro.sycl.executor import run_grid_synchronized, run_nd_range
from repro.sycl.ndrange import FenceSpace
from repro.sycl.plan import (
    clear_plan_caches,
    plan_cache_info,
    set_plan_cache_limit,
)

#: decomposed paths interpret every work-group, so the registry sweep
#: uses the same reduced scales as the differential kernel-form tests
_SCALES = {
    "CFD FP32": 0.0005, "CFD FP64": 0.0005,
    "DWT2D": 0.03, "FDTD2D": 0.02, "KMeans": 0.005,
    "LavaMD": 0.25, "Mandelbrot": 0.008, "NW": 0.008,
    "PF Naive": 0.03, "PF Float": 0.03,
    "Raytracing": 0.02, "SRAD": 0.008, "Where": 0.0002,
}


def _run_config(config: str):
    app = make_app(config)
    workload = app.generate(1, seed=0, scale=_SCALES[config])
    queue = Queue("rtx2080")
    return app.run_sycl(queue, workload, Variant.SYCL_OPT)


@pytest.mark.parametrize("config", sorted(APP_FACTORIES))
def test_goldens_byte_identical_with_plans(config):
    """Every registry config: a run that compiles its plans and a second
    run through the now-warm cache agree byte-for-byte."""
    clear_plan_caches()
    cold = _run_config(config)
    warm = _run_config(config)
    assert set(cold) == set(warm)
    for key in cold:
        a, b = np.asarray(warm[key]), np.asarray(cold[key])
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), (
            f"{config}: output {key!r} differs between cold and warm plans")


# ---------------------------------------------------------------------------
# kernels for the targeted tests
# ---------------------------------------------------------------------------

def _add_item(item, out):
    out[item.get_global_linear_id()] += 1


def _add_vector(nd_range, out):
    out[:nd_range.total_items()] += 1


def _barrier_item(item, out):
    out[item.get_global_linear_id()] += 1
    yield item.barrier(FenceSpace.LOCAL)
    out[item.get_global_linear_id()] *= 2


def _grid_item(item, out, tot):
    out[item.get_global_linear_id()] = 1
    yield item.barrier()
    tot[item.get_global_linear_id()] = out.sum()


def _triple():
    return KernelSpec(name="triple", item_fn=_add_item,
                      vector_fn=_add_vector)


def _stats_tuple(stats):
    return (stats.path, stats.items, stats.groups, stats.barrier_phases,
            stats.gen_advances)


class TestStatsParity:
    @pytest.mark.parametrize("mode", ["vector", "item"])
    def test_plain_paths(self, mode):
        clear_plan_caches()
        nd = NdRange(Range(16), Range(4))
        out_c = np.zeros(16)
        out_w = np.zeros(16)
        # the warm (cache-hit) launch must report the same stats as the
        # compile launch
        cold = run_nd_range(_triple(), nd, (out_c,), mode=mode)
        warm = run_nd_range(_triple(), nd, (out_w,), mode=mode)
        assert _stats_tuple(warm) == _stats_tuple(cold)
        assert out_w.tobytes() == out_c.tobytes()
        assert plan_cache_info()["hits"] >= 1

    @pytest.mark.parametrize("kernel", [
        KernelSpec(name="bi", item_fn=_barrier_item),
    ], ids=["item-generator"])
    def test_barrier_paths(self, kernel):
        # the cold launch runs the strict phase engine, the warm one the
        # lockstep fast path: same stats, same bytes
        clear_plan_caches()
        nd = NdRange(Range(12), Range(4))
        out_c = np.zeros(12)
        out_w = np.zeros(12)
        cold = run_nd_range(kernel, nd, (out_c,), force_item=True)
        warm = run_nd_range(kernel, nd, (out_w,), force_item=True)
        assert _stats_tuple(warm) == _stats_tuple(cold)
        assert out_w.tobytes() == out_c.tobytes()
        np.testing.assert_array_equal(out_w, 2)

    def test_grid_synchronized(self):
        clear_plan_caches()
        k = KernelSpec(name="grid", item_fn=_grid_item)
        nd = NdRange(Range(8), Range(4))
        tot_c = np.zeros(8)
        tot_w = np.zeros(8)
        cold = run_grid_synchronized(k, nd, (np.zeros(8), tot_c))
        warm = run_grid_synchronized(k, nd, (np.zeros(8), tot_w))
        assert _stats_tuple(warm) == _stats_tuple(cold)
        # the grid barrier interlocks all items: every cell sees the full
        # phase-one sum
        assert tot_w.tobytes() == tot_c.tobytes()
        np.testing.assert_array_equal(tot_w, 8)
        assert plan_cache_info()["hits"] >= 1


class TestCacheBehavior:
    def test_counters_and_clear(self):
        clear_plan_caches()
        info = plan_cache_info()
        assert (info["hits"], info["compiles"], info["size"]) == (0, 0, 0)
        nd = NdRange(Range(8), Range(4))
        out = np.zeros(8)
        for _ in range(3):
            run_nd_range(_triple(), nd, (out,))
        info = plan_cache_info()
        assert info["compiles"] == 1
        assert info["hits"] == 2
        assert info["size"] == 1
        clear_plan_caches()
        assert plan_cache_info()["size"] == 0

    def test_lru_bounded_under_distinct_ranges(self):
        clear_plan_caches()
        previous = set_plan_cache_limit(4)
        try:
            k = KernelSpec(name="many", vector_fn=_add_vector)
            for n in range(1, 13):
                run_nd_range(k, NdRange(Range(4 * n), Range(4)),
                             (np.zeros(4 * n),))
            info = plan_cache_info()
            assert info["size"] <= 4
            assert info["evictions"] >= 8
        finally:
            set_plan_cache_limit(previous)
            clear_plan_caches()

    def test_mode_errors_identical_cold_and_warm(self):
        clear_plan_caches()
        k = KernelSpec(name="vonly", vector_fn=_add_vector)
        nd = NdRange(Range(8), Range(4))
        messages = []
        for _ in range(2):
            with pytest.raises(KernelLaunchError, match="has no item_fn") \
                    as excinfo:
                run_nd_range(k, nd, (np.zeros(8),), mode="item")
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_divergence_detected_on_warm_plans(self):
        def diverge(item, out):
            if item.get_local_id(0) < 2:
                yield item.barrier()
            out[item.get_global_linear_id()] = 1

        clear_plan_caches()
        k = KernelSpec(name="div", item_fn=diverge)
        nd = NdRange(Range(8), Range(4))
        for _ in range(3):  # cold, then warm — same divergence error
            with pytest.raises(KernelLaunchError,
                               match="divergent barrier - only 2 of 4"):
                run_nd_range(k, nd, (np.zeros(8),), force_item=True)


# ---------------------------------------------------------------------------
# concurrent reuse from several threads
# ---------------------------------------------------------------------------

def _launch_pair() -> bytes:
    """One steady-state launch pair on a fresh output buffer."""
    out = np.zeros(16)
    nd = NdRange(Range(16), Range(4))
    k = KernelSpec(name="pool", item_fn=_add_item, vector_fn=_add_vector)
    run_nd_range(k, nd, (out,), force_item=True)
    run_nd_range(k, nd, (out,), force_item=True)
    return out.tobytes()


class TestConcurrentReuse:
    def test_threads_share_plans_safely(self):
        """Plans are process-wide but their pooled work-groups are
        per-thread, so threads launching one plan at once never share
        local memory."""
        clear_plan_caches()
        expected = np.full(16, 2.0).tobytes()
        results = [None] * 8

        def worker(first: int) -> None:
            for cell in range(first, 8, 4):
                results[cell] = _launch_pair()

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert results == [expected] * 8
        # 8 cells x 2 launches share one compiled plan
        info = plan_cache_info()
        assert info["compiles"] >= 1
        assert info["hits"] >= 8
