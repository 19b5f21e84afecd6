"""Repeated launches behave exactly like the first one.

Every launch validates, selects its path and builds its work-groups
afresh (:func:`repro.sycl.executor.run_nd_range`), so a second launch of
a shape must give byte-identical outputs across the whole registry,
identical :class:`ExecutionStats`, the identical error, and the same
bytes when threads launch one kernel at once.
"""

import threading

import numpy as np
import pytest

from repro.altis import Variant
from repro.altis.registry import APP_FACTORIES, make_app
from repro.common.errors import KernelLaunchError
from repro.sycl import KernelSpec, NdRange, Queue, Range
from repro.sycl.executor import run_nd_range
from repro.sycl.ndrange import FenceSpace

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
    """Every registry config: a first run and a repeated run agree
    byte-for-byte."""
    cold = _run_config(config)
    warm = _run_config(config)
    assert set(cold) == set(warm)
    for key in cold:
        a, b = np.asarray(warm[key]), np.asarray(cold[key])
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), (
            f"{config}: output {key!r} differs between cold and warm runs")


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


def _triple():
    return KernelSpec(name="triple", item_fn=_add_item,
                      vector_fn=_add_vector)


def _stats_tuple(stats):
    return (stats.path, stats.items, stats.groups, stats.barrier_phases,
            stats.gen_advances)


class TestStatsParity:
    @pytest.mark.parametrize("path", ["vector", "item"])
    def test_plain_paths(self, path):
        mode = "auto" if path == "vector" else path
        nd = NdRange(Range(16), Range(4))
        out_c = np.zeros(16)
        out_w = np.zeros(16)
        # the repeated launch must report the same stats as the first
        cold = run_nd_range(_triple(), nd, (out_c,), mode=mode)
        warm = run_nd_range(_triple(), nd, (out_w,), mode=mode)
        assert _stats_tuple(warm) == _stats_tuple(cold)
        assert cold.path == path
        assert out_w.tobytes() == out_c.tobytes()

    @pytest.mark.parametrize("kernel", [
        KernelSpec(name="bi", item_fn=_barrier_item),
    ], ids=["item-generator"])
    def test_barrier_paths(self, kernel):
        # the first launch and the repeated one: same stats, same bytes
        nd = NdRange(Range(12), Range(4))
        out_c = np.zeros(12)
        out_w = np.zeros(12)
        cold = run_nd_range(kernel, nd, (out_c,), mode="item")
        warm = run_nd_range(kernel, nd, (out_w,), mode="item")
        assert _stats_tuple(warm) == _stats_tuple(cold)
        assert out_w.tobytes() == out_c.tobytes()
        np.testing.assert_array_equal(out_w, 2)


class TestCacheBehavior:
    def test_mode_errors_identical_cold_and_warm(self):
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

        k = KernelSpec(name="div", item_fn=diverge)
        nd = NdRange(Range(8), Range(4))
        for _ in range(3):  # every launch raises the same divergence error
            with pytest.raises(KernelLaunchError,
                               match="divergent barrier - only 2 of 4"):
                run_nd_range(k, nd, (np.zeros(8),), mode="item")


# ---------------------------------------------------------------------------
# concurrent launches from several threads
# ---------------------------------------------------------------------------

def _launch_pair() -> bytes:
    """Two barrier-kernel launches on a fresh output buffer."""
    out = np.zeros(16)
    nd = NdRange(Range(16), Range(4))
    k = KernelSpec(name="pool", item_fn=_barrier_item)
    run_nd_range(k, nd, (out,), mode="item")
    run_nd_range(k, nd, (out,), mode="item")
    return out.tobytes()


class TestConcurrentReuse:
    def test_threads_share_plans_safely(self):
        """Threads launching one kernel at once share no launch state:
        every launch builds its own work-groups."""
        expected = np.full(16, 6.0).tobytes()  # ((0+1)*2+1)*2
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
