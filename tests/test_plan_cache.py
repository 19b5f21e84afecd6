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

from repro.common.errors import KernelLaunchError
from repro.sycl import KernelSpec, NdRange, Range
from repro.sycl.executor import run_nd_range
from tests.test_differential_oracle import CONFIGS, check, digests, rerun
from tests.test_executor_fastpaths import (_add_vector, _pair_kernel,
                                          _phased_item)


@pytest.mark.parametrize("config", CONFIGS)
def test_goldens_byte_identical_with_plans(config):
    """Every registry config: a repeated run gives the oracle row's
    bytes."""
    outputs, _ = check(config, "reduced", "auto")
    assert digests(rerun(config, "reduced", "auto")[0]) == digests(outputs)


def _stats_tuple(stats):
    return (stats.path, stats.items, stats.groups, stats.barrier_phases)


class TestStatsParity:
    @pytest.mark.parametrize("path", ["vector", "item"])
    def test_plain_paths(self, path):
        mode = "auto" if path == "vector" else path
        nd = NdRange(Range(16), Range(4))
        out_c = np.zeros(16)
        out_w = np.zeros(16)
        # the repeated launch must report the same stats as the first
        cold = run_nd_range(_pair_kernel(), nd, (out_c,), mode=mode)
        warm = run_nd_range(_pair_kernel(), nd, (out_w,), mode=mode)
        assert _stats_tuple(warm) == _stats_tuple(cold)
        assert cold.path == path
        assert out_w.tobytes() == out_c.tobytes()

    @pytest.mark.parametrize("kernel", [
        KernelSpec(name="bi", item_fn=_phased_item),
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
    k = KernelSpec(name="pool", item_fn=_phased_item)
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
