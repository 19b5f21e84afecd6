"""Executor fast paths: path selection, memoized index lattices, and
the shared barrier-phase engine at multi-group scale."""

import numpy as np
import pytest

from repro.common.errors import KernelLaunchError
from repro.sycl import KernelSpec, NdRange, Range
from repro.sycl.executor import (
    clear_execution_caches,
    execution_cache_info,
    run_grid_synchronized,
    run_nd_range,
)


def _add_item(item, out):
    out[item.get_global_linear_id()] += 1


def _add_vector(nd_range, out):
    out[:nd_range.total_items()] += 1


def _pair_kernel():
    return KernelSpec(name="pair", item_fn=_add_item, vector_fn=_add_vector)


class TestPathSelection:
    def test_vector_preferred_by_default(self):
        out = np.zeros(8)
        stats = run_nd_range(_pair_kernel(), NdRange(Range(8), Range(4)),
                             (out,))
        assert stats.path == "vector"
        np.testing.assert_array_equal(out, 1)

    def test_force_item_runs_items(self):
        # force_item pins the per-item interpreter, never the compiled
        # tier, although this item_fn is batchable
        out = np.zeros(8)
        stats = run_nd_range(_pair_kernel(), NdRange(Range(8), Range(4)),
                             (out,), force_item=True)
        assert stats.path == "item"
        assert stats.groups == 2 and stats.items == 8
        np.testing.assert_array_equal(out, 1)

    def test_force_item_without_group_fn_runs_items(self):
        k = KernelSpec(name="pair", item_fn=_add_item, vector_fn=_add_vector)
        out = np.zeros(8)
        stats = run_nd_range(k, NdRange(Range(8), Range(4)), (out,),
                             force_item=True)
        assert stats.path == "item"
        np.testing.assert_array_equal(out, 1)

    @pytest.mark.parametrize("mode", ["vector", "item", "compiled"])
    def test_explicit_mode_pins_path(self, mode):
        out = np.zeros(8)
        stats = run_nd_range(_pair_kernel(), NdRange(Range(8), Range(4)),
                             (out,), mode=mode)
        assert stats.path == mode
        np.testing.assert_array_equal(out, 1)

    def test_mode_missing_impl_raises(self):
        k = KernelSpec(name="vonly", vector_fn=_add_vector)
        with pytest.raises(KernelLaunchError, match="has no item_fn"):
            run_nd_range(k, NdRange(Range(8), Range(4)), (np.zeros(8),),
                         mode="item")

    def test_unknown_mode_raises(self):
        with pytest.raises(KernelLaunchError, match="unknown execution mode"):
            run_nd_range(_pair_kernel(), NdRange(Range(8), Range(4)),
                         (np.zeros(8),), mode="warp")

    def test_force_item_without_any_decomposed_impl_raises(self):
        k = KernelSpec(name="vonly", vector_fn=_add_vector)
        with pytest.raises(KernelLaunchError, match="has no item_fn"):
            run_nd_range(k, NdRange(Range(8), Range(4)), (np.zeros(8),),
                         force_item=True)


class TestMemoizedLattices:
    def test_repeat_launches_hit_the_cache(self):
        # A plan looks the lattice up once, on its first per-item run;
        # another plan of the same shape hits the lru cache, and warm
        # launches hit the plan cache and touch no lru at all.
        from repro.sycl.plan import clear_plan_caches, plan_cache_info

        clear_execution_caches()
        clear_plan_caches()
        k = KernelSpec(name="items", item_fn=_add_item)
        out = np.zeros(16)
        nd = NdRange(Range(16), Range(4))
        run_nd_range(k, nd, (out,))
        # the compiled plan consults the lattice exactly once, from the
        # one-shot shadow-validation interpreter run: neither the plan
        # nor the compiled tier's lane tables look it up
        lattice = execution_cache_info()["nd_lattice"]
        assert (lattice.hits, lattice.misses) == (0, 1)
        run_nd_range(k, nd, (out,), mode="item")
        assert execution_cache_info()["nd_lattice"].hits == 1
        for mode in (None, "item"):
            run_nd_range(k, NdRange(Range(16), Range(4)), (out,), mode=mode)
            run_nd_range(k, nd, (out,), mode=mode)
        assert plan_cache_info()["hits"] == 4
        # warm planned launches hold the lattice reference: zero lru traffic
        lattice = execution_cache_info()["nd_lattice"]
        assert (lattice.hits, lattice.misses) == (1, 1)
        np.testing.assert_array_equal(out, 6)

    def test_memoized_grid_2d_correctness(self):
        seen = []

        def probe(item, _):
            seen.append((item.get_global_id(0), item.get_global_id(1),
                         item.get_local_id(0), item.get_local_id(1)))

        k = KernelSpec(name="probe", item_fn=probe)
        for _ in range(2):  # second launch served from the cache
            seen.clear()
            run_nd_range(k, NdRange(Range(4, 4), Range(2, 2)), (None,))
            assert len(seen) == 16
            assert len(set(seen)) == 16
            assert all(g0 % 2 == l0 and g1 % 2 == l1
                       for g0, g1, l0, l1 in seen)


def _divergent_item(item, out):
    # only the first half of each work-group reaches the barrier
    if item.get_local_id(0) < 4:
        yield item.barrier()
    out[item.get_global_linear_id()] = 1


class TestBarrierPhaseEngine:
    def test_divergent_barrier_multi_group(self):
        k = KernelSpec(name="div", item_fn=_divergent_item)
        with pytest.raises(KernelLaunchError,
                           match="divergent barrier - only 4 of 8"):
            run_nd_range(k, NdRange(Range(16), Range(8)),
                         (np.zeros(16),), force_item=True)

    def test_divergent_grid_barrier_multi_group(self):
        def diverge(item, out):
            if item.get_global_linear_id() < 12:
                yield item.barrier()
            out[item.get_global_linear_id()] = 1

        k = KernelSpec(name="gdiv", item_fn=diverge)
        with pytest.raises(KernelLaunchError,
                           match="divergent grid barrier - only 12 of 16"):
            run_grid_synchronized(k, NdRange(Range(16), Range(4)),
                                  (np.zeros(16),))


class TestQueueCounters:
    def test_counters_accumulate_and_reset(self):
        from repro.sycl import Queue

        q = Queue("rtx2080")
        out = np.zeros(8)
        q.parallel_for(NdRange(Range(8), Range(4)), _pair_kernel(), out)
        q.parallel_for(NdRange(Range(8), Range(4)), _pair_kernel(), out,
                       force_item=True)
        q.parallel_for(NdRange(Range(8), Range(4)), _pair_kernel(), out,
                       mode="item")
        c = q.counters
        assert c.kernel_launches == 3
        assert c.items == 24 and c.groups == 6
        assert c.path_counts == {"vector": 1, "item": 2}
        q.reset_timeline()
        assert q.counters.kernel_launches == 0
        assert q.counters.path_counts == {}

    def test_memcpy_counters(self):
        from repro.sycl import Queue

        q = Queue("rtx2080")
        dst = np.zeros(8, dtype=np.float32)
        src = np.ones(8, dtype=np.float32)
        q.memcpy(dst, src)
        assert q.counters.memcpy_ops == 1
        assert q.counters.h2d_bytes == 32


def _phased_item(item, out):
    out[item.get_global_linear_id()] += 1
    yield item.barrier()
    out[item.get_global_linear_id()] *= 2


class TestOneLaunchPath:
    @pytest.mark.parametrize("how", ["queue", "run_nd_range", "cli"])
    def test_group_mode_is_rejected(self, how, capsys):
        from repro.common.errors import InvalidParameterError
        from repro.harness.cli import main
        from repro.sycl import Queue

        if how == "queue":
            with pytest.raises(InvalidParameterError,
                               match="unknown default_mode 'group'"):
                Queue("rtx2080", default_mode="group")
        elif how == "run_nd_range":
            with pytest.raises(KernelLaunchError,
                               match="unknown execution mode 'group'"):
                run_nd_range(_pair_kernel(), NdRange(Range(8), Range(4)),
                             (np.zeros(8),), mode="group")
        else:
            with pytest.raises(SystemExit) as excinfo:
                main(["run", "NW", "--mode", "group", "--quiet"])
            assert excinfo.value.code == 2
            assert "invalid choice: 'group'" in capsys.readouterr().err

    def test_traced_and_untraced_launches_agree(self):
        """Tracing wraps the plan's own runners: a barrier item_fn gives
        the same buffers and stats traced or not, and its cold (strict)
        and warm traced launches record the same span names."""
        from repro.sycl.plan import clear_plan_caches
        from repro.trace import tracing

        k = KernelSpec(name="phased", item_fn=_phased_item)
        nd = NdRange(Range(12), Range(4))

        def cold_then_warm():
            clear_plan_caches()
            runs = []
            for _ in range(2):
                out = np.zeros(12)
                stats = run_nd_range(k, nd, (out,), mode="item")
                runs.append((out.tobytes(), repr(stats)))
            return runs

        plain = cold_then_warm()
        with tracing() as tracer:
            traced = cold_then_warm()
            events = tracer.events()
        assert traced == plain
        assert "barrier_phases=3" in plain[1][1]
        names = [ev.name for ev in events
                 if ev.cat in ("kernel-form", "barrier-phase")]
        assert names.count("phased:item") == 2
        assert names.count("phased:barrier-phase") == 12
        assert names[:len(names) // 2] == names[len(names) // 2:]
