"""The executor's path selection, memoized index lattices, the
barrier-phase engine at multi-group scale and the launch totals a
queue's timeline folds to."""

import numpy as np
import pytest

from repro.common.errors import KernelLaunchError
from repro.sycl import KernelSpec, NdRange, Range
from repro.sycl.executor import (
    clear_execution_caches,
    execution_cache_info,
    run_nd_range,
)
from tests.launch_totals import fold_timeline


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
        # item mode forces the per-item interpreter although the kernel
        # has a vector_fn
        out = np.zeros(8)
        stats = run_nd_range(_pair_kernel(), NdRange(Range(8), Range(4)),
                             (out,), mode="item")
        assert stats.path == "item"
        assert stats.groups == 2 and stats.items == 8
        np.testing.assert_array_equal(out, 1)

    def test_force_item_without_group_fn_runs_items(self):
        # an item-only kernel forced to items stays on the interpreter
        k = KernelSpec(name="items", item_fn=_add_item)
        out = np.zeros(8)
        stats = run_nd_range(k, NdRange(Range(8), Range(4)), (out,),
                             mode="item")
        assert stats.path == "item"
        np.testing.assert_array_equal(out, 1)

    @pytest.mark.parametrize("path", ["vector", "item"])
    def test_explicit_mode_pins_path(self, path):
        # auto is the mode that runs a vector_fn
        mode = "auto" if path == "vector" else path
        out = np.zeros(8)
        stats = run_nd_range(_pair_kernel(), NdRange(Range(8), Range(4)),
                             (out,), mode=mode)
        assert stats.path == path
        np.testing.assert_array_equal(out, 1)

    def test_auto_mode_without_vector_fn_runs_items(self):
        # without a vector_fn auto runs the item_fn per item
        k = KernelSpec(name="items", item_fn=_add_item)
        out = np.zeros(8)
        stats = run_nd_range(k, NdRange(Range(8), Range(4)), (out,))
        assert stats.path == "item"
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



class TestMemoizedLattices:
    def test_repeat_launches_hit_the_cache(self):
        # Every per-item launch looks its lattice up: the first one of
        # a shape builds it, every later one (either mode) hits it.
        clear_execution_caches()
        k = KernelSpec(name="items", item_fn=_add_item)
        out = np.zeros(16)
        nd = NdRange(Range(16), Range(4))
        run_nd_range(k, nd, (out,), mode="item")
        assert execution_cache_info()["nd_lattice"].misses == 1
        run_nd_range(k, nd, (out,))  # auto, no vector_fn: same lattice
        assert execution_cache_info()["nd_lattice"].hits == 1
        for mode in ("auto", "item"):
            run_nd_range(k, NdRange(Range(16), Range(4)), (out,), mode=mode)
            run_nd_range(k, nd, (out,), mode=mode)
        lattice = execution_cache_info()["nd_lattice"]
        assert (lattice.hits, lattice.misses) == (5, 1)
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
                         (np.zeros(16),), mode="item")

    def test_warm_launch_checks_tokens(self):
        # cold and warm launches run the one engine, so a warm launch
        # rejects a non-barrier yield as the first launch does
        def body(item, bad):
            yield 42 if bad else item.barrier()

        k = KernelSpec(name="tokens", item_fn=body)
        nd = NdRange(Range(8), Range(4))
        run_nd_range(k, nd, (False,), mode="item")
        with pytest.raises(KernelLaunchError, match="yield item.barrier"):
            run_nd_range(k, nd, (True,), mode="item")


class TestQueueCounters:
    def test_counters_accumulate_and_reset(self):
        from repro.sycl import Queue

        # the queue's mode covers every launch; a kernel without an
        # item_fn runs its vector_fn under item mode too
        q = Queue("rtx2080", default_mode="item")
        out = np.zeros(8)
        q.parallel_for(NdRange(Range(8), Range(4)),
                       KernelSpec(name="vonly", vector_fn=_add_vector), out)
        q.parallel_for(NdRange(Range(8), Range(4)), _pair_kernel(), out)
        q.parallel_for(NdRange(Range(8), Range(4)), _pair_kernel(), out)
        c = fold_timeline(q)
        assert c.items == 24 and c.groups == 6
        assert c.path_counts == {"vector": 1, "item": 2}
        q.reset_timeline()
        assert fold_timeline(q) == ({}, 0, 0, 0)


def _phased_item(item, out):
    out[item.get_global_linear_id()] += 1
    yield item.barrier()
    out[item.get_global_linear_id()] *= 2


class TestOneLaunchPath:
    @pytest.mark.parametrize("how", ["queue", "run_nd_range", "cli"])
    def test_group_mode_is_rejected(self, how, capsys):
        self._rejects("group", how, capsys)

    @pytest.mark.parametrize("how", ["queue", "run_nd_range", "cli"])
    def test_vector_mode_is_rejected(self, how, capsys):
        # auto already runs every vector_fn
        self._rejects("vector", how, capsys)

    @staticmethod
    def _rejects(mode, how, capsys):
        from repro.common.errors import InvalidParameterError
        from repro.harness.cli import main
        from repro.sycl import Queue

        if how == "queue":
            with pytest.raises(InvalidParameterError,
                               match=f"unknown default_mode '{mode}'"):
                Queue("rtx2080", default_mode=mode)
        elif how == "run_nd_range":
            with pytest.raises(KernelLaunchError,
                               match=f"unknown execution mode '{mode}'"):
                run_nd_range(_pair_kernel(), NdRange(Range(8), Range(4)),
                             (np.zeros(8),), mode=mode)
        else:
            with pytest.raises(SystemExit) as excinfo:
                main(["run", "NW", "--mode", mode, "--quiet"])
            assert excinfo.value.code == 2
            assert f"invalid choice: '{mode}'" in capsys.readouterr().err

    def test_compiled_is_auto_at_the_queue_only(self):
        # the queue is the one place that reads "compiled" as "auto"; the
        # executor knows only auto and item
        from repro.sycl import Queue

        q = Queue("rtx2080", default_mode="compiled")
        assert q.default_mode == "auto"
        out = np.zeros(8)
        q.parallel_for(NdRange(Range(8), Range(4)), _pair_kernel(), out)
        assert [entry.stats.path for entry in q.timeline] == ["vector"]
        with pytest.raises(KernelLaunchError,
                           match="unknown execution mode 'compiled'"):
            run_nd_range(_pair_kernel(), NdRange(Range(8), Range(4)),
                         (out,), mode="compiled")

    def test_traced_and_untraced_launches_agree(self):
        """Tracing wraps the same launch: a barrier item_fn gives the
        same buffers and stats traced or not, and its first and repeated
        traced launches record the same span names."""
        from repro.trace import tracing

        k = KernelSpec(name="phased", item_fn=_phased_item)
        nd = NdRange(Range(12), Range(4))

        def cold_then_warm():
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
