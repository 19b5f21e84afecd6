"""Unit tests for pipes and the cooperative dataflow scheduler."""

import pytest

from repro.common.errors import (DataflowDeadlockError, KernelLaunchError,
                                 PipeError)
from repro.perfmodel import KernelProfile
from repro.sycl import DataflowGraph, KernelKind, KernelSpec, Pipe, Queue


class TestPipePrimitives:
    def test_fifo_order(self):
        p = Pipe(capacity=4)
        for i in range(4):
            p.try_write(i)
        assert [p.try_read() for _ in range(4)] == [0, 1, 2, 3]

    def test_capacity_enforced(self):
        p = Pipe(capacity=2)
        p.try_write(1)
        p.try_write(2)
        with pytest.raises(PipeError):
            p.try_write(3)

    def test_empty_read_raises(self):
        with pytest.raises(PipeError):
            Pipe().try_read()

    def test_zero_capacity_promoted_to_one(self):
        assert Pipe(capacity=0).capacity == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(PipeError):
            Pipe(capacity=-1)

    def test_occupancy_telemetry(self):
        p = Pipe(capacity=8)
        p.try_write(1)
        p.try_write(2)
        p.try_read()
        assert p.total_writes == 2
        assert p.total_reads == 1
        assert p.max_occupancy == 2


class TestDataflow:
    def test_producer_consumer(self):
        p = Pipe("data", capacity=2)
        out = []

        def producer():
            for i in range(20):
                yield from p.write_blocking(i)

        def consumer():
            for _ in range(20):
                v = yield from p.read_blocking()
                out.append(v)

        g = DataflowGraph()
        g.add_kernel("producer", producer)
        g.add_kernel("consumer", consumer)
        g.run()
        assert out == list(range(20))

    def test_backpressure_with_tiny_pipe(self):
        """A capacity-1 pipe forces strict alternation and still drains."""
        p = Pipe(capacity=1)
        out = []

        def producer():
            for i in range(50):
                yield from p.write_blocking(i)

        def consumer():
            for _ in range(50):
                out.append((yield from p.read_blocking()))

        g = DataflowGraph()
        g.add_kernel("prod", producer)
        g.add_kernel("cons", consumer)
        g.run()
        assert out == list(range(50))
        assert p.max_occupancy == 1

    def test_feedback_loop(self):
        """The KMeans topology (Fig. 3b): results fed back upstream."""
        fwd = Pipe("fwd", capacity=4)
        back = Pipe("back", capacity=4)
        final = []

        def stage_a():
            value = 1
            for _ in range(10):
                yield from fwd.write_blocking(value)
                value = yield from back.read_blocking()
            final.append(value)

        def stage_b():
            for _ in range(10):
                v = yield from fwd.read_blocking()
                yield from back.write_blocking(v + 1)

        g = DataflowGraph()
        g.add_kernel("a", stage_a)
        g.add_kernel("b", stage_b)
        g.run()
        assert final == [11]

    def test_three_stage_pipeline(self):
        p1, p2 = Pipe("p1", 2), Pipe("p2", 2)
        out = []

        def src():
            for i in range(8):
                yield from p1.write_blocking(i)

        def mid():
            for _ in range(8):
                v = yield from p1.read_blocking()
                yield from p2.write_blocking(v * v)

        def sink():
            for _ in range(8):
                out.append((yield from p2.read_blocking()))

        g = DataflowGraph()
        for name, fn in (("src", src), ("mid", mid), ("sink", sink)):
            g.add_kernel(name, fn)
        g.run()
        assert out == [i * i for i in range(8)]

    def test_plain_function_kernel_allowed(self):
        hits = []
        g = DataflowGraph()
        g.add_kernel("plain", lambda: hits.append(1))
        g.run()
        assert hits == [1]

    def test_deadlock_detected(self):
        p = Pipe("starved", capacity=1)

        def starving():
            yield from p.read_blocking()

        g = DataflowGraph()
        g.add_kernel("s", starving)
        with pytest.raises(DataflowDeadlockError, match="deadlock"):
            g.run()

    def test_mutual_deadlock_detected(self):
        a, b = Pipe("a", 1), Pipe("b", 1)

        def k1():
            yield from a.read_blocking()
            yield from b.write_blocking(1)

        def k2():
            yield from b.read_blocking()
            yield from a.write_blocking(1)

        g = DataflowGraph()
        g.add_kernel("k1", k1)
        g.add_kernel("k2", k2)
        with pytest.raises(DataflowDeadlockError):
            g.run()

    def test_resumption_counts_returned(self):
        p = Pipe(capacity=1)

        def prod():
            for i in range(3):
                yield from p.write_blocking(i)

        def cons():
            for _ in range(3):
                yield from p.read_blocking()

        g = DataflowGraph()
        g.add_kernel("prod", prod)
        g.add_kernel("cons", cons)
        counts = g.run()
        assert set(counts) == {"prod", "cons"}
        assert all(v >= 1 for v in counts.values())


class TestQueueDataflow:
    def _pair(self):
        p = Pipe("data", capacity=1)
        out = []

        def producer(n):
            for i in range(n):
                yield from p.write_blocking(i)

        def consumer(n):
            for _ in range(n):
                out.append((yield from p.read_blocking()))

        prod = KernelSpec(name="prod", kind=KernelKind.SINGLE_TASK,
                          item_fn=producer)
        cons = KernelSpec(name="cons", kind=KernelKind.SINGLE_TASK,
                          item_fn=consumer)
        return prod, cons, out

    def test_kernels_run_together_and_are_booked(self):
        prod, cons, out = self._pair()
        q = Queue("stratix10")
        prof = KernelProfile(name="stream", flops=5, global_bytes=40)
        events = q.dataflow((prod, (5,), prof), (cons, (5,), prof))
        assert out == [0, 1, 2, 3, 4]
        assert [ev.name for ev in events] == ["prod", "cons"]
        assert [entry.stats.path for entry in q.timeline] == [
            "single_task", "single_task"]
        assert q.kernel_time_s() > 0

    def test_a_pipe_kernel_alone_blocks_in_single_task(self):
        prod, _, _ = self._pair()
        with pytest.raises(KernelLaunchError, match="Queue.dataflow"):
            Queue("stratix10").single_task(prod, 5)

    def test_nd_range_kernel_rejected(self):
        nd = KernelSpec(name="nd", vector_fn=lambda nd: None)
        with pytest.raises(KernelLaunchError, match="not single-task"):
            Queue("stratix10").dataflow((nd, (), None))
